//! `cargo xtask analyze` — the SPMD collective-safety static analyzer
//! (DESIGN.md §8 and §10).
//!
//! One serial run over every library source: each file is read, scanned
//! into a [`CodeModel`] and reduced to its call-graph [`FileSummary`]; the
//! summaries merge into a [`CallGraph`], the collective fact propagates to
//! a fixpoint, and [`collective_order`] runs over the whole graph.
//!
//! Exit code is non-zero on any diagnostic. `--format sarif` emits SARIF
//! 2.1.0 for GitHub code scanning ([`crate::sarif`]). `--stats` prints the
//! call-graph counters and the wall time to stderr — the CI lint job logs
//! it so analyzer precision regressions (unresolved-call growth) are
//! visible in history.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use crate::callgraph::{propagate, CallGraph, FileSummary};
use crate::collective_order::{collective_order, Diagnostic, RULE};
use crate::library_src_files;
use crate::scanner::CodeModel;

/// Counters from one analysis run, surfaced by `--stats`.
#[derive(Debug, Default, Clone)]
pub struct AnalysisStats {
    /// Files analyzed.
    pub files: usize,
    /// Call-graph nodes (functions).
    pub graph_nodes: usize,
    /// Call-graph edges (call sites).
    pub graph_edges: usize,
    /// Call sites linked to exactly one definition.
    pub resolved_calls: usize,
    /// Call sites linked to several candidates (over-approximated).
    pub ambiguous_calls: usize,
    /// Call sites with no workspace definition.
    pub external_calls: usize,
}

impl AnalysisStats {
    /// The `--stats` line (also what CI logs).
    pub fn render(&self) -> String {
        format!(
            "{} files scanned, \
             call graph: {} nodes / {} edges ({} resolved, {} ambiguous, {} external calls)",
            self.files,
            self.graph_nodes,
            self.graph_edges,
            self.resolved_calls,
            self.ambiguous_calls,
            self.external_calls,
        )
    }
}

const USAGE: &str = "usage: cargo xtask analyze [--format text|sarif] [--stats]";

/// CLI entry point for `cargo xtask analyze`.
pub fn analyze(repo: &Path, args: &[String]) -> ExitCode {
    let mut sarif = false;
    let mut show_stats = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => match it.next().map(String::as_str) {
                Some("sarif") => sarif = true,
                Some("text") => sarif = false,
                other => {
                    eprintln!(
                        "analyze: --format expects `text` or `sarif`, got {:?}\n{USAGE}",
                        other.unwrap_or("<nothing>")
                    );
                    return ExitCode::FAILURE;
                }
            },
            "--format=sarif" => sarif = true,
            "--format=text" => sarif = false,
            "--stats" => show_stats = true,
            other => {
                eprintln!("analyze: unknown argument `{other}`\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }

    let files = match library_src_files(repo) {
        Ok(files) => files,
        Err(e) => {
            eprintln!("analyze: could not walk the library sources: {e}");
            return ExitCode::FAILURE;
        }
    };
    #[expect(
        clippy::disallowed_methods,
        reason = "the wall time is printed by --stats and never reaches a finding"
    )]
    let started = std::time::Instant::now();
    let (diagnostics, stats) = match analyze_files_with(repo, &files) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("analyze: {e}");
            return ExitCode::FAILURE;
        }
    };
    let elapsed_ms = started.elapsed().as_millis();

    if sarif {
        // stdout on purpose (the machine-readable surface); the clippy
        // print_stdout deny is satisfied by writing the handle directly.
        let mut stdout = std::io::stdout();
        if writeln!(stdout, "{}", crate::sarif::to_sarif(&diagnostics)).is_err() {
            return ExitCode::FAILURE;
        }
    } else {
        for d in &diagnostics {
            eprintln!("analyze: {}:{}: [{RULE}] {}", d.file, d.line, d.message);
        }
        eprintln!(
            "analyze: {} files, {} diagnostics",
            stats.files,
            diagnostics.len()
        );
    }
    if show_stats {
        eprintln!(
            "analyze: stats: {}, elapsed {elapsed_ms} ms",
            stats.render()
        );
    }

    if diagnostics.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs the analysis over `files` (paths made repo-relative against `repo`
/// for diagnostics). This is the library surface the fixture and property
/// tests drive directly.
pub fn analyze_files_with(
    repo: &Path,
    files: &[PathBuf],
) -> Result<(Vec<Diagnostic>, AnalysisStats), std::io::Error> {
    let summaries = files
        .iter()
        .map(|file| {
            let rel = file
                .strip_prefix(repo)
                .unwrap_or(file)
                .to_string_lossy()
                .replace('\\', "/");
            let src = std::fs::read_to_string(file)?;
            Ok(FileSummary::extract(&rel, &CodeModel::build(&src)))
        })
        .collect::<Result<Vec<_>, std::io::Error>>()?;
    let stats_files = summaries.len();
    let graph = CallGraph::build(summaries);
    let facts = propagate(&graph);
    let stats = AnalysisStats {
        files: stats_files,
        graph_nodes: graph.nodes.len(),
        graph_edges: graph.edge_count(),
        resolved_calls: graph.resolved_calls,
        ambiguous_calls: graph.ambiguous_calls,
        external_calls: graph.external_calls,
    };
    Ok((collective_order(&graph, &facts), stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_render_reports_graph_counts() {
        let stats = AnalysisStats {
            files: 4,
            graph_nodes: 10,
            graph_edges: 20,
            resolved_calls: 15,
            ambiguous_calls: 2,
            external_calls: 3,
        };
        let line = stats.render();
        assert!(line.contains("4 files"));
        assert!(line.contains("10 nodes / 20 edges"));
        assert!(line.contains("2 ambiguous"));
        assert!(line.contains("3 external calls"));
    }
}
