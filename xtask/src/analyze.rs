//! `cargo xtask analyze` — the SPMD collective-safety static analyzer
//! (DESIGN.md §8 and §10).
//!
//! One serial run over every library source, in two stages:
//!
//! 1. **Per-file**: each source file is read, scanned into a [`CodeModel`],
//!    run through every per-file [`Pass`], its suppressions parsed, and its
//!    call-graph [`FileSummary`] extracted.
//! 2. **Workspace**: the summaries merge into a [`CallGraph`], facts
//!    propagate to a fixpoint, and the interprocedural [`GraphPass`]
//!    (`collective_order`) runs over the whole graph. Its findings join
//!    the per-file ones before suppression reconciliation, so one
//!    suppression syntax covers both kinds.
//!
//! Suppressions:
//!
//! ```text
//! // analyze::allow(<pass>): <reason>
//! ```
//!
//! A suppression written as a trailing comment applies to its own line; one
//! on a line of its own applies to the next code line (so several can be
//! stacked above one statement). The reason is mandatory — an accepted
//! finding must be documented at the site — and the pass name must exist.
//! Suppressions that match no diagnostic are themselves errors (on by
//! default; local triage can pass `--no-check-suppressions` while
//! iterating), so stale annotations cannot accumulate: the gate prints each
//! one's `file:line`.
//!
//! Exit code is non-zero on any unsuppressed diagnostic, malformed
//! suppression, or (when checking) unused suppression. `--format sarif`
//! emits SARIF 2.1.0 for GitHub code scanning ([`crate::sarif`]). `--stats`
//! prints scan/graph counters and the wall time to stderr — the CI lint job
//! logs it so analyzer precision regressions (unresolved-call growth) are
//! visible in history.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use crate::callgraph::{propagate, CallGraph, FileSummary};
use crate::library_src_files;
use crate::passes::{all_graph_passes, all_pass_names, all_passes, Diagnostic, GraphContext};
use crate::scanner::CodeModel;

/// One parsed `// analyze::allow(<pass>): <reason>` annotation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    /// Pass the annotation silences.
    pub pass: String,
    /// Mandatory justification text.
    pub reason: String,
    /// Line the suppression applies to (its own line for trailing
    /// comments, the next code line for standalone ones).
    pub target_line: usize,
    /// Line the comment itself sits on (for reporting).
    pub comment_line: usize,
}

/// Full result of one analysis run.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings not covered by any suppression.
    pub diagnostics: Vec<Diagnostic>,
    /// Count of findings silenced by a suppression.
    pub suppressed: usize,
    /// Malformed suppression annotations (unknown pass, missing reason).
    pub errors: Vec<String>,
    /// Suppressions that silenced nothing, as `file:line: pass` strings.
    pub unused: Vec<String>,
    /// Number of files analyzed.
    pub files: usize,
}

impl Report {
    /// True when the gate should pass.
    pub fn is_clean(&self, check_suppressions: bool) -> bool {
        self.diagnostics.is_empty()
            && self.errors.is_empty()
            && (!check_suppressions || self.unused.is_empty())
    }
}

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

/// CLI entry point for `cargo xtask analyze`.
pub fn analyze(repo: &Path, args: &[String]) -> ExitCode {
    let mut sarif = false;
    let mut check_suppressions = true;
    let mut show_stats = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => match it.next().map(String::as_str) {
                Some("sarif") => sarif = true,
                Some("text") => sarif = false,
                other => {
                    eprintln!(
                        "analyze: --format expects `text` or `sarif`, got {:?}",
                        other.unwrap_or("<nothing>")
                    );
                    return ExitCode::FAILURE;
                }
            },
            "--format=sarif" => sarif = true,
            "--format=text" => sarif = false,
            "--no-check-suppressions" => check_suppressions = false,
            "--stats" => show_stats = true,
            "--list-passes" => {
                for p in all_passes() {
                    eprintln!("{:18} {}", p.name(), p.description());
                }
                for p in all_graph_passes() {
                    eprintln!("{:18} [interprocedural] {}", p.name(), p.description());
                }
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!(
                    "analyze: unknown flag `{other}`\n\
                     usage: cargo xtask analyze [--format text|sarif] \
                     [--no-check-suppressions] [--stats] [--list-passes]"
                );
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
    let (report, stats) = match analyze_files_with(repo, &files) {
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
        let sarif = crate::sarif::report_to_sarif(&report, check_suppressions);
        if writeln!(stdout, "{sarif}").is_err() {
            return ExitCode::FAILURE;
        }
    } else {
        for d in &report.diagnostics {
            eprintln!("analyze: {}:{}: [{}] {}", d.file, d.line, d.pass, d.message);
        }
        for e in &report.errors {
            eprintln!("analyze: {e}");
        }
        if check_suppressions {
            for u in &report.unused {
                eprintln!("analyze: {u}: suppression matches no diagnostic — remove it");
            }
        }
        eprintln!(
            "analyze: {} files, {} passes, {} diagnostics ({} suppressed), {} suppression errors{}",
            report.files,
            all_pass_names().len(),
            report.diagnostics.len(),
            report.suppressed,
            report.errors.len(),
            if check_suppressions {
                format!(", {} unused suppressions", report.unused.len())
            } else {
                String::new()
            },
        );
    }
    if show_stats {
        eprintln!(
            "analyze: stats: {}, elapsed {elapsed_ms} ms",
            stats.render()
        );
    }

    if report.is_clean(check_suppressions) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What the per-file stage produces for one source file: exactly what the
/// workspace stage (graph build + reconciliation) consumes.
struct FileRecord {
    /// Call-graph summary (carries the repo-relative path).
    summary: FileSummary,
    /// Per-file pass findings (pre-suppression).
    findings: Vec<Diagnostic>,
    /// Parsed suppression annotations.
    suppressions: Vec<Suppression>,
    /// Malformed-suppression errors.
    errors: Vec<String>,
}

/// Runs the full two-stage analysis over `files` (paths made repo-relative
/// against `repo` for diagnostics). This is the library surface the
/// fixture and property tests drive directly.
pub fn analyze_files_with(
    repo: &Path,
    files: &[PathBuf],
) -> Result<(Report, AnalysisStats), std::io::Error> {
    let mut stats = AnalysisStats::default();

    // ---- Stage 1: per-file records ----
    let records = files
        .iter()
        .map(|file| file_record(repo, file))
        .collect::<Result<Vec<_>, _>>()?;
    stats.files = records.len();

    // ---- Stage 2: workspace call graph + interprocedural passes ----
    let summaries: Vec<FileSummary> = records.iter().map(|r| r.summary.clone()).collect();
    let graph = CallGraph::build(summaries);
    let facts = propagate(&graph);
    stats.graph_nodes = graph.nodes.len();
    stats.graph_edges = graph.edge_count();
    stats.resolved_calls = graph.resolved_calls;
    stats.ambiguous_calls = graph.ambiguous_calls;
    stats.external_calls = graph.external_calls;

    let cx = GraphContext {
        graph: &graph,
        facts: &facts,
    };
    let mut graph_findings: Vec<Diagnostic> = Vec::new();
    for pass in all_graph_passes() {
        pass.run(&cx, &mut graph_findings);
    }
    // Every graph finding points into a scanned file (nodes come from the
    // records), so the reconciliation below sees all of them.
    let mut by_file: BTreeMap<String, Vec<Diagnostic>> = BTreeMap::new();
    for d in graph_findings {
        by_file.entry(d.file.clone()).or_default().push(d);
    }

    // ---- Reconciliation: merge findings, apply suppressions ----
    let mut report = Report {
        files: records.len(),
        ..Report::default()
    };
    for rec in records {
        let rel = rec.summary.path.as_str();
        let mut findings = rec.findings;
        if let Some(extra) = by_file.remove(rel) {
            findings.extend(extra);
        }
        findings.sort_by(|a, b| (a.line, a.pass).cmp(&(b.line, b.pass)));
        report.errors.extend(rec.errors);

        let suppressions = rec.suppressions;
        let mut used = vec![false; suppressions.len()];
        for d in findings {
            let hit = suppressions
                .iter()
                .position(|s| s.pass == d.pass && s.target_line == d.line);
            match hit {
                Some(k) => {
                    used[k] = true;
                    report.suppressed += 1;
                }
                None => report.diagnostics.push(d),
            }
        }
        for (k, s) in suppressions.into_iter().enumerate() {
            if !used[k] {
                report.unused.push(format!(
                    "{rel}:{}: analyze::allow({})",
                    s.comment_line, s.pass
                ));
            }
        }
    }
    Ok((report, stats))
}

/// The per-file unit of work: scan, per-file passes, suppression parse and
/// summary extraction.
fn file_record(repo: &Path, file: &Path) -> Result<FileRecord, std::io::Error> {
    let rel = file
        .strip_prefix(repo)
        .unwrap_or(file)
        .to_string_lossy()
        .replace('\\', "/");
    let src = std::fs::read_to_string(file)?;

    let model = CodeModel::build(&src);
    let mut errors = Vec::new();
    let pass_names = all_pass_names();
    let suppressions = parse_suppressions(&rel, &model, &pass_names, &mut errors);

    let mut findings = Vec::new();
    for pass in all_passes() {
        pass.run(&rel, &model, &mut findings);
    }
    let summary = FileSummary::extract(&rel, &model);
    Ok(FileRecord {
        summary,
        findings,
        suppressions,
        errors,
    })
}

/// Extracts `analyze::allow` annotations from a file's comments, recording
/// malformed ones (unknown pass, missing reason) into `errors`. Valid pass
/// names are the union of per-file and interprocedural passes.
pub(crate) fn parse_suppressions(
    rel: &str,
    model: &CodeModel,
    pass_names: &[&'static str],
    errors: &mut Vec<String>,
) -> Vec<Suppression> {
    let mut out = Vec::new();
    for c in &model.comments {
        // Strip the comment markers; block comments may carry one
        // annotation too (rare, but no reason to reject them).
        let body = c
            .text
            .trim_start_matches('/')
            .trim_start_matches('*')
            .trim_end_matches('/')
            .trim_end_matches('*')
            .trim();
        let Some(rest) = body.strip_prefix("analyze::allow") else {
            continue;
        };
        let parsed = rest
            .strip_prefix('(')
            .and_then(|r| r.split_once(')'))
            .and_then(|(pass, tail)| {
                let reason = tail.strip_prefix(':')?.trim();
                if reason.is_empty() {
                    None
                } else {
                    Some((pass.trim().to_string(), reason.to_string()))
                }
            });
        let Some((pass, reason)) = parsed else {
            errors.push(format!(
                "{rel}:{}: malformed suppression `{body}` — expected \
                 `analyze::allow(<pass>): <reason>` with a non-empty reason",
                c.line
            ));
            continue;
        };
        if !pass_names.contains(&pass.as_str()) {
            errors.push(format!(
                "{rel}:{}: suppression names unknown pass `{pass}` (see --list-passes)",
                c.line
            ));
            continue;
        }
        // Trailing comments (code earlier on the same line) suppress that
        // line; standalone comments suppress the next code line.
        // (`model.tokens` holds code tokens only, so a same-line hit means
        // the comment trails code.)
        let trailing = model.tokens.iter().any(|t| t.line == c.line);
        let target_line = if trailing {
            c.line
        } else {
            model
                .tokens
                .iter()
                .map(|t| t.line)
                .filter(|&l| l > c.line)
                .min()
                .unwrap_or(usize::MAX)
        };
        out.push(Suppression {
            pass,
            reason,
            target_line,
            comment_line: c.line,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn suppressions_of(src: &str) -> (Vec<Suppression>, Vec<String>) {
        let model = CodeModel::build(src);
        let names = all_pass_names();
        let mut errors = Vec::new();
        let sup = parse_suppressions("t.rs", &model, &names, &mut errors);
        (sup, errors)
    }

    #[test]
    fn trailing_suppression_targets_its_own_line() {
        let (sup, errors) = suppressions_of(
            "fn f() {\n    comm.send(1, &x); // analyze::allow(p2p_pairing): ok\n}\n",
        );
        assert!(errors.is_empty());
        assert_eq!(sup.len(), 1);
        assert_eq!(sup[0].target_line, 2);
        assert_eq!(sup[0].pass, "p2p_pairing");
        assert_eq!(sup[0].reason, "ok");
    }

    #[test]
    fn standalone_suppression_targets_next_code_line() {
        let (sup, errors) = suppressions_of(
            "fn f() {\n    // analyze::allow(p2p_pairing): paired by the caller\n\n    comm.send(1, &x);\n}\n",
        );
        assert!(errors.is_empty());
        assert_eq!(sup.len(), 1);
        assert_eq!(sup[0].target_line, 4);
    }

    #[test]
    fn graph_pass_names_are_valid_suppression_targets() {
        let (sup, errors) = suppressions_of(
            "// analyze::allow(collective_order): rank-uniform branch\nfn f() {}\n\
             // analyze::allow(collective_order): uniform\nfn g() {}\n",
        );
        assert!(errors.is_empty(), "errors: {errors:?}");
        assert_eq!(sup.len(), 2);
    }

    #[test]
    fn missing_reason_and_unknown_pass_are_errors() {
        let (sup, errors) = suppressions_of(
            "// analyze::allow(p2p_pairing):\nfn a() {}\n// analyze::allow(bogus): reason\nfn b() {}\n",
        );
        assert!(sup.is_empty());
        assert_eq!(errors.len(), 2);
        assert!(errors[0].contains("malformed"));
        assert!(errors[1].contains("unknown pass"));
    }

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
