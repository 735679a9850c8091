//! Golden-diagnostic tests for the interprocedural graph passes
//! (`collective_order`, `determinism`) over the
//! `fixtures/interproc/` corpus.
//!
//! Unlike the per-file fixtures, these are analyzed as one *directory* —
//! cross-file call resolution (helpers.rs) is part of what is under test —
//! and the fixture repo root is the corpus directory itself so relative
//! paths are bare filenames, outside every pass allowlist.

use std::path::{Path, PathBuf};

use xtask::analyze::{analyze_files_with, Report};

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/interproc")
}

fn corpus_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("interproc fixtures dir")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    files.sort();
    files
}

/// One full-corpus run: every test slices this report per file.
fn run_corpus() -> Report {
    analyze_files_with(&corpus_dir(), &corpus_files())
        .expect("fixtures readable")
        .0
}

/// Parses a `.expected` golden file of `line:pass` rows (`#` comments and
/// blank lines ignored).
fn golden(fixture: &str) -> Vec<(usize, String)> {
    let path = corpus_dir().join(format!("{fixture}.expected"));
    std::fs::read_to_string(&path)
        .expect("golden file must be readable")
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (line, pass) = l.split_once(':').expect("golden rows are line:pass");
            (
                line.trim().parse().expect("golden line number"),
                pass.trim().to_string(),
            )
        })
        .collect()
}

fn diags_for(report: &Report, fixture: &str) -> Vec<(usize, String)> {
    report
        .diagnostics
        .iter()
        .filter(|d| d.file == fixture)
        .map(|d| (d.line, d.pass.to_string()))
        .collect()
}

#[test]
fn collective_order_fires_on_fixture() {
    let report = run_corpus();
    assert_eq!(
        diags_for(&report, "collective_order_fires.rs"),
        golden("collective_order_fires.rs")
    );
}

#[test]
fn determinism_fires_on_fixture() {
    let report = run_corpus();
    assert_eq!(
        diags_for(&report, "determinism_fires.rs"),
        golden("determinism_fires.rs")
    );
}

#[test]
fn cross_file_witness_chain_is_spelled_out() {
    // The two-hop cross-file finding must carry the full chain so the
    // reader can audit the propagation without re-deriving it.
    let report = run_corpus();
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.file == "collective_order_fires.rs" && d.line == 24)
        .expect("cross-file finding present");
    assert!(d.message.contains("`deep_reduce`"), "{}", d.message);
    assert!(d.message.contains("`mid_reduce`"), "{}", d.message);
    assert!(d.message.contains("allreduce_sum"), "{}", d.message);
    assert!(d.message.contains("helpers.rs"), "{}", d.message);
}

#[test]
fn helpers_and_clean_fixtures_are_silent() {
    let report = run_corpus();
    assert_eq!(diags_for(&report, "helpers.rs"), vec![]);
    // clean.rs exercises an unconditional collective through a helper and
    // a backend's `broadcast` branching on rank around its own barrier.
    assert_eq!(diags_for(&report, "clean.rs"), vec![]);
}

#[test]
fn graph_pass_suppressions_are_consumed_and_unused_reported() {
    let report = run_corpus();
    assert_eq!(diags_for(&report, "suppressed.rs"), vec![]);
    assert_eq!(report.suppressed, 1, "the suppressed.rs annotation");
    assert_eq!(report.unused.len(), 1, "unused: {:?}", report.unused);
    assert!(report.unused[0].contains("unused.rs"));
    assert!(report.unused[0].contains("collective_order"));
    assert!(report.errors.is_empty(), "errors: {:?}", report.errors);
}

#[test]
fn corpus_totals_are_stable() {
    let report = run_corpus();
    assert_eq!(report.files, corpus_files().len());
    let expected: usize = ["collective_order_fires.rs", "determinism_fires.rs"]
        .iter()
        .map(|f| golden(f).len())
        .sum();
    // 5 collective_order + 2 determinism findings, pinned so that growing
    // or shrinking the corpus is a visible edit.
    assert_eq!(expected, 7);
    assert_eq!(report.diagnostics.len(), expected);
    assert!(
        !report.is_clean(true),
        "corpus has findings by construction"
    );
}
