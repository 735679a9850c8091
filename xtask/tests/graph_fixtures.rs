//! Golden-diagnostic tests for `collective_order` through the call graph,
//! over the `fixtures/interproc/` corpus.
//!
//! Unlike the top-level fixtures, these are analyzed as one *directory* —
//! cross-file call resolution (helpers.rs) is part of what is under test —
//! and the fixture repo root is the corpus directory itself so relative
//! paths are bare filenames.

#![allow(
    clippy::expect_used,
    reason = "a failed expect in a test helper fails the test"
)]

use std::path::{Path, PathBuf};

use xtask::analyze::analyze_files_with;
use xtask::collective_order::{Diagnostic, RULE};

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
fn run_corpus() -> Vec<Diagnostic> {
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

fn diags_for(report: &[Diagnostic], fixture: &str) -> Vec<(usize, String)> {
    report
        .iter()
        .filter(|d| d.file == fixture)
        .map(|d| (d.line, RULE.to_string()))
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
fn type_qualified_calls_link_only_to_that_types_impl() {
    // `Vec::new(` inside a rank branch once linked by bare name to the
    // fixture's collective-issuing `Reducer::new` and fired.
    let report = run_corpus();
    assert_eq!(
        diags_for(&report, "type_qualified_calls.rs"),
        golden("type_qualified_calls.rs")
    );
}

#[test]
fn cross_file_witness_chain_is_spelled_out() {
    // The two-hop cross-file finding must carry the full chain so the
    // reader can audit the propagation without re-deriving it.
    let report = run_corpus();
    let d = report
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
fn corpus_totals_are_stable() {
    let dir = corpus_dir();
    let files = corpus_files();
    let (report, stats) = analyze_files_with(&dir, &files).expect("fixtures readable");
    assert_eq!(stats.files, files.len());
    let expected: usize = ["collective_order_fires.rs", "type_qualified_calls.rs"]
        .iter()
        .map(|f| golden(f).len())
        .sum();
    // 5 + 1 collective_order findings, pinned so that growing or shrinking
    // the corpus is a visible edit.
    assert_eq!(expected, 6);
    assert_eq!(report.len(), expected);
}
