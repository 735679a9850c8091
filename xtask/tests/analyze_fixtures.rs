//! Golden-diagnostic tests for `cargo xtask analyze`: `collective_order`
//! fires on its fixture exactly as recorded in the matching `.expected`
//! file and stays silent on the clean fixture.

#![allow(
    clippy::expect_used,
    reason = "a failed expect in a test helper fails the test"
)]

use std::path::{Path, PathBuf};

use xtask::analyze::analyze_files_with;
use xtask::collective_order::{Diagnostic, RULE};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn run(fixture: &str) -> Vec<Diagnostic> {
    let dir = fixtures_dir();
    analyze_files_with(&dir, &[dir.join(fixture)])
        .expect("fixture must be readable")
        .0
}

/// Parses a `.expected` golden file of `line:pass` rows (`#` comments and
/// blank lines ignored).
fn golden(fixture: &str) -> Vec<(usize, String)> {
    let path = fixtures_dir().join(format!("{fixture}.expected"));
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

#[test]
fn collective_order_direct_fires_on_fixture() {
    let got: Vec<(usize, String)> = run("collective_order_direct_fires.rs")
        .iter()
        .map(|d| (d.line, RULE.to_string()))
        .collect();
    assert_eq!(got, golden("collective_order_direct_fires.rs"));
}

#[test]
fn clean_fixture_is_silent() {
    let diagnostics = run("clean.rs");
    assert!(
        diagnostics.is_empty(),
        "clean fixture produced: {diagnostics:?}"
    );
}

#[test]
fn whole_fixture_directory_aggregates() {
    // Run everything at once: per-file results must be independent.
    let dir = fixtures_dir();
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("fixtures dir")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    files.sort();
    let (diagnostics, stats) = analyze_files_with(&dir, &files).expect("fixtures readable");
    assert_eq!(
        diagnostics.len(),
        golden("collective_order_direct_fires.rs").len()
    );
    assert_eq!(stats.files, files.len());
}
