//! Golden-diagnostic tests for `cargo xtask analyze`: each pass fires on
//! its fixture exactly as recorded in the matching `.expected` file, stays
//! silent on the clean fixture, and the suppression machinery (trailing,
//! standalone, unused, malformed) behaves as documented.

#![allow(
    clippy::expect_used,
    reason = "a failed expect in a test helper fails the test"
)]

use std::path::{Path, PathBuf};

use xtask::analyze::{analyze_files_with, Report};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn run(fixture: &str) -> Report {
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

fn assert_matches_golden(fixture: &str) {
    let report = run(fixture);
    assert!(
        report.errors.is_empty(),
        "unexpected suppression errors in {fixture}: {:?}",
        report.errors
    );
    let got: Vec<(usize, String)> = report
        .diagnostics
        .iter()
        .map(|d| (d.line, d.pass.to_string()))
        .collect();
    assert_eq!(got, golden(fixture), "diagnostics for {fixture}");
}

#[test]
fn collective_order_direct_fires_on_fixture() {
    assert_matches_golden("collective_order_direct_fires.rs");
}

#[test]
fn p2p_pairing_fires_on_fixture() {
    assert_matches_golden("p2p_pairing_fires.rs");
}

#[test]
fn clean_fixture_is_silent() {
    let report = run("clean.rs");
    assert!(
        report.diagnostics.is_empty(),
        "clean fixture produced: {:?}",
        report.diagnostics
    );
    assert!(report.errors.is_empty());
    assert!(report.unused.is_empty());
    assert_eq!(report.suppressed, 0);
    assert!(report.is_clean(true));
}

#[test]
fn suppressions_silence_findings() {
    let report = run("suppressed.rs");
    assert!(
        report.diagnostics.is_empty(),
        "suppressed fixture still reports: {:?}",
        report.diagnostics
    );
    assert_eq!(report.suppressed, 2, "both annotations must be consumed");
    assert!(report.unused.is_empty());
    assert!(report.is_clean(true));
}

#[test]
fn unused_suppression_is_reported() {
    let report = run("unused_suppression.rs");
    assert!(report.diagnostics.is_empty());
    assert_eq!(report.unused.len(), 1, "unused: {:?}", report.unused);
    assert!(report.unused[0].contains("p2p_pairing"));
    // Unused suppressions fail the default gate but pass with checking off.
    assert!(!report.is_clean(true));
    assert!(report.is_clean(false));
}

#[test]
fn malformed_suppressions_are_errors() {
    let report = run("malformed_suppression.rs");
    assert_eq!(report.errors.len(), 2, "errors: {:?}", report.errors);
    assert!(report.errors[0].contains("malformed"));
    assert!(report.errors[1].contains("unknown pass"));
    assert!(
        !report.is_clean(false),
        "errors fail the gate unconditionally"
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
    let (report, _) = analyze_files_with(&dir, &files).expect("fixtures readable");
    let expected_diags: usize = ["collective_order_direct_fires.rs", "p2p_pairing_fires.rs"]
        .iter()
        .map(|f| golden(f).len())
        .sum();
    assert_eq!(report.diagnostics.len(), expected_diags);
    // The two in suppressed.rs.
    assert_eq!(report.suppressed, 2);
    assert_eq!(report.unused.len(), 1);
    assert_eq!(report.errors.len(), 2);
    assert_eq!(report.files, files.len());
}
