//! Golden-diagnostic tests for the skeleton passes (`protocol_match`,
//! `deadlock_check`) over the `fixtures/skeleton/` corpus.
//!
//! Like the interproc corpus, the whole directory is analyzed at once —
//! the cross-file recv-recv cycle (deadlock_fires.rs + peers.rs) is part
//! of what is under test — with the corpus directory as the fixture repo
//! root so relative paths are bare filenames, outside every allowlist.

use std::path::{Path, PathBuf};

use xtask::analyze::{analyze_files_with, Report};

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/skeleton")
}

fn corpus_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("skeleton fixtures dir")
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
fn deadlock_check_fires_on_cross_file_recv_cycle() {
    let report = run_corpus();
    assert_eq!(
        diags_for(&report, "deadlock_fires.rs"),
        golden("deadlock_fires.rs")
    );
    // The finding must say what blocks and at which p, so the reader can
    // replay the stuck schedule by hand.
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.file == "deadlock_fires.rs" && d.pass == "deadlock_check")
        .expect("deadlock finding present");
    assert!(d.message.contains("p = 2"), "{}", d.message);
    assert!(d.message.contains("blocked on recv"), "{}", d.message);
}

#[test]
fn protocol_match_fires_on_collective_count_mismatch() {
    let report = run_corpus();
    assert_eq!(
        diags_for(&report, "protocol_mismatch_fires.rs"),
        golden("protocol_mismatch_fires.rs")
    );
}

#[test]
fn protocol_match_witness_chain_is_spelled_out() {
    // The branch-mismatch finding must carry both arm sequences and the
    // helper chain each was collected through.
    let report = run_corpus();
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.file == "protocol_mismatch_fires.rs" && d.pass == "protocol_match")
        .expect("protocol_match finding present");
    assert!(d.message.contains("[barrier, broadcast]"), "{}", d.message);
    assert!(d.message.contains("[broadcast]"), "{}", d.message);
    assert!(d.message.contains("`sync_team`"), "{}", d.message);
    assert!(d.message.contains("`share_result`"), "{}", d.message);
}

#[test]
fn clean_tsqr_tree_and_peer_halves_are_silent() {
    let report = run_corpus();
    // The TSQR-shaped tree completes at every p in {2, 3, 4}; the peers.rs
    // halves carry documented p2p_pairing suppressions and nothing else.
    assert_eq!(diags_for(&report, "clean_tsqr.rs"), vec![]);
    assert_eq!(diags_for(&report, "peers.rs"), vec![]);
}

#[test]
fn clean_pipelined_post_wait_shapes_are_silent() {
    // Deferred rendezvous: the pipelined Gram chain and the preposted-irecv
    // ring (whose blocking twin is the deadlock_fires.rs finding) must pass
    // both the bounded interleaving and the request_pairing lexical check.
    let report = run_corpus();
    assert_eq!(diags_for(&report, "clean_pipelined.rs"), vec![]);
}

#[test]
fn skeleton_pass_suppressions_are_consumed_and_unused_reported() {
    let report = run_corpus();
    assert_eq!(diags_for(&report, "suppressed.rs"), vec![]);
    // suppressed.rs consumes 7 (2 deadlock_check, 1 protocol_match,
    // 3 collective_order, 1 p2p_pairing) and peers.rs 2.
    assert_eq!(report.suppressed, 9, "unused: {:?}", report.unused);
    assert_eq!(report.unused.len(), 2, "unused: {:?}", report.unused);
    assert!(report.unused[0].contains("unused.rs"));
    assert!(report.unused[0].contains("deadlock_check"));
    assert!(report.unused[1].contains("protocol_match"));
    assert!(report.errors.is_empty(), "errors: {:?}", report.errors);
}
