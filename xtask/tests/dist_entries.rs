//! Pins the set of `_dist` entry points the workspace scan model-checks.
//!
//! `deadlock_check` model-checks every public `*_dist*` function and
//! reports angelically: a body that stops being an entry (a rename, or a
//! method folded into a shared `match` that caps the trace budget) drops
//! out of the check without a sound. The stats line only counts entries,
//! so this test lists them by name: every per-method rounding body behind
//! `tt_core::round`, the shared one-core case, and the distributed solver
//! must each be an entry whose model check runs to a clean verdict.

use xtask::callgraph::{propagate, CallGraph, FileSummary};
use xtask::scanner::CodeModel;
use xtask::skeleton::{check_entry, is_dist_entry, Verdict};

/// The protocols that must stay individually model-checked.
const PINNED: [&str; 7] = [
    "round_qr_dist",
    "round_gram_rlr_dist",
    "round_gram_lrl_dist",
    "round_gram_sim_dist",
    "round_rand_then_orth_dist",
    "round_single_core_dist",
    "tt_dist_gmres",
];

#[test]
fn every_rounding_body_and_the_distributed_solver_are_model_checked() {
    let repo = xtask::repo_root();
    let files = xtask::library_src_files(&repo).expect("library sources readable");
    let summaries = files
        .iter()
        .map(|file| {
            let src = std::fs::read_to_string(file).expect("source readable");
            let rel = file.strip_prefix(&repo).unwrap_or(file).to_string_lossy();
            FileSummary::extract(&rel, &CodeModel::build(&src))
        })
        .collect();
    let graph = CallGraph::build(summaries);
    let facts = propagate(&graph);
    for name in PINNED {
        assert!(
            is_dist_entry(name),
            "`{name}` is not named as a `_dist` entry"
        );
        let nodes: Vec<usize> = (0..graph.nodes.len())
            .filter(|&ni| graph.nodes[ni].name == name && graph.summary(ni).is_pub)
            .collect();
        assert_eq!(nodes.len(), 1, "`{name}`: expected one public definition");
        assert_eq!(
            check_entry(&graph, &facts, nodes[0]),
            Verdict::Clean,
            "`{name}` must model-check to completion"
        );
    }
}
