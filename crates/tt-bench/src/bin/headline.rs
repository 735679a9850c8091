//! The abstract's headline claims, reproduced:
//!
//! 1. "up to 39× parallel speedup when scaling from 1 node to 64 nodes …
//!    for rounding a 16-way tensor with dimensions 100M × 50K × … × 50K ×
//!    10M and TT ranks all of size 20" — model-2-like strong scaling,
//!    32 → 2048 ranks;
//! 2. "on that tensor, a 6× speedup over a state-of-the-art implementation
//!    of the standard TT-Rounding approach using 64 nodes";
//! 3. "a 28× speedup over the same implementation on a smaller tensor with
//!    memory footprint less than 1 MB using a single node (32 cores)" —
//!    the model-4-shaped tensor.
//!
//! Usage: `cargo run --release -p tt-bench --bin headline [-- --scale f]`

#![allow(
    clippy::print_stdout,
    reason = "user-facing output is this target's job"
)]
use tt_bench::{calibrated_model, fmt_secs, print_model_banner, run_scaling_point, Args, Variant};
use tt_core::synthetic::ModelSpec;

fn main() {
    let args = Args::parse();
    let scale: f64 = args.get("scale").unwrap_or(0.002);
    let trials: usize = args.get("trials").unwrap_or(3);
    let cost = calibrated_model();

    // The abstract's tensor: like Table I model 2 but with a 10M last mode.
    let mut spec = ModelSpec::table1(2);
    spec.dims[15] = 10_000_000;
    let spec = spec.scaled(scale);

    println!("HEADLINE CLAIMS (abstract)");
    print_model_banner(&cost);
    println!();

    // ---- Claim 1 + 2: strong scaling of the 16-way tensor. ----
    println!("(1) parallel speedup, 1 node (P=32) -> 64 nodes (P=2048), Gram-LRL:");
    let base = run_scaling_point(&spec, 32, Variant::GramLrl, &cost, trials, 1);
    let top = run_scaling_point(&spec, 2048, Variant::GramLrl, &cost, trials, 2);
    println!(
        "    t(32) = {}   t(2048) = {}   speedup = {:.1}x   (paper: 39x)",
        fmt_secs(base.total()),
        fmt_secs(top.total()),
        base.total() / top.total()
    );

    let qr_top = run_scaling_point(&spec, 2048, Variant::Qr, &cost, trials, 3);
    println!();
    println!("(2) Gram-LRL vs TT-Round-QR at 64 nodes (P=2048):");
    println!(
        "    QR = {}   Gram-LRL = {}   speedup = {:.1}x   (paper: 6x)",
        fmt_secs(qr_top.total()),
        fmt_secs(top.total()),
        qr_top.total() / top.total()
    );

    // ---- Claim 3: the small tensor on one node. ----
    // Model 4 rounded footprint is ~930 KB (< 1 MB).
    let small = ModelSpec::table1(4);
    let p = 32;
    let qr = run_scaling_point(&small, p, Variant::Qr, &cost, trials, 4);
    let gram = run_scaling_point(&small, p, Variant::GramLrl, &cost, trials, 5);
    println!();
    println!(
        "(3) model 4 (footprint {:.0} KB) on one node (P=32):",
        small.memory_bytes(small.target_rank) / 1e3
    );
    println!(
        "    QR = {}   Gram-LRL = {}   speedup = {:.1}x   (paper: 28x)",
        fmt_secs(qr.total()),
        fmt_secs(gram.total()),
        qr.total() / gram.total()
    );
    println!();
    println!("# claim 3 is latency-dominated in the paper (tiny local blocks, TSQR's");
    println!("# log P latency tree vs one allreduce); the ratio here depends on the");
    println!("# alpha/gamma balance of the cost model.");
}
