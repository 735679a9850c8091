//! Figure 3: model 3 (30 modes × 2M) strong scaling and its
//! computation/communication breakdown.
//!
//! * Fig. 3a — run times of the four variants from 1 to 64 nodes
//!   (P = 32 … 2048); the paper sees 6–8× Gram-vs-QR speedups and ~2×
//!   LRL/RLR-vs-Sim (equal mode sizes make LRL and RLR identical in cost).
//! * Fig. 3b — relative communication/computation split of the same runs;
//!   communication is a larger share for QR (the TSQR `log P` bandwidth
//!   factor).
//!
//! Usage: `cargo run --release -p tt-bench --bin fig3 [-- --scale f --trials n]`

#![allow(
    clippy::print_stdout,
    reason = "user-facing output is this target's job"
)]
use tt_bench::{
    calibrated_model, fmt_secs, print_model_banner, run_scaling_point, Args, ALL_VARIANTS,
};
use tt_core::synthetic::ModelSpec;

fn main() {
    let args = Args::parse();
    let scale: f64 = args.get("scale").unwrap_or(0.002);
    let trials: usize = args.get("trials").unwrap_or(3);
    let spec = ModelSpec::table1(3).scaled(scale);
    let cost = calibrated_model();

    println!("FIGURE 3: model 3 strong scaling + time breakdown (scale {scale})");
    println!(
        "# dims: {} modes x {}; formal rank {} -> {}",
        spec.dims.len(),
        spec.dims[0],
        spec.rank,
        spec.target_rank
    );
    print_model_banner(&cost);
    println!();

    let ps = [32usize, 64, 128, 256, 512, 1024, 2048];

    println!("(a) run times");
    println!(
        "{:>6} | {:>14} {:>14} {:>14} {:>14} | {:>8}",
        "P", "TT-Round-QR", "Gram-Sim", "Gram-RLR", "Gram-LRL", "QR/LRL"
    );
    let mut all = Vec::new();
    for &p in &ps {
        let runs: Vec<_> = ALL_VARIANTS
            .iter()
            .map(|&v| run_scaling_point(&spec, p, v, &cost, trials, 300 + p as u64))
            .collect();
        println!(
            "{:>6} | {:>14} {:>14} {:>14} {:>14} | {:>7.1}x",
            p,
            fmt_secs(runs[0].total()),
            fmt_secs(runs[1].total()),
            fmt_secs(runs[2].total()),
            fmt_secs(runs[3].total()),
            runs[0].total() / runs[3].total()
        );
        all.push((p, runs));
    }

    println!();
    println!("(b) communication share of total time (dark = computation, light = communication)");
    println!(
        "{:>6} | {:>12} {:>12} {:>12} {:>12}",
        "P", "QR", "Gram-Sim", "Gram-RLR", "Gram-LRL"
    );
    for (p, runs) in &all {
        let share = |i: usize| 100.0 * all_comm(&runs[i]) / runs[i].total();
        println!(
            "{:>6} | {:>10.1}%% {:>10.1}%% {:>10.1}%% {:>10.1}%%",
            p,
            share(0),
            share(1),
            share(2),
            share(3)
        );
    }

    let first = &all[0].1;
    let last = &all[all.len() - 1].1;
    println!();
    println!(
        "# Gram-SVD-over-QR speedup: {:.1}x at P={} ... {:.1}x at P={} (paper: 6x-8x)",
        first[0].total() / first[3].total(),
        all[0].0,
        last[0].total() / last[3].total(),
        all[all.len() - 1].0
    );
    println!(
        "# parallel speedup P={} -> P={}: LRL {:.1}x, RLR {:.1}x, Sim {:.1}x (paper: 42x/27x/15x over 64x more cores)",
        all[0].0,
        all[all.len() - 1].0,
        first[3].total() / last[3].total(),
        first[2].total() / last[2].total(),
        first[1].total() / last[1].total(),
    );
}

fn all_comm(r: &tt_bench::TimedRun) -> f64 {
    r.comm_s
}
