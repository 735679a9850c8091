//! Figure 4: weak-scaling time breakdown for model 1.
//!
//! Every rank keeps a constant share of every mode (the global tensor grows
//! proportionally with P), so computation time per rank stays flat while the
//! communication share grows like log P — until the machine's allreduce
//! anomaly kicks in past 32 nodes (§V-C), which the optional congestion knee
//! reproduces (`--knee 1024`).
//!
//! Usage: `cargo run --release -p tt-bench --bin fig4
//!           [-- --local 64 --trials n --knee P]`

#![allow(
    clippy::print_stdout,
    reason = "user-facing output is this target's job"
)]
use tt_bench::{
    calibrated_model, fmt_secs, print_model_banner, run_scaling_point_dims, Args, ALL_VARIANTS,
};
use tt_core::synthetic::ModelSpec;

fn main() {
    let args = Args::parse();
    // Per-rank share of each of the 50 modes of model 1 (2000/32 ≈ 63 for a
    // full-size one-node run).
    let local: usize = args.get("local").unwrap_or(63);
    let trials: usize = args.get("trials").unwrap_or(3);
    let mut cost = calibrated_model();
    if let Some(knee) = args.get::<usize>("knee") {
        cost.congestion_knee = Some(knee);
        cost.congestion_factor = args.get("knee-factor").unwrap_or(3.0);
        println!(
            "# congestion knee enabled at P = {knee} (x{} per doubling)",
            cost.congestion_factor
        );
    }

    let spec = ModelSpec::table1(1);
    let n_modes = spec.dims.len();
    let local_dims = vec![local; n_modes];

    println!(
        "FIGURE 4: weak scaling breakdown, model 1 ({n_modes} modes, {local} slices/rank/mode)"
    );
    print_model_banner(&cost);
    println!();
    println!(
        "{:>6} | {:<12} {:>14} {:>14} {:>14} {:>8}",
        "P", "variant", "compute", "comm", "total", "comm%"
    );

    for &p in &[1usize, 4, 16, 64, 256, 1024, 2048] {
        for v in ALL_VARIANTS {
            let run = run_scaling_point_dims(
                &local_dims,
                spec.target_rank,
                p,
                v,
                &cost,
                trials,
                400 + p as u64,
            );
            println!(
                "{:>6} | {:<12} {:>14} {:>14} {:>14} {:>7.1}%",
                p,
                v.name(),
                fmt_secs(run.compute_s),
                fmt_secs(run.comm_s),
                fmt_secs(run.total()),
                100.0 * run.comm_s / run.total()
            );
        }
        println!();
    }
    println!("# expected shapes: flat compute per variant; Gram comm grows ~log P and");
    println!("# stays below QR comm (TSQR carries an extra log P bandwidth factor).");
}
