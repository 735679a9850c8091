//! Figure 2: strong scaling of TT-Rounding, models 1 and 2.
//!
//! * Fig. 2a — model 1 (50 modes × 2K, 77 MB): 1 core → 4 nodes
//!   (P = 1 … 128); the paper sees 14–17× on-node scaling and ~3× Gram-vs-QR
//!   on 32 cores, with fall-off beyond one node (the problem is small).
//! * Fig. 2b — model 2 (16 modes, 100M × 50K … × 1M): 1 → 32 nodes
//!   (P = 32 … 1024); the paper sees up to 21× Gram-vs-QR and ~2× LRL-vs-RLR
//!   while compute-bound (the boundary modes differ in size).
//!
//! Usage:
//!   cargo run --release -p tt-bench --bin fig2 -- --model 1 [--scale f]
//!                                               [--trials n]
//!
//! Default scales are sized for this machine; EXPERIMENTS.md records the
//! scales used for the reported numbers.

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
    let model_id: usize = args.get("model").unwrap_or(1);
    assert!(model_id == 1 || model_id == 2, "fig2 covers models 1 and 2");
    let default_scale = if model_id == 1 { 0.25 } else { 0.002 };
    let scale: f64 = args.get("scale").unwrap_or(default_scale);
    let trials: usize = args.get("trials").unwrap_or(3);

    let spec = ModelSpec::table1(model_id).scaled(scale);
    let cost = calibrated_model();

    println!(
        "FIGURE 2{}: strong scaling, model {model_id} (scale {scale})",
        if model_id == 1 { 'a' } else { 'b' }
    );
    println!(
        "# dims: {} modes, I_1 = {}, interior = {}, I_N = {}; formal rank {} -> {}",
        spec.dims.len(),
        spec.dims[0],
        spec.dims[spec.dims.len() / 2],
        spec.dims[spec.dims.len() - 1],
        spec.rank,
        spec.target_rank
    );
    print_model_banner(&cost);
    println!();

    let ps: Vec<usize> = if model_id == 1 {
        vec![1, 2, 4, 8, 16, 32, 64, 128]
    } else {
        vec![32, 64, 128, 256, 512, 1024]
    };

    println!(
        "{:>6} | {:>14} {:>14} {:>14} {:>14} | {:>10}",
        "P", "TT-Round-QR", "Gram-Sim", "Gram-RLR", "Gram-LRL", "QR/LRL"
    );
    let mut firsts: Option<Vec<f64>> = None;
    let mut rows: Vec<(usize, Vec<f64>)> = Vec::new();
    for &p in &ps {
        let times: Vec<f64> = ALL_VARIANTS
            .iter()
            .map(|&v| run_scaling_point(&spec, p, v, &cost, trials, 100 + p as u64).total())
            .collect();
        if firsts.is_none() {
            firsts = Some(times.clone());
        }
        println!(
            "{:>6} | {:>14} {:>14} {:>14} {:>14} | {:>9.1}x",
            p,
            fmt_secs(times[0]),
            fmt_secs(times[1]),
            fmt_secs(times[2]),
            fmt_secs(times[3]),
            times[0] / times[3]
        );
        rows.push((p, times));
    }

    let Some(base) = firsts else {
        unreachable!("the P sweep is non-empty, so the first scaling row was recorded")
    };
    println!();
    println!("# parallel speedups vs P = {}:", ps[0]);
    println!(
        "{:>6} | {:>12} {:>12} {:>12} {:>12}",
        "P", "QR", "Gram-Sim", "Gram-RLR", "Gram-LRL"
    );
    for (p, times) in &rows {
        println!(
            "{:>6} | {:>11.1}x {:>11.1}x {:>11.1}x {:>11.1}x",
            p,
            base[0] / times[0],
            base[1] / times[1],
            base[2] / times[2],
            base[3] / times[3]
        );
    }

    // Headline comparisons the paper quotes in §V-B.
    let last = &rows[rows.len() - 1].1;
    println!();
    println!(
        "# at P = {}: Gram-LRL is {:.1}x faster than TT-Round-QR (paper: ~3x for model 1 on-node, up to 21x for model 2)",
        rows[rows.len() - 1].0,
        last[0] / last[3]
    );
}
