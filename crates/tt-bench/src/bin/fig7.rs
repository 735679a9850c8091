//! Figure 7: weak scaling of TT-Rounding for model 4 (the cookies-shaped
//! tensor: 10K × 20 × … × 20, 10 modes).
//!
//! The spatial mode is weakly scaled with P (per-rank share constant) while
//! the parameter modes stay fixed — the paper reports only the LRL variant
//! (it does less computation than RLR when mode 1 dominates) and sees flat
//! weak scaling to 2¹⁰ cores; we print all variants so the LRL-vs-RLR gap of
//! the conclusion is visible too.
//!
//! Usage: `cargo run --release -p tt-bench --bin fig7 [-- --local 313 --trials n]`

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
    // 10_000 / 32 = 313: the per-rank spatial share of a full-size
    // one-node run.
    let local_spatial: usize = args.get("local").unwrap_or(313);
    let trials: usize = args.get("trials").unwrap_or(3);
    let cost = calibrated_model();

    let spec = ModelSpec::table1(4);
    println!("FIGURE 7: weak scaling, model 4 (spatial mode grows with P; {local_spatial} spatial slices/rank)");
    print_model_banner(&cost);
    println!();
    println!(
        "{:>6} | {:>10} | {:>14} {:>14} {:>14} {:>14}",
        "P", "global I1", "TT-Round-QR", "Gram-Sim", "Gram-RLR", "Gram-LRL"
    );

    for &p in &[1usize, 4, 16, 64, 256, 1024] {
        // Weak scaling: global I1 = local * P; parameter modes fixed at 20,
        // so their per-rank share shrinks to ceil(20/P).
        let mut local_dims = vec![20usize.div_ceil(p); spec.dims.len()];
        local_dims[0] = local_spatial;
        let times: Vec<f64> = ALL_VARIANTS
            .iter()
            .map(|&v| {
                run_scaling_point_dims(
                    &local_dims,
                    spec.target_rank,
                    p,
                    v,
                    &cost,
                    trials,
                    700 + p as u64,
                )
                .total()
            })
            .collect();
        println!(
            "{:>6} | {:>10} | {:>14} {:>14} {:>14} {:>14}",
            p,
            local_spatial * p,
            fmt_secs(times[0]),
            fmt_secs(times[1]),
            fmt_secs(times[2]),
            fmt_secs(times[3]),
        );
    }
    println!();
    println!("# expected: near-flat LRL times (good weak scaling) with a slow log P");
    println!("# communication creep; LRL below RLR because mode 1 dominates the work.");
}
