//! Table I: the four synthetic TT models.
//!
//! Prints the paper's table (modes, dimensions, memory at the rounded rank)
//! and then *verifies* the construction by generating a scaled-down instance
//! of each model and checking that every rounding variant cuts the formal
//! ranks 20 → 10.
//!
//! Usage: `cargo run --release -p tt-bench --bin table1 [-- --scale 0.01]`

#![allow(
    clippy::print_stdout,
    reason = "user-facing output is this target's job"
)]
use rand::SeedableRng;
use tt_bench::{Args, ALL_VARIANTS};
use tt_core::synthetic::{generate_redundant, ModelSpec, TABLE1_RANK, TABLE1_TARGET_RANK};
use tt_core::RoundingOptions;

fn dims_string(dims: &[usize]) -> String {
    let fmt = |d: usize| -> String {
        if d >= 1_000_000 {
            format!("{}M", d / 1_000_000)
        } else if d >= 1_000 {
            format!("{}K", d / 1_000)
        } else {
            format!("{d}")
        }
    };
    if dims.iter().all(|&d| d == dims[0]) {
        format!("{} x ... x {}", fmt(dims[0]), fmt(dims[0]))
    } else {
        format!(
            "{} x {} x ... x {} x {}",
            fmt(dims[0]),
            fmt(dims[1]),
            fmt(dims[dims.len() - 2]),
            fmt(dims[dims.len() - 1])
        )
    }
}

fn human_bytes(b: f64) -> String {
    if b >= 1e9 {
        format!("{:.0} GB", b / 1e9)
    } else if b >= 1e6 {
        format!("{:.0} MB", b / 1e6)
    } else {
        format!("{:.0} KB", b / 1e3)
    }
}

fn main() {
    let args = Args::parse();
    // Per-model verification scales, sized so the largest core stays small
    // enough for a quick all-variant check (model 2's full mode-1 dimension
    // is 100M; verification only needs the 20 -> 10 rank contract).
    let verify_scales = [0.01, 0.0002, 0.002, 0.1];
    let scale_override: Option<f64> = args.get("scale");

    println!("TABLE I: Synthetic TT models used for performance experiments.");
    println!(
        "All formal ranks are {TABLE1_RANK} and are cut in half to {TABLE1_TARGET_RANK} by TT-Rounding."
    );
    println!();
    println!(
        "{:<6} {:<6} {:<42} {:>8}",
        "Model", "Modes", "Dimensions", "Memory"
    );
    for id in 1..=4 {
        let spec = ModelSpec::table1(id);
        println!(
            "{:<6} {:<6} {:<42} {:>8}",
            id,
            spec.dims.len(),
            dims_string(&spec.dims),
            human_bytes(spec.memory_bytes(TABLE1_TARGET_RANK))
        );
    }

    println!();
    println!("Verification on scaled instances:");
    println!(
        "{:<6} {:<14} {:<14} {:<14} ok",
        "Model", "ranks before", "ranks after", "variant"
    );
    let mut rng = rand::rngs::StdRng::seed_from_u64(20220531);
    for id in 1..=4 {
        let scale = scale_override.unwrap_or(verify_scales[id - 1]);
        let spec = ModelSpec::table1(id).scaled(scale);
        let x = generate_redundant(&spec.dims, spec.target_rank, &mut rng);
        for v in ALL_VARIANTS {
            let comm = tt_comm::SelfComm::new();
            let (y, _) = v.round(&comm, &x, &RoundingOptions::with_tolerance(1e-8));
            let before = x.max_rank();
            let after = y.max_rank();
            let ok = after == spec.target_rank;
            println!(
                "{:<6} {:<14} {:<14} {:<14} {}",
                id,
                before,
                after,
                v.name(),
                if ok { "yes" } else { "NO" }
            );
            assert!(ok, "model {id} variant {v:?} failed to halve the ranks");
        }
    }
    println!();
    println!("All variants reproduce the Table I rank reduction (20 -> 10).");
}
