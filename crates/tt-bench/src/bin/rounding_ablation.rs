//! Rounding ablation: accuracy × rank × time across the rounding methods.
//!
//! One fixed graded-spectrum instance (a rank-`BASE_RANK` base plus noise
//! `NOISE_REL` below it in norm) runs through four rounding paths — the QR
//! baseline (Alg. 2), Gram sequence RLR (Alg. 6) and simultaneous (Alg. 5)
//! at tolerance `TOL`, and randomize-then-orthogonalize at the base rank.
//! A formal sum of `SUM_TERMS` such trains, the input randomized rounding
//! targets (formal rank far above the output rank), runs through QR,
//! Gram-RLR and randomized rounding. Each row reports the achieved
//! relative error, the method's accuracy bound, the maximum output rank,
//! and mean/min wall time over `--reps` runs.
//!
//! With `--json <path>` the rows are also written as [`tt_bench::GateRow`]
//! JSONL, which the `rounding ablation` row of `cargo xtask bench-check`'s
//! gate table consumes.
//!
//! Usage: `cargo run --release -p tt-bench --bin rounding_ablation
//!         [-- --reps N --json PATH]`

#![allow(clippy::print_stdout)] // user-facing output is this target's job

use std::time::Instant;

use rand::SeedableRng;
use tt_bench::{fmt_secs, write_gate_jsonl, Accuracy, Args, GateRow};
use tt_comm::SelfComm;
use tt_core::{round, RoundingMethod, RoundingOptions, TtTensor};

/// Mode sizes of the ablation instance (big enough that a rounding call is
/// milliseconds, small enough for a CI gate).
const DIMS: [usize; 4] = [40, 40, 40, 40];
/// TT ranks of the dominant part; the input's formal ranks are twice this.
const BASE_RANK: usize = 12;
/// Relative norm of the noise term riding on the base.
const NOISE_REL: f64 = 1e-6;
/// Rounding tolerance for the ε-driven variants (well above the noise, well
/// below the base spectrum: every variant should cut back to `BASE_RANK`).
const TOL: f64 = 1e-4;
/// Sketch oversampling for randomized rounding.
const OVERSAMPLING: usize = 8;
/// Seed for instance generation and all sketches.
const SEED: u64 = 2022;
/// Terms of the formal-sum instance; its formal ranks are
/// `SUM_TERMS · 2 · BASE_RANK`.
const SUM_TERMS: usize = 4;

/// Graded-spectrum instance: base + NOISE_REL·noise, both random TT.
fn instance() -> TtTensor {
    let mut rng = rand::rngs::StdRng::seed_from_u64(SEED);
    let ranks = vec![BASE_RANK; DIMS.len() - 1];
    let base = TtTensor::random(&DIMS, &ranks, &mut rng);
    let mut noise = TtTensor::random(&DIMS, &ranks, &mut rng);
    noise.scale(NOISE_REL * base.norm() / noise.norm());
    base.add(&noise)
}

/// Formal-sum instance: `Σ_j (base/(j+1) + noise_j)`, each `noise_j` its
/// own random rank-`BASE_RANK` train at `NOISE_REL·‖base‖`, left unrounded.
fn sum_instance() -> TtTensor {
    let mut rng = rand::rngs::StdRng::seed_from_u64(SEED);
    let ranks = vec![BASE_RANK; DIMS.len() - 1];
    let base = TtTensor::random(&DIMS, &ranks, &mut rng);
    let mut term = |j: usize| {
        let mut term = base.clone();
        term.scale(1.0 / (j + 1) as f64);
        let mut noise = TtTensor::random(&DIMS, &ranks, &mut rng);
        noise.scale(NOISE_REL * base.norm() / noise.norm());
        term.add(&noise)
    };
    let mut sum = term(0);
    for j in 1..SUM_TERMS {
        sum = sum.add(&term(j));
    }
    sum
}

/// Times `reps` runs of one variant and measures its achieved error.
fn measure(
    id: &'static str,
    bound: f64,
    reps: usize,
    x: &TtTensor,
    xnorm: f64,
    method: RoundingMethod,
    opts: &RoundingOptions,
) -> GateRow {
    let run = || round(&SelfComm::new(), x.clone(), method, opts).0;
    let mut min_ns = u128::MAX;
    let mut total_ns: u128 = 0;
    let mut y = run(); // warm-up, also the accuracy sample
    for _ in 0..reps {
        let t0 = Instant::now();
        y = run();
        let dt = t0.elapsed().as_nanos();
        min_ns = min_ns.min(dt);
        total_ns += dt;
    }
    GateRow {
        id: id.to_string(),
        mean_ns: total_ns / reps as u128,
        min_ns,
        samples: reps as u64,
        accuracy: Some(Accuracy {
            rel_err: y.sub(x).norm() / xnorm,
            bound,
            max_rank: y.max_rank(),
        }),
    }
}

fn main() {
    let args = Args::parse();
    let reps: usize = args.get("reps").unwrap_or(12);
    let x = instance();
    let xnorm = x.norm();
    let sum = sum_instance();
    let sum_norm = sum.norm();

    let randomized = RoundingMethod::Randomized {
        oversampling: OVERSAMPLING,
        seed: SEED,
    };
    let eps = RoundingOptions::with_tolerance(TOL);
    let capped = RoundingOptions::default().max_rank(BASE_RANK);
    // Accuracy bounds. ε-driven methods promise ε·‖X‖ (1.5 slack, matching
    // the property-test constant). Randomized rounding can at best reach
    // the noise floor; the constant is the usual sketch-quality factor with
    // generous margin, ~(1 + √(r/(s−1))) for a one-sided sketch.
    let rows = vec![
        measure(
            "rounding_qr",
            1.5 * TOL,
            reps,
            &x,
            xnorm,
            RoundingMethod::Qr,
            &eps,
        ),
        measure(
            "rounding_gram_rlr",
            1.5 * TOL,
            reps,
            &x,
            xnorm,
            RoundingMethod::GramRlr,
            &eps,
        ),
        measure(
            "rounding_gram_sim",
            1.5 * TOL,
            reps,
            &x,
            xnorm,
            RoundingMethod::GramSim,
            &eps,
        ),
        measure(
            "rounding_rand_then_orth",
            100.0 * NOISE_REL,
            reps,
            &x,
            xnorm,
            randomized,
            &capped,
        ),
        measure(
            "rounding_sum4_qr",
            1.5 * TOL,
            reps,
            &sum,
            sum_norm,
            RoundingMethod::Qr,
            &eps,
        ),
        measure(
            "rounding_sum4_gram_rlr",
            1.5 * TOL,
            reps,
            &sum,
            sum_norm,
            RoundingMethod::GramRlr,
            &eps,
        ),
        measure(
            "rounding_sum4_rand_then_orth",
            100.0 * NOISE_REL,
            reps,
            &sum,
            sum_norm,
            randomized,
            &capped,
        ),
    ];

    println!(
        "# rounding ablation: dims {DIMS:?}, base rank {BASE_RANK} (formal {}; sum of {SUM_TERMS}: formal {}), noise {NOISE_REL:.0e}, tol {TOL:.0e}, {reps} reps",
        2 * BASE_RANK,
        SUM_TERMS * 2 * BASE_RANK
    );
    println!(
        "{:<30} {:>10} {:>10} {:>9} {:>12} {:>12}",
        "variant", "rel error", "bound", "max rank", "mean", "min"
    );
    for r in &rows {
        let Some(a) = r.accuracy else { continue };
        println!(
            "{:<30} {:>10.2e} {:>10.2e} {:>9} {:>12} {:>12}",
            r.id,
            a.rel_err,
            a.bound,
            a.max_rank,
            fmt_secs(r.mean_ns as f64 * 1e-9),
            fmt_secs(r.min_ns as f64 * 1e-9)
        );
        if a.violated() {
            println!("  ^ WARNING: accuracy bound violated");
        }
    }

    if let Some(path) = args.get::<String>("json") {
        if let Err(e) = write_gate_jsonl(&path, &rows) {
            eprintln!("rounding_ablation: could not write {path}: {e}");
            std::process::exit(1);
        }
        println!("# wrote {path}");
    }
}
