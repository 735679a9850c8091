//! Rounding-family ablation: accuracy × rank × time across every variant.
//!
//! One fixed graded-spectrum instance (a rank-`BASE_RANK` base plus noise
//! `NOISE_REL` below it in norm) runs through all six rounding paths —
//! the QR baseline (Alg. 2), Gram sequence RLR (Alg. 6) and simultaneous
//! (Alg. 5) at tolerance `TOL`, the two fixed-rank randomized variants at
//! the base rank, and the adaptive Khatri–Rao variant at ε = `TOL` — and
//! reports for each: achieved relative error, the variant's accuracy bound,
//! the maximum output rank, and mean/min wall time over `--reps` runs.
//!
//! With `--json <path>` each row is also emitted as a JSONL entry
//!
//! ```text
//! {"id":"rounding_qr","mean_ns":…,"min_ns":…,"samples":…,
//!  "rel_err":…,"bound":…,"max_rank":…}
//! ```
//!
//! which `cargo xtask bench-check` consumes: it gates `rel_err ≤ bound`
//! unconditionally, and rank drift plus >15% mean-time regressions against
//! the recorded `results/BENCH_rounding_ablation.json` baseline.
//!
//! Usage: `cargo run --release -p tt-bench --bin rounding_ablation
//!         [-- --reps N --json PATH]`

#![allow(clippy::print_stdout)] // user-facing output is this target's job

use std::time::Instant;

use rand::SeedableRng;
use tt_bench::{fmt_secs, Args};
use tt_comm::SelfComm;
use tt_core::{round, RandomizedVariant, RoundingMethod, RoundingOptions, TtTensor};

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
/// Sketch oversampling for the fixed-rank randomized variants.
const OVERSAMPLING: usize = 8;
/// Seed for instance generation and all sketches.
const SEED: u64 = 2022;

/// One ablation row, in both the printed table and the JSONL stream.
struct Row {
    id: &'static str,
    rel_err: f64,
    bound: f64,
    max_rank: usize,
    mean_ns: u128,
    min_ns: u128,
    samples: u64,
}

/// Graded-spectrum instance: base + NOISE_REL·noise, both random TT.
fn instance() -> TtTensor {
    let mut rng = rand::rngs::StdRng::seed_from_u64(SEED);
    let ranks = vec![BASE_RANK; DIMS.len() - 1];
    let base = TtTensor::random(&DIMS, &ranks, &mut rng);
    let mut noise = TtTensor::random(&DIMS, &ranks, &mut rng);
    noise.scale(NOISE_REL * base.norm() / noise.norm());
    base.add(&noise)
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
) -> Row {
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
    let rel_err = y.sub(x).norm() / xnorm;
    Row {
        id,
        rel_err,
        bound,
        max_rank: y.max_rank(),
        mean_ns: total_ns / reps as u128,
        min_ns,
        samples: reps as u64,
    }
}

fn main() {
    let args = Args::parse();
    let reps: usize = args.get("reps").unwrap_or(12);
    let x = instance();
    let xnorm = x.norm();

    let fixed = |variant| RoundingMethod::Randomized {
        variant,
        oversampling: OVERSAMPLING,
        seed: SEED,
    };
    let eps = RoundingOptions::with_tolerance(TOL);
    let capped = RoundingOptions::default().max_rank(BASE_RANK);
    // Accuracy bounds. ε-driven variants promise ε·‖X‖ (1.5 slack for the
    // deterministic ones, matching the property-test constant; the adaptive
    // certificate needs none). Fixed-rank variants can at best reach the
    // noise floor; the constants are the usual sketch-quality factors with
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
            fixed(RandomizedVariant::RandThenOrth),
            &capped,
        ),
        measure(
            "rounding_orth_then_rand",
            100.0 * NOISE_REL,
            reps,
            &x,
            xnorm,
            fixed(RandomizedVariant::OrthThenRand),
            &capped,
        ),
        measure(
            "rounding_adaptive_kr",
            TOL,
            reps,
            &x,
            xnorm,
            fixed(RandomizedVariant::AdaptiveKr),
            &eps,
        ),
    ];

    println!(
        "# rounding ablation: dims {DIMS:?}, base rank {BASE_RANK} (formal {}), noise {NOISE_REL:.0e}, tol {TOL:.0e}, {reps} reps",
        2 * BASE_RANK
    );
    println!(
        "{:<26} {:>10} {:>10} {:>9} {:>12} {:>12}",
        "variant", "rel error", "bound", "max rank", "mean", "min"
    );
    for r in &rows {
        println!(
            "{:<26} {:>10.2e} {:>10.2e} {:>9} {:>12} {:>12}",
            r.id,
            r.rel_err,
            r.bound,
            r.max_rank,
            fmt_secs(r.mean_ns as f64 * 1e-9),
            fmt_secs(r.min_ns as f64 * 1e-9)
        );
        if r.rel_err > r.bound {
            println!("  ^ WARNING: accuracy bound violated");
        }
    }

    if let Some(path) = args.get::<String>("json") {
        let mut text = String::new();
        for r in &rows {
            text.push_str(&format!(
                "{{\"id\":\"{}\",\"mean_ns\":{},\"min_ns\":{},\"samples\":{},\"rel_err\":{:e},\"bound\":{:e},\"max_rank\":{}}}\n",
                r.id, r.mean_ns, r.min_ns, r.samples, r.rel_err, r.bound, r.max_rank
            ));
        }
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("rounding_ablation: could not write {path}: {e}");
            std::process::exit(1);
        }
        println!("# wrote {path}");
    }
}
