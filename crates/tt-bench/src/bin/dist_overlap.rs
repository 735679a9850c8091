//! Comm/compute overlap in the distributed Gram rounding sweep: the
//! pipelined schedule (each bond's allreduce posted early, the neighbor
//! core's update running in its shadow) against the serial-wait schedule
//! (`RoundingOptions::serial_waits()`) on `P` thread-backed ranks.
//!
//! Both schedules consume identical bytes in identical order, so the rank
//! chains must agree exactly — the bin asserts that before timing. For each
//! schedule it reports mean/min wall time over `--reps` runs (per run: the
//! slowest rank's rounding time, which is what a bulk-synchronous caller
//! experiences), and closes with the analytic prediction: the [`CostModel`]
//! prices the recorded collective stream, splits the measured serial time
//! into compute + comm legs, and [`CostModel::pipelined_time`] folds them —
//! modeled vs measured speedup side by side (EXPERIMENTS.md carries the
//! table).
//!
//! With `--json <path>` the timing rows are also written as
//! [`tt_bench::GateRow`] JSONL, which the `dist overlap` row of
//! `cargo xtask bench-check`'s gate table consumes.
//!
//! Usage: `cargo run --release -p tt-bench --bin dist_overlap
//!         [-- --reps N --ranks P --json PATH]`

#![allow(clippy::print_stdout)] // user-facing output is this target's job

use std::time::Instant;

use rand::SeedableRng;
use tt_bench::{fmt_secs, write_gate_jsonl, Args, GateRow};
use tt_comm::{Communicator, CostModel, ModelComm, ThreadComm};
use tt_core::{block_range, round, scatter_tensor, RoundingMethod, RoundingOptions, TtTensor};

/// Mode sizes: large enough that a distributed sweep is milliseconds of
/// real GEMM work per rank, small enough for a CI gate.
const DIMS: [usize; 4] = [32, 32, 32, 32];
/// TT ranks of the redundant instance's dominant half (formal ranks 2×).
const RANK_HALF: usize = 14;
/// Rounding tolerance (cuts the redundant half away).
const TOL: f64 = 1e-8;
/// Seed for instance generation.
const SEED: u64 = 712;

/// Times `reps` distributed RLR sweeps under `opts` on `p` ranks; each
/// rep's time is the slowest rank's (scatter excluded, one warm-up run).
fn measure(id: String, x: &TtTensor, p: usize, opts: &RoundingOptions, reps: usize) -> GateRow {
    let mut min_ns = u128::MAX;
    let mut total_ns: u128 = 0;
    for rep in 0..=reps {
        let times = ThreadComm::run(p, |comm| {
            let local = scatter_tensor(x, &comm);
            let t0 = Instant::now();
            let _ = round(&comm, local, RoundingMethod::GramRlr, opts);
            t0.elapsed().as_nanos()
        });
        let dt = times.into_iter().max().unwrap_or(0);
        if rep == 0 {
            continue; // warm-up
        }
        min_ns = min_ns.min(dt);
        total_ns += dt;
    }
    GateRow {
        id,
        mean_ns: total_ns / reps as u128,
        min_ns,
        samples: reps as u64,
        accuracy: None,
    }
}

/// Rank chain of one distributed rounding under `opts` (rank 0's view).
fn ranks_under(x: &TtTensor, p: usize, opts: &RoundingOptions) -> Vec<usize> {
    ThreadComm::run(p, |comm| {
        let local = scatter_tensor(x, &comm);
        let (rounded, _) = round(&comm, local, RoundingMethod::GramRlr, opts);
        rounded.ranks()
    })
    .into_iter()
    .next()
    .unwrap_or_default()
}

fn main() {
    let args = Args::parse();
    let reps: usize = args.get("reps").unwrap_or(8);
    let p: usize = args.get("ranks").unwrap_or(4);

    let mut rng = rand::rngs::StdRng::seed_from_u64(SEED);
    let x = tt_core::synthetic::generate_redundant(&DIMS, RANK_HALF, &mut rng);

    let pipelined_opts = RoundingOptions::with_tolerance(TOL);
    let serial_opts = RoundingOptions::with_tolerance(TOL).serial_waits();

    // Determinism guard before any timing: the two schedules are the same
    // algorithm in a different wait order, so their rank decisions (and the
    // cores — pinned bitwise by the tt-core agreement tests) must agree.
    let ranks_pipe = ranks_under(&x, p, &pipelined_opts);
    let ranks_serial = ranks_under(&x, p, &serial_opts);
    assert_eq!(
        ranks_pipe, ranks_serial,
        "pipelined and serial-wait schedules diverged"
    );

    let rows = [
        measure(
            format!("dist_overlap_pipelined/p{p}"),
            &x,
            p,
            &pipelined_opts,
            reps,
        ),
        measure(
            format!("dist_overlap_serial/p{p}"),
            &x,
            p,
            &serial_opts,
            reps,
        ),
    ];

    println!(
        "# dist overlap: dims {DIMS:?}, rank half {RANK_HALF}, tol {TOL:.0e}, p = {p}, {reps} reps, ranks out {ranks_pipe:?}"
    );
    println!("{:<28} {:>12} {:>12}", "schedule", "mean", "min");
    for r in &rows {
        println!(
            "{:<28} {:>12} {:>12}",
            r.id,
            fmt_secs(r.mean_ns as f64 * 1e-9),
            fmt_secs(r.min_ns as f64 * 1e-9)
        );
    }

    // Modeled prediction: price the sweep's collective stream with the
    // analytic model, read the compute leg out of the measured serial time
    // (serial = compute + comm by construction), and fold the two legs with
    // the pipelined-stage formula. On a machine where the comm leg is a
    // meaningful fraction this predicts the measured speedup; on a 1-core
    // box both land near 1.0x (thread "ranks" share the core, so there is
    // nothing to hide the comm behind).
    let local_dims: Vec<usize> = DIMS.iter().map(|&d| block_range(d, p, 0).len()).collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(SEED);
    let local = tt_core::synthetic::generate_redundant(&local_dims, RANK_HALF, &mut rng);
    let model_comm = ModelComm::new(p);
    let _ = round(&model_comm, local, RoundingMethod::GramRlr, &pipelined_opts);
    let model = CostModel::default();
    let comm_s = model_comm.stats().modeled_time(&model, p);
    let serial_s = rows[1].mean_ns as f64 * 1e-9;
    let compute_s = (serial_s - comm_s).max(0.0);
    let modeled_pipelined_s = model.pipelined_time(compute_s, comm_s);
    let modeled_speedup = serial_s / modeled_pipelined_s.max(f64::MIN_POSITIVE);
    let measured_speedup = rows[1].mean_ns as f64 / rows[0].mean_ns.max(1) as f64;
    println!(
        "# modeled: comm {} + compute {} -> pipelined {} ({modeled_speedup:.2}x); measured {measured_speedup:.2}x",
        fmt_secs(comm_s),
        fmt_secs(compute_s),
        fmt_secs(modeled_pipelined_s)
    );

    if let Some(path) = args.get::<String>("json") {
        if let Err(e) = write_gate_jsonl(&path, &rows) {
            eprintln!("dist_overlap: could not write {path}: {e}");
            std::process::exit(1);
        }
        println!("# wrote {path}");
    }
}
