//! A compact scaling study: strong-scale TT-Rounding of a Table-I-style
//! tensor across simulated rank counts, and validate the distributed
//! algorithms against the sequential ones with real threads.
//!
//! Run with: `cargo run --release --example scaling_study`

#![allow(
    clippy::print_stdout,
    reason = "user-facing output is this target's job"
)]
#![allow(
    clippy::disallowed_methods,
    reason = "wall-clock timing is what this target reports; no result depends on it"
)]
use rand::SeedableRng;
use tt_gram_round::comm::{Communicator, CostModel, ThreadComm};
use tt_gram_round::tt::synthetic::{generate_redundant, ModelSpec};
use tt_gram_round::tt::{gather_tensor, round, scatter_tensor, RoundingMethod, RoundingOptions};

fn main() {
    // ---- Part 1: correctness of the distributed algorithm (real threads).
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let x = generate_redundant(&[64, 40, 48, 40], 6, &mut rng);
    println!("validating distributed rounding on real threads:");
    let opts = RoundingOptions::with_tolerance(1e-9);
    let comm = tt_gram_round::comm::SelfComm::new();
    let seq = round(&comm, x.clone(), RoundingMethod::GramLrl, &opts).0;
    for p in [2usize, 4] {
        let xs = x.clone();
        let dims = x.dims();
        let gathered = ThreadComm::run(p, |comm| {
            let local = scatter_tensor(&xs, &comm);
            let (rounded, _) = round(&comm, local, RoundingMethod::GramLrl, &opts);
            gather_tensor(&rounded, &dims, &comm)
        });
        let gap = gathered[0].sub(&seq).norm() / (1.0 + seq.norm());
        println!(
            "  P = {p}: ranks {:?}, gap to sequential {gap:.1e}",
            gathered[0].ranks()
        );
    }

    // ---- Part 2: modeled strong scaling (the Fig. 2 methodology). ----
    println!();
    println!("modeled strong scaling, model 1 at 1/10 scale (measured local compute +");
    println!("LogP-modeled communication; see DESIGN.md):");
    let spec = ModelSpec::table1(1).scaled(0.1);
    let cost = CostModel::default();
    println!(
        "  {:>5} {:>12} {:>12} {:>12} {:>9}",
        "P", "compute", "comm", "total", "speedup"
    );
    let mut t1 = None;
    for p in [1usize, 4, 16, 64, 256] {
        let run = tt_bench_like(&spec, p, &cost);
        let total = run.0 + run.1;
        let t1v = *t1.get_or_insert(total);
        println!(
            "  {:>5} {:>10.1}ms {:>10.3}ms {:>10.1}ms {:>8.1}x",
            p,
            run.0 * 1e3,
            run.1 * 1e3,
            total * 1e3,
            t1v / total
        );
    }
}

/// One modeled scaling point (the same recipe the fig2/fig3 harnesses use).
fn tt_bench_like(spec: &ModelSpec, p: usize, cost: &CostModel) -> (f64, f64) {
    use tt_gram_round::comm::ModelComm;
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let local: Vec<usize> = spec.dims.iter().map(|&d| d.div_ceil(p)).collect();
    let x = generate_redundant(&local, spec.target_rank, &mut rng);
    let comm = ModelComm::new(p);
    let opts = RoundingOptions::with_tolerance(1e-8).max_rank(spec.target_rank);
    let t0 = std::time::Instant::now();
    let _ = round(&comm, x, RoundingMethod::GramLrl, &opts);
    (
        t0.elapsed().as_secs_f64(),
        comm.stats().modeled_time(cost, p),
    )
}
