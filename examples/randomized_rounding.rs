//! The paper's future-work direction (§VI), realized: randomized
//! TT-Rounding. Compares accuracy and speed of every rounding method —
//! the four deterministic ones and randomize-then-orthogonalize — on a
//! tensor with redundant ranks.
//!
//! Run with: `cargo run --release --example randomized_rounding`

#![allow(
    clippy::print_stdout,
    reason = "user-facing output is this target's job"
)]
#![allow(
    clippy::disallowed_methods,
    reason = "wall-clock timing is what this target reports; no result depends on it"
)]
use rand::SeedableRng;
use tt_gram_round::comm::SelfComm;
use tt_gram_round::tt::synthetic::generate_redundant;
use tt_gram_round::tt::{round, RoundingMethod, RoundingOptions};

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    // Model-4-like shape at reduced size: 2500 × 20⁹, ranks 20 → 10.
    let mut dims = vec![20usize; 10];
    dims[0] = 2500;
    let x = generate_redundant(&dims, 10, &mut rng);
    let norm = x.norm();
    println!(
        "x: {} modes, I1 = {}, formal ranks {} (true ranks {})",
        x.order(),
        dims[0],
        x.max_rank(),
        x.max_rank() / 2
    );
    println!();
    println!(
        "{:<22} {:>10} {:>10} {:>12}",
        "method", "time", "max rank", "rel error"
    );

    let comm = SelfComm::new();
    let timed = |name: &str, method: RoundingMethod, opts: &RoundingOptions| {
        let input = x.clone();
        let t0 = std::time::Instant::now();
        let (y, _) = round(&comm, input, method, opts);
        let dt = t0.elapsed().as_secs_f64();
        let err = y.sub(&x).norm() / norm;
        println!(
            "{:<22} {:>8.1}ms {:>10} {:>12.2e}",
            name,
            dt * 1e3,
            y.max_rank(),
            err
        );
    };

    let tol = RoundingOptions::with_tolerance(1e-8);
    timed("TT-Round-QR (Alg 2)", RoundingMethod::Qr, &tol);
    timed("Gram-Sim (Alg 5)", RoundingMethod::GramSim, &tol);
    timed("Gram-RLR (Alg 6)", RoundingMethod::GramRlr, &tol);
    timed("Gram-LRL (Alg 6)", RoundingMethod::GramLrl, &tol);
    // Randomized rounding takes the rank cap as its target.
    let rank10 = RoundingOptions::default().max_rank(10);
    timed("Rand-then-orth", RoundingMethod::randomized(), &rank10);

    println!();
    println!("expected ordering (paper §IV-E + §VI): QR slowest; sequence Gram variants");
    println!("beat the simultaneous one. Rand-then-orth pays a fixed target rank and");
    println!("no error estimate; it wins where the formal rank far exceeds the target");
    println!("(a sum of many trains), not on this doubled train (EXPERIMENTS.md).");
    println!("(rel errors sit at the sqrt(eps) TT-inner-product floor, ~1e-8)");
}
