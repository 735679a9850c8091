//! The paper's future-work direction (§VI), realized: randomized
//! TT-Rounding. Compares accuracy and speed of all rounding methods —
//! deterministic and the three randomized variants — on a tensor with
//! redundant ranks.
//!
//! Run with: `cargo run --release --example randomized_rounding`

#![allow(clippy::print_stdout)] // user-facing output is this target's job
use rand::SeedableRng;
use tt_gram_round::comm::SelfComm;
use tt_gram_round::tt::synthetic::generate_redundant;
use tt_gram_round::tt::{round, RandomizedVariant, RoundingMethod, RoundingOptions};

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
    // The fixed-rank randomized variants take the rank cap as their target.
    let rank10 = RoundingOptions::default().max_rank(10);
    let randomized = RoundingMethod::randomized;
    timed(
        "Rand-then-orth",
        randomized(RandomizedVariant::RandThenOrth),
        &rank10,
    );
    timed(
        "Orth-then-rand",
        randomized(RandomizedVariant::OrthThenRand),
        &rank10,
    );
    let akr = RoundingOptions::with_tolerance(1e-7);
    timed(
        "Adaptive KR (eps)",
        randomized(RandomizedVariant::AdaptiveKr),
        &akr,
    );

    println!();
    println!("expected ordering (paper §IV-E + §VI): QR slowest; sequence Gram variants");
    println!("beat the simultaneous one; rand-then-orth cheapest of all, at the price");
    println!("of a fixed target rank. Orth-then-rand pays one extra sweep for a");
    println!("computable error certificate; adaptive KR needs no target rank — it");
    println!("grows the sketch until the eps-certificate holds.");
    println!("(rel errors sit at the sqrt(eps) TT-inner-product floor, ~1e-8)");
}
