//! Quickstart: build a TT tensor, grow its ranks with formal arithmetic,
//! and round them back down with Gram-SVD TT-Rounding.
//!
//! Run with: `cargo run --release --example quickstart`

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
use tt_gram_round::tt::{round, RoundingMethod, RoundingOptions, TtTensor};

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);

    // A random 6-way TT tensor: dimensions 40 × 30 × … × 30, all TT ranks 8.
    let dims = [40usize, 30, 30, 30, 30, 30];
    let ranks = [8usize; 5];
    let x = TtTensor::random(&dims, &ranks, &mut rng);
    println!("x:       dims {:?}, ranks {:?}", x.dims(), x.ranks());
    println!(
        "         {} parameters for {:.1e} explicit entries",
        x.storage_len(),
        x.dense_len()
    );

    // Formal arithmetic grows ranks: 3x + 2x has ranks 16 but is just 5x.
    let mut x3 = x.clone();
    x3.scale(3.0);
    let mut x2 = x.clone();
    x2.scale(2.0);
    let y = x3.add(&x2);
    println!("3x + 2x: ranks {:?} (formal growth)", y.ranks());

    // TT-Rounding via Gram SVD recovers the true ranks. `round` takes the
    // train by value, so keep a copy of `y` for the comparisons below.
    let comm = SelfComm::new();
    let opts = RoundingOptions::with_tolerance(1e-10);
    let (rounded, _) = round(&comm, y.clone(), RoundingMethod::GramLrl, &opts);
    println!("rounded: ranks {:?}", rounded.ranks());

    // The result is (numerically) exactly 5x.
    let mut expect = x.clone();
    expect.scale(5.0);
    let rel_err = rounded.sub(&expect).norm() / expect.norm();
    println!("relative error vs 5x: {rel_err:.2e}");

    // The QR-based baseline computes the same thing, more slowly.
    let t0 = std::time::Instant::now();
    let _ = round(&comm, y.clone(), RoundingMethod::Qr, &opts);
    let t_qr = t0.elapsed();
    let t0 = std::time::Instant::now();
    let _ = round(&comm, y.clone(), RoundingMethod::GramLrl, &opts);
    let t_gram = t0.elapsed();
    println!(
        "rounding time: QR {:.1} ms vs Gram-LRL {:.1} ms ({:.1}x)",
        t_qr.as_secs_f64() * 1e3,
        t_gram.as_secs_f64() * 1e3,
        t_qr.as_secs_f64() / t_gram.as_secs_f64()
    );

    // Rank caps are available for fixed-rank compression.
    let (capped, _) = round(&comm, y, RoundingMethod::GramLrl, &opts.max_rank(4));
    println!("rank-capped to 4: ranks {:?}", capped.ranks());
}
