//! Thread-count determinism for the rounding algorithms.
//!
//! The parallel kernel layer (`tt_linalg::par`) promises bitwise-identical
//! results at any thread count. These tests lift that promise from kernels
//! to whole algorithms: every rounding variant run under a 4-thread kernel
//! pool must produce a TT tensor bit-for-bit equal to the 1-thread run —
//! same ranks, same core entries, same sign conventions.

use rand::SeedableRng;
use tt_core::{round, RandomizedVariant, RoundingMethod, RoundingOptions, TtTensor};
use tt_linalg::par::with_threads;

fn redundant(dims: &[usize], rank_half: usize, seed: u64) -> TtTensor {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    tt_core::synthetic::generate_redundant(dims, rank_half, &mut rng)
}

/// Sequential rounding of a copy of `x`.
fn round_seq(x: &TtTensor, method: RoundingMethod, opts: &RoundingOptions) -> TtTensor {
    round(&tt_comm::SelfComm::new(), x.clone(), method, opts).0
}

fn assert_tensors_bitwise_eq(a: &TtTensor, b: &TtTensor, what: &str) {
    assert_eq!(a.ranks(), b.ranks(), "{what}: ranks");
    for k in 0..a.order() {
        let (ca, cb) = (a.core(k), b.core(k));
        assert_eq!(
            (ca.r0(), ca.mode_dim(), ca.r1()),
            (cb.r0(), cb.mode_dim(), cb.r1()),
            "{what}: core {k} shape"
        );
        for (idx, (x, y)) in ca.v().as_slice().iter().zip(cb.v().as_slice()).enumerate() {
            assert!(
                x.to_bits() == y.to_bits(),
                "{what}: core {k} entry {idx} differs: {x:?} vs {y:?}"
            );
        }
    }
}

#[test]
fn all_rounding_variants_bitwise_identical_under_4_threads() {
    let x = redundant(&[8, 7, 6, 8, 5], 6, 4242);
    let opts = RoundingOptions::with_tolerance(1e-8);
    let variants = [
        ("rlr", RoundingMethod::GramRlr),
        ("lrl", RoundingMethod::GramLrl),
        ("sim", RoundingMethod::GramSim),
        ("qr", RoundingMethod::Qr),
    ];
    for (name, method) in variants {
        let serial = with_threads(1, || round_seq(&x, method, &opts));
        let parallel = with_threads(4, || round_seq(&x, method, &opts));
        assert_tensors_bitwise_eq(&serial, &parallel, name);
        // And a second parallel run must be reproducible too (no hidden
        // scheduling dependence).
        let again = with_threads(4, || round_seq(&x, method, &opts));
        assert_tensors_bitwise_eq(&parallel, &again, &format!("{name} repeat"));
    }
}

#[test]
fn randomized_family_bitwise_identical_across_thread_counts() {
    // The randomized family routes through the same kernel layer (gemm,
    // TSQR, Jacobi SVD, eigh) plus seeded sketch generation, which is
    // thread-count-independent by construction. Sweep every variant over
    // TT_NUM_THREADS ∈ {1, 2, 4}.
    let x = redundant(&[8, 7, 6, 8, 5], 6, 4242);
    let variants = [
        RandomizedVariant::RandThenOrth,
        RandomizedVariant::OrthThenRand,
        RandomizedVariant::AdaptiveKr,
    ];
    for variant in variants {
        let (oversampling, opts) = match variant {
            RandomizedVariant::AdaptiveKr => (8, RoundingOptions::with_tolerance(1e-8)),
            _ => (4, RoundingOptions::default().max_rank(6)),
        };
        let method = RoundingMethod::Randomized {
            variant,
            oversampling,
            seed: 11,
        };
        let serial = with_threads(1, || round_seq(&x, method, &opts));
        for threads in [2usize, 4] {
            let parallel = with_threads(threads, || round_seq(&x, method, &opts));
            assert_tensors_bitwise_eq(
                &serial,
                &parallel,
                &format!("{variant:?} threads={threads}"),
            );
        }
        // Reproducibility within one thread count, too (no hidden
        // scheduling dependence in the adaptive grow/commit loop).
        let again = with_threads(4, || round_seq(&x, method, &opts));
        assert_tensors_bitwise_eq(&serial, &again, &format!("{variant:?} repeat"));
    }
}

#[test]
fn thread_count_does_not_change_truncated_ranks() {
    // Rank decisions come from singular-value thresholds — the most
    // sensitive consumer of kernel bit-patterns. Sweep several tolerances.
    let x = redundant(&[9, 8, 7, 9], 5, 777);
    for &tol in &[1e-2, 1e-6, 1e-12] {
        let opts = RoundingOptions::with_tolerance(tol);
        let r1 = with_threads(1, || round_seq(&x, RoundingMethod::GramRlr, &opts));
        let r4 = with_threads(4, || round_seq(&x, RoundingMethod::GramRlr, &opts));
        assert_eq!(r1.ranks(), r4.ranks(), "tol {tol}: ranks diverged");
        assert_tensors_bitwise_eq(&r1, &r4, &format!("rlr tol {tol}"));
    }
}
