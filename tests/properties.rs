//! Property-based tests (proptest) over the core invariants.

use proptest::prelude::*;
use rand::SeedableRng;
use tt_gram_round::comm::SelfComm;
use tt_gram_round::tt::{
    round, scatter_tensor, RandomizedVariant, RoundReport, RoundingMethod, RoundingOptions,
    TtTensor,
};

/// Strategy: a random small TT shape (dims, ranks) plus a seed.
fn tt_shape() -> impl Strategy<Value = (Vec<usize>, Vec<usize>, u64)> {
    (2usize..=5)
        .prop_flat_map(|n| {
            (
                proptest::collection::vec(2usize..=7, n),
                proptest::collection::vec(1usize..=5, n - 1),
                any::<u64>(),
            )
        })
        .prop_filter("ranks must be representable", |(dims, ranks, _)| {
            // Every bond rank must not exceed the dimension product on
            // either side (else the true rank differs from the formal one),
            // and the rank chain must be locally feasible
            // (R_b <= R_{b-1}·I_b and R_b <= I_{b+1}·R_{b+1}) so cores are
            // never wider than tall — "overranked" chains make orthonormal
            // unfoldings impossible.
            let n = dims.len();
            let full: Vec<usize> = std::iter::once(1)
                .chain(ranks.iter().copied())
                .chain(std::iter::once(1))
                .collect();
            (1..n).all(|b| {
                let left: usize = dims[..b].iter().product();
                let right: usize = dims[b..].iter().product();
                ranks[b - 1] <= left
                    && ranks[b - 1] <= right
                    && full[b] <= full[b - 1] * dims[b - 1]
                    && full[b] <= dims[b] * full[b + 1]
            })
        })
}

/// Sequential rounding of a copy of `x`.
fn round_with(
    x: &TtTensor,
    method: RoundingMethod,
    opts: &RoundingOptions,
) -> (TtTensor, RoundReport) {
    round(&SelfComm::new(), x.clone(), method, opts)
}

/// Sequential ε-rounding of a copy of `x`.
fn round_seq(x: &TtTensor, method: RoundingMethod, tol: f64) -> TtTensor {
    round_with(x, method, &RoundingOptions::with_tolerance(tol)).0
}

fn randomized(variant: RandomizedVariant, oversampling: usize, seed: u64) -> RoundingMethod {
    RoundingMethod::Randomized {
        variant,
        oversampling,
        seed,
    }
}

/// The fixed-rank randomized target: one cap for every bond, the largest
/// bond rank of the drawn shape.
fn uniform_cap(ranks: &[usize]) -> RoundingOptions {
    RoundingOptions::default().max_rank(ranks.iter().copied().max().unwrap_or(1))
}

fn build(dims: &[usize], ranks: &[usize], seed: u64) -> TtTensor {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    TtTensor::random(dims, ranks, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// ‖X − round(X, ε)‖ ≤ ε‖X‖ for every variant and random tolerance.
    #[test]
    fn rounding_error_bound((dims, ranks, seed) in tt_shape(), tol_exp in 1u32..=6) {
        let x = build(&dims, &ranks, seed);
        let tol = 10f64.powi(-(tol_exp as i32));
        let dense = x.to_dense();
        let norm = dense.fro_norm();
        for (name, y) in [
            ("qr", round_seq(&x, RoundingMethod::Qr, tol)),
            ("rlr", round_seq(&x, RoundingMethod::GramRlr, tol)),
            ("lrl", round_seq(&x, RoundingMethod::GramLrl, tol)),
            ("sim", round_seq(&x, RoundingMethod::GramSim, tol)),
        ] {
            let err = y.to_dense().fro_dist(&dense);
            prop_assert!(
                err <= tol * norm * 1.5 + 1e-12,
                "{} violated the bound: {} > {}", name, err, tol * norm
            );
        }
    }

    /// Rounding never increases any rank.
    #[test]
    fn rounding_never_inflates_ranks((dims, ranks, seed) in tt_shape()) {
        let x = build(&dims, &ranks, seed);
        for y in [round_seq(&x, RoundingMethod::Qr, 1e-10), round_seq(&x, RoundingMethod::GramRlr, 1e-10), round_seq(&x, RoundingMethod::GramLrl, 1e-10)] {
            for (ra, rb) in y.ranks().iter().zip(x.ranks().iter()) {
                prop_assert!(ra <= rb, "rank inflated: {:?} vs {:?}", y.ranks(), x.ranks());
            }
        }
    }

    /// Rounding is idempotent on ranks: round(round(x)) has the same ranks.
    #[test]
    fn rounding_rank_idempotent((dims, ranks, seed) in tt_shape()) {
        let x = build(&dims, &ranks, seed);
        let once = round_seq(&x, RoundingMethod::GramLrl, 1e-6);
        let twice = round_seq(&once, RoundingMethod::GramLrl, 1e-6);
        prop_assert_eq!(once.ranks(), twice.ranks());
    }

    /// The redundant construction always halves: round(x + x) recovers x's
    /// ranks and equals 2x.
    #[test]
    fn formal_double_rounds_back((dims, ranks, seed) in tt_shape()) {
        let x = build(&dims, &ranks, seed);
        let doubled = x.add(&x);
        let rounded = round_seq(&doubled, RoundingMethod::GramRlr, 1e-9);
        for (ra, rb) in rounded.ranks().iter().zip(x.ranks().iter()) {
            prop_assert!(ra <= rb, "{:?} vs {:?}", rounded.ranks(), x.ranks());
        }
        let mut expect = x.clone();
        expect.scale(2.0);
        let err = rounded.to_dense().fro_dist(&expect.to_dense());
        prop_assert!(err <= 1e-7 * (1.0 + expect.to_dense().fro_norm()));
    }

    /// TT addition and scaling are exact elementwise operations.
    #[test]
    fn arithmetic_is_elementwise((dims, ranks, seed) in tt_shape(), alpha in -3.0f64..3.0) {
        let x = build(&dims, &ranks, seed);
        let y = build(&dims, &ranks, seed.wrapping_add(1));
        let mut ax = x.clone();
        ax.scale(alpha);
        let s = ax.add(&y);
        let (dx, dy, ds) = (x.to_dense(), y.to_dense(), s.to_dense());
        for k in 0..dx.len() {
            let expect = alpha * dx.as_slice()[k] + dy.as_slice()[k];
            prop_assert!((ds.as_slice()[k] - expect).abs() <= 1e-9 * (1.0 + expect.abs()));
        }
    }

    /// Distributed inner products agree with dense inner products for every
    /// rank count.
    #[test]
    fn distributed_inner_agrees((dims, ranks, seed) in tt_shape(), p in 2usize..=4) {
        let x = build(&dims, &ranks, seed);
        let y = build(&dims, &ranks, seed.wrapping_add(9));
        let (dx, dy) = (x.to_dense(), y.to_dense());
        let expect: f64 = dx.as_slice().iter().zip(dy.as_slice()).map(|(a, b)| a * b).sum();
        let vals = tt_comm::run_verified(p, |comm| {
            let xl = scatter_tensor(&x, &comm);
            let yl = scatter_tensor(&y, &comm);
            tt_gram_round::tt::dist::inner_local(&comm, &xl, &yl)
        });
        for v in vals {
            prop_assert!((v - expect).abs() <= 1e-8 * (1.0 + expect.abs()));
        }
    }

    /// `eval` agrees with the dense tensor at random multi-indices.
    #[test]
    fn eval_matches_dense((dims, ranks, seed) in tt_shape(), probe in any::<u64>()) {
        let x = build(&dims, &ranks, seed);
        let d = x.to_dense();
        let mut idx = Vec::with_capacity(dims.len());
        let mut h = probe;
        for &dim in &dims {
            idx.push((h % dim as u64) as usize);
            h = h.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        }
        prop_assert!((x.eval(&idx) - d.at(&idx)).abs() <= 1e-9 * (1.0 + d.at(&idx).abs()));
    }

    /// Randomized rounding capped at the largest true rank reproduces the
    /// tensor — for every fixed-rank family member.
    #[test]
    fn randomized_rounding_recovers((dims, ranks, seed) in tt_shape()) {
        let x = build(&dims, &ranks, seed);
        let doubled = x.add(&x);
        let mut expect = x.clone();
        expect.scale(2.0);
        let dense_expect = expect.to_dense();
        for variant in [
            RandomizedVariant::RandThenOrth,
            RandomizedVariant::OrthThenRand,
        ] {
            let method = randomized(variant, 5, seed ^ 0xabcd);
            let (y, _) = round_with(&doubled, method, &uniform_cap(&ranks));
            // One cap for all bonds: a bond whose true rank sits below it may
            // keep up to the cap.
            let cap = ranks.iter().copied().max().unwrap_or(1);
            prop_assert!(y.max_rank() <= cap);
            let err = y.to_dense().fro_dist(&dense_expect);
            prop_assert!(
                err <= 1e-6 * (1.0 + dense_expect.fro_norm()),
                "{:?}: err {}", variant, err
            );
        }
    }

    /// The adaptive Khatri–Rao variant honors its ε certificate without any
    /// user-supplied target rank, on both rank-deficient inputs (x + x: the
    /// formal rank is double the true rank) and graded-spectrum inputs
    /// (x + δ·y + δ²·z: three well-separated scales).
    #[test]
    fn adaptive_certificate_holds(
        (dims, ranks, seed) in tt_shape(),
        eps_exp in 1u32..=5,
        graded in any::<bool>(),
    ) {
        let x = build(&dims, &ranks, seed);
        let input = if graded {
            let mut y = build(&dims, &ranks, seed.wrapping_add(17));
            let mut z = build(&dims, &ranks, seed.wrapping_add(34));
            y.scale(1e-2 * x.norm() / y.norm().max(1e-300));
            z.scale(1e-4 * x.norm() / z.norm().max(1e-300));
            x.add(&y).add(&z)
        } else {
            x.add(&x)
        };
        let eps = 10f64.powi(-(eps_exp as i32));
        let method = randomized(RandomizedVariant::AdaptiveKr, 8, seed ^ 0x5afe);
        let (y, report) = round_with(&input, method, &RoundingOptions::with_tolerance(eps));
        let dense = input.to_dense();
        let norm = dense.fro_norm();
        let err = y.to_dense().fro_dist(&dense);
        // Achieved error honors ε (the whole point: no target rank given).
        prop_assert!(
            err <= eps * norm + 1e-12,
            "achieved {} > ε·‖X‖ = {}", err, eps * norm
        );
        // The certificate is an upper bound on the truth.
        let certified = report.certified_error.unwrap_or(f64::INFINITY);
        prop_assert!(
            err <= (certified + 1e-10) * (norm + 1e-12),
            "true error {} above certificate {}", err, certified * norm
        );
        // And the posterior estimate agrees with the dense truth.
        let posterior = report.posterior_error.unwrap_or(f64::INFINITY);
        prop_assert!(
            (posterior * norm - err).abs() <= 1e-7 * (1.0 + norm),
            "posterior {} vs true {}", posterior * norm, err
        );
    }

    /// Differential test over the whole variant matrix: all four
    /// deterministic rounding algorithms (QR baseline, Gram
    /// RLR/LRL/simultaneous) *and* all three randomized family members,
    /// sequentially and distributed over ThreadComm ranks, agree pairwise
    /// within the §III-B2 theory bound. Each deterministic variant
    /// guarantees ‖X − Y‖ ≤ τ‖X‖ (with the same 1.5 constant-slack the
    /// error-bound test uses); the fixed-rank randomized variants run at the
    /// input's own ranks (no truncation, reproduction up to fp/conditioning)
    /// and the adaptive variant runs at ε = τ, so any two outputs are within
    /// 2·1.5·τ‖X‖ of each other by the triangle inequality — and the
    /// distributed runs must agree because they execute the same arithmetic
    /// on scattered slices.
    #[test]
    fn rounding_variants_agree_pairwise(
        (dims, ranks, seed) in tt_shape(),
        tol_exp in 2u32..=6,
        p in 2usize..=4,
    ) {
        let x = build(&dims, &ranks, seed);
        let tol = 10f64.powi(-(tol_exp as i32));
        let dense = x.to_dense();
        let norm = dense.fro_norm();
        let bound = 2.0 * 1.5 * tol * norm + 1e-12;

        let rand_opts = |variant: RandomizedVariant| match variant {
            RandomizedVariant::AdaptiveKr => (
                randomized(variant, 8, seed ^ 0xfeed),
                RoundingOptions::with_tolerance(tol),
            ),
            _ => (randomized(variant, 5, seed ^ 0xfeed), uniform_cap(&ranks)),
        };
        let rand_variants = [
            ("rand", RandomizedVariant::RandThenOrth),
            ("orr", RandomizedVariant::OrthThenRand),
            ("akr", RandomizedVariant::AdaptiveKr),
        ];

        // Sequential: SelfComm under the hood.
        let mut outputs: Vec<(String, _)> = vec![
            ("qr/seq".to_string(), round_seq(&x, RoundingMethod::Qr, tol).to_dense()),
            ("rlr/seq".to_string(), round_seq(&x, RoundingMethod::GramRlr, tol).to_dense()),
            ("lrl/seq".to_string(), round_seq(&x, RoundingMethod::GramLrl, tol).to_dense()),
            ("sim/seq".to_string(), round_seq(&x, RoundingMethod::GramSim, tol).to_dense()),
        ];
        for (name, variant) in rand_variants {
            let (method, opts) = rand_opts(variant);
            outputs.push((format!("{name}/seq"), round_with(&x, method, &opts).0.to_dense()));
        }

        // Distributed: the same variants over p thread-backed ranks.
        let opts = RoundingOptions::with_tolerance(tol);
        for (variant, method) in [
            ("qr", RoundingMethod::Qr),
            ("rlr", RoundingMethod::GramRlr),
            ("lrl", RoundingMethod::GramLrl),
            ("sim", RoundingMethod::GramSim),
        ] {
            let gathered = tt_comm::run_verified(p, |comm| {
                let local = scatter_tensor(&x, &comm);
                let (rounded, _report) = round(&comm, local, method, &opts);
                tt_gram_round::tt::gather_tensor(&rounded, &dims, &comm)
            });
            let mut it = gathered.into_iter();
            if let Some(first) = it.next() {
                outputs.push((format!("{variant}/dist{p}"), first.to_dense()));
            }
        }
        for (name, variant) in rand_variants {
            let (method, ropts) = rand_opts(variant);
            let gathered = tt_comm::run_verified(p, |comm| {
                let local = scatter_tensor(&x, &comm);
                let (rounded, _) = round(&comm, local, method, &ropts);
                tt_gram_round::tt::gather_tensor(&rounded, &dims, &comm)
            });
            let mut it = gathered.into_iter();
            if let Some(first) = it.next() {
                outputs.push((format!("{name}/dist{p}"), first.to_dense()));
            }
        }

        for i in 0..outputs.len() {
            for j in i + 1..outputs.len() {
                let d = outputs[i].1.fro_dist(&outputs[j].1);
                prop_assert!(
                    d <= bound,
                    "{} vs {}: pairwise distance {} exceeds the theory bound {}",
                    outputs[i].0, outputs[j].0, d, bound
                );
            }
        }
    }

    /// Sketch-seed robustness: across 64 consecutive sketch seeds at the
    /// default oversampling of 8, the adaptive variant never misses its ε
    /// certificate — closing the gap where a single lucky seed hides a
    /// systematically under-sized sketch.
    #[test]
    fn adaptive_certificate_robust_across_sketch_seeds((dims, ranks, seed) in tt_shape()) {
        let x = build(&dims, &ranks, seed);
        let input = x.add(&x);
        let dense = input.to_dense();
        let norm = dense.fro_norm();
        let eps = 1e-4;
        for sketch_seed in 0..64u64 {
            let method = randomized(RandomizedVariant::AdaptiveKr, 8, sketch_seed);
            let (y, report) = round_with(&input, method, &RoundingOptions::with_tolerance(eps));
            let err = y.to_dense().fro_dist(&dense);
            prop_assert!(
                err <= eps * norm + 1e-12,
                "sketch seed {} broke the certificate: {} > {}",
                sketch_seed, err, eps * norm
            );
            prop_assert!(
                report.posterior_error.unwrap_or(f64::INFINITY) <= eps + 1e-10,
                "sketch seed {} posterior miss", sketch_seed
            );
        }
    }

    /// Orthogonalization passes preserve the represented tensor and install
    /// their invariants.
    #[test]
    fn orthogonalization_preserves_value((dims, ranks, seed) in tt_shape()) {
        let x = build(&dims, &ranks, seed);
        let comm = tt_gram_round::comm::SelfComm::new();
        let l = tt_gram_round::tt::orthogonalize_left(&comm, &x);
        let r = tt_gram_round::tt::orthogonalize_right(&comm, &x);
        let d = x.to_dense();
        prop_assert!(l.to_dense().fro_dist(&d) <= 1e-9 * (1.0 + d.fro_norm()));
        prop_assert!(r.to_dense().fro_dist(&d) <= 1e-9 * (1.0 + d.fro_norm()));
        prop_assert!(
            tt_gram_round::tt::orthogonalize::left_orthogonality_defect(&comm, &l) <= 1e-11
        );
    }
}
