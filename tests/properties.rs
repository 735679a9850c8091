//! Property-based tests (proptest) over the core invariants.

#![allow(
    clippy::cast_possible_truncation,
    reason = "probe indices are reduced modulo a mode size"
)]

use proptest::prelude::*;
use rand::SeedableRng;
use tt_gram_round::comm::SelfComm;
use tt_gram_round::tt::{
    round, scatter_tensor, RoundReport, RoundingMethod, RoundingOptions, TtTensor,
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

fn randomized(oversampling: usize, seed: u64) -> RoundingMethod {
    RoundingMethod::Randomized { oversampling, seed }
}

/// The randomized target: one cap for every bond, the largest
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

    /// Gram-RLR/LRL keep ‖X − Y‖ ≤ ε‖X‖ against the dense oracle at a
    /// loose, a moderate and a tight tolerance, on `x + x + y` with `y` a
    /// scaled second train: redundant bonds whose Grams are rank-deficient,
    /// and a tail that some tolerances drop and others keep.
    #[test]
    fn gram_sequence_rounding_meets_the_bound(
        (dims, ranks, seed) in tt_shape(),
        tail_exp in 2u32..=8,
    ) {
        let x = build(&dims, &ranks, seed);
        let mut y = build(&dims, &ranks, seed ^ 0x5eed);
        y.scale(10f64.powi(-(tail_exp as i32)));
        let z = x.add(&x).add(&y);
        let dense = z.to_dense();
        let norm = dense.fro_norm();
        for tol in [1e-3, 1e-5, 1e-9] {
            for (name, method) in [("rlr", RoundingMethod::GramRlr), ("lrl", RoundingMethod::GramLrl)] {
                let err = round_seq(&z, method, tol).to_dense().fro_dist(&dense);
                prop_assert!(
                    err <= tol * norm,
                    "{} at {:e}: error {} over {}", name, tol, err, tol * norm
                );
            }
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
        let vals = tt_comm::ThreadComm::run(p, |comm| {
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
    /// tensor.
    #[test]
    fn randomized_rounding_recovers((dims, ranks, seed) in tt_shape()) {
        let x = build(&dims, &ranks, seed);
        let doubled = x.add(&x);
        let mut expect = x.clone();
        expect.scale(2.0);
        let dense_expect = expect.to_dense();
        let method = randomized(5, seed ^ 0xabcd);
        let (y, _) = round_with(&doubled, method, &uniform_cap(&ranks));
        // One cap for all bonds: a bond whose true rank sits below it may
        // keep up to the cap.
        let cap = ranks.iter().copied().max().unwrap_or(1);
        prop_assert!(y.max_rank() <= cap);
        let err = y.to_dense().fro_dist(&dense_expect);
        prop_assert!(
            err <= 1e-6 * (1.0 + dense_expect.fro_norm()),
            "err {}", err
        );
    }

    /// Differential test over the whole method matrix: all four
    /// deterministic rounding algorithms (QR baseline, Gram
    /// RLR/LRL/simultaneous) *and* randomized rounding, sequentially and
    /// distributed over ThreadComm ranks, agree pairwise within the §III-B2
    /// theory bound. Each deterministic method guarantees ‖X − Y‖ ≤ τ‖X‖
    /// (with the same 1.5 constant-slack the error-bound test uses);
    /// randomized rounding runs at the input's own ranks (no truncation,
    /// reproduction up to fp/conditioning), so any two outputs are within
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

        let rand_method = randomized(5, seed ^ 0xfeed);
        let rand_opts = uniform_cap(&ranks);

        // Sequential: SelfComm under the hood.
        let mut outputs: Vec<(String, _)> = vec![
            ("qr/seq".to_string(), round_seq(&x, RoundingMethod::Qr, tol).to_dense()),
            ("rlr/seq".to_string(), round_seq(&x, RoundingMethod::GramRlr, tol).to_dense()),
            ("lrl/seq".to_string(), round_seq(&x, RoundingMethod::GramLrl, tol).to_dense()),
            ("sim/seq".to_string(), round_seq(&x, RoundingMethod::GramSim, tol).to_dense()),
        ];
        outputs.push((
            "rand/seq".to_string(),
            round_with(&x, rand_method, &rand_opts).0.to_dense(),
        ));

        // Distributed: the same methods over p thread-backed ranks.
        let opts = RoundingOptions::with_tolerance(tol);
        for (name, method, opts) in [
            ("qr", RoundingMethod::Qr, &opts),
            ("rlr", RoundingMethod::GramRlr, &opts),
            ("lrl", RoundingMethod::GramLrl, &opts),
            ("sim", RoundingMethod::GramSim, &opts),
            ("rand", rand_method, &rand_opts),
        ] {
            let gathered = tt_comm::ThreadComm::run(p, |comm| {
                let local = scatter_tensor(&x, &comm);
                let (rounded, _report) = round(&comm, local, method, opts);
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
