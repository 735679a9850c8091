//! Randomized TT-Rounding — the paper's stated future-work direction
//! (§VI: "we plan in the future to study randomized methods to perform
//! rounding procedures ... they reduce arithmetic further and also rely on
//! matrix multiplication"), grown into the published successor family:
//!
//! * [`RandomizedVariant::RandThenOrth`] — *randomize-then-orthogonalize*
//!   (Al Daas, Ballard, Cazeaux, Hallman, et al., "Randomized algorithms
//!   for rounding in the tensor-train format", SISC 2023 / arXiv
//!   2110.04393 Alg. 3.3): sketch every unfolding with a random TT tensor,
//!   then one left-to-right pass orthogonalizing the small sketched
//!   matrices. Cheapest; no error estimate.
//! * [`RandomizedVariant::OrthThenRand`] — *orthogonalize-then-randomize*
//!   (arXiv 2110.04393 Alg. 3.2): right-orthogonalize first, then sketch
//!   with small replicated Gaussians. One extra TSQR sweep buys a
//!   *computable* per-bond error bound ([`RoundReport::certified_error`](crate::round::RoundReport::certified_error))
//!   because the trailing cores stay row-orthonormal while truncating.
//! * [`RandomizedVariant::AdaptiveKr`] — *adaptive Khatri–Rao rounding*
//!   (arXiv 2511.03598): Khatri–Rao-structured sketch matrices whose column
//!   count grows geometrically until a posterior ε estimate certifies
//!   `‖X − Y‖ ≤ ε‖X‖`, removing the fixed-target-rank limitation of the
//!   other two; it certifies [`RoundingOptions::tolerance`].
//!
//! The two fixed-rank variants round every bond to the
//! [`RoundingOptions::max_rank`] target (plus oversampling in the sketch).
//!
//! Every variant is written once against [`tt_comm::Communicator`] and
//! parallelizes exactly like the Gram variants: replicated seeded sketches,
//! local `gemm`s, one allreduce per mode per sweep, small factorizations
//! done redundantly — so all rank decisions are taken identically on every
//! rank from replicated (already-allreduced) quantities.

mod adaptive;
mod orth_then_rand;
mod rand_then_orth;
pub(crate) mod sketch;

pub(crate) use adaptive::round_adaptive_kr_dist;
pub(crate) use orth_then_rand::round_orth_then_rand_dist;
pub(crate) use rand_then_orth::round_rand_then_orth_dist;

use crate::round::RoundingOptions;
use crate::tensor::TtTensor;
use tt_comm::Communicator;
use tt_linalg::{gemm_alloc, Matrix, Trans};

/// Which member of the randomized-rounding family to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RandomizedVariant {
    /// Randomize-then-orthogonalize (SISC 2023 Alg. 3.3) — the default.
    #[default]
    RandThenOrth,
    /// Orthogonalize-then-randomize (Alg. 3.2); computable error bound.
    OrthThenRand,
    /// Adaptive Khatri–Rao sketching with an ε certificate (arXiv
    /// 2511.03598); ignores the rank cap.
    AdaptiveKr,
}

/// The sketch parameters of [`crate::round::RoundingMethod::Randomized`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Sketch {
    pub(crate) oversampling: usize,
    pub(crate) seed: u64,
}

/// The fixed-rank target at a bond of current rank `bond_rank`: the rank
/// cap, or the bond's own rank when there is none.
fn target_rank(opts: &RoundingOptions, bond_rank: usize) -> usize {
    opts.max_rank.unwrap_or(bond_rank)
}

/// Cuts a sketched basis `q` (with TSQR factor `r`) to at most `target`
/// columns, importance-ordered through the SVD of `r` (Q's raw columns are
/// not ordered). Directions with a numerically zero singular value are never
/// kept: when the sketch is wider than the unfolding has rows, TSQR pads
/// `q`, and those padded directions are not orthonormal in the unfolding's
/// space.
fn lead_basis(q: Matrix, r: &Matrix, target: usize) -> Matrix {
    if target >= q.cols() {
        return q;
    }
    let svd = tt_linalg::jacobi_svd(r);
    let l = svd.numerical_rank().min(target).max(1);
    let u_lead = svd.u.truncate_cols(l);
    gemm_alloc(Trans::No, q.view(), Trans::No, u_lead.view(), 1.0)
}

/// The global mode dimensions of the distributed train whose local block is
/// `x`: one allreduce of the local mode sizes. The model backend returns one
/// representative rank's `⌈I/P⌉` share unreduced, so it is scaled by `P` to
/// a global size whose representative share is exactly the local block.
fn global_dims(comm: &impl Communicator, x: &TtTensor) -> Vec<usize> {
    let mut dims: Vec<f64> = x.dims().iter().map(|&d| d as f64).collect();
    comm.allreduce_sum(&mut dims);
    let scale = if comm.is_model() { comm.size() } else { 1 };
    dims.iter().map(|&d| d as usize * scale).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::round::{round, RoundReport, RoundingMethod};
    use tt_comm::SelfComm;

    fn method(variant: RandomizedVariant, oversampling: usize, seed: u64) -> RoundingMethod {
        RoundingMethod::Randomized {
            variant,
            oversampling,
            seed,
        }
    }

    /// Sequential randomized rounding of a copy of `x`.
    fn round_seq(
        x: &TtTensor,
        method: RoundingMethod,
        opts: &RoundingOptions,
    ) -> (TtTensor, RoundReport) {
        round(&SelfComm::new(), x.clone(), method, opts)
    }

    fn capped(rank: usize) -> RoundingOptions {
        RoundingOptions::default().max_rank(rank)
    }

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::SeedableRng::seed_from_u64(seed)
    }

    /// The fixed-rank variants, for matrix-style tests.
    pub(super) const FIXED_RANK: [RandomizedVariant; 2] = [
        RandomizedVariant::RandThenOrth,
        RandomizedVariant::OrthThenRand,
    ];

    #[test]
    fn recovers_redundant_ranks_exactly_all_variants() {
        let mut r = rng(1);
        let base = TtTensor::random(&[10, 8, 9, 7], &[3, 3, 3], &mut r);
        let doubled = base.add(&base);
        let mut expect = base.clone();
        expect.scale(2.0);
        for variant in FIXED_RANK {
            let (y, _) = round_seq(&doubled, method(variant, 4, 99), &capped(3));
            assert_eq!(y.ranks(), vec![1, 3, 3, 3, 1], "{variant:?}");
            let err = y.to_dense().fro_dist(&expect.to_dense());
            assert!(err < 1e-8 * (1.0 + expect.norm()), "{variant:?}: err {err}");
        }
    }

    #[test]
    fn uniform_target_rank_caps() {
        let mut r = rng(2);
        let x = TtTensor::random(&[8, 8, 8], &[6, 6], &mut r);
        for variant in FIXED_RANK {
            let (y, _) = round_seq(&x, RoundingMethod::randomized(variant), &capped(3));
            assert_eq!(y.ranks(), vec![1, 3, 3, 1], "{variant:?}");
        }
    }

    #[test]
    fn near_low_rank_tensor_approximated_well() {
        // base (rank 3) + tiny noise (rank 2): rounding to rank 3 captures
        // the dominant part, for every fixed-rank variant.
        let mut r = rng(3);
        let base = TtTensor::random(&[12, 10, 11], &[3, 3], &mut r);
        let mut noise = TtTensor::random(&[12, 10, 11], &[2, 2], &mut r);
        let scale = 1e-6 * base.norm() / noise.norm();
        noise.scale(scale);
        let x = base.add(&noise);
        for variant in FIXED_RANK {
            let (y, _) = round_seq(&x, method(variant, 5, 0x5eed), &capped(3));
            let err = y.to_dense().fro_dist(&x.to_dense()) / x.norm();
            assert!(err < 1e-4, "{variant:?}: err {err}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut r = rng(4);
        let x = TtTensor::random(&[7, 6, 8], &[5, 4], &mut r);
        for variant in FIXED_RANK {
            let m = method(variant, 8, 1234);
            let a = round_seq(&x, m, &capped(3)).0;
            let b = round_seq(&x, m, &capped(3)).0;
            assert_eq!(a, b, "{variant:?}");
        }
        let m = method(RandomizedVariant::AdaptiveKr, 8, 1234);
        let opts = RoundingOptions::with_tolerance(1e-6);
        let a = round_seq(&x, m, &opts).0;
        let b = round_seq(&x, m, &opts).0;
        assert_eq!(a, b, "adaptive");
    }

    #[test]
    fn distributed_matches_sequential() {
        let mut r = rng(5);
        let base = TtTensor::random(&[9, 8, 10], &[3, 2], &mut r);
        let x = base.add(&base);
        let dims = x.dims();
        let mut all: Vec<(RoundingMethod, RoundingOptions)> = FIXED_RANK
            .iter()
            .map(|&v| (method(v, 4, 7), capped(3)))
            .collect();
        all.push((
            method(RandomizedVariant::AdaptiveKr, 8, 7),
            RoundingOptions::with_tolerance(1e-7),
        ));
        for (m, opts) in all {
            let seq = round_seq(&x, m, &opts).0;
            for p in [2usize, 3] {
                let xs = x.clone();
                let dims2 = dims.clone();
                let opts2 = opts.clone();
                let gathered = tt_comm::run_verified(p, |comm| {
                    let local = crate::dist::scatter_tensor(&xs, &comm);
                    let (y, _) = round(&comm, local, m, &opts2);
                    crate::dist::gather_tensor(&y, &dims2, &comm)
                });
                for g in &gathered {
                    assert_eq!(g.ranks(), seq.ranks(), "{m:?} p={p}");
                    let gap = g.to_dense().fro_dist(&seq.to_dense());
                    assert!(gap < 1e-8 * (1.0 + seq.norm()), "{m:?} p={p}: {gap}");
                }
            }
        }
    }

    #[test]
    fn sketch_ranks_capped_by_bond() {
        // target + oversampling larger than the formal rank: capped, and the
        // value is preserved exactly (no actual truncation happens).
        let mut r = rng(6);
        let x = TtTensor::random(&[6, 6, 6], &[3, 3], &mut r);
        for variant in FIXED_RANK {
            let (y, _) = round_seq(&x, RoundingMethod::randomized(variant), &capped(10));
            assert!(y.max_rank() <= 3, "{variant:?}");
            let err = y.to_dense().fro_dist(&x.to_dense());
            assert!(err < 1e-8 * (1.0 + x.norm()), "{variant:?}: err {err}");
        }
    }

    #[test]
    fn cap_above_an_edge_bonds_row_count_stays_exact() {
        // x + x has formal rank 4 at bond 1, where the 2-row first unfolding
        // admits at most rank 2: the sketch is wider than the unfolding, so
        // TSQR pads Q, and a cap of 3 must not keep a padded direction.
        let mut r = rng(11);
        let base = TtTensor::random(&[2, 7, 7, 3], &[2, 3, 3], &mut r);
        let doubled = base.add(&base);
        for variant in FIXED_RANK {
            let (y, _) = round_seq(&doubled, method(variant, 5, 3), &capped(3));
            let err = y.to_dense().fro_dist(&doubled.to_dense());
            assert!(
                err < 1e-8 * (1.0 + doubled.norm()),
                "{variant:?}: err {err}"
            );
        }
    }

    #[test]
    fn orth_then_rand_certificate_dominates_true_error() {
        let mut r = rng(7);
        let base = TtTensor::random(&[9, 7, 8, 6], &[3, 3, 2], &mut r);
        let mut noise = TtTensor::random(&[9, 7, 8, 6], &[2, 2, 2], &mut r);
        noise.scale(1e-3 * base.norm() / noise.norm());
        let x = base.add(&noise);
        let m = method(RandomizedVariant::OrthThenRand, 6, 0x5eed);
        let (y, report) = round_seq(&x, m, &capped(3));
        let norm = report.norm;
        assert!((norm - x.norm()).abs() < 1e-9 * (1.0 + x.norm()));
        let certified = report.certified_error.expect("certificate expected");
        let true_err = y.to_dense().fro_dist(&x.to_dense()) / x.norm();
        // The certificate is an upper bound on the true error (up to the
        // sqrt(eps)-scale floor of finite-precision Gram arithmetic).
        assert!(
            true_err <= certified + 1e-8,
            "true {true_err} vs certified {certified}"
        );
    }

    #[test]
    fn adaptive_certifies_and_meets_epsilon() {
        let mut r = rng(8);
        let base = TtTensor::random(&[8, 9, 7, 8], &[3, 4, 3], &mut r);
        let x = base.add(&base);
        for eps in [1e-2, 1e-4, 1e-6] {
            let (y, report) = round_seq(
                &x,
                RoundingMethod::randomized(RandomizedVariant::AdaptiveKr),
                &RoundingOptions::with_tolerance(eps),
            );
            let true_err = y.to_dense().fro_dist(&x.to_dense()) / x.norm();
            assert!(true_err <= eps, "eps={eps}: true error {true_err}");
            let posterior = report.posterior_error.expect("adaptive posterior");
            assert!(posterior <= eps, "eps={eps}: posterior {posterior}");
            // Redundant ranks must be detected: no bond can exceed the base.
            for (ra, rb) in y.ranks().iter().zip(base.ranks().iter()) {
                assert!(ra <= rb, "eps={eps}: ranks {:?}", y.ranks());
            }
        }
    }

    #[test]
    fn adaptive_loose_epsilon_truncates_harder_than_tight() {
        let mut r = rng(9);
        let x = TtTensor::random(&[8, 8, 8, 8], &[6, 6, 6], &mut r);
        let m = RoundingMethod::randomized(RandomizedVariant::AdaptiveKr);
        let loose = round_seq(&x, m, &RoundingOptions::with_tolerance(0.5)).0;
        let tight = round_seq(&x, m, &RoundingOptions::with_tolerance(1e-9)).0;
        assert!(
            loose.max_rank() <= tight.max_rank(),
            "loose {:?} vs tight {:?}",
            loose.ranks(),
            tight.ranks()
        );
    }

    #[test]
    fn report_records_bonds_and_ranks() {
        let mut r = rng(10);
        let x = TtTensor::random(&[7, 6, 5], &[4, 4], &mut r);
        for variant in FIXED_RANK {
            let (y, report) = round_seq(&x, RoundingMethod::randomized(variant), &capped(2));
            assert_eq!(report.ranks_before, vec![1, 4, 4, 1]);
            assert_eq!(report.ranks_after, y.ranks());
            assert_eq!(report.truncations.len(), 2);
            for (b, rec) in report.truncations.iter().enumerate() {
                assert_eq!(rec.bond, b + 1);
                assert_eq!(rec.rank_after, y.ranks()[b + 1]);
            }
        }
    }
}
