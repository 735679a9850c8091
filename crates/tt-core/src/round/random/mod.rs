//! Randomized TT-Rounding — the paper's stated future-work direction
//! (§VI: "we plan in the future to study randomized methods to perform
//! rounding procedures ... they reduce arithmetic further and also rely on
//! matrix multiplication"), as *randomize-then-orthogonalize* (Al Daas,
//! Ballard, Cazeaux, Hallman, et al., "Randomized algorithms for rounding
//! in the tensor-train format", SISC 2023 / arXiv 2110.04393 Alg. 3.3).
//!
//! Sketch the unfolding at every bond with a random TT tensor of the target
//! ranks, then make one left-to-right pass that orthogonalizes the *small*
//! sketched matrices only. Compared to Alg. 2 it performs no large QRs;
//! compared to Algs. 5/6 it needs only one structured-contraction sweep. The
//! price is a fixed *a-priori* target rank, [`RoundingOptions::max_rank`]
//! (plus oversampling in the sketch), instead of an ε guarantee, and no
//! error estimate.
//!
//! It is written once against [`tt_comm::Communicator`] and parallelizes
//! exactly like Alg. 6: replicated seeded sketches, local `gemm`s, one
//! allreduce per mode in the sketch sweep and one per mode in the
//! truncation sweep, small factorizations done redundantly — so all rank
//! decisions are taken identically on every rank from replicated
//! (already-allreduced) quantities.

mod sketch;

use crate::core::TtCore;
use crate::round::gram::{postmult_v, premult_h};
use crate::round::{BondTruncation, RoundReport, RoundingOptions};
use crate::tensor::TtTensor;
use sketch::{gaussian_tt_sketch, TAG_TT_SKETCH};
use tt_comm::Communicator;
use tt_linalg::{gemm_alloc, gemm_v, Matrix, Trans};

/// Randomize-then-orthogonalize rounding of this rank's local block of
/// `x` with the sketch parameters of
/// [`crate::round::RoundingMethod::Randomized`] (see the module docs).
pub(crate) fn round_rand_then_orth_dist(
    comm: &impl Communicator,
    x: TtTensor,
    opts: &RoundingOptions,
    oversampling: usize,
    seed: u64,
) -> (TtTensor, RoundReport) {
    let n = x.order();
    let p = comm.size();
    let rank = comm.rank();
    let global_dims = global_dims(comm, &x);

    // Sketch ranks: target + oversampling, capped by the bond dimensions of
    // x (sketching wider than the bond is wasted work).
    let ranks_x = x.ranks();
    // The fixed-rank target: the rank cap, or the bond's own rank.
    let targets: Vec<usize> = (1..n)
        .map(|b| opts.max_rank.unwrap_or(ranks_x[b]))
        .collect();
    let sketch_ranks: Vec<usize> = (0..n - 1)
        .map(|b| targets[b].saturating_add(oversampling).min(ranks_x[b + 1]))
        .collect();
    let mut truncations = Vec::with_capacity(n - 1);

    // Build this rank's local block of the (conceptually global) random
    // sketch tensor: slice i of sketch core k is seeded by (seed, k, i_glob),
    // so every rank generates identical slices for the indices it owns.
    let sketch = gaussian_tt_sketch(
        &global_dims,
        &sketch_ranks,
        p,
        rank,
        seed,
        comm.is_model(),
        TAG_TT_SKETCH,
    );

    // ---- Right-to-left sketch sweep: W_b = (cores b.. of X) ⋅ (cores b..
    // of R), contracting all physical modes; W_b ∈ R^{R_b × ℓ_b}. ----
    // Same structure as the inner-product sweep, one allreduce per mode.
    let mut w: Vec<Matrix> = vec![Matrix::identity(1); n];
    // w[n-1] corresponds to the contraction of the last cores.
    {
        let (cx, cr) = (x.core(n - 1), sketch.core(n - 1));
        let mut m = gemm_alloc(Trans::No, cx.h(), Trans::Yes, cr.h(), 1.0);
        comm.allreduce_sum(m.as_mut_slice());
        w[n - 1] = m;
    }
    for k in (1..n - 1).rev() {
        // E = X_k ×₃ w[k+1]ᵀ : post-multiply V(X_k) by w (R_{k+1} × ℓ_{k+1}).
        let (cx, cr) = (x.core(k), sketch.core(k));
        let e = postmult_v(cx, &w[k + 1]);
        // Contract E with R_k over (mode, right-rank): H(E)·H(R_k)ᵀ.
        let mut m = gemm_alloc(Trans::No, e.h(), Trans::Yes, cr.h(), 1.0);
        comm.allreduce_sum(m.as_mut_slice());
        w[k] = m;
    }

    // ---- Left-to-right orthogonalization pass on sketched cores. ----
    let mut cores_out: Vec<TtCore> = Vec::with_capacity(n);
    let mut cur = x.core(0).clone();
    for k in 0..n - 1 {
        // Z = V(cur)·W_{k+1}: (r0·I_k) × ℓ — the sketched unfolding.
        let z = gemm_alloc(Trans::No, cur.v(), Trans::No, w[k + 1].view(), 1.0);
        // Thin Q via TSQR (small: ℓ columns), then cut the oversampled
        // sketch down to the target rank through the ℓ×ℓ R factor's SVD
        // (plain column truncation of Q would pick an arbitrary subspace —
        // Q's columns are not importance-ordered).
        let (q, r) = crate::round::tsqr::tsqr(comm, &z);
        let q = lead_basis(q, &r, targets[k]);
        let l_rank = q.cols();
        let y_core = TtCore::from_v(q, cur.r0(), cur.mode_dim(), l_rank);
        // M = Y_kᵀ ⋅ cur (contract left rank + mode): ℓ × R_{k+1};
        // local gemm + allreduce.
        let mut m = Matrix::zeros(l_rank, cur.r1());
        gemm_v(
            Trans::Yes,
            y_core.v(),
            Trans::No,
            cur.v(),
            1.0,
            0.0,
            m.view_mut(),
        );
        comm.allreduce_sum(m.as_mut_slice());
        truncations.push(BondTruncation {
            bond: k + 1,
            rank_before: ranks_x[k + 1],
            rank_after: l_rank,
            discarded: None,
            sketch_cols: Some(sketch_ranks[k]),
        });
        // Push the remainder into the next core.
        cur = premult_h(x.core(k + 1), &m);
        cores_out.push(y_core);
    }
    cores_out.push(cur);
    let y = TtTensor::new(cores_out);
    // Sketch-only: ‖X‖ is never formed.
    let report = RoundReport::new(f64::NAN, ranks_x, &y, truncations);
    (y, report)
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
#[expect(
    clippy::cast_possible_truncation,
    reason = "mode sizes travel through the allreduce as exact integers in f64 words"
)]
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

    fn method(oversampling: usize, seed: u64) -> RoundingMethod {
        RoundingMethod::Randomized { oversampling, seed }
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

    #[test]
    fn recovers_redundant_ranks_exactly() {
        let mut r = rng(1);
        let base = TtTensor::random(&[10, 8, 9, 7], &[3, 3, 3], &mut r);
        let doubled = base.add(&base);
        let mut expect = base.clone();
        expect.scale(2.0);
        let (y, _) = round_seq(&doubled, method(4, 99), &capped(3));
        assert_eq!(y.ranks(), vec![1, 3, 3, 3, 1]);
        let err = y.to_dense().fro_dist(&expect.to_dense());
        assert!(err < 1e-8 * (1.0 + expect.norm()), "err {err}");
    }

    #[test]
    fn uniform_target_rank_caps() {
        let mut r = rng(2);
        let x = TtTensor::random(&[8, 8, 8], &[6, 6], &mut r);
        let (y, _) = round_seq(&x, RoundingMethod::randomized(), &capped(3));
        assert_eq!(y.ranks(), vec![1, 3, 3, 1]);
    }

    #[test]
    fn near_low_rank_tensor_approximated_well() {
        // base (rank 3) + tiny noise (rank 2): rounding to rank 3 captures
        // the dominant part.
        let mut r = rng(3);
        let base = TtTensor::random(&[12, 10, 11], &[3, 3], &mut r);
        let mut noise = TtTensor::random(&[12, 10, 11], &[2, 2], &mut r);
        let scale = 1e-6 * base.norm() / noise.norm();
        noise.scale(scale);
        let x = base.add(&noise);
        let (y, _) = round_seq(&x, method(5, 0x5eed), &capped(3));
        let err = y.to_dense().fro_dist(&x.to_dense()) / x.norm();
        assert!(err < 1e-4, "err {err}");
    }

    #[test]
    fn deterministic_given_seed() {
        let mut r = rng(4);
        let x = TtTensor::random(&[7, 6, 8], &[5, 4], &mut r);
        let m = method(8, 1234);
        let a = round_seq(&x, m, &capped(3)).0;
        let b = round_seq(&x, m, &capped(3)).0;
        assert_eq!(a, b);
    }

    #[test]
    fn distributed_matches_sequential() {
        let mut r = rng(5);
        let base = TtTensor::random(&[9, 8, 10], &[3, 2], &mut r);
        let x = base.add(&base);
        let dims = x.dims();
        let (m, opts) = (method(4, 7), capped(3));
        let seq = round_seq(&x, m, &opts).0;
        for p in [2usize, 3] {
            let gathered = tt_comm::ThreadComm::run(p, |comm| {
                let local = crate::dist::scatter_tensor(&x, &comm);
                let (y, _) = round(&comm, local, m, &opts);
                crate::dist::gather_tensor(&y, &dims, &comm)
            });
            for g in &gathered {
                assert_eq!(g.ranks(), seq.ranks(), "p={p}");
                let gap = g.to_dense().fro_dist(&seq.to_dense());
                assert!(gap < 1e-8 * (1.0 + seq.norm()), "p={p}: {gap}");
            }
        }
    }

    #[test]
    fn sketch_ranks_capped_by_bond() {
        // target + oversampling larger than the formal rank: capped, and the
        // value is preserved exactly (no actual truncation happens).
        let mut r = rng(6);
        let x = TtTensor::random(&[6, 6, 6], &[3, 3], &mut r);
        let (y, _) = round_seq(&x, RoundingMethod::randomized(), &capped(10));
        assert!(y.max_rank() <= 3);
        let err = y.to_dense().fro_dist(&x.to_dense());
        assert!(err < 1e-8 * (1.0 + x.norm()), "err {err}");
    }

    #[test]
    fn cap_above_an_edge_bonds_row_count_stays_exact() {
        // x + x has formal rank 4 at bond 1, where the 2-row first unfolding
        // admits at most rank 2: the sketch is wider than the unfolding, so
        // TSQR pads Q, and a cap of 3 must not keep a padded direction.
        let mut r = rng(11);
        let base = TtTensor::random(&[2, 7, 7, 3], &[2, 3, 3], &mut r);
        let doubled = base.add(&base);
        let (y, _) = round_seq(&doubled, method(5, 3), &capped(3));
        let err = y.to_dense().fro_dist(&doubled.to_dense());
        assert!(err < 1e-8 * (1.0 + doubled.norm()), "err {err}");
    }

    #[test]
    fn report_records_bonds_and_ranks() {
        let mut r = rng(10);
        let x = TtTensor::random(&[7, 6, 5], &[4, 4], &mut r);
        let (y, report) = round_seq(&x, RoundingMethod::randomized(), &capped(2));
        assert_eq!(report.ranks_before, vec![1, 4, 4, 1]);
        assert_eq!(report.ranks_after, y.ranks());
        assert_eq!(report.truncations.len(), 2);
        for (b, rec) in report.truncations.iter().enumerate() {
            assert_eq!(rec.bond, b + 1);
            assert_eq!(rec.rank_after, y.ranks()[b + 1]);
        }
    }
}
