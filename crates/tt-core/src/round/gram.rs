//! TT-Rounding via Gram SVD — Algorithms 5 and 6 of the paper.
//!
//! The structured Gram computation of §IV-B is the heart of the method: one
//! pass over the TT chain yields *every* bond's Gram matrix as a by-product
//! of computing the last one, each step being a core-times-matrix (local)
//! followed by a two-mode core contraction (local `gemm` + one allreduce).
//! The non-symmetric update (`gemm` + `gemm`) is used, as the paper chooses
//! empirically; see the `gram_sweep` group in
//! `crates/tt-bench/benches/kernels.rs` for the symmetric-variant ablation.

use crate::core::TtCore;
use crate::round::truncate::{gram_truncate, SingularSide};
use crate::round::{RoundReport, RoundingOptions};
use crate::tensor::TtTensor;
use tt_comm::Communicator;
use tt_linalg::{gemm_alloc, syrk_nt_v, syrk_v, Matrix, Trans};

/// `H(T) ← W · H(T)`: pre-multiplies the horizontal unfolding by a small
/// replicated matrix. Communication-free under the 1-D distribution.
pub(crate) fn premult_h(core: &TtCore, w: &Matrix) -> TtCore {
    assert_eq!(w.cols(), core.r0(), "premult_h: dimension mismatch");
    let out = gemm_alloc(Trans::No, w.view(), Trans::No, core.h(), 1.0);
    TtCore::from_h(out, w.rows(), core.mode_dim(), core.r1())
}

/// `V(T) ← V(T) · W`: post-multiplies the vertical unfolding by a small
/// replicated matrix. Communication-free under the 1-D distribution.
pub(crate) fn postmult_v(core: &TtCore, w: &Matrix) -> TtCore {
    assert_eq!(w.rows(), core.r1(), "postmult_v: dimension mismatch");
    let out = gemm_alloc(Trans::No, core.v(), Trans::No, w.view(), 1.0);
    TtCore::from_v(out, core.r0(), core.mode_dim(), w.cols())
}

/// Two-mode contraction `H(A)·H(B)ᵀ` (local part) + allreduce.
fn contract_h(comm: &impl Communicator, a: &TtCore, b: &TtCore) -> Matrix {
    let mut g = gemm_alloc(Trans::No, a.h(), Trans::Yes, b.h(), 1.0);
    comm.allreduce_sum(g.as_mut_slice());
    g
}

/// Self-contraction `H(A)·H(A)ᵀ` (local part, a SYRK: half the flops of
/// [`contract_h`] and bitwise equal to it) + allreduce.
fn self_gram_h(comm: &impl Communicator, a: &TtCore) -> Matrix {
    let mut g = syrk_nt_v(a.h(), 1.0);
    comm.allreduce_sum(g.as_mut_slice());
    g
}

/// Two-mode contraction `V(A)ᵀ·V(B)` (local part) + allreduce.
fn contract_v(comm: &impl Communicator, a: &TtCore, b: &TtCore) -> Matrix {
    let mut g = gemm_alloc(Trans::Yes, a.v(), Trans::No, b.v(), 1.0);
    comm.allreduce_sum(g.as_mut_slice());
    g
}

/// Right-to-left Gram sweep (Alg. 6 lines 2–6 / Alg. 5 lines 7–11).
///
/// Returns `g` with `g[b] = G_b^R` for `0 ≤ b ≤ N-1`; `g[0]` is the `1×1`
/// matrix `‖X‖²`.
pub fn gram_sweep_right(comm: &impl Communicator, x: &TtTensor) -> Vec<Matrix> {
    let n = x.order();
    let mut g = vec![Matrix::identity(1); n];
    g[n - 1] = self_gram_h(comm, x.core(n - 1));
    for k in (0..n - 1).rev() {
        let c = postmult_v(x.core(k), &g[k + 1]);
        g[k] = contract_h(comm, &c, x.core(k));
    }
    g
}

/// Left-to-right Gram sweep (Alg. 5 lines 2–6, extended one step to obtain
/// the norm).
///
/// Returns `g` with `g[b] = G_b^L` for `1 ≤ b ≤ N`; `g[N]` is the `1×1`
/// matrix `‖X‖²`. (`g[0]` is unused and left as the `1×1` identity.)
pub fn gram_sweep_left(comm: &impl Communicator, x: &TtTensor) -> Vec<Matrix> {
    let n = x.order();
    let mut g = vec![Matrix::identity(1); n + 1];
    let mut g1 = syrk_v(x.core(0).v(), 1.0);
    comm.allreduce_sum(g1.as_mut_slice());
    g[1] = g1;
    for k in 1..n {
        let e = premult_h(x.core(k), &g[k]);
        g[k + 1] = contract_v(comm, x.core(k), &e);
    }
    g
}

/// Right-to-left Gram sweep, *symmetric* variant (§IV-B): each step
/// Cholesky-factors the previous Gram matrix (`G = L Lᵀ`), contracts the
/// core with the triangular factor (`trmm`, half the flops of `gemm`), and
/// forms the next Gram matrix with a symmetric rank-k update (`syrk`,
/// again half the flops) — producing an exactly symmetric result.
///
/// The paper measures this variant *slower in practice* despite the halved
/// arithmetic (gemm beats trmm+syrk per flop on their platform) and uses
/// the non-symmetric [`gram_sweep_right`]; the `gram_sweep` bench reproduces
/// that ablation.
pub fn gram_sweep_right_symmetric(comm: &impl Communicator, x: &TtTensor) -> Vec<Matrix> {
    let n = x.order();
    let mut g = vec![Matrix::identity(1); n];
    g[n - 1] = self_gram_h(comm, x.core(n - 1));
    for k in (0..n - 1).rev() {
        let core = x.core(k);
        // Factor G_{k+1} = L Lᵀ; a Gram matrix can be numerically
        // semi-definite, so fall back to the pivoted factor when the
        // unpivoted Cholesky hits a non-positive pivot.
        let prev = &g[k + 1];
        let d_core = match tt_linalg::cholesky(prev) {
            Ok(l) => {
                let mut v = core.v_matrix();
                tt_linalg::trmm_right_lower(&mut v, &l);
                TtCore::from_v(v, core.r0(), core.mode_dim(), core.r1())
            }
            Err(_) => {
                let pc = tt_linalg::pivoted_cholesky(prev, f64::EPSILON);
                let m = pc.factor_unpivoted(); // r1 × rank
                postmult_v(core, &m)
            }
        };
        g[k] = self_gram_h(comm, &d_core);
    }
    g
}

/// Per-bond truncation threshold ε₀ = ε‖X‖/√(N−1) of an `N ≥ 2`-core
/// train.
pub(crate) fn epsilon0(norm: f64, tolerance: f64, n_modes: usize) -> f64 {
    norm * tolerance / ((n_modes - 1) as f64).sqrt()
}

/// TT-Rounding via Gram SVD, *sequence* variant (Alg. 6), RLR ordering as
/// printed in the paper: right-to-left Gram sweep, then left-to-right
/// truncation. `y` is this rank's local block (the full tensor under
/// [`tt_comm::SelfComm`]); it is truncated in place.
pub(crate) fn round_gram_rlr_dist(
    comm: &impl Communicator,
    mut y: TtTensor,
    opts: &RoundingOptions,
) -> (TtTensor, RoundReport) {
    let n = y.order();
    let ranks_before = y.ranks();
    let mut truncations = Vec::with_capacity(n - 1);
    let gr = gram_sweep_right(comm, &y);
    let norm = gr[0][(0, 0)].max(0.0).sqrt();
    let eps0 = epsilon0(norm, opts.tolerance, n);
    // Left-to-right truncation; left cores stay orthonormal, the singular
    // values ride on the right factor. Bond b's left Gram reads core b-1,
    // which the previous bond premultiplied but this bond has not touched.
    for (b, gr_b) in gr.iter().enumerate().take(n).skip(1) {
        let mut gl = syrk_v(y.core(b - 1).v(), 1.0);
        comm.allreduce_sum(gl.as_mut_slice());
        let upd = gram_truncate(b, &gl, gr_b, eps0, opts.max_rank, SingularSide::Right);
        *y.core_mut(b) = premult_h(y.core(b), &upd.w_right);
        *y.core_mut(b - 1) = postmult_v(y.core(b - 1), &upd.w_left);
        truncations.push(upd.info);
    }
    let report = RoundReport::new(norm, ranks_before, &y, truncations);
    (y, report)
}

/// TT-Rounding via Gram SVD, *sequence* variant (Alg. 6), LRL ordering:
/// left-to-right Gram sweep, then right-to-left truncation. Same contract
/// as [`round_gram_rlr_dist`].
pub(crate) fn round_gram_lrl_dist(
    comm: &impl Communicator,
    mut y: TtTensor,
    opts: &RoundingOptions,
) -> (TtTensor, RoundReport) {
    let n = y.order();
    let ranks_before = y.ranks();
    let mut truncations = Vec::with_capacity(n - 1);
    let gl = gram_sweep_left(comm, &y);
    let norm = gl[n][(0, 0)].max(0.0).sqrt();
    let eps0 = epsilon0(norm, opts.tolerance, n);
    // Right-to-left truncation; right cores stay orthonormal, the singular
    // values ride on the left factor. Bond b's right Gram reads core b,
    // which the previous bond postmultiplied but this bond has not touched.
    for b in (1..n).rev() {
        let gr = self_gram_h(comm, y.core(b));
        let upd = gram_truncate(b, &gl[b], &gr, eps0, opts.max_rank, SingularSide::Left);
        *y.core_mut(b - 1) = postmult_v(y.core(b - 1), &upd.w_left);
        *y.core_mut(b) = premult_h(y.core(b), &upd.w_right);
        truncations.push(upd.info);
    }
    let report = RoundReport::new(norm, ranks_before, &y, truncations);
    (y, report)
}

/// TT-Rounding via Gram SVD, *simultaneous* variant (Alg. 5), distributed.
///
/// Both Gram sweeps are precomputed from the original cores; every bond is
/// then truncated independently with the singular values split evenly
/// between the adjacent cores. Unlike the sequence variants it never drops
/// the unresolvable eigendirections before the small SVD: each bond's
/// `W_L·W_R` must act as the identity on both of its interfaces, which are
/// truncated from the same original Grams. Same contract as
/// [`round_gram_rlr_dist`].
pub(crate) fn round_gram_sim_dist(
    comm: &impl Communicator,
    mut y: TtTensor,
    opts: &RoundingOptions,
) -> (TtTensor, RoundReport) {
    let n = y.order();
    let ranks_before = y.ranks();
    let gl = gram_sweep_left(comm, &y);
    let gr = gram_sweep_right(comm, &y);
    let norm = gr[0][(0, 0)].max(0.0).sqrt();
    let eps0 = epsilon0(norm, opts.tolerance, n);

    let mut truncations = Vec::with_capacity(n - 1);
    for b in 1..n {
        let upd = gram_truncate(b, &gl[b], &gr[b], eps0, opts.max_rank, SingularSide::Split);
        *y.core_mut(b - 1) = postmult_v(y.core(b - 1), &upd.w_left);
        *y.core_mut(b) = premult_h(y.core(b), &upd.w_right);
        truncations.push(upd.info);
    }
    let report = RoundReport::new(norm, ranks_before, &y, truncations);
    (y, report)
}

#[cfg(test)]
#[allow(clippy::float_cmp, reason = "tests compare exact values on purpose")]
mod tests {
    use super::*;
    use crate::round::{round, RoundingMethod};
    use tt_comm::SelfComm;

    /// Sequential rounding of a copy of `x` at tolerance `tol`.
    fn round_seq(x: &TtTensor, method: RoundingMethod, tol: f64) -> TtTensor {
        let opts = RoundingOptions::with_tolerance(tol);
        round(&SelfComm::new(), x.clone(), method, &opts).0
    }

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::SeedableRng::seed_from_u64(seed)
    }

    /// A tensor whose TT ranks are formally doubled (X + X = 2X).
    fn redundant(dims: &[usize], ranks: &[usize], seed: u64) -> (TtTensor, TtTensor) {
        let mut r = rng(seed);
        let base = TtTensor::random(dims, ranks, &mut r);
        let doubled = base.add(&base);
        (base, doubled)
    }

    #[test]
    fn gram_sweeps_match_explicit_unfolding_grams() {
        let mut r = rng(1);
        let x = TtTensor::random(&[4, 3, 5, 2], &[3, 4, 2], &mut r);
        let comm = SelfComm::new();
        let gl = gram_sweep_left(&comm, &x);
        let gr = gram_sweep_right(&comm, &x);
        let d = x.to_dense();
        let norm2 = d.fro_norm() * d.fro_norm();
        assert!((gl[4][(0, 0)] - norm2).abs() < 1e-9 * (1.0 + norm2));
        assert!((gr[0][(0, 0)] - norm2).abs() < 1e-9 * (1.0 + norm2));
        // Check G_b^L = unfolding-gram at bond b against the dense tensor:
        // X_(1:b) is (prod dims[..b]) × (prod dims[b..]); G^L = AᵀA with
        // A = X_(1:b)... but A here includes the bond index: A is the
        // (prod dims[..b]) × R_b matrix Q·V; instead verify the invariant
        // trace(G_b^L · G_b^R) = ‖X‖² which couples both sweeps.
        for b in 1..4 {
            let mut tr = 0.0;
            for i in 0..gl[b].rows() {
                for j in 0..gl[b].cols() {
                    tr += gl[b][(i, j)] * gr[b][(j, i)];
                }
            }
            assert!(
                (tr - norm2).abs() < 1e-8 * (1.0 + norm2),
                "bond {b}: trace {tr} vs norm² {norm2}"
            );
        }
    }

    #[test]
    fn symmetric_sweep_matches_nonsymmetric() {
        let mut r = rng(21);
        let x = TtTensor::random(&[5, 4, 6, 3], &[4, 5, 3], &mut r);
        let comm = SelfComm::new();
        let g_ns = gram_sweep_right(&comm, &x);
        let g_sym = gram_sweep_right_symmetric(&comm, &x);
        for b in 0..x.order() {
            let scale = 1.0 + g_ns[b].max_abs();
            assert!(
                g_ns[b].max_abs_diff(&g_sym[b]) < 1e-9 * scale,
                "bond {b} mismatch"
            );
            // The symmetric variant is exactly symmetric by construction.
            for i in 0..g_sym[b].rows() {
                for j in 0..g_sym[b].cols() {
                    assert_eq!(g_sym[b][(i, j)], g_sym[b][(j, i)]);
                }
            }
        }
    }

    #[test]
    fn symmetric_sweep_survives_rank_deficiency() {
        // A redundant tensor has singular Gram matrices: the pivoted
        // fallback must engage without panicking.
        let (_, doubled) = {
            let mut r = rng(22);
            let base = TtTensor::random(&[4, 5, 4], &[2, 2], &mut r);
            (base.clone(), base.add(&base))
        };
        let comm = SelfComm::new();
        let g_ns = gram_sweep_right(&comm, &doubled);
        let g_sym = gram_sweep_right_symmetric(&comm, &doubled);
        for b in 0..doubled.order() {
            let scale = 1.0 + g_ns[b].max_abs();
            assert!(g_ns[b].max_abs_diff(&g_sym[b]) < 1e-8 * scale, "bond {b}");
        }
    }

    #[test]
    fn rlr_recovers_redundant_ranks() {
        let (base, doubled) = redundant(&[5, 4, 6, 5], &[3, 2, 4], 2);
        assert_eq!(doubled.ranks(), vec![1, 6, 4, 8, 1]);
        let rounded = round_seq(&doubled, RoundingMethod::GramRlr, 1e-10);
        assert_eq!(
            rounded.ranks(),
            vec![1, 3, 2, 4, 1],
            "ranks must be recovered"
        );
        // and the value is 2·base
        let mut expect = base.clone();
        expect.scale(2.0);
        // Compare densely: the TT-inner-product norm of a difference has a
        // cancellation floor of sqrt(eps)*||X||, above this bound.
        let err = rounded.to_dense().fro_dist(&expect.to_dense());
        assert!(err < 1e-8 * (1.0 + expect.norm()), "err {err}");
    }

    #[test]
    fn lrl_recovers_redundant_ranks() {
        let (base, doubled) = redundant(&[4, 6, 3, 5], &[2, 3, 2], 3);
        let rounded = round_seq(&doubled, RoundingMethod::GramLrl, 1e-10);
        assert_eq!(rounded.ranks(), vec![1, 2, 3, 2, 1]);
        let mut expect = base.clone();
        expect.scale(2.0);
        // Compared densely, as above.
        let err = rounded.to_dense().fro_dist(&expect.to_dense());
        assert!(err < 1e-8 * (1.0 + expect.norm()));
    }

    #[test]
    fn simultaneous_recovers_redundant_ranks() {
        let (base, doubled) = redundant(&[5, 3, 4], &[3, 2], 4);
        let rounded = round_seq(&doubled, RoundingMethod::GramSim, 1e-10);
        assert_eq!(rounded.ranks(), vec![1, 3, 2, 1]);
        let mut expect = base.clone();
        expect.scale(2.0);
        // Compared densely, as above: the √ε‖X‖ floor belongs to the
        // TT-inner-product norm of the difference, not to the rounding.
        let err = rounded.to_dense().fro_dist(&expect.to_dense());
        assert!(err < 1e-8 * (1.0 + expect.norm()), "err {err:e}");
    }

    #[test]
    fn error_respects_tolerance() {
        let mut r = rng(5);
        let x = TtTensor::random(&[6, 5, 4, 5], &[8, 9, 7], &mut r);
        let xnorm = x.norm();
        for tol in [1e-1, 1e-2, 1e-4] {
            for (name, y) in [
                ("rlr", round_seq(&x, RoundingMethod::GramRlr, tol)),
                ("lrl", round_seq(&x, RoundingMethod::GramLrl, tol)),
                ("sim", round_seq(&x, RoundingMethod::GramSim, tol)),
            ] {
                let err = y.sub(&x).norm();
                assert!(
                    err <= tol * xnorm * 1.5 + 1e-12,
                    "{name} tol={tol}: err {err} vs bound {}",
                    tol * xnorm
                );
            }
        }
    }

    #[test]
    fn rounding_orthonormal_invariants() {
        // After RLR rounding, left cores are orthonormal (V-gram = I);
        // after LRL, right cores are row-orthonormal (H-gram = I).
        let (_, doubled) = redundant(&[4, 5, 4, 3], &[3, 3, 2], 6);
        let comm = SelfComm::new();
        let opts = RoundingOptions::with_tolerance(1e-10);
        let (y, _) = round(&comm, doubled.clone(), RoundingMethod::GramRlr, &opts);
        for k in 0..y.order() - 1 {
            let g = tt_linalg::syrk_v(y.core(k).v(), 1.0);
            let id = Matrix::identity(g.rows());
            assert!(
                g.max_abs_diff(&id) < 1e-7,
                "core {k} not orthonormal after RLR"
            );
        }
        let (y, _) = round(&comm, doubled, RoundingMethod::GramLrl, &opts);
        for k in 1..y.order() {
            // Same symmetric H·Hᵀ kernel the production sweep uses.
            let g = syrk_nt_v(y.core(k).h(), 1.0);
            let id = Matrix::identity(g.rows());
            assert!(
                g.max_abs_diff(&id) < 1e-7,
                "core {k} not row-orthonormal after LRL"
            );
        }
    }

    #[test]
    fn max_rank_cap_is_enforced() {
        let mut r = rng(7);
        let x = TtTensor::random(&[5, 6, 5], &[7, 8], &mut r);
        let comm = SelfComm::new();
        let opts = RoundingOptions::with_tolerance(1e-14).max_rank(3);
        let (y, report) = round(&comm, x, RoundingMethod::GramRlr, &opts);
        assert!(y.max_rank() <= 3);
        assert_eq!(report.ranks_after, vec![1, 3, 3, 1]);
    }

    #[test]
    fn report_norm_matches_tensor_norm() {
        let mut r = rng(8);
        let x = TtTensor::random(&[6, 4, 5], &[3, 4], &mut r);
        let comm = SelfComm::new();
        let opts = RoundingOptions::with_tolerance(1e-8);
        let (_, report) = round(&comm, x.clone(), RoundingMethod::GramRlr, &opts);
        let expect = x.norm();
        assert!((report.norm - expect).abs() < 1e-9 * (1.0 + expect));
        assert_eq!(report.ranks_before, vec![1, 3, 4, 1]);
    }

    #[test]
    fn idempotent_on_already_rounded() {
        let (_, doubled) = redundant(&[5, 4, 5], &[3, 3], 9);
        let once = round_seq(&doubled, RoundingMethod::GramRlr, 1e-9);
        let twice = round_seq(&once, RoundingMethod::GramRlr, 1e-9);
        assert_eq!(once.ranks(), twice.ranks());
        let err = twice.sub(&once).norm();
        assert!(err < 1e-8 * (1.0 + once.norm()));
    }

    #[test]
    fn single_mode_tensor_is_untouched() {
        let mut r = rng(10);
        let x = TtTensor::random(&[7], &[], &mut r);
        let y = round_seq(&x, RoundingMethod::GramRlr, 1e-3);
        assert_eq!(x, y);
    }

    #[test]
    fn zero_tensor_rounds_without_nans() {
        let cores = vec![
            crate::core::TtCore::zeros(1, 4, 3),
            crate::core::TtCore::zeros(3, 5, 2),
            crate::core::TtCore::zeros(2, 3, 1),
        ];
        let x = TtTensor::new(cores);
        for y in [
            round_seq(&x, RoundingMethod::GramRlr, 1e-8),
            round_seq(&x, RoundingMethod::GramLrl, 1e-8),
            round_seq(&x, RoundingMethod::GramSim, 1e-8),
        ] {
            assert!(y.to_dense().as_slice().iter().all(|v| v.is_finite()));
            assert!(y.norm() < 1e-12);
        }
    }
}
