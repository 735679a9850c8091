//! Truncation of a low-rank matrix product `X = A Bᵀ` — §III of the paper.
//!
//! This is the degenerate 2-mode TT case that motivates the Gram-SVD
//! rounding idea. Three methods are provided:
//!
//! * [`mat_rounding_qr`] — Algorithm 3: QR-orthogonalize both factors, SVD
//!   the small `R_A R_Bᵀ` (numerically accurate, the baseline);
//! * [`tsvd_abt_gram`] — Algorithm 4: Gram matrices + EVDs + small SVD
//!   (the paper's method — cheaper, all `gemm`, accuracy limited to `√ε`);
//! * [`tsvd_abt_cholqr`] — the §III-B1 pivoted-Cholesky-QR variant, which
//!   truncates *sharply* at `√ε` per factor (the robustness limitation the
//!   Gram-SVD route avoids).

use crate::round::truncate::{gram_truncate, SingularSide};
use tt_linalg::{gemm, pivoted_cholesky, syrk, tri_invert_upper, tsvd, Matrix, Trans};

/// A truncated factorization `X ≈ Â B̂ᵀ` with diagnostics.
#[derive(Debug, Clone)]
pub struct ProductTruncation {
    /// Left factor, `m × L`.
    pub a_hat: Matrix,
    /// Right factor, `k × L`.
    pub b_hat: Matrix,
    /// Retained rank `L`.
    pub rank: usize,
    /// Tail energy discarded by the inner TSVD.
    pub discarded: f64,
}

/// Algorithm 3: rounding of `A Bᵀ` via QR of both factors.
///
/// The singular values are split evenly between the factors
/// (`Â = Q_A Û Σ̂^{1/2}`, `B̂ = Q_B V̂ Σ̂^{1/2}`).
pub fn mat_rounding_qr(a: &Matrix, b: &Matrix, threshold: f64) -> ProductTruncation {
    assert_eq!(a.cols(), b.cols(), "A and B must share the rank dimension");
    let fa = tt_linalg::householder_qr(a);
    let fb = tt_linalg::householder_qr(b);
    let (qa, ra) = (fa.thin_q(), fa.r());
    let (qb, rb) = (fb.thin_q(), fb.r());
    let m = gemm(Trans::No, &ra, Trans::Yes, &rb, 1.0);
    let t = tsvd(&m, threshold);
    let l = t.rank();
    let mut us = t.u.clone();
    let mut vs = t.v.clone();
    for (j, &s) in t.singular_values.iter().enumerate() {
        let h = s.sqrt();
        us.scale_col(j, h);
        vs.scale_col(j, h);
    }
    ProductTruncation {
        a_hat: gemm(Trans::No, &qa, Trans::No, &us, 1.0),
        b_hat: gemm(Trans::No, &qb, Trans::No, &vs, 1.0),
        rank: l,
        discarded: t.discarded_norm,
    }
}

/// Algorithm 4: truncated SVD of `A Bᵀ` via Gram SVDs of the factors.
///
/// All heavy operations are `gemm`/`syrk` on the tall factors; only `R × R`
/// eigen/SVD problems are solved.
pub fn tsvd_abt_gram(a: &Matrix, b: &Matrix, threshold: f64) -> ProductTruncation {
    assert_eq!(a.cols(), b.cols(), "A and B must share the rank dimension");
    let ga = syrk(a, 1.0);
    let gb = syrk(b, 1.0);
    let upd = gram_truncate(0, &ga, &gb, threshold, None, SingularSide::Split);
    let l = upd.info.rank_after;
    ProductTruncation {
        a_hat: gemm(Trans::No, a, Trans::No, &upd.w_left, 1.0),
        b_hat: gemm(Trans::No, &upd.w_right, Trans::Yes, b, 1.0).transpose(),
        rank: l,
        // `gram_truncate` always measures the tail.
        discarded: upd.info.discarded.unwrap_or_default(),
    }
}

/// §III-B1: rounding of `A Bᵀ` via *pivoted Cholesky QR* of the Gram
/// matrices.
///
/// For numerically low-rank factors this truncates each factor sharply at
/// `√ε` relative magnitude (the first non-positive pivot), which is exactly
/// the failure mode that motivates preferring Gram SVD (§III-B2).
pub fn tsvd_abt_cholqr(a: &Matrix, b: &Matrix, threshold: f64) -> ProductTruncation {
    assert_eq!(a.cols(), b.cols(), "A and B must share the rank dimension");
    let ga = syrk(a, 1.0);
    let gb = syrk(b, 1.0);
    // Pivoted Cholesky of each Gram matrix: Pᵀ G P = L Lᵀ, i.e. the pivoted
    // factor gives A·P = Q (Lᵀ in pivoted order); we work with the
    // unpivoted expansion M with G = M Mᵀ, so A = Q_A M_Aᵀ with
    // Q_A = A·M_A·(M_AᵀM_A)⁻¹ … equivalently use the trapezoidal factor as
    // the "R" of a Cholesky QR: A ≈ Q_A R_A with R_A = M_Aᵀ (rank_A × R).
    let pa = pivoted_cholesky(&ga, f64::EPSILON);
    let pb = pivoted_cholesky(&gb, f64::EPSILON);
    let ma = pa.factor_unpivoted(); // R × rank_A, G_A ≈ M_A M_Aᵀ
    let mb = pb.factor_unpivoted();

    // Q_A = A · M_A⁻ᵀ in the least-squares sense: since M_A has full column
    // rank, M_A⁺ᵀ = M_A (M_AᵀM_A)⁻¹; with the pivoted triangular structure
    // we can solve directly: M_AᵀM_A is rank_A × rank_A SPD.
    let qa = apply_pinv_t(a, &ma);
    let qb = apply_pinv_t(b, &mb);
    // X = Q_A (M_Aᵀ M_B) Q_Bᵀ; TSVD of the small middle matrix.
    let mid = gemm(Trans::Yes, &ma, Trans::No, &mb, 1.0);
    let t = tsvd(&mid, threshold);
    let l = t.rank();
    let mut us = t.u.clone();
    let mut vs = t.v.clone();
    for (j, &s) in t.singular_values.iter().enumerate() {
        let h = s.sqrt();
        us.scale_col(j, h);
        vs.scale_col(j, h);
    }
    ProductTruncation {
        a_hat: gemm(Trans::No, &qa, Trans::No, &us, 1.0),
        b_hat: gemm(Trans::No, &qb, Trans::No, &vs, 1.0),
        rank: l,
        discarded: t.discarded_norm,
    }
}

/// `A · M (MᵀM)⁻¹`: orthonormalizes `A` against the Cholesky factor `M`
/// (`MᵀM` is small SPD; solved via its own Cholesky).
fn apply_pinv_t(a: &Matrix, m: &Matrix) -> Matrix {
    let am = gemm(Trans::No, a, Trans::No, m, 1.0);
    if m.cols() == 0 {
        return am;
    }
    let mtm = syrk(m, 1.0);
    let l = match tt_linalg::cholesky(&mtm) {
        Ok(l) => l,
        #[expect(
            clippy::panic,
            reason = "full-column-rank is an upstream invariant (truncation removes null columns); violation means corrupted state, not a recoverable input"
        )]
        Err(e) => panic!(
            "apply_pinv_t: Cholesky of MᵀM failed ({e}); M must have full \
             column rank here — the upstream truncation should have removed \
             numerically null columns"
        ),
    };
    // Solve (L Lᵀ) Xᵀ = (A M)ᵀ column-wise: X = A M (L Lᵀ)⁻¹.
    let lt = l.transpose();
    let li = tri_invert_upper(&lt); // Lᵀ⁻¹
                                    // (LLᵀ)⁻¹ = Lᵀ⁻¹ L⁻¹ = li · liᵀ
    let inv = gemm(Trans::No, &li, Trans::Yes, &li, 1.0);
    gemm(Trans::No, &am, Trans::No, &inv, 1.0)
}

#[cfg(test)]
#[allow(
    clippy::cast_possible_truncation,
    reason = "test exponents are small loop indices"
)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::SeedableRng::seed_from_u64(seed)
    }

    fn product(a: &Matrix, b: &Matrix) -> Matrix {
        gemm(Trans::No, a, Trans::Yes, b, 1.0)
    }

    fn check_reconstruction(
        name: &str,
        f: impl Fn(&Matrix, &Matrix, f64) -> ProductTruncation,
        tol: f64,
    ) {
        let mut r = rng(1);
        let a = Matrix::gaussian(40, 8, &mut r);
        let b = Matrix::gaussian(35, 8, &mut r);
        let x = product(&a, &b);
        let t = f(&a, &b, 1e-12 * x.fro_norm());
        assert_eq!(t.rank, 8, "{name}: no truncation expected");
        let x_hat = product(&t.a_hat, &t.b_hat);
        assert!(
            x.max_abs_diff(&x_hat) < tol * (1.0 + x.max_abs()),
            "{name}: reconstruction error {}",
            x.max_abs_diff(&x_hat)
        );
    }

    #[test]
    fn qr_reconstructs() {
        check_reconstruction("qr", mat_rounding_qr, 1e-10);
    }

    #[test]
    fn gram_reconstructs() {
        check_reconstruction("gram", tsvd_abt_gram, 1e-8);
    }

    #[test]
    fn cholqr_reconstructs() {
        check_reconstruction("cholqr", tsvd_abt_cholqr, 1e-8);
    }

    #[test]
    fn all_methods_find_the_same_truncation_rank() {
        let mut r = rng(2);
        // Product with a decaying spectrum: D has singular values 2^{-k}.
        let n = 12;
        let base_a = Matrix::gaussian(50, n, &mut r);
        let base_b = Matrix::gaussian(45, n, &mut r);
        let qa = tt_linalg::householder_qr(&base_a).thin_q();
        let qb = tt_linalg::householder_qr(&base_b).thin_q();
        let mut a = qa.clone();
        for j in 0..n {
            a.scale_col(j, 0.5_f64.powi(j as i32));
        }
        let b = qb.clone();
        let x = product(&a, &b);
        let thr = 1e-2 * x.fro_norm();
        let t_qr = mat_rounding_qr(&a, &b, thr);
        let t_gram = tsvd_abt_gram(&a, &b, thr);
        assert_eq!(
            t_qr.rank, t_gram.rank,
            "qr {} vs gram {}",
            t_qr.rank, t_gram.rank
        );
        // Both reconstruct to the threshold.
        for (name, t) in [("qr", &t_qr), ("gram", &t_gram)] {
            let mut diff = product(&t.a_hat, &t.b_hat);
            diff.axpy(-1.0, &x);
            assert!(diff.fro_norm() <= thr * 1.5, "{name}: {}", diff.fro_norm());
        }
    }

    #[test]
    fn gram_handles_rank_deficient_factors() {
        let mut r = rng(3);
        // A has 3 duplicated columns: numerically rank 5 of 8.
        let core = Matrix::gaussian(30, 5, &mut r);
        let mut a = Matrix::zeros(30, 8);
        for j in 0..5 {
            a.col_mut(j).copy_from_slice(core.col(j));
        }
        for j in 5..8 {
            a.col_mut(j).copy_from_slice(core.col(j - 5));
        }
        let b = Matrix::gaussian(25, 8, &mut r);
        let x = product(&a, &b);
        let t = tsvd_abt_gram(&a, &b, 1e-6 * x.fro_norm());
        assert!(t.rank <= 5, "rank {}", t.rank);
        let x_hat = product(&t.a_hat, &t.b_hat);
        assert!(x.max_abs_diff(&x_hat) < 1e-4 * (1.0 + x.max_abs()));
    }

    #[test]
    fn cholqr_truncates_sharply_where_gram_survives() {
        // The §III-B2 robustness scenario: A has a direction of size ~√ε
        // that B amplifies. Pivoted Cholesky QR cuts it; Gram SVD keeps a
        // (inaccurate but useful) approximation of it.
        let mut r = rng(4);
        let n = 4;
        let qa = tt_linalg::householder_qr(&Matrix::gaussian(40, n, &mut r)).thin_q();
        let qb = tt_linalg::householder_qr(&Matrix::gaussian(40, n, &mut r)).thin_q();
        let mut a = qa;
        let amp = 1e7;
        let small = 1e-8;
        a.scale_col(n - 1, small); // σ_min(A) ≈ 1e-8 ≈ √ε
        let mut b = qb;
        b.scale_col(n - 1, amp); // B amplifies that direction back up
        let x = product(&a, &b);
        let thr = 1e-6 * x.fro_norm();

        let t_chol = tsvd_abt_cholqr(&a, &b, thr);
        let t_gram = tsvd_abt_gram(&a, &b, thr);
        let err_chol = {
            let mut d = product(&t_chol.a_hat, &t_chol.b_hat);
            d.axpy(-1.0, &x);
            d.fro_norm() / x.fro_norm()
        };
        let err_gram = {
            let mut d = product(&t_gram.a_hat, &t_gram.b_hat);
            d.axpy(-1.0, &x);
            d.fro_norm() / x.fro_norm()
        };
        // Gram SVD must capture the amplified direction far better.
        assert!(
            err_gram < err_chol * 1e-2,
            "gram {err_gram} should beat cholqr {err_chol} by ≫ 100×"
        );
    }
}
