//! Singular value decomposition and ε-truncation.
//!
//! The rounding algorithms only ever take SVDs of *small* `R × R` matrices
//! (the combined Gram factor `Λ_L^{1/2} V_Lᵀ V_R Λ_R^{1/2}` or the triangular
//! `R_A R_Bᵀ`), so a one-sided Jacobi SVD is used: it is simple, very
//! accurate (it computes small singular values above the `ε·‖A‖_F` noise
//! level to high relative accuracy, which matters for the truncation-rank
//! decision), and entirely `gemm`-class arithmetic.
//!
//! Two rules keep the Jacobi iteration finite and exact over the whole f64
//! range:
//!
//! - **Prescale.** `A` is first multiplied by the power of two that brings
//!   `max |aᵢⱼ|` into `[0.5, 1)`, and the singular values are scaled back at
//!   the end. Both steps are exact, so `jacobi_svd(2ᵏ·A)` returns exactly
//!   `2ᵏ·σ` with the same `U` and `V`, and the pair test's `app·aqq` can
//!   neither overflow (which made every pair look converged) nor underflow.
//! - **Negligible columns.** A rotation involving a column whose norm is
//!   `≤ ε·‖A‖_F` is skipped. Such a column is numerically zero: rotating it
//!   cannot move any singular value above the kernel's backward error
//!   `ε·‖A‖`, yet the relative pair test never accepts rounding noise, so
//!   without this rule the R factor of a rank-deficient product (the
//!   TSQR-rounding truncation SVD) ran out every sweep. The skipped columns
//!   come back as singular values `≤ ε·‖A‖_F` whose `U` columns are not
//!   orthogonalized; `V` stays orthogonal and `A = UΣVᵀ` holds to `O(ε‖A‖)`.

use crate::matrix::Matrix;

/// A full (thin) singular value decomposition `A = U Σ Vᵀ`.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors, `m × k` with `k = min(m, n)`; the leading
    /// [`Svd::numerical_rank`] columns are orthonormal.
    pub u: Matrix,
    /// Singular values, descending, length `k`.
    pub singular_values: Vec<f64>,
    /// Right singular vectors, `n × k` (columns, not transposed).
    pub v: Matrix,
}

impl Svd {
    /// The number of singular values above `ε·‖A‖_F`, the level at or below
    /// which [`jacobi_svd`] treats a column as numerically zero. The
    /// singular values past this rank are rounding noise and their `U`
    /// columns are not orthogonalized, so a caller that keeps directions by
    /// numerical rank stops here.
    pub fn numerical_rank(&self) -> usize {
        let smax = self.singular_values.first().copied().unwrap_or(0.0);
        if smax == 0.0 {
            return 0;
        }
        // ‖A‖_F = smax·‖σ/smax‖₂, which cannot overflow.
        let fro = smax
            * self
                .singular_values
                .iter()
                .map(|s| (s / smax) * (s / smax))
                .sum::<f64>()
                .sqrt();
        self.singular_values
            .iter()
            .filter(|&&s| s > f64::EPSILON * fro)
            .count()
    }
}

/// A rank-truncated SVD together with the truncation diagnostics.
#[derive(Debug, Clone)]
pub struct TruncatedSvd {
    /// Leading `L` left singular vectors (`m × L`).
    pub u: Matrix,
    /// Leading `L` singular values.
    pub singular_values: Vec<f64>,
    /// Leading `L` right singular vectors (`n × L`).
    pub v: Matrix,
    /// The discarded tail energy `√(Σ_{k>L} σ_k²)`.
    pub discarded_norm: f64,
}

impl TruncatedSvd {
    /// The retained rank `L`.
    pub fn rank(&self) -> usize {
        self.singular_values.len()
    }

    /// Caps the retained rank at `cap` (a no-op for `None` or a rank already
    /// within it), folding the cut singular values into
    /// [`TruncatedSvd::discarded_norm`].
    pub fn cap_rank(mut self, cap: Option<usize>) -> Self {
        let Some(cap) = cap.filter(|&c| self.rank() > c) else {
            return self;
        };
        let extra: f64 = self.singular_values[cap..].iter().map(|s| s * s).sum();
        self.discarded_norm = (self.discarded_norm * self.discarded_norm + extra).sqrt();
        self.u = self.u.truncate_cols(cap);
        self.v = self.v.truncate_cols(cap);
        self.singular_values.truncate(cap);
        self
    }
}

/// Maximum number of Jacobi sweeps. With the negligible-column rule every
/// pair the iteration still rotates has a relative coupling above the
/// rounding level, and quadratic convergence finishes well-conditioned and
/// rank-deficient `R × R` inputs alike in about 2–10 sweeps. Reaching this
/// cap means the iteration is stuck, not converged: paranoid builds panic.
const MAX_SWEEPS: usize = 60;

/// Relative pair tolerance: columns `p`, `q` count as orthogonal once
/// `|aₚᵀa_q| ≤ TOL·‖aₚ‖‖a_q‖`.
const TOL: f64 = 1e-15;

/// One-sided Jacobi SVD of an arbitrary dense matrix.
///
/// Stops after the first sweep that rotates no pair. A pair is skipped when
/// it is orthogonal to [`TOL`] or when either column is negligible
/// (`≤ ε·‖A‖_F`, see the module docs). The input is prescaled by a power of
/// two, so the result does not depend on the scale of `A`:
/// `jacobi_svd(2ᵏ·A)` is `2ᵏ·σ` with the same `U` and `V`.
pub fn jacobi_svd(a: &Matrix) -> Svd {
    jacobi_svd_sweeps(a).0
}

/// [`jacobi_svd`] together with the number of sweeps it ran.
fn jacobi_svd_sweeps(a: &Matrix) -> (Svd, usize) {
    crate::paranoid::check_finite("jacobi_svd", "A", a.as_slice());
    let (m, n) = a.shape();
    if m < n {
        // Work on the transpose and swap the roles of U and V.
        let (t, sweeps) = jacobi_svd_sweeps(&a.transpose());
        let svd = Svd {
            u: t.v,
            singular_values: t.singular_values,
            v: t.u,
        };
        return (svd, sweeps);
    }

    let amax = a.max_abs();
    let exp = if amax > 0.0 { exponent(amax) } else { 0 };
    let mut w = a.clone();
    for x in w.as_mut_slice() {
        *x = scale_pow2(*x, -exp);
    }
    let mut v = Matrix::identity(n);
    let fro2: f64 = w.as_slice().iter().map(|x| x * x).sum();
    let negligible2 = f64::EPSILON * f64::EPSILON * fro2;

    let mut sweeps = 0;
    let mut rotated = true;
    while rotated && sweeps < MAX_SWEEPS {
        sweeps += 1;
        rotated = false;
        for p in 0..n {
            for q in p + 1..n {
                let (app, aqq, apq) = column_grams(&w, p, q);
                if app <= negligible2 || aqq <= negligible2 {
                    continue;
                }
                if apq.abs() <= TOL * (app * aqq).sqrt() || apq == 0.0 {
                    continue;
                }
                rotated = true;
                // Symmetric 2x2 Jacobi rotation diagonalizing
                // [app apq; apq aqq].
                let zeta = (aqq - app) / (2.0 * apq);
                let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                rotate_cols(&mut w, p, q, c, s);
                rotate_cols(&mut v, p, q, c, s);
            }
        }
    }
    if rotated && crate::paranoid::enabled() {
        let worst = worst_coupling(&w, negligible2);
        // analyze::allow(panic_surface): the paranoid layer's whole job is to abort instead of returning an unconverged factorization as if it were one
        panic!(
            "jacobi_svd: paranoid check failed: no convergence on a {m}x{n} input \
             after {sweeps} sweeps; worst remaining |apq|/(‖ap‖‖aq‖) = {worst:e} \
             (tolerance {TOL:e})"
        );
    }

    // Extract singular values and normalize the left vectors.
    let sigma: Vec<f64> = (0..n).map(|j| norm2(w.col(j))).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| sigma[j].total_cmp(&sigma[i]));

    let mut u = Matrix::zeros(m, n);
    let mut vs = Matrix::zeros(n, n);
    let mut svals = vec![0.0; n];
    for (dst, &src) in order.iter().enumerate() {
        svals[dst] = scale_pow2(sigma[src], exp);
        vs.col_mut(dst).copy_from_slice(v.col(src));
        let ucol = u.col_mut(dst);
        ucol.copy_from_slice(w.col(src));
        if sigma[src] > 0.0 {
            let inv = 1.0 / sigma[src];
            for x in ucol {
                *x *= inv;
            }
        }
    }

    let svd = Svd {
        u,
        singular_values: svals,
        v: vs,
    };
    (svd, sweeps)
}

/// The largest `|aₚᵀa_q| / (‖aₚ‖‖a_q‖)` over the pairs of non-negligible
/// columns of `w`: how far an unconverged iterate is from orthogonal.
fn worst_coupling(w: &Matrix, negligible2: f64) -> f64 {
    let n = w.cols();
    let mut worst = 0.0f64;
    for p in 0..n {
        for q in p + 1..n {
            let (app, aqq, apq) = column_grams(w, p, q);
            if app > negligible2 && aqq > negligible2 {
                worst = worst.max(apq.abs() / (app.sqrt() * aqq.sqrt()));
            }
        }
    }
    worst
}

/// The `e` with `x / 2ᵉ ∈ [0.5, 1)`, for finite `x > 0`.
fn exponent(x: f64) -> i64 {
    let biased = ((x.to_bits() >> 52) & 0x7ff) as i64;
    if biased == 0 {
        // Subnormal: move it into the normal range first (exact).
        exponent(x * scale_pow2(1.0, 54)) - 54
    } else {
        biased - 1022
    }
}

/// `x · 2ᵉ` for `e ∈ [-1100, 1100]`, exact whenever the result is a normal
/// number.
fn scale_pow2(x: f64, e: i64) -> f64 {
    // 2ᵏ for k in the normal exponent range [-1022, 1023].
    let pow2 = |k: i64| f64::from_bits(((k + 1023) as u64) << 52);
    if e > 1023 {
        x * pow2(1023) * pow2(e - 1023)
    } else if e < -1022 {
        // The small factor first, so only the last product can be subnormal.
        x * pow2(e + 1022) * pow2(-1022)
    } else {
        x * pow2(e)
    }
}

/// The paper's truncation rule: the minimal rank `L ≥ 1` such that the
/// discarded tail satisfies `√(Σ_{k>L} σ_k²) ≤ threshold`.
///
/// Returns `(L, discarded_norm)`.
pub fn truncation_rank(singular_values: &[f64], threshold: f64) -> (usize, f64) {
    crate::paranoid::check_finite("truncation_rank", "singular_values", singular_values);
    crate::paranoid::check_finite_scalar("truncation_rank", "threshold", threshold);
    let k = singular_values.len();
    if k == 0 {
        return (0, 0.0);
    }
    // Accumulate tail energies from the back.
    let mut tail = 0.0;
    let mut rank = k;
    let mut discarded = 0.0;
    for l in (1..=k).rev() {
        let next_tail = tail + singular_values[l - 1] * singular_values[l - 1];
        if next_tail.sqrt() <= threshold && l > 1 {
            tail = next_tail;
            rank = l - 1;
            discarded = tail.sqrt();
        } else if next_tail.sqrt() <= threshold && l == 1 {
            // Even the full matrix is below threshold; keep rank 1 by
            // convention (a TT rank of 0 would collapse the tensor).
            tail = next_tail;
            rank = 1;
            discarded = (tail - singular_values[0] * singular_values[0])
                .max(0.0)
                .sqrt();
        } else {
            break;
        }
    }
    (rank, discarded)
}

/// ε-truncated SVD: full Jacobi SVD followed by the tail-energy truncation
/// rule of [`truncation_rank`].
pub fn tsvd(a: &Matrix, threshold: f64) -> TruncatedSvd {
    crate::paranoid::check_finite_scalar("tsvd", "threshold", threshold);
    let full = jacobi_svd(a);
    let (rank, discarded) = truncation_rank(&full.singular_values, threshold);
    TruncatedSvd {
        u: full.u.truncate_cols(rank),
        singular_values: full.singular_values[..rank].to_vec(),
        v: full.v.truncate_cols(rank),
        discarded_norm: discarded,
    }
}

fn column_grams(w: &Matrix, p: usize, q: usize) -> (f64, f64, f64) {
    let cp = w.col(p);
    let cq = w.col(q);
    let mut app = 0.0;
    let mut aqq = 0.0;
    let mut apq = 0.0;
    for i in 0..cp.len() {
        app += cp[i] * cp[i];
        aqq += cq[i] * cq[i];
        apq += cp[i] * cq[i];
    }
    (app, aqq, apq)
}

fn rotate_cols(m: &mut Matrix, p: usize, q: usize, c: f64, s: f64) {
    let (cp, cq) = m.cols_mut_pair(p, q);
    for i in 0..cp.len() {
        let a = cp[i];
        let b = cq[i];
        cp[i] = c * a - s * b;
        cq[i] = s * a + c * b;
    }
}

fn norm2(x: &[f64]) -> f64 {
    x.iter().map(|v| v * v).sum::<f64>().sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{gemm, Trans};
    use rand::SeedableRng;

    fn reconstruct(svd: &Svd) -> Matrix {
        let mut us = svd.u.clone();
        for (j, &s) in svd.singular_values.iter().enumerate() {
            us.scale_col(j, s);
        }
        gemm(Trans::No, &us, Trans::Yes, &svd.v, 1.0)
    }

    fn check(m: usize, n: usize, seed: u64) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = Matrix::gaussian(m, n, &mut rng);
        let s = jacobi_svd(&a);
        let r = reconstruct(&s);
        assert!(
            r.max_abs_diff(&a) < 1e-11 * (1.0 + a.max_abs()),
            "reconstruction {m}x{n}"
        );
        let k = m.min(n);
        let utu = gemm(Trans::Yes, &s.u, Trans::No, &s.u, 1.0);
        assert!(
            utu.max_abs_diff(&Matrix::identity(k)) < 1e-11,
            "U orth {m}x{n}"
        );
        let vtv = gemm(Trans::Yes, &s.v, Trans::No, &s.v, 1.0);
        assert!(
            vtv.max_abs_diff(&Matrix::identity(k)) < 1e-11,
            "V orth {m}x{n}"
        );
        // descending order
        for w in s.singular_values.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn svd_tall() {
        check(30, 7, 1);
    }

    #[test]
    fn svd_square() {
        check(12, 12, 2);
    }

    #[test]
    fn svd_wide() {
        check(6, 19, 3);
    }

    #[test]
    fn svd_known_diagonal() {
        let a = Matrix::from_fn(3, 3, |i, j| if i == j { (3 - i) as f64 } else { 0.0 });
        let s = jacobi_svd(&a);
        assert!((s.singular_values[0] - 3.0).abs() < 1e-14);
        assert!((s.singular_values[1] - 2.0).abs() < 1e-14);
        assert!((s.singular_values[2] - 1.0).abs() < 1e-14);
    }

    #[test]
    fn svd_rank_deficient() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let b = Matrix::gaussian(20, 3, &mut rng);
        let c = Matrix::gaussian(3, 8, &mut rng);
        let a = gemm(Trans::No, &b, Trans::No, &c, 1.0);
        let s = jacobi_svd(&a);
        // Ranks beyond 3 are (numerically) zero.
        for &sv in &s.singular_values[3..] {
            assert!(sv < 1e-10 * s.singular_values[0]);
        }
        let r = reconstruct(&s);
        assert!(r.max_abs_diff(&a) < 1e-11 * (1.0 + a.max_abs()));
    }

    #[test]
    fn svd_small_singular_values_accurate() {
        // Diagonal with huge dynamic range: Jacobi should nail every value.
        let d = [1.0, 1e-4, 1e-8, 1e-12];
        let a = Matrix::from_fn(4, 4, |i, j| if i == j { d[i] } else { 0.0 });
        let s = jacobi_svd(&a);
        for (i, &expect) in d.iter().enumerate() {
            let got = s.singular_values[i];
            assert!(
                (got - expect).abs() <= 1e-12 * expect.max(1e-300) + 1e-300,
                "sv {i}: {got} vs {expect}"
            );
        }
    }

    /// The `n × n` R factor of `A`, zero-row-padded to `n` rows when `A` is
    /// wider than tall, as TSQR's leaves do.
    fn r_factor(a: &Matrix) -> Matrix {
        let n = a.cols();
        let padded = if a.rows() < n {
            a.vstack(&Matrix::zeros(n - a.rows(), n))
        } else {
            a.clone()
        };
        crate::qr::householder_qr(&padded).r()
    }

    /// The R factors of rank-deficient products (the truncation SVD of QR
    /// rounding) converge in a handful of sweeps to an accurate SVD whose
    /// numerical rank is the true rank. Before the negligible-column rule
    /// the zero-row-padded ones ran out all `MAX_SWEEPS`, rotating rounding
    /// noise down towards underflow.
    #[test]
    fn rank_deficient_r_factors_terminate() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let mut inputs = Vec::new();
        for n in [4usize, 6, 13, 16, 36] {
            let rank = (n / 4).max(1);
            for rows in [3 * n, n - 1] {
                let b = Matrix::gaussian(rows, rank, &mut rng);
                let c = Matrix::gaussian(rank, n, &mut rng);
                inputs.push((r_factor(&gemm(Trans::No, &b, Trans::No, &c, 1.0)), rank));
            }
        }
        // A 9-row TSQR leaf of a rank-36 bond, as the cookies Krylov trains
        // produce it.
        inputs.push((r_factor(&Matrix::gaussian(9, 36, &mut rng)), 9));

        for (a, rank) in &inputs {
            let n = a.cols();
            let (s, sweeps) = jacobi_svd_sweeps(a);
            assert!(sweeps <= 12, "n = {n}: {sweeps} sweeps");
            assert_eq!(s.numerical_rank(), *rank, "n = {n}: numerical rank");
            let anorm = a.fro_norm();
            let mut diff = reconstruct(&s);
            diff.axpy(-1.0, a);
            assert!(
                diff.fro_norm() <= 1e-14 * anorm,
                "n = {n}: reconstruction {:e}",
                diff.fro_norm() / anorm
            );
            let vtv = gemm(Trans::Yes, &s.v, Trans::No, &s.v, 1.0);
            let v_err = vtv.max_abs_diff(&Matrix::identity(n));
            assert!(v_err <= 1e-13, "n = {n}: VᵀV - I = {v_err:e}");
            let cut = n as f64 * f64::EPSILON * anorm;
            let k = s.singular_values.iter().filter(|&&x| x > cut).count();
            let uk = s.u.clone().truncate_cols(k);
            let utu = gemm(Trans::Yes, &uk, Trans::No, &uk, 1.0);
            let u_err = utu.max_abs_diff(&Matrix::identity(k));
            assert!(
                u_err <= 1e-13,
                "n = {n}: UᵀU - I = {u_err:e} on {k} columns"
            );
        }
    }

    #[test]
    fn truncation_rule_matches_definition() {
        let sv = vec![10.0, 5.0, 1.0, 0.5, 0.1];
        // tail after keeping 3: sqrt(0.25 + 0.01) ~ 0.5099
        let (rank, disc) = truncation_rank(&sv, 0.52);
        assert_eq!(rank, 3);
        assert!((disc - (0.25f64 + 0.01).sqrt()).abs() < 1e-14);
        // Very tight threshold keeps everything.
        let (rank, _) = truncation_rank(&sv, 1e-12);
        assert_eq!(rank, 5);
        // Huge threshold keeps exactly one by convention.
        let (rank, _) = truncation_rank(&sv, 1e9);
        assert_eq!(rank, 1);
    }

    #[test]
    fn tsvd_respects_threshold() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let a = Matrix::gaussian(15, 15, &mut rng);
        let t = tsvd(&a, 1.0);
        assert!(t.discarded_norm <= 1.0 + 1e-12);
        // Error of the truncated reconstruction equals the tail energy
        // in Frobenius norm.
        let mut us = t.u.clone();
        for (j, &s) in t.singular_values.iter().enumerate() {
            us.scale_col(j, s);
        }
        let approx = gemm(Trans::No, &us, Trans::Yes, &t.v, 1.0);
        let mut diff = approx.clone();
        diff.axpy(-1.0, &a);
        assert!((diff.fro_norm() - t.discarded_norm).abs() < 1e-9);
    }
}
