//! Singular value decomposition and ε-truncation.
//!
//! The rounding algorithms only ever take SVDs of *small* `R × R` matrices
//! (the combined Gram factor `Λ_L^{1/2} V_Lᵀ V_R Λ_R^{1/2}` or the triangular
//! `R_A R_Bᵀ`), so a one-sided Jacobi SVD is used: it is simple and very
//! accurate (it computes small singular values above the `ε·‖A‖_F` noise
//! level to high relative accuracy, which matters for the truncation-rank
//! decision). On the Krylov trains of TT-GMRES these `R × R` problems, not
//! the tall-skinny kernels, are most of a rounding's time, so the Jacobi
//! iteration is preconditioned (Drmač–Veselić, LAPACK `dgejsv`):
//!
//! 1. `A·P = Q·R` by column-pivoted Householder QR. The rows of `R` are
//!    graded, so the columns of `Rᵀ` are much closer to orthogonal than
//!    those of `A`, and a rank-deficient `A` leaves its noise in trailing
//!    rows that are negligible from the start.
//! 2. One-sided Jacobi on the columns of `Rᵀ`, accumulating the rotations
//!    in `X`: `Rᵀ·X = Y·Σ`. Column norms are carried through the rotations
//!    (one dot product per pair instead of three) and recomputed exactly at
//!    each sweep and after cancellation; de Rijk's pivoting moves the
//!    largest remaining column to the front of each row of pairs.
//! 3. `U = Q·X` and `V = P·Y`.
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
//!   `≤ ε·‖A‖_F` is skipped, decided on the carried norms before any dot
//!   product. Such a column is numerically zero: rotating it cannot move
//!   any singular value above the kernel's backward error `ε·‖A‖`, yet the
//!   relative pair test never accepts rounding noise, so without this rule
//!   the R factor of a rank-deficient product (the TSQR-rounding truncation
//!   SVD) ran out every sweep. The skipped columns come back as singular
//!   values `≤ ε·‖A‖_F`. Their columns of `Y` were never orthogonalized, so
//!   their `V` columns are an orthonormal complement of the others instead.
//!   `U` and `V` are orthonormal on every column and `A = UΣVᵀ` holds to
//!   `O(ε‖A‖)`.

use crate::matrix::Matrix;
use crate::qr::{dot, householder_qr, householder_qr_pivoted};

/// A full (thin) singular value decomposition `A = U Σ Vᵀ`.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors, `m × k` with `k = min(m, n)`, orthonormal.
    pub u: Matrix,
    /// Singular values, descending, length `k`.
    pub singular_values: Vec<f64>,
    /// Right singular vectors, `n × k` (columns, not transposed),
    /// orthonormal.
    pub v: Matrix,
}

impl Svd {
    /// The number of singular values above `k·ε·‖A‖_F` (`k = min(m, n)`).
    /// The rounding noise of this SVD, and of the QR or product that formed
    /// `A`, lands a small multiple of `ε·‖A‖_F` deep, so the singular values
    /// past this rank carry no direction of `A`, and a caller that keeps
    /// directions by numerical rank stops here. A cut at `ε·‖A‖_F` itself
    /// sat inside that noise: the TSQR factors of one input on one rank and
    /// on three differed in rank.
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
        let k = self.singular_values.len() as f64;
        self.singular_values
            .iter()
            .filter(|&&s| s > k * f64::EPSILON * fro)
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

/// A carried squared column norm that falls below this fraction of the
/// larger squared norm of its pair has lost at least four bits to
/// cancellation and is recomputed from the column.
const CANCELLATION: f64 = 1.0 / 16.0;

/// One-sided Jacobi SVD of an arbitrary dense matrix, preconditioned by a
/// column-pivoted QR (see the module docs).
///
/// Stops after the first sweep that rotates no pair. A pair is skipped when
/// it is orthogonal to `TOL` or when either column is negligible
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
    let fro2: f64 = w.as_slice().iter().map(|x| x * x).sum();
    let negligible2 = f64::EPSILON * f64::EPSILON * fro2;

    // W·P = Q·R, then one-sided Jacobi on the columns of B = Rᵀ:
    // Rᵀ·X = B with X orthogonal, so W·P = (Q·X)·Bᵀ. B and X are stacked
    // as one `2n × n` matrix, so a rotation is one pass over both.
    let (qr, perm) = householder_qr_pivoted(w);
    let r = qr.r();
    let mut bx = Matrix::from_fn(2 * n, n, |i, j| {
        if i < n {
            r[(j, i)]
        } else if i - n == j {
            1.0
        } else {
            0.0
        }
    });
    let mut norms2 = vec![0.0; n];

    let mut sweeps = 0;
    let mut rotated = true;
    while rotated && sweeps < MAX_SWEEPS {
        sweeps += 1;
        rotated = false;
        // Exact squared column norms at the start of every sweep; within
        // it they are carried through the rotations.
        for (j, s) in norms2.iter_mut().enumerate() {
            *s = norm2(&bx, n, j);
        }
        for p in 0..n {
            // de Rijk's pivoting: the largest remaining column goes first.
            let big = (p..n).fold(p, |best, c| if norms2[c] > norms2[best] { c } else { best });
            if big != p {
                let (cp, cb) = bx.cols_mut_pair(p, big);
                cp.swap_with_slice(cb);
                norms2.swap(p, big);
            }
            for q in p + 1..n {
                let (app, aqq) = (norms2[p], norms2[q]);
                if app <= negligible2 || aqq <= negligible2 {
                    continue;
                }
                let apq = dot(&bx.col(p)[..n], &bx.col(q)[..n]);
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
                rotate_cols(&mut bx, p, q, c, s);
                // The rotated Gram diagonal is [app − t·apq, aqq + t·apq].
                // The smaller norm shrinks; once it has lost more than
                // `CANCELLATION` of its square, recompute it.
                for (j, carried) in [(p, app - t * apq), (q, aqq + t * apq)] {
                    norms2[j] = if carried < CANCELLATION * app.max(aqq) {
                        norm2(&bx, n, j)
                    } else {
                        carried
                    };
                }
            }
        }
    }
    #[expect(
        clippy::panic,
        reason = "the paranoid layer's whole job is to abort instead of returning an unconverged factorization as if it were one"
    )]
    if rotated && crate::paranoid::enabled() {
        let worst = worst_coupling(&bx, n, negligible2);
        panic!(
            "jacobi_svd: paranoid check failed: no convergence on a {m}x{n} input \
             after {sweeps} sweeps; worst remaining |apq|/(‖ap‖‖aq‖) = {worst:e} \
             (tolerance {TOL:e})"
        );
    }

    // Singular values are the column norms of B and the right vectors its
    // normalized columns; the negligible columns were never orthogonalized,
    // so their directions are replaced by an orthonormal complement of the
    // others.
    let sigma: Vec<f64> = (0..n).map(|j| norm2(&bx, n, j).sqrt()).collect();
    let kept: Vec<bool> = sigma.iter().map(|s| s * s > negligible2).collect();
    for j in (0..n).filter(|&j| kept[j]) {
        let inv = 1.0 / sigma[j];
        for y in &mut bx.col_mut(j)[..n] {
            *y *= inv;
        }
    }
    let complement = orthonormal_complement(&bx, &kept);
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| sigma[j].total_cmp(&sigma[i]));

    // U = Q·X (every column orthonormal), V = P·Y.
    let mut u = Matrix::zeros(m, n);
    let mut vs = Matrix::zeros(n, n);
    let mut svals = vec![0.0; n];
    let mut next = 0;
    for (dst, &src) in order.iter().enumerate() {
        svals[dst] = scale_pow2(sigma[src], exp);
        let (y, x) = bx.col(src).split_at(n);
        u.col_mut(dst)[..n].copy_from_slice(x);
        let y = if kept[src] {
            y
        } else {
            next += 1;
            complement.col(next - 1)
        };
        let vcol = vs.col_mut(dst);
        for (&row, &yi) in perm.iter().zip(y) {
            vcol[row] = yi;
        }
    }
    qr.apply_q(&mut u);

    let svd = Svd {
        u,
        singular_values: svals,
        v: vs,
    };
    (svd, sweeps)
}

/// An orthonormal basis (`n × (n − k)`) of the orthogonal complement of
/// the `k` orthonormal vectors `y.col(j)[..n]` with `kept[j]`: the trailing
/// columns of the full `Q` of their Householder QR.
fn orthonormal_complement(y: &Matrix, kept: &[bool]) -> Matrix {
    let n = y.cols();
    let cols: Vec<usize> = (0..n).filter(|&j| kept[j]).collect();
    let k = cols.len();
    if k == n {
        return Matrix::zeros(n, 0);
    }
    let basis = Matrix::from_fn(n, k, |i, j| y.col(cols[j])[i]);
    let qr = householder_qr(&basis);
    let mut c = Matrix::from_fn(n, n - k, |i, j| if i == k + j { 1.0 } else { 0.0 });
    qr.apply_q(&mut c);
    c
}

/// `‖b_j‖²` for the `B` block (rows `..n`) of column `j` of `bx`.
fn norm2(bx: &Matrix, n: usize, j: usize) -> f64 {
    let b = &bx.col(j)[..n];
    dot(b, b)
}

/// The largest `|bₚᵀb_q| / (‖bₚ‖‖b_q‖)` over the pairs of non-negligible
/// columns of the `B` block of `bx`: how far an unconverged iterate is
/// from orthogonal.
fn worst_coupling(bx: &Matrix, n: usize, negligible2: f64) -> f64 {
    let norms2: Vec<f64> = (0..n).map(|j| norm2(bx, n, j)).collect();
    let mut worst = 0.0f64;
    for p in 0..n {
        for q in p + 1..n {
            if norms2[p] > negligible2 && norms2[q] > negligible2 {
                let apq = dot(&bx.col(p)[..n], &bx.col(q)[..n]);
                worst = worst.max(apq.abs() / (norms2[p].sqrt() * norms2[q].sqrt()));
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

fn rotate_cols(m: &mut Matrix, p: usize, q: usize, c: f64, s: f64) {
    let (cp, cq) = m.cols_mut_pair(p, q);
    for (x, y) in cp.iter_mut().zip(cq.iter_mut()) {
        let (a, b) = (*x, *y);
        *x = c * a - s * b;
        *y = s * a + c * b;
    }
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

    /// The Gram-Sim truncation matrix `M = Λ_L^{1/2} V_Lᵀ V_R Λ_R^{1/2}` of a
    /// bond of formal rank `r` whose two sides have true ranks `kl` and `kr`
    /// with singular values graded over eight decades: both Gram spectra
    /// end in eigenvalues clamped to the floor `λ_max·ε`, as on the Krylov
    /// trains of TT-GMRES.
    fn sim_gram_pair_m(r: usize, kl: usize, kr: usize, seed: u64) -> Matrix {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut side = |k: usize| {
            let mut c = Matrix::gaussian(k, r, &mut rng);
            for j in 0..r {
                for i in 0..k {
                    c[(i, j)] *= 10f64.powf(-8.0 * i as f64 / k as f64);
                }
            }
            let a = gemm(
                Trans::No,
                &Matrix::gaussian(3 * r, k, &mut rng),
                Trans::No,
                &c,
                1.0,
            );
            let e = crate::eig::eigh(&crate::gemm::syrk(&a, 1.0))
                .expect("a Gram matrix has an EVD")
                .descending();
            let floor = e.values[0] * f64::EPSILON;
            let lam: Vec<f64> = e.values.iter().map(|&l| l.max(floor).sqrt()).collect();
            (e.vectors, lam)
        };
        let (vl, sl) = side(kl);
        let (vr, sr) = side(kr);
        let mut m = gemm(Trans::Yes, &vl, Trans::No, &vr, 1.0);
        for j in 0..r {
            for i in 0..r {
                m[(i, j)] *= sl[i] * sr[j];
            }
        }
        m
    }

    /// The preconditioned kernel on the Gram-Sim truncation matrices, at
    /// the bond rank of an operator-applied Krylov vector (36) and of the
    /// final solution assembly (~100): few sweeps, an accurate and
    /// orthonormal factorization, and the truncation ranks the
    /// unpreconditioned kernel found on the same matrices.
    #[test]
    fn sim_gram_pair_matrices() {
        // (r, kl, kr, tsvd ranks at ε₀ = {1e-5, 1e-8, 1e-10}·‖M‖_F)
        let cases = [(36, 12, 15, [5, 8, 10]), (100, 30, 40, [12, 18, 22])];
        for (r, kl, kr, ranks) in cases {
            let m = sim_gram_pair_m(r, kl, kr, r as u64);
            let (s, sweeps) = jacobi_svd_sweeps(&m);
            // 6 and 8 observed.
            assert!(sweeps <= 10, "r = {r}: {sweeps} sweeps");
            let fro = m.fro_norm();
            let mut diff = reconstruct(&s);
            diff.axpy(-1.0, &m);
            assert!(
                diff.fro_norm() <= 1e-14 * fro,
                "r = {r}: reconstruction {:e}",
                diff.fro_norm() / fro
            );
            for (name, f) in [("U", &s.u), ("V", &s.v)] {
                let ftf = gemm(Trans::Yes, f, Trans::No, f, 1.0);
                let err = ftf.max_abs_diff(&Matrix::identity(r));
                assert!(err <= 1e-13, "r = {r}: {name}ᵀ{name} - I = {err:e}");
            }
            let got = [1e-5, 1e-8, 1e-10].map(|e| tsvd(&m, e * fro).rank());
            assert_eq!(got, ranks, "r = {r}: tsvd ranks");
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
