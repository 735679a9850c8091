//! Householder QR factorization and TSQR building blocks.
//!
//! This is the orthogonalization machinery of the *baseline* rounding
//! algorithm (Alg. 2 of the paper, following Al Daas–Ballard–Benner): a
//! LAPACK-style Householder QR with explicit thin-Q recovery, plus the
//! stacked-R combine step used by the Tall-Skinny QR reduction tree
//! [Demmel et al.].
//!
//! Every matrix is factored by one slice-based reflector kernel (LAPACK
//! `geqr2`), whatever its width: the TT-rank-wide QRs (TSQR leaves,
//! orthogonalization, `matprod`, the TT-GMRES least-squares solve) and the
//! formal-rank-wide unfoldings of QR-rounding a sum, up to 441×144 for
//! TT-GMRES's solution on the pinned cookies problem
//! (`tests/gmres_bit_pin.rs`). Each reflector is applied to a column as
//! one dot product with four independent accumulators and one axpy, which
//! vectorize and stream the column once each. `Q` is formed by applying
//! the stored reflectors backwards, skipping the columns each one cannot
//! touch (LAPACK `org2r`). There is no compact-WY blocked path: it paid
//! off only on tall, out-of-cache panels wider than about 80 columns,
//! which no caller produces (DESIGN.md §11).

use crate::matrix::Matrix;

/// Compact Householder QR factorization of an `m × n` matrix (`m ≥ n` not
/// required; `k = min(m, n)` reflectors are produced).
///
/// The reflectors are stored LAPACK-style: reflector `j` is
/// `H_j = I − τ_j v vᵀ` with `v = [0…0, 1, factors[(j+1.., j)]]`.
#[derive(Debug, Clone)]
pub struct QrFactors {
    /// Packed reflectors (below diagonal) and R (upper triangle).
    factors: Matrix,
    /// Householder scalars, one per reflector.
    tau: Vec<f64>,
}

/// Computes the Householder QR factorization of `a`: every reflector is
/// applied to all trailing columns as soon as it is built.
pub fn householder_qr(a: &Matrix) -> QrFactors {
    crate::paranoid::check_finite("householder_qr", "A", a.as_slice());
    let mut f = a.clone();
    let (m, n) = f.shape();
    let k = m.min(n);
    let mut tau = vec![0.0; k];
    factor_panel(&mut f, &mut tau, 0..k);
    QrFactors { factors: f, tau }
}

/// Householder QR with column pivoting, `A·P = Q·R` (LAPACK `laqp2`): step
/// `j` first moves the remaining column of largest norm below row `j` to
/// position `j`, so `|r₀₀| ≥ |r₁₁| ≥ …` and the rows of `R` are graded.
/// The trailing norms are downdated after each reflector and recomputed
/// once cancellation has eaten half their digits. Returns the factors and
/// the permutation: column `j` of `A·P` is column `perm[j]` of
/// `A`.
pub(crate) fn householder_qr_pivoted(a: Matrix) -> (QrFactors, Vec<usize>) {
    let mut f = a;
    let (m, n) = f.shape();
    let k = m.min(n);
    let mut tau = vec![0.0; k];
    let mut perm: Vec<usize> = (0..n).collect();
    // The downdated norms, and the last exactly computed ones.
    let mut norms: Vec<f64> = (0..n).map(|j| dot(f.col(j), f.col(j)).sqrt()).collect();
    let mut exact = norms.clone();
    let recompute = f64::EPSILON.sqrt();
    for j in 0..k {
        let p = (j..n).fold(j, |best, c| if norms[c] > norms[best] { c } else { best });
        if p != j {
            let (cj, cp) = f.cols_mut_pair(j, p);
            cj.swap_with_slice(cp);
            perm.swap(j, p);
            norms.swap(j, p);
            exact.swap(j, p);
        }
        factor_panel(&mut f, &mut tau, j..j + 1);
        for c in j + 1..n {
            if norms[c] == 0.0 {
                continue;
            }
            let ratio = f[(j, c)].abs() / norms[c];
            let left = (1.0 - ratio * ratio).max(0.0);
            if left * (norms[c] / exact[c]).powi(2) <= recompute {
                let tail = &f.col(c)[j + 1..];
                norms[c] = dot(tail, tail).sqrt();
                exact[c] = norms[c];
            } else {
                norms[c] *= left.sqrt();
            }
        }
    }
    (QrFactors { factors: f, tau }, perm)
}

impl QrFactors {
    /// Number of rows of the factored matrix.
    pub fn rows(&self) -> usize {
        self.factors.rows()
    }

    /// Number of columns of the factored matrix.
    pub fn cols(&self) -> usize {
        self.factors.cols()
    }

    /// The upper-triangular factor, as a `k × n` matrix (`k = min(m, n)`).
    pub fn r(&self) -> Matrix {
        let (m, n) = self.factors.shape();
        let k = m.min(n);
        Matrix::from_fn(k, n, |i, j| if i <= j { self.factors[(i, j)] } else { 0.0 })
    }

    /// Explicit thin Q (`m × k`), by backward accumulation of the reflectors
    /// onto the leading columns of the identity. `H_j` is applied only to
    /// columns `j..k`: columns `c < j` are still `e_c` there, which `H_j`
    /// leaves unchanged.
    pub fn thin_q(&self) -> Matrix {
        let (m, n) = self.factors.shape();
        let k = m.min(n);
        let mut q = Matrix::zeros(m, k);
        for j in 0..k {
            q[(j, j)] = 1.0;
        }
        for j in (0..k).rev() {
            self.reflect_cols(j, &mut q.as_mut_slice()[j * m..]);
        }
        q
    }

    /// Applies `Qᵀ` to `b` in place (`b` has `m` rows).
    pub fn apply_qt(&self, b: &mut Matrix) {
        assert_eq!(b.rows(), self.rows(), "apply_qt: row mismatch");
        for j in 0..self.tau.len() {
            self.reflect_cols(j, b.as_mut_slice());
        }
    }

    /// Applies `Q` to `b` in place (`b` has `m` rows).
    pub fn apply_q(&self, b: &mut Matrix) {
        assert_eq!(b.rows(), self.rows(), "apply_q: row mismatch");
        for j in (0..self.tau.len()).rev() {
            self.reflect_cols(j, b.as_mut_slice());
        }
    }

    /// Applies stored reflector `j` to every `m`-row column of the
    /// column-major block `cols`.
    fn reflect_cols(&self, j: usize, cols: &mut [f64]) {
        let tau = self.tau[j];
        if tau != 0.0 {
            let tail = &self.factors.col(j)[j + 1..];
            for col in cols.chunks_exact_mut(self.rows()) {
                reflect(tail, tau, j, col);
            }
        }
    }
}

/// TSQR combine step: QR of two stacked `k × n` upper-triangular blocks
/// `[R₁; R₂]`. Returns `(q, r)` with `q` the explicit `2k × k'` thin Q and
/// `r` the combined triangular factor — one internal node of the TSQR
/// reduction tree.
pub fn qr_stacked_pair(r1: &Matrix, r2: &Matrix) -> (Matrix, Matrix) {
    assert_eq!(
        r1.cols(),
        r2.cols(),
        "stacked QR requires equal column counts"
    );
    crate::paranoid::check_finite("qr_stacked_pair", "R1", r1.as_slice());
    crate::paranoid::check_finite("qr_stacked_pair", "R2", r2.as_slice());
    let stacked = r1.vstack(r2);
    let f = householder_qr(&stacked);
    (f.thin_q(), f.r())
}

/// The reflector kernel: factors columns `js` of `f` one reflector at a
/// time, applying each to every column after it.
fn factor_panel(f: &mut Matrix, tau: &mut [f64], js: std::ops::Range<usize>) {
    let m = f.rows();
    for j in js {
        let (left, right) = f.as_mut_slice().split_at_mut((j + 1) * m);
        let col = &mut left[j * m..];
        let (t, beta) = make_householder(col, j);
        tau[j] = t;
        if t != 0.0 {
            for c in right.chunks_exact_mut(m) {
                reflect(&col[j + 1..], t, j, c);
            }
        }
        col[j] = beta;
    }
}

/// Builds the reflector for column `col` at diagonal row `j`; returns
/// `(tau, beta)` where `beta` is the new diagonal entry. The vector tail is
/// written below the diagonal.
fn make_householder(col: &mut [f64], j: usize) -> (f64, f64) {
    let alpha = col[j];
    let tail = &mut col[j + 1..];
    let xnorm2 = dot(tail, tail);
    if xnorm2 == 0.0 {
        // Column already zero below the diagonal: H = I.
        return (0.0, alpha);
    }
    let norm = (alpha * alpha + xnorm2).sqrt();
    let beta = if alpha >= 0.0 { -norm } else { norm };
    let scale = 1.0 / (alpha - beta);
    for x in tail {
        *x *= scale;
    }
    ((beta - alpha) / beta, beta)
}

/// `col := (I − τ v vᵀ) col` for `v = [0…0, 1, tail]` with its unit entry
/// at row `j`: a dot product and an axpy over rows `j..`.
fn reflect(tail: &[f64], tau: f64, j: usize, col: &mut [f64]) {
    let (head, rest) = col[j..].split_at_mut(1);
    let s = tau * (head[0] + dot(tail, rest));
    head[0] -= s;
    for (x, &v) in rest.iter_mut().zip(tail) {
        *x -= s * v;
    }
}

/// `xᵀy` with four independent accumulators, so the loop vectorizes
/// without reassociation by the compiler.
pub(crate) fn dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    let (xc, xr) = x.as_chunks::<4>();
    let (yc, yr) = y.as_chunks::<4>();
    let mut acc = [0.0; 4];
    for (a, b) in xc.iter().zip(yc) {
        for ((s, x), y) in acc.iter_mut().zip(a).zip(b) {
            *s += x * y;
        }
    }
    let tail: f64 = xr.iter().zip(yr).map(|(a, b)| a * b).sum();
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

#[cfg(test)]
#[allow(clippy::float_cmp, reason = "tests compare exact values on purpose")]
mod tests {
    use super::*;
    use crate::gemm::{gemm, Trans};
    use rand::SeedableRng;

    fn check_qr(m: usize, n: usize, seed: u64) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = Matrix::gaussian(m, n, &mut rng);
        let f = householder_qr(&a);
        let q = f.thin_q();
        let r = f.r();
        let k = m.min(n);
        assert_eq!(q.shape(), (m, k));
        assert_eq!(r.shape(), (k, n));
        // A = Q R
        let qr = gemm(Trans::No, &q, Trans::No, &r, 1.0);
        assert!(
            qr.max_abs_diff(&a) < 1e-12 * (1.0 + a.max_abs()) * (1.0 + k as f64).sqrt(),
            "reconstruction {m}x{n}"
        );
        // QᵀQ = I
        let qtq = gemm(Trans::Yes, &q, Trans::No, &q, 1.0);
        assert!(
            qtq.max_abs_diff(&Matrix::identity(k)) < 1e-13 * (1.0 + k as f64).sqrt(),
            "orthogonality {m}x{n}"
        );
        // R upper triangular
        for j in 0..n {
            for i in j + 1..k {
                assert_eq!(r[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn qr_tall() {
        check_qr(50, 8, 1);
    }

    #[test]
    fn qr_square() {
        check_qr(12, 12, 2);
    }

    #[test]
    fn qr_wide() {
        check_qr(5, 9, 3);
    }

    #[test]
    fn qr_single_column() {
        check_qr(17, 1, 4);
    }

    #[test]
    fn qr_formal_rank_widths() {
        // TT-rank widths up to the formal-rank widths of rounding a sum.
        check_qr(200, 40, 21);
        check_qr(100, 32, 22);
        check_qr(90, 35, 23);
        check_qr(70, 70, 24); // square: the last reflectors hit the bottom
        check_qr(40, 90, 25); // wide: reflectors reach columns past k
        check_qr(300, 80, 26);
    }

    #[test]
    fn qr_rank_deficient_is_stable() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let b = Matrix::gaussian(30, 3, &mut rng);
        let c = Matrix::gaussian(3, 6, &mut rng);
        let a = gemm(Trans::No, &b, Trans::No, &c, 1.0); // rank 3, 30x6
        let f = householder_qr(&a);
        let q = f.thin_q();
        let r = f.r();
        let qr = gemm(Trans::No, &q, Trans::No, &r, 1.0);
        assert!(qr.max_abs_diff(&a) < 1e-12 * (1.0 + a.max_abs()));
        let qtq = gemm(Trans::Yes, &q, Trans::No, &q, 1.0);
        assert!(qtq.max_abs_diff(&Matrix::identity(6)) < 1e-13);
    }

    #[test]
    fn apply_q_and_qt_are_inverses() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        // Up to the TSQR leaf shape of 20000×20 and a formal-rank width.
        for (m, n) in [
            (20usize, 5usize),
            (150, 40),
            (108, 36),
            (20000, 20),
            (300, 80),
        ] {
            let a = Matrix::gaussian(m, n, &mut rng);
            let f = householder_qr(&a);
            let b0 = Matrix::gaussian(m, 4, &mut rng);
            let mut b = b0.clone();
            f.apply_qt(&mut b);
            f.apply_q(&mut b);
            assert!(b.max_abs_diff(&b0) < 1e-11, "{m}x{n}");
        }
    }

    #[test]
    fn apply_qt_matches_explicit_q() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(32);
        for (m, n) in [(130usize, 48usize), (300, 80)] {
            let a = Matrix::gaussian(m, n, &mut rng);
            let f = householder_qr(&a);
            let b = Matrix::gaussian(m, 3, &mut rng);
            // Qᵀb applied vs via explicit thin Q (leading k rows agree).
            let mut applied = b.clone();
            f.apply_qt(&mut applied);
            let q = f.thin_q();
            let explicit = gemm(Trans::Yes, &q, Trans::No, &b, 1.0);
            let lead = applied.sub_matrix(0, 0, n, 3);
            assert!(lead.max_abs_diff(&explicit) < 1e-11, "{m}x{n}");
        }
    }

    #[test]
    fn thin_q_skip_is_bitwise_full_application() {
        // thin_q applies H_j only to columns j..k; apply_q on the identity
        // embedding applies every reflector to every column. The skipped
        // products are exact zeros, so the two agree bit for bit, including
        // through the τ = 0 reflectors of zero and repeated columns.
        let mut rng = rand::rngs::StdRng::seed_from_u64(34);
        let g = Matrix::gaussian(60, 12, &mut rng);
        let zero_cols = Matrix::from_fn(60, 12, |i, j| if j % 3 == 1 { 0.0 } else { g[(i, j)] });
        let repeated = Matrix::from_fn(60, 12, |i, _| g[(i, 0)]);
        let cases = [
            (g.clone(), "gaussian"),
            (zero_cols, "zero columns"),
            (repeated, "repeated columns"),
            (Matrix::zeros(40, 9), "zero matrix"),
            (Matrix::identity(20), "identity"),
            (Matrix::gaussian(20000, 20, &mut rng), "tsqr leaf"),
            (Matrix::gaussian(300, 80, &mut rng), "formal-rank width"),
        ];
        for (a, label) in &cases {
            let f = householder_qr(a);
            let (m, k) = (a.rows(), a.rows().min(a.cols()));
            let mut full = Matrix::from_fn(m, k, |i, j| if i == j { 1.0 } else { 0.0 });
            f.apply_q(&mut full);
            let bits = |q: &Matrix| q.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&f.thin_q()), bits(&full), "{label}");
        }
        // The zero-column and degenerate cases really produce τ = 0.
        for (a, label) in &cases[1..5] {
            assert!(
                householder_qr(a).tau.contains(&0.0),
                "{label}: no τ = 0 reflector"
            );
        }
    }

    #[test]
    fn stacked_pair_combines_r_factors() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let a1 = Matrix::gaussian(40, 6, &mut rng);
        let a2 = Matrix::gaussian(40, 6, &mut rng);
        let r1 = householder_qr(&a1).r();
        let r2 = householder_qr(&a2).r();
        let (q, r) = qr_stacked_pair(&r1, &r2);
        // [R1; R2] = Q R
        let stacked = r1.vstack(&r2);
        let qr = gemm(Trans::No, &q, Trans::No, &r, 1.0);
        assert!(qr.max_abs_diff(&stacked) < 1e-12 * (1.0 + stacked.max_abs()));
        // Singular values of [A1; A2] equal those of R (TSQR invariant):
        let big = a1.vstack(&a2);
        let s_big = crate::svd::jacobi_svd(&big).singular_values;
        let s_r = crate::svd::jacobi_svd(&r).singular_values;
        for (x, y) in s_big.iter().zip(s_r.iter()) {
            assert!((x - y).abs() < 1e-10 * (1.0 + x.abs()), "{x} vs {y}");
        }
    }

    #[test]
    fn zero_matrix_qr() {
        let a = Matrix::zeros(10, 3);
        let f = householder_qr(&a);
        assert!(f.r().max_abs() == 0.0);
        // Q columns are still well-defined (identity embedding).
        let q = f.thin_q();
        let qtq = gemm(Trans::Yes, &q, Trans::No, &q, 1.0);
        assert!(qtq.max_abs_diff(&Matrix::identity(3)) < 1e-14);
    }
}
