//! Householder QR factorization and TSQR building blocks.
//!
//! This is the orthogonalization machinery of the *baseline* rounding
//! algorithm (Alg. 2 of the paper, following Al Daas–Ballard–Benner): a
//! LAPACK-style Householder QR with explicit thin-Q recovery, plus the
//! stacked-R combine step used by the Tall-Skinny QR reduction tree
//! [Demmel et al.].
//!
//! A matrix with at most `ONE_PANEL_MAX_COLS` = 64 columns is factored by
//! one slice-based reflector kernel. That covers every QR this repository
//! runs on a TT unfolding (TSQR leaves, orthogonalization, `matprod`, the
//! TT-GMRES least-squares solve): their widths are TT ranks. Each
//! reflector is applied to a column as one dot product with four
//! independent accumulators and one axpy, which vectorize and stream the
//! column once each. Such a matrix is a single panel, so there is no
//! trailing matrix for a compact-WY `T` to update: building `T` would only
//! add work. `Q` is formed by applying the stored reflectors backwards,
//! skipping the columns each one cannot touch (LAPACK `org2r`).
//!
//! Wider matrices run *blocked* in compact-WY form (LAPACK `geqrt`-style):
//! each `NB`-column panel is factored by the same kernel, its reflectors
//! are aggregated into an upper-triangular `T` with `Q_panel = I − V T Vᵀ`
//! (forward columnwise convention, `larft`), and the trailing matrix is
//! updated with two GEMMs and a tiny triangular multiply on the packed,
//! threaded engine in [`crate::block`]. The stored `T` factors also turn
//! [`QrFactors::thin_q`]/[`QrFactors::apply_q`]/[`QrFactors::apply_qt`]
//! into WY (GEMM) applications.

use crate::gemm::{gemm, gemm_into, Trans};
use crate::matrix::Matrix;

/// Panel width of the blocked factorization. 32 keeps `T` and the `W`
/// workspace tiny while making the trailing update a `KC`-deep GEMM.
const NB: usize = 32;

/// Up to this many columns, [`householder_qr`] runs the one-panel kernel:
/// single-threaded it matches or beats compact-WY at every width up to
/// 128, and only the trailing-update GEMMs of wider matrices gain from
/// threads.
const ONE_PANEL_MAX_COLS: usize = 64;

/// One compact-WY panel: columns `j0 .. j0 + t.cols()` of the factored
/// matrix, with `Q_panel = I − V T Vᵀ` where `V` is the unit-lower-
/// trapezoidal reflector block stored below the diagonal.
#[derive(Debug, Clone)]
struct Panel {
    /// First column (= first row) of the panel.
    j0: usize,
    /// The `jb × jb` upper-triangular block-reflector factor.
    t: Matrix,
}

/// Compact Householder QR factorization of an `m × n` matrix (`m ≥ n` not
/// required; `k = min(m, n)` reflectors are produced).
///
/// The reflectors are stored LAPACK-style: reflector `j` is
/// `H_j = I − τ_j v vᵀ` with `v = [0…0, 1, factors[(j+1.., j)]]`. When the
/// factorization ran blocked, the per-panel `T` factors are stored alongside
/// and every `Q` application runs in WY (GEMM) form; the packed reflectors
/// and `tau` are identical either way.
#[derive(Debug, Clone)]
pub struct QrFactors {
    /// Packed reflectors (below diagonal) and R (upper triangle).
    factors: Matrix,
    /// Householder scalars, one per reflector.
    tau: Vec<f64>,
    /// Compact-WY panel factors; empty for the one-panel factorization.
    panels: Vec<Panel>,
}

/// Computes the Householder QR factorization of `a`: the one-panel kernel
/// for at most 64 columns, the compact-WY blocked algorithm above that.
pub fn householder_qr(a: &Matrix) -> QrFactors {
    if a.cols() <= ONE_PANEL_MAX_COLS {
        householder_qr_unblocked(a)
    } else {
        blocked_qr(a, NB)
    }
}

/// The one-panel factorization: every reflector is applied to all trailing
/// columns as soon as it is built, and no `T` is formed. The conformance
/// oracle for [`blocked_qr`].
pub fn householder_qr_unblocked(a: &Matrix) -> QrFactors {
    crate::paranoid::check_finite("householder_qr", "A", a.as_slice());
    let mut f = a.clone();
    let (m, n) = f.shape();
    let k = m.min(n);
    let mut tau = vec![0.0; k];
    factor_panel(&mut f, &mut tau, 0..k, n);
    QrFactors {
        factors: f,
        tau,
        panels: Vec::new(),
    }
}

/// Compact-WY blocked Householder QR with panel width `nb`.
///
/// Identical `factors`/`tau` semantics to [`householder_qr_unblocked`] (the
/// two produce the same factorization bit-for-bit up to floating-point
/// reassociation in the trailing update); additionally stores each panel's
/// `T` so `Q` applications run as GEMMs.
pub fn blocked_qr(a: &Matrix, nb: usize) -> QrFactors {
    crate::paranoid::check_finite("blocked_qr", "A", a.as_slice());
    assert!(nb > 0, "blocked_qr: panel width must be positive");
    let mut f = a.clone();
    let (m, n) = f.shape();
    let k = m.min(n);
    let mut tau = vec![0.0; k];
    let mut twork = vec![0.0; nb.min(k)];
    let mut panels = Vec::with_capacity(k.div_ceil(nb));

    for j0 in (0..k).step_by(nb) {
        let jb = nb.min(k - j0);
        // The trailing matrix is untouched until the WY update.
        factor_panel(&mut f, &mut tau, j0..j0 + jb, j0 + jb);
        // Aggregate the panel's reflectors: Q_panel = I − V T Vᵀ.
        let t = build_t(&f, j0, jb, &tau[j0..j0 + jb], &mut twork[..jb]);
        // Trailing update with Qᵀ_panel = I − V Tᵀ Vᵀ:
        //   C := C − V · Tᵀ · (Vᵀ C)   for C = f[j0.., j0+jb..].
        if j0 + jb < n {
            let v = explicit_v(&f, j0, jb);
            let nc = n - (j0 + jb);
            let mut c = f.sub_matrix(j0, j0 + jb, m - j0, nc);
            let mut w = gemm(Trans::Yes, &v, Trans::No, &c, 1.0);
            trmm_t_upper_inplace(&t, &mut w);
            gemm_into(Trans::No, &v, Trans::No, &w, -1.0, 1.0, &mut c);
            for jc in 0..nc {
                f.col_mut(j0 + jb + jc)[j0..m].copy_from_slice(c.col(jc));
            }
        }
        panels.push(Panel { j0, t });
    }
    QrFactors {
        factors: f,
        tau,
        panels,
    }
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

    /// Whether this factorization carries compact-WY `T` factors (i.e. ran
    /// blocked). Exposed so tests can pin the dispatch.
    pub fn is_blocked(&self) -> bool {
        !self.panels.is_empty()
    }

    /// The upper-triangular factor, as a `k × n` matrix (`k = min(m, n)`).
    pub fn r(&self) -> Matrix {
        let (m, n) = self.factors.shape();
        let k = m.min(n);
        Matrix::from_fn(k, n, |i, j| if i <= j { self.factors[(i, j)] } else { 0.0 })
    }

    /// Explicit thin Q (`m × k`), by backward accumulation of the reflectors
    /// (one-panel) or backward WY panel application (blocked) onto the
    /// leading columns of the identity. The one-panel form applies `H_j`
    /// only to columns `j..k`: columns `c < j` are still `e_c` there, which
    /// `H_j` leaves unchanged.
    pub fn thin_q(&self) -> Matrix {
        let (m, n) = self.factors.shape();
        let k = m.min(n);
        let mut q = Matrix::zeros(m, k);
        for j in 0..k {
            q[(j, j)] = 1.0;
        }
        if self.panels.is_empty() {
            for j in (0..k).rev() {
                self.reflect_cols(j, &mut q.as_mut_slice()[j * m..]);
            }
        } else {
            self.apply_wy(&mut q, false);
        }
        q
    }

    /// Applies `Qᵀ` to `b` in place (`b` has `m` rows).
    pub fn apply_qt(&self, b: &mut Matrix) {
        assert_eq!(b.rows(), self.rows(), "apply_qt: row mismatch");
        if self.panels.is_empty() {
            for j in 0..self.tau.len() {
                self.reflect_cols(j, b.as_mut_slice());
            }
        } else {
            self.apply_wy(b, true);
        }
    }

    /// Applies `Q` to `b` in place (`b` has `m` rows).
    pub fn apply_q(&self, b: &mut Matrix) {
        assert_eq!(b.rows(), self.rows(), "apply_q: row mismatch");
        if self.panels.is_empty() {
            for j in (0..self.tau.len()).rev() {
                self.reflect_cols(j, b.as_mut_slice());
            }
        } else {
            self.apply_wy(b, false);
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

    /// WY application of `Q` (`transpose = false`, panels backward) or `Qᵀ`
    /// (`transpose = true`, panels forward) to `b`:
    /// `B := B − V · op(T) · (Vᵀ B)` per panel, restricted to rows `j0..m`.
    fn apply_wy(&self, b: &mut Matrix, transpose: bool) {
        let m = self.factors.rows();
        let nb_cols = b.cols();
        let order: Vec<usize> = if transpose {
            (0..self.panels.len()).collect()
        } else {
            (0..self.panels.len()).rev().collect()
        };
        for pi in order {
            let panel = &self.panels[pi];
            let (j0, jb) = (panel.j0, panel.t.cols());
            let v = explicit_v(&self.factors, j0, jb);
            let mut c = b.sub_matrix(j0, 0, m - j0, nb_cols);
            let mut w = gemm(Trans::Yes, &v, Trans::No, &c, 1.0);
            if transpose {
                trmm_t_upper_inplace(&panel.t, &mut w);
            } else {
                trmm_upper_inplace(&panel.t, &mut w);
            }
            gemm_into(Trans::No, &v, Trans::No, &w, -1.0, 1.0, &mut c);
            for jc in 0..nb_cols {
                b.col_mut(jc)[j0..m].copy_from_slice(c.col(jc));
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
/// time, applying each to the columns after it up to `jend` (`n` for the
/// one-panel factorization, the panel edge for a blocked panel).
fn factor_panel(f: &mut Matrix, tau: &mut [f64], js: std::ops::Range<usize>, jend: usize) {
    let m = f.rows();
    for j in js {
        let (left, right) = f.as_mut_slice().split_at_mut((j + 1) * m);
        let col = &mut left[j * m..];
        let (t, beta) = make_householder(col, j);
        tau[j] = t;
        if t != 0.0 {
            for c in right[..(jend - j - 1) * m].chunks_exact_mut(m) {
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
fn dot(x: &[f64], y: &[f64]) -> f64 {
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

/// `larft`-style forward-columnwise `T` recurrence for one panel:
/// `H_{j0} H_{j0+1} … = I − V T Vᵀ` with `T` upper triangular,
/// `T[i][i] = τᵢ` and `T[0..i, i] = −τᵢ · T[0..i, 0..i] · (Vᵀ vᵢ)`.
///
/// `w` is caller-provided workspace of length `jb` (column `i` writes
/// `w[0..i]` before reading it, so no zeroing between panels is needed);
/// the returned `T` itself escapes into the factorization's panel list.
fn build_t(f: &Matrix, j0: usize, jb: usize, tau: &[f64], w: &mut [f64]) -> Matrix {
    let m = f.rows();
    debug_assert_eq!(w.len(), jb);
    let mut t = Matrix::zeros(jb, jb);
    for i in 0..jb {
        let ti = tau[i];
        if ti == 0.0 {
            // H_i = I: larft leaves the whole column (incl. diagonal) zero.
            continue;
        }
        // w[p] = (Vᵀ vᵢ)[p] = V[i, p] + Σ_{r>i} V[r, p]·vᵢ[r]  for p < i
        // (vᵢ has an implicit 1 at row i and support below it).
        for (p, wp) in w.iter_mut().enumerate().take(i) {
            let mut s = f[(j0 + i, j0 + p)];
            for r in j0 + i + 1..m {
                s += f[(r, j0 + p)] * f[(r, j0 + i)];
            }
            *wp = s;
        }
        for p in 0..i {
            let mut s = 0.0;
            for (q, &wq) in w.iter().enumerate().take(i).skip(p) {
                s += t[(p, q)] * wq;
            }
            t[(p, i)] = -ti * s;
        }
        t[(i, i)] = ti;
    }
    t
}

/// Materializes the unit-lower-trapezoidal reflector block `V`
/// (`(m − j0) × jb`) of the panel starting at `j0`.
fn explicit_v(f: &Matrix, j0: usize, jb: usize) -> Matrix {
    let m = f.rows();
    Matrix::from_fn(m - j0, jb, |i, j| match i.cmp(&j) {
        std::cmp::Ordering::Less => 0.0,
        std::cmp::Ordering::Equal => 1.0,
        std::cmp::Ordering::Greater => f[(j0 + i, j0 + j)],
    })
}

/// `W := Tᵀ W` for upper-triangular `T` (tiny `jb × jb` triangular multiply;
/// descending row order makes the update safely in-place).
fn trmm_t_upper_inplace(t: &Matrix, w: &mut Matrix) {
    let jb = t.rows();
    debug_assert_eq!(w.rows(), jb);
    for c in 0..w.cols() {
        let col = w.col_mut(c);
        for p in (0..jb).rev() {
            let mut s = 0.0;
            for (q, &wq) in col.iter().enumerate().take(p + 1) {
                s += t[(q, p)] * wq;
            }
            col[p] = s;
        }
    }
}

/// `W := T W` for upper-triangular `T` (ascending row order is in-place
/// safe: row `p` only reads rows `≥ p`).
fn trmm_upper_inplace(t: &Matrix, w: &mut Matrix) {
    let jb = t.rows();
    debug_assert_eq!(w.rows(), jb);
    for c in 0..w.cols() {
        let col = w.col_mut(c);
        for p in 0..jb {
            let mut s = 0.0;
            for (q, &wq) in col.iter().enumerate().take(jb).skip(p) {
                s += t[(p, q)] * wq;
            }
            col[p] = s;
        }
    }
}

#[cfg(test)]
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
    fn qr_blocked_sizes() {
        // Sizes on both sides of the 64-column dispatch bound; the wide ones
        // route to the compact-WY path and straddle its panel edges.
        check_qr(200, 40, 21); // one-panel kernel, 40 columns
        check_qr(100, NB, 22); // one-panel kernel, exactly NB columns
        check_qr(90, NB + 3, 23); // one-panel kernel, NB + 3 columns
        check_qr(70, 70, 24); // blocked: square, panels hit the bottom
        check_qr(40, 90, 25); // blocked: wide, trailing update past k
        check_qr(300, 80, 26); // blocked: two full panels + a ragged one
    }

    #[test]
    fn blocked_dispatch_engages() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(30);
        // At most 64 columns: one panel, no T.
        let tall = Matrix::gaussian(200, 40, &mut rng);
        assert!(!householder_qr(&tall).is_blocked());
        let edge = Matrix::gaussian(100, ONE_PANEL_MAX_COLS, &mut rng);
        assert!(!householder_qr(&edge).is_blocked());
        // The wide twin crosses the bound and takes compact-WY.
        let wide = Matrix::gaussian(300, 80, &mut rng);
        assert!(householder_qr(&wide).is_blocked());
        let small = Matrix::gaussian(10, 3, &mut rng);
        assert!(!householder_qr(&small).is_blocked());
    }

    #[test]
    fn blocked_matches_unblocked_factors() {
        // Same reflectors and R up to roundoff: the WY update is just a
        // reassociated application of the same Householder transforms.
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        for (m, n) in [(120usize, 50usize), (64, 64), (45, 100)] {
            let a = Matrix::gaussian(m, n, &mut rng);
            let fb = blocked_qr(&a, 16);
            let fu = householder_qr_unblocked(&a);
            let scale = 1.0 + a.max_abs();
            assert!(
                fb.r().max_abs_diff(&fu.r()) < 1e-11 * scale,
                "R mismatch {m}x{n}"
            );
            assert!(
                fb.thin_q().max_abs_diff(&fu.thin_q()) < 1e-11,
                "Q mismatch {m}x{n}"
            );
        }
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
        // One-panel up to the TSQR leaf shape of 20000×20, then compact-WY.
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
        // 130×48 runs the one-panel kernel, its 300×80 twin compact-WY.
        for (m, n, blocked) in [(130usize, 48usize, false), (300, 80, true)] {
            let a = Matrix::gaussian(m, n, &mut rng);
            let f = householder_qr(&a);
            assert_eq!(f.is_blocked(), blocked, "{m}x{n}");
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
        ];
        for (a, label) in &cases {
            let f = householder_qr(a);
            assert!(!f.is_blocked(), "{label}");
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

    #[test]
    fn zero_matrix_blocked_qr() {
        let a = Matrix::zeros(80, 32);
        let f = blocked_qr(&a, 16);
        assert!(f.r().max_abs() == 0.0);
        let q = f.thin_q();
        let qtq = gemm(Trans::Yes, &q, Trans::No, &q, 1.0);
        assert!(qtq.max_abs_diff(&Matrix::identity(32)) < 1e-14);
    }

    #[test]
    fn gemm_alloc_used_by_wy_path_is_consistent() {
        // Guards the gemm/gemm_alloc pair the WY update depends on.
        let mut rng = rand::rngs::StdRng::seed_from_u64(33);
        let v = Matrix::gaussian(50, 8, &mut rng);
        let c = Matrix::gaussian(50, 7, &mut rng);
        let w1 = gemm(Trans::Yes, &v, Trans::No, &c, 1.0);
        let w2 = crate::gemm::gemm_alloc(Trans::Yes, v.view(), Trans::No, c.view(), 1.0);
        assert!(w1.max_abs_diff(&w2) == 0.0);
    }
}
