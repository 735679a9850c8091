//! Golub–Kahan SVD: Householder bidiagonalization followed by an SVD of
//! the small bidiagonal core.
//!
//! This is the structure of the LAPACK-`dgesvd` algorithm the paper's
//! software stack (OpenBLAS/LAPACK) uses for its truncated SVDs: reduce the
//! `m × n` matrix to an `n × n` bidiagonal with two-sided Householder
//! reflections (`O(mn²)` — the dominant saving on tall matrices), then
//! diagonalize the bidiagonal. For the final diagonalization we reuse the
//! one-sided Jacobi kernel of [`crate::svd`] rather than a bulge-chasing QR
//! iteration — on the small post-reduction core the asymptotics match, and
//! Jacobi needs no shifts or deflation logic. Its termination and range
//! rules are the ones of [`crate::svd`]: negligible columns are not rotated
//! and the input is prescaled by a power of two, so a rank-deficient core
//! converges in a few sweeps and the core's SVD cannot overflow or
//! underflow. The two SVD backends cross-validate each other in the test
//! suite, and either can back the rounding kernels.

use crate::matrix::Matrix;
use crate::svd::Svd;
use crate::Result;

/// Computes the thin SVD of `a` via Golub–Kahan bidiagonalization followed
/// by diagonalization of the bidiagonal core. Singular values are returned
/// descending with `U` (`m × k`) and `V` (`n × k`), `k = min(m, n)`; `V` is
/// orthonormal, and so are the columns of `U` whose singular values lie
/// above the core's `ε·‖A‖_F` noise level ([`crate::svd`]).
pub fn golub_kahan_svd(a: &Matrix) -> Result<Svd> {
    crate::paranoid::check_finite("golub_kahan_svd", "A", a.as_slice());
    let (m, n) = a.shape();
    if m < n {
        // Work on the transpose and swap factors.
        let t = golub_kahan_svd(&a.transpose())?;
        return Ok(Svd {
            u: t.v,
            singular_values: t.singular_values,
            v: t.u,
        });
    }
    if n == 0 {
        return Ok(Svd {
            u: Matrix::zeros(m, 0),
            singular_values: vec![],
            v: Matrix::zeros(0, 0),
        });
    }

    // ---- Householder bidiagonalization: A = U_b B V_bᵀ. ----
    let mut work = a.clone();
    let mut d = vec![0.0; n]; // diagonal of B
    let mut e = vec![0.0; n]; // superdiagonal of B (e[0] unused)
                              // Accumulated transforms, applied to identity during the reduction.
    let mut u = Matrix::zeros(m, n);
    for j in 0..n {
        u[(j, j)] = 1.0;
    }
    let mut v = Matrix::identity(n);

    // Store reflectors in-place; accumulate U and V afterwards (backward).
    let mut tau_left = vec![0.0; n];
    let mut tau_right = vec![0.0; n];
    for k in 0..n {
        // Left reflector annihilating work[k+1.., k].
        let (tl, beta) = make_reflector_col(&mut work, k);
        tau_left[k] = tl;
        d[k] = beta;
        if tl != 0.0 {
            apply_reflector_col_left(&mut work, k, tl);
        }
        if k + 1 < n {
            // Right reflector annihilating work[k, k+2..].
            let (tr, beta_r) = make_reflector_row(&mut work, k);
            tau_right[k] = tr;
            e[k + 1] = beta_r;
            if tr != 0.0 {
                apply_reflector_row_right(&mut work, k, tr);
            }
        }
    }

    // Accumulate U (m × n): apply left reflectors backward to the identity
    // columns.
    for k in (0..n).rev() {
        let t = tau_left[k];
        if t != 0.0 {
            apply_stored_col_reflector(&work, k, t, &mut u);
        }
    }
    // Accumulate V (n × n): right reflectors act on rows k, columns k+1..;
    // vᵀ stored in work[k, k+2..].
    for k in (0..n.saturating_sub(1)).rev() {
        let t = tau_right[k];
        if t != 0.0 {
            apply_stored_row_reflector(&work, k, t, &mut v);
        }
    }

    // ---- SVD of the small bidiagonal core B (n × n). ----
    let mut b = Matrix::zeros(n, n);
    for k in 0..n {
        b[(k, k)] = d[k];
        if k + 1 < n {
            b[(k, k + 1)] = e[k + 1];
        }
    }
    let core = crate::svd::jacobi_svd(&b);

    // Compose: A = (U·U_b) Σ (V·V_b)ᵀ.
    let su = crate::gemm::gemm(
        crate::gemm::Trans::No,
        &u,
        crate::gemm::Trans::No,
        &core.u,
        1.0,
    );
    let sv = crate::gemm::gemm(
        crate::gemm::Trans::No,
        &v,
        crate::gemm::Trans::No,
        &core.v,
        1.0,
    );
    Ok(Svd {
        u: su,
        singular_values: core.singular_values,
        v: sv,
    })
}

/// Householder reflector for column `k` below the diagonal.
fn make_reflector_col(w: &mut Matrix, k: usize) -> (f64, f64) {
    let m = w.rows();
    let alpha = w[(k, k)];
    let mut xnorm2 = 0.0;
    for i in k + 1..m {
        xnorm2 += w[(i, k)] * w[(i, k)];
    }
    if xnorm2 == 0.0 {
        return (0.0, alpha);
    }
    let norm = (alpha * alpha + xnorm2).sqrt();
    let beta = if alpha >= 0.0 { -norm } else { norm };
    let tau = (beta - alpha) / beta;
    let scale = 1.0 / (alpha - beta);
    for i in k + 1..m {
        w[(i, k)] *= scale;
    }
    (tau, beta)
}

/// Applies the column-`k` reflector to columns `k+1..` of `w`.
fn apply_reflector_col_left(w: &mut Matrix, k: usize, tau: f64) {
    let (m, n) = w.shape();
    for c in k + 1..n {
        let mut s = w[(k, c)];
        for i in k + 1..m {
            s += w[(i, k)] * w[(i, c)];
        }
        let ts = tau * s;
        w[(k, c)] -= ts;
        for i in k + 1..m {
            let vik = w[(i, k)];
            w[(i, c)] -= ts * vik;
        }
    }
}

/// Householder reflector for row `k`, columns `k+2..` (bidiagonal shape).
fn make_reflector_row(w: &mut Matrix, k: usize) -> (f64, f64) {
    let n = w.cols();
    let alpha = w[(k, k + 1)];
    let mut xnorm2 = 0.0;
    for j in k + 2..n {
        xnorm2 += w[(k, j)] * w[(k, j)];
    }
    if xnorm2 == 0.0 {
        return (0.0, alpha);
    }
    let norm = (alpha * alpha + xnorm2).sqrt();
    let beta = if alpha >= 0.0 { -norm } else { norm };
    let tau = (beta - alpha) / beta;
    let scale = 1.0 / (alpha - beta);
    for j in k + 2..n {
        w[(k, j)] *= scale;
    }
    (tau, beta)
}

/// Applies the row-`k` reflector to rows `k+1..` of `w`.
fn apply_reflector_row_right(w: &mut Matrix, k: usize, tau: f64) {
    let (m, n) = w.shape();
    for i in k + 1..m {
        let mut s = w[(i, k + 1)];
        for j in k + 2..n {
            s += w[(k, j)] * w[(i, j)];
        }
        let ts = tau * s;
        w[(i, k + 1)] -= ts;
        for j in k + 2..n {
            let vkj = w[(k, j)];
            w[(i, j)] -= ts * vkj;
        }
    }
}

/// Applies a stored column reflector to every column of `u`.
fn apply_stored_col_reflector(w: &Matrix, k: usize, tau: f64, u: &mut Matrix) {
    let m = w.rows();
    for c in 0..u.cols() {
        let col = u.col_mut(c);
        let mut s = col[k];
        for i in k + 1..m {
            s += w[(i, k)] * col[i];
        }
        let ts = tau * s;
        col[k] -= ts;
        for i in k + 1..m {
            col[i] -= ts * w[(i, k)];
        }
    }
}

/// Applies a stored row reflector (vᵀ in `w[k, k+2..]`, pivot at `k+1`) to
/// every column of `v`.
fn apply_stored_row_reflector(w: &Matrix, k: usize, tau: f64, v: &mut Matrix) {
    let n = v.rows();
    for c in 0..v.cols() {
        let col = v.col_mut(c);
        let mut s = col[k + 1];
        for j in k + 2..n {
            s += w[(k, j)] * col[j];
        }
        let ts = tau * s;
        col[k + 1] -= ts;
        for j in k + 2..n {
            col[j] -= ts * w[(k, j)];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{gemm, Trans};
    use rand::SeedableRng;

    fn check(m: usize, n: usize, seed: u64) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = Matrix::gaussian(m, n, &mut rng);
        let s = golub_kahan_svd(&a).unwrap();
        let k = m.min(n);
        let mut us = s.u.clone();
        for (j, &sv) in s.singular_values.iter().enumerate() {
            us.scale_col(j, sv);
        }
        let back = gemm(Trans::No, &us, Trans::Yes, &s.v, 1.0);
        assert!(
            back.max_abs_diff(&a) < 1e-10 * (1.0 + a.max_abs()),
            "reconstruct {m}x{n}"
        );
        let utu = gemm(Trans::Yes, &s.u, Trans::No, &s.u, 1.0);
        assert!(
            utu.max_abs_diff(&Matrix::identity(k)) < 1e-10,
            "U orth {m}x{n}"
        );
        let vtv = gemm(Trans::Yes, &s.v, Trans::No, &s.v, 1.0);
        assert!(
            vtv.max_abs_diff(&Matrix::identity(k)) < 1e-10,
            "V orth {m}x{n}"
        );
        for w in s.singular_values.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn gk_svd_tall() {
        check(30, 6, 1);
    }

    #[test]
    fn gk_svd_square() {
        check(10, 10, 2);
    }

    #[test]
    fn gk_svd_wide() {
        check(5, 14, 3);
    }

    #[test]
    fn gk_svd_single_column() {
        check(9, 1, 4);
    }

    #[test]
    fn gk_matches_jacobi() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for &(m, n) in &[(20usize, 8usize), (15, 15), (7, 12)] {
            let a = Matrix::gaussian(m, n, &mut rng);
            let gk = golub_kahan_svd(&a).unwrap();
            let j = crate::svd::jacobi_svd(&a);
            for (x, y) in gk.singular_values.iter().zip(&j.singular_values) {
                assert!((x - y).abs() < 1e-9 * (1.0 + x), "{x} vs {y} ({m}x{n})");
            }
        }
    }

    #[test]
    fn gk_rank_deficient() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let b = Matrix::gaussian(18, 3, &mut rng);
        let c = Matrix::gaussian(3, 7, &mut rng);
        let a = gemm(Trans::No, &b, Trans::No, &c, 1.0);
        let s = golub_kahan_svd(&a).unwrap();
        for &sv in &s.singular_values[3..] {
            assert!(sv < 1e-9 * s.singular_values[0], "tail sv {sv}");
        }
        let mut us = s.u.clone();
        for (j, &sv) in s.singular_values.iter().enumerate() {
            us.scale_col(j, sv);
        }
        let back = gemm(Trans::No, &us, Trans::Yes, &s.v, 1.0);
        assert!(back.max_abs_diff(&a) < 1e-10 * (1.0 + a.max_abs()));
    }

    #[test]
    fn gk_zero_matrix() {
        let a = Matrix::zeros(6, 4);
        let s = golub_kahan_svd(&a).unwrap();
        assert!(s.singular_values.iter().all(|&x| x == 0.0));
    }
}
