//! Triangular matrix kernels: multiply, solve, invert.
//!
//! Used by the Cholesky-QR variant of §III-B1 (`R⁻¹` application), by the
//! symmetric Gram-sweep variant of §IV-B (`trmm` by a Cholesky factor), and
//! by the mean preconditioner's banded solves.

use crate::matrix::Matrix;

/// Solves `U x = b` in place for upper-triangular `U`, column by column.
pub fn solve_upper(u: &Matrix, b: &mut Matrix) {
    let n = u.rows();
    assert_eq!(u.cols(), n, "solve_upper: U must be square");
    assert_eq!(b.rows(), n, "solve_upper: dimension mismatch");
    for j in 0..b.cols() {
        let col = b.col_mut(j);
        for i in (0..n).rev() {
            let mut s = col[i];
            for k in i + 1..n {
                s -= u[(i, k)] * col[k];
            }
            col[i] = s / u[(i, i)];
        }
    }
}

/// `B := B L` in place for lower-triangular `L` (BLAS `trmm`, right, lower).
///
/// Exploits the triangular structure to halve the arithmetic — this is the
/// core-times-Cholesky-factor step of the symmetric Gram-sweep variant
/// (§IV-B).
pub fn trmm_right_lower(b: &mut crate::matrix::Matrix, l: &Matrix) {
    let n = l.rows();
    assert_eq!(l.cols(), n, "trmm: L must be square");
    assert_eq!(b.cols(), n, "trmm: dimension mismatch");
    let m = b.rows();
    // Column j of the result depends on columns j..n of B (L lower
    // triangular: (B L)[:, j] = Σ_{k ≥ j} B[:, k] L[k, j]); sweep left to
    // right so each source column is still unmodified when read... note
    // column j of the result only reads columns ≥ j, so in-place left-to-
    // right is safe.
    for j in 0..n {
        // Start with the diagonal term.
        let ljj = l[(j, j)];
        for i in 0..m {
            b[(i, j)] *= ljj;
        }
        for k in j + 1..n {
            let lkj = l[(k, j)];
            if lkj == 0.0 {
                continue;
            }
            for i in 0..m {
                let add = lkj * b[(i, k)];
                b[(i, j)] += add;
            }
        }
    }
}

/// Explicit inverse of an upper-triangular matrix (back substitution on the
/// identity). `R` is small (TT-rank sized) wherever this is used.
pub fn tri_invert_upper(u: &Matrix) -> Matrix {
    let n = u.rows();
    let mut inv = Matrix::identity(n);
    solve_upper(u, &mut inv);
    inv
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{gemm, Trans};
    use rand::SeedableRng;

    fn random_upper(n: usize, seed: u64) -> Matrix {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut u = Matrix::gaussian(n, n, &mut rng);
        for j in 0..n {
            for i in j + 1..n {
                u[(i, j)] = 0.0;
            }
            // keep it well-conditioned
            u[(j, j)] = 2.0 + u[(j, j)].abs();
        }
        u
    }

    #[test]
    fn solve_upper_round_trip() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let u = random_upper(6, 2);
        let x = Matrix::gaussian(6, 3, &mut rng);
        let mut b = gemm(Trans::No, &u, Trans::No, &x, 1.0);
        solve_upper(&u, &mut b);
        assert!(b.max_abs_diff(&x) < 1e-12);
    }

    #[test]
    fn trmm_right_lower_matches_gemm() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let l = random_upper(6, 8).transpose();
        let b0 = Matrix::gaussian(9, 6, &mut rng);
        let mut b = b0.clone();
        trmm_right_lower(&mut b, &l);
        let expect = gemm(Trans::No, &b0, Trans::No, &l, 1.0);
        assert!(b.max_abs_diff(&expect) < 1e-12);
    }

    #[test]
    fn invert_upper() {
        let u = random_upper(8, 7);
        let inv = tri_invert_upper(&u);
        let prod = gemm(Trans::No, &u, Trans::No, &inv, 1.0);
        assert!(prod.max_abs_diff(&Matrix::identity(8)) < 1e-11);
    }
}
