//! Banded SPD Cholesky factorization.
//!
//! A 5-point finite-difference discretization on an `nx × ny` grid in
//! natural ordering has half-bandwidth `nx`, so its Cholesky factor fits in
//! band storage with no fill outside the band. This gives an *exact* direct
//! solver for the mean-preconditioner systems at `O(n·bw²)` factorization
//! and `O(n·bw)` solve cost — the substitute for the sparse direct solves
//! the paper's MATLAB/FreeFem++ pipeline used.

use crate::csr::CsrMatrix;
use tt_linalg::Matrix;

/// Cholesky factorization `A = L Lᵀ` of a banded SPD matrix, stored in
/// LAPACK-style lower band format: `band[(d, j)] = L[j + d, j]` for
/// `0 ≤ d ≤ bw`.
#[derive(Debug, Clone)]
pub struct BandedCholesky {
    n: usize,
    bw: usize,
    /// `(bw + 1) × n` band storage of L.
    band: Matrix,
}

impl BandedCholesky {
    /// Factors a symmetric positive-definite CSR matrix.
    ///
    /// Returns `None` if a non-positive pivot is hit (matrix not SPD).
    pub fn factor(a: &CsrMatrix) -> Option<BandedCholesky> {
        assert_eq!(
            a.rows(),
            a.cols(),
            "banded Cholesky requires a square matrix"
        );
        let n = a.rows();
        let bw = a.half_bandwidth();
        // Load lower band of A.
        let mut band = Matrix::zeros(bw + 1, n);
        for i in 0..n {
            for (j, v) in a.row(i) {
                if j <= i {
                    band[(i - j, j)] = v;
                }
            }
        }
        // In-place banded Cholesky (left-looking on columns).
        for j in 0..n {
            let d = band[(0, j)];
            if d <= 0.0 {
                return None;
            }
            let lj = d.sqrt();
            band[(0, j)] = lj;
            let inv = 1.0 / lj;
            let top = (j + bw + 1).min(n);
            for i in j + 1..top {
                band[(i - j, j)] *= inv;
            }
            // Rank-1 update of the remaining columns within the band.
            for k in j + 1..top {
                let ljk = band[(k - j, j)];
                // sparsity skip in the rank-1 update — dropping exactly zero multipliers is lossless (LAPACK idiom)
                if ljk == 0.0 {
                    continue;
                }
                for i in k..top {
                    let delta = ljk * band[(i - j, j)];
                    band[(i - k, k)] -= delta;
                }
            }
        }
        Some(BandedCholesky { n, bw, band })
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Half-bandwidth of the factor.
    pub fn bandwidth(&self) -> usize {
        self.bw
    }

    /// Solves `A x = b` in place.
    pub fn solve_in_place(&self, b: &mut [f64]) {
        assert_eq!(b.len(), self.n, "solve: rhs length mismatch");
        let n = self.n;
        let bw = self.bw;
        // Forward: L y = b
        for j in 0..n {
            let yj = b[j] / self.band[(0, j)];
            b[j] = yj;
            let top = (j + bw + 1).min(n);
            for (i, bi) in b.iter_mut().enumerate().take(top).skip(j + 1) {
                *bi -= self.band[(i - j, j)] * yj;
            }
        }
        // Backward: Lᵀ x = y
        for j in (0..n).rev() {
            let top = (j + bw + 1).min(n);
            let mut s = b[j];
            for (i, &bi) in b.iter().enumerate().take(top).skip(j + 1) {
                s -= self.band[(i - j, j)] * bi;
            }
            b[j] = s / self.band[(0, j)];
        }
    }

    /// Solves `A X = B` column-by-column on a dense matrix in place.
    pub fn solve_dense_in_place(&self, b: &mut Matrix) {
        assert_eq!(b.rows(), self.n, "solve: rhs rows mismatch");
        for c in 0..b.cols() {
            self.solve_in_place(b.col_mut(c));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CooBuilder;

    /// 1-D Laplacian (tridiagonal SPD).
    fn laplacian_1d(n: usize) -> CsrMatrix {
        let mut b = CooBuilder::new(n, n);
        for i in 0..n {
            b.add(i, i, 2.0);
            if i + 1 < n {
                b.add(i, i + 1, -1.0);
                b.add(i + 1, i, -1.0);
            }
        }
        b.build()
    }

    /// 2-D 5-point Laplacian on an nx × ny grid.
    fn laplacian_2d(nx: usize, ny: usize) -> CsrMatrix {
        let n = nx * ny;
        let mut b = CooBuilder::new(n, n);
        for y in 0..ny {
            for x in 0..nx {
                let i = y * nx + x;
                b.add(i, i, 4.0);
                if x + 1 < nx {
                    b.add(i, i + 1, -1.0);
                    b.add(i + 1, i, -1.0);
                }
                if y + 1 < ny {
                    b.add(i, i + nx, -1.0);
                    b.add(i + nx, i, -1.0);
                }
            }
        }
        b.build()
    }

    fn residual(a: &CsrMatrix, x: &[f64], b: &[f64]) -> f64 {
        let mut ax = vec![0.0; b.len()];
        a.matvec(x, &mut ax);
        ax.iter()
            .zip(b)
            .map(|(p, q)| (p - q) * (p - q))
            .sum::<f64>()
            .sqrt()
    }

    #[test]
    fn solve_1d_laplacian() {
        let a = laplacian_1d(50);
        let f = BandedCholesky::factor(&a).expect("SPD");
        assert_eq!(f.bandwidth(), 1);
        let b: Vec<f64> = (0..50).map(|i| (i as f64).sin()).collect();
        let mut x = b.clone();
        f.solve_in_place(&mut x);
        assert!(residual(&a, &x, &b) < 1e-10);
    }

    #[test]
    fn solve_2d_laplacian() {
        let a = laplacian_2d(13, 9);
        let f = BandedCholesky::factor(&a).expect("SPD");
        assert_eq!(f.bandwidth(), 13);
        let n = 13 * 9;
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
        let mut x = b.clone();
        f.solve_in_place(&mut x);
        assert!(residual(&a, &x, &b) < 1e-9);
    }

    #[test]
    fn rejects_indefinite() {
        let mut b = CooBuilder::new(2, 2);
        b.add(0, 0, 1.0);
        b.add(0, 1, 2.0);
        b.add(1, 0, 2.0);
        b.add(1, 1, 1.0);
        assert!(BandedCholesky::factor(&b.build()).is_none());
    }

    #[test]
    fn dense_multi_rhs() {
        let a = laplacian_1d(20);
        let f = BandedCholesky::factor(&a).unwrap();
        let mut rhs = Matrix::from_fn(20, 3, |i, j| (i + j) as f64);
        let orig = rhs.clone();
        f.solve_dense_in_place(&mut rhs);
        for c in 0..3 {
            assert!(residual(&a, rhs.col(c), orig.col(c)) < 1e-10);
        }
    }

    #[test]
    fn diagonal_matrix_solve_is_division() {
        let mut b = CooBuilder::new(3, 3);
        for (i, v) in [2.0, 4.0, 8.0].into_iter().enumerate() {
            b.add(i, i, v);
        }
        let d = b.build();
        let f = BandedCholesky::factor(&d).unwrap();
        let mut x = vec![2.0, 4.0, 8.0];
        f.solve_in_place(&mut x);
        for v in x {
            assert!((v - 1.0).abs() < 1e-15);
        }
    }
}
