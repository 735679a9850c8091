//! Reference (naive-loop) multiplication kernels: the conformance oracle.
//!
//! These are the original straightforward cache-aware column-major loops that
//! used to back [`crate::gemm`]. They are retained verbatim behind this
//! module for three jobs:
//!
//! 1. **Conformance oracle** — the blocked engine in [`crate::block`] is
//!    property-tested against these loops over random shapes and all
//!    transpose combinations (`tests/conformance.rs`);
//! 2. **Paranoid cross-check** — under the `paranoid` feature the dispatcher
//!    in [`crate::gemm`] spot-verifies sampled output entries of the blocked
//!    kernels against directly computed dot products;
//! 3. **Small-size fast path** — below the blocking threshold the packing
//!    overhead of the blocked engine does not pay and the dispatcher routes
//!    here.
//!
//! Per-case loop orders are chosen so the innermost loop always streams down
//! columns (unit stride) and autovectorizes.

use crate::gemm::Trans;
use crate::matrix::Matrix;
use crate::view::{MatMut, MatRef};

/// Reference `C = alpha * op(A) * op(B) + beta * C` on views.
///
/// Semantics are identical to [`crate::gemm::gemm_v`]; shapes must already
/// agree (the public dispatcher validates them).
pub fn gemm_v(
    ta: Trans,
    a: MatRef<'_>,
    tb: Trans,
    b: MatRef<'_>,
    alpha: f64,
    beta: f64,
    mut c: MatMut<'_>,
) {
    let (m, k) = ta.dims(&a);
    let (_, n) = tb.dims(&b);

    if beta == 0.0 {
        c.fill(0.0);
    } else if beta != 1.0 {
        c.scale(beta);
    }
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return;
    }

    match (ta, tb) {
        (Trans::No, Trans::No) => {
            // C[:, j] += alpha * sum_k A[:, k] * B[k, j]  (jki: axpy kernel)
            for j in 0..n {
                let ccol = c.col_mut(j);
                let bcol = b.col(j);
                for (l, &b_lj) in bcol.iter().enumerate().take(k) {
                    let s = alpha * b_lj;
                    if s != 0.0 {
                        axpy(s, a.col(l), ccol);
                    }
                }
            }
        }
        (Trans::Yes, Trans::No) => {
            // C[i, j] += alpha * dot(A[:, i], B[:, j])  (dot kernel)
            for j in 0..n {
                let bcol = b.col(j);
                let ccol = c.col_mut(j);
                for (i, cij) in ccol.iter_mut().enumerate() {
                    *cij += alpha * dot(a.col(i), bcol);
                }
            }
        }
        (Trans::No, Trans::Yes) => {
            // C[:, j] += alpha * sum_k A[:, k] * B[j, k]  (axpy over B rows)
            for j in 0..n {
                let ccol = c.col_mut(j);
                for l in 0..k {
                    let s = alpha * b.at(j, l);
                    if s != 0.0 {
                        axpy(s, a.col(l), ccol);
                    }
                }
            }
        }
        (Trans::Yes, Trans::Yes) => {
            // C[i, j] += alpha * sum_k A[k, i] * B[j, k] — rare; simple loops.
            for j in 0..n {
                let ccol = c.col_mut(j);
                for (i, cij) in ccol.iter_mut().enumerate() {
                    let mut s = 0.0;
                    for l in 0..k {
                        s += a.at(l, i) * b.at(j, l);
                    }
                    *cij += alpha * s;
                }
            }
        }
    }
}

/// Reference symmetric rank-k update `C = alpha * Aᵀ A` (full symmetric
/// result): upper triangle via dot products, then mirrored.
pub fn syrk_v(a: MatRef<'_>, alpha: f64) -> Matrix {
    let n = a.cols();
    let mut c = Matrix::zeros(n, n);
    for j in 0..n {
        let bcol = a.col(j);
        for i in 0..=j {
            let v = alpha * dot(a.col(i), bcol);
            c[(i, j)] = v;
            c[(j, i)] = v;
        }
    }
    c
}

/// Reference symmetric rank-k update in the other orientation:
/// `C = alpha * A Aᵀ` (full symmetric result), accumulated column by column.
pub fn syrk_nt_v(a: MatRef<'_>, alpha: f64) -> Matrix {
    let m = a.rows();
    let mut c = Matrix::zeros(m, m);
    // Accumulate outer products column by column, upper triangle only.
    for l in 0..a.cols() {
        let col = a.col(l);
        for j in 0..m {
            let s = alpha * col[j];
            if s == 0.0 {
                continue;
            }
            axpy(s, &col[..=j], &mut c.col_mut(j)[..=j]);
        }
    }
    for j in 0..m {
        for i in 0..j {
            c[(j, i)] = c[(i, j)];
        }
    }
    c
}

/// `y += alpha * x` over matching slices.
#[inline]
pub(crate) fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi += alpha * xi;
    }
}

/// Four-way unrolled dot product: better ILP and (slightly) better rounding
/// behavior than a single serial accumulator.
#[inline]
pub(crate) fn dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    let mut s0 = 0.0;
    let mut s1 = 0.0;
    let mut s2 = 0.0;
    let mut s3 = 0.0;
    let chunks = x.len() / 4;
    for c in 0..chunks {
        let i = 4 * c;
        s0 += x[i] * y[i];
        s1 += x[i + 1] * y[i + 1];
        s2 += x[i + 2] * y[i + 2];
        s3 += x[i + 3] * y[i + 3];
    }
    for i in 4 * chunks..x.len() {
        s0 += x[i] * y[i];
    }
    (s0 + s1) + (s2 + s3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn naive(ta: Trans, a: &Matrix, tb: Trans, b: &Matrix) -> Matrix {
        let at = match ta {
            Trans::No => a.clone(),
            Trans::Yes => a.transpose(),
        };
        let bt = match tb {
            Trans::No => b.clone(),
            Trans::Yes => b.transpose(),
        };
        let (m, k) = at.shape();
        let n = bt.cols();
        Matrix::from_fn(m, n, |i, j| (0..k).map(|l| at[(i, l)] * bt[(l, j)]).sum())
    }

    #[test]
    fn reference_matches_triple_loop() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for &(m, n, k) in &[(3usize, 4usize, 5usize), (7, 2, 9), (1, 1, 1)] {
            for &ta in &[Trans::No, Trans::Yes] {
                for &tb in &[Trans::No, Trans::Yes] {
                    let a = match ta {
                        Trans::No => Matrix::gaussian(m, k, &mut rng),
                        Trans::Yes => Matrix::gaussian(k, m, &mut rng),
                    };
                    let b = match tb {
                        Trans::No => Matrix::gaussian(k, n, &mut rng),
                        Trans::Yes => Matrix::gaussian(n, k, &mut rng),
                    };
                    let mut c = Matrix::zeros(m, n);
                    gemm_v(ta, a.view(), tb, b.view(), 1.0, 0.0, c.view_mut());
                    assert!(c.max_abs_diff(&naive(ta, &a, tb, &b)) < 1e-12);
                }
            }
        }
    }

    #[test]
    fn reference_syrk_is_symmetric() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let a = Matrix::gaussian(9, 4, &mut rng);
        let s = syrk_v(a.view(), 2.0);
        let g = naive(Trans::Yes, &a, Trans::No, &a);
        for i in 0..4 {
            for j in 0..4 {
                assert!((s[(i, j)] - 2.0 * g[(i, j)]).abs() < 1e-12);
                assert_eq!(s[(i, j)], s[(j, i)]);
            }
        }
    }
}
