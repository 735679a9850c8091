//! Symmetric eigendecomposition.
//!
//! The Gram-SVD rounding algorithms need eigendecompositions of the small
//! symmetric positive semi-definite Gram matrices `G_n^L`, `G_n^R`
//! (Algs. 4–6, lines `EIG(G)`), for which we implement the classic dense
//! symmetric solver: Householder tridiagonalization (`tred2`) followed by
//! the implicit-shift QL iteration (`tql2`), both EISPACK-lineage
//! algorithms. Eigenvalues are returned in ascending order with an
//! orthonormal eigenvector matrix.

use crate::matrix::Matrix;
use crate::{LinalgError, Result};

/// Eigendecomposition `A = Z Λ Zᵀ` of a symmetric matrix.
#[derive(Debug, Clone)]
pub struct EigH {
    /// Eigenvalues in ascending order.
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors (column `j` pairs with `values[j]`).
    pub vectors: Matrix,
}

impl EigH {
    /// Eigenvalues in *descending* order together with the reordered
    /// eigenvector matrix (the ordering used by the rounding algorithms,
    /// which truncate the leading spectrum).
    pub fn descending(mut self) -> EigH {
        let n = self.values.len();
        self.values.reverse();
        for j in 0..n / 2 {
            let (a, b) = self.vectors.cols_mut_pair(j, n - 1 - j);
            a.swap_with_slice(b);
        }
        self
    }
}

/// Computes the eigendecomposition of a symmetric matrix.
///
/// Only the lower triangle of `a` is referenced. Returns
/// [`LinalgError::NoConvergence`] if the QL iteration fails (essentially
/// impossible for finite input; the LAPACK `dsteqr` budget of `30·n` total
/// iterations is used).
pub fn eigh(a: &Matrix) -> Result<EigH> {
    let n = a.rows();
    assert_eq!(a.rows(), a.cols(), "eigh requires a square matrix");
    crate::paranoid::check_finite("eigh", "A", a.as_slice());
    if n == 0 {
        return Ok(EigH {
            values: vec![],
            vectors: Matrix::zeros(0, 0),
        });
    }

    let mut z = a.clone();
    let mut d = vec![0.0; n];
    let mut e = vec![0.0; n];
    tred2(&mut z, &mut d, &mut e);
    tql2(&mut d, &mut e, &mut z)?;
    Ok(EigH {
        values: d,
        vectors: z,
    })
}

/// Householder reduction of a real symmetric matrix to tridiagonal form,
/// accumulating the orthogonal transformation in `z` (EISPACK `tred2`).
fn tred2(z: &mut Matrix, d: &mut [f64], e: &mut [f64]) {
    let n = z.rows();
    for i in (1..n).rev() {
        let l = i - 1;
        let mut h = 0.0;
        let mut scale = 0.0;
        if l > 0 {
            for k in 0..=l {
                scale += z[(i, k)].abs();
            }
            if scale == 0.0 {
                e[i] = z[(i, l)];
            } else {
                for k in 0..=l {
                    let v = z[(i, k)] / scale;
                    z[(i, k)] = v;
                    h += v * v;
                }
                let f = z[(i, l)];
                let g = if f >= 0.0 { -h.sqrt() } else { h.sqrt() };
                e[i] = scale * g;
                h -= f * g;
                z[(i, l)] = f - g;
                let mut ff = 0.0;
                for j in 0..=l {
                    z[(j, i)] = z[(i, j)] / h;
                    let mut g = 0.0;
                    for k in 0..=j {
                        g += z[(j, k)] * z[(i, k)];
                    }
                    for k in j + 1..=l {
                        g += z[(k, j)] * z[(i, k)];
                    }
                    e[j] = g / h;
                    ff += e[j] * z[(i, j)];
                }
                let hh = ff / (h + h);
                for j in 0..=l {
                    let f = z[(i, j)];
                    let g = e[j] - hh * f;
                    e[j] = g;
                    for k in 0..=j {
                        let delta = f * e[k] + g * z[(i, k)];
                        z[(j, k)] -= delta;
                    }
                }
            }
        } else {
            e[i] = z[(i, l)];
        }
        d[i] = h;
    }
    d[0] = 0.0;
    e[0] = 0.0;
    for i in 0..n {
        let l = i;
        if d[i] != 0.0 {
            for j in 0..l {
                let mut g = 0.0;
                for k in 0..l {
                    g += z[(i, k)] * z[(k, j)];
                }
                for k in 0..l {
                    let delta = g * z[(k, i)];
                    z[(k, j)] -= delta;
                }
            }
        }
        d[i] = z[(i, i)];
        z[(i, i)] = 1.0;
        for j in 0..l {
            z[(j, i)] = 0.0;
            z[(i, j)] = 0.0;
        }
    }
}

/// Implicit-shift QL iteration on a symmetric tridiagonal matrix with
/// eigenvector accumulation (EISPACK `tql2`). Sorts ascending on exit.
fn tql2(d: &mut [f64], e: &mut [f64], z: &mut Matrix) -> Result<()> {
    let n = d.len();
    if n == 1 {
        return Ok(());
    }
    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = 0.0;

    // LAPACK-style *total* iteration budget (dsteqr uses 30·n): individual
    // eigenvalues in roundoff-level clusters can need many sweeps over long
    // unsplit segments, so a small per-eigenvalue cap is too strict.
    let max_total_iter = 30 * n;
    let mut total_iter = 0;
    for l in 0..n {
        loop {
            // Find a small off-diagonal element to split at.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd + f64::MIN_POSITIVE {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            total_iter += 1;
            if total_iter > max_total_iter {
                return Err(LinalgError::NoConvergence {
                    iterations: max_total_iter,
                });
            }
            // Form the implicit shift.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = hypot(g, 1.0);
            g = d[m] - d[l] + e[l] / (g + r.copysign(g));
            let mut s = 1.0;
            let mut c = 1.0;
            let mut p = 0.0;
            let mut underflow_break = false;
            for i in (l..m).rev() {
                let mut f = s * e[i];
                let b = c * e[i];
                r = hypot(f, g);
                e[i + 1] = r;
                if r == 0.0 {
                    // Off-diagonal underflow: deflate and restart this l.
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    underflow_break = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                // Accumulate the rotation into the eigenvector matrix.
                for k in 0..n {
                    f = z[(k, i + 1)];
                    z[(k, i + 1)] = s * z[(k, i)] + c * f;
                    z[(k, i)] = c * z[(k, i)] - s * f;
                }
            }
            if underflow_break {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }

    // Sort eigenvalues (and vectors) ascending: selection sort, n is small.
    for i in 0..n - 1 {
        let mut k = i;
        for j in i + 1..n {
            if d[j] < d[k] {
                k = j;
            }
        }
        if k != i {
            d.swap(i, k);
            for row in 0..n {
                let tmp = z[(row, i)];
                z[(row, i)] = z[(row, k)];
                z[(row, k)] = tmp;
            }
        }
    }
    Ok(())
}

fn hypot(a: f64, b: f64) -> f64 {
    a.hypot(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{gemm, syrk, Trans};
    use rand::SeedableRng;

    fn check_eig(a: &Matrix, tol: f64) {
        let n = a.rows();
        let EigH { values, vectors } = eigh(a).unwrap();
        // ascending order
        for w in values.windows(2) {
            assert!(w[0] <= w[1] + 1e-14);
        }
        // orthogonality
        let ztz = gemm(Trans::Yes, &vectors, Trans::No, &vectors, 1.0);
        assert!(
            ztz.max_abs_diff(&Matrix::identity(n)) < tol,
            "Z not orthogonal"
        );
        // reconstruction A Z = Z Λ
        let az = gemm(Trans::No, a, Trans::No, &vectors, 1.0);
        let mut zl = vectors.clone();
        for (j, &lam) in values.iter().enumerate() {
            zl.scale_col(j, lam);
        }
        assert!(
            az.max_abs_diff(&zl) < tol * (1.0 + a.max_abs()),
            "A Z != Z Lambda"
        );
    }

    fn random_symmetric(n: usize, seed: u64) -> Matrix {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let g = Matrix::gaussian(n, n, &mut rng);
        let mut s = g.clone();
        let gt = g.transpose();
        s.axpy(1.0, &gt);
        s
    }

    #[test]
    fn eig_small_sizes() {
        for n in [1usize, 2, 3, 5, 10, 25] {
            check_eig(&random_symmetric(n, n as u64), 1e-11);
        }
    }

    #[test]
    fn eig_known_2x2() {
        let a = Matrix::from_row_major(2, 2, &[2., 1., 1., 2.]);
        let e = eigh(&a).unwrap();
        assert!((e.values[0] - 1.0).abs() < 1e-14);
        assert!((e.values[1] - 3.0).abs() < 1e-14);
    }

    #[test]
    fn eig_diagonal() {
        let a = Matrix::from_fn(4, 4, |i, j| if i == j { (i + 1) as f64 } else { 0.0 });
        let e = eigh(&a).unwrap();
        for i in 0..4 {
            assert!((e.values[i] - (i + 1) as f64).abs() < 1e-14);
        }
    }

    #[test]
    fn eig_psd_gram_has_nonnegative_spectrum() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let a = Matrix::gaussian(40, 8, &mut rng);
        let g = syrk(&a, 1.0);
        let e = eigh(&g).unwrap();
        for &lam in &e.values {
            assert!(lam > -1e-10, "negative eigenvalue {lam} of a Gram matrix");
        }
        check_eig(&g, 1e-9);
    }

    #[test]
    fn eig_repeated_eigenvalues() {
        // 3x identity plus rank-1: eigenvalues {1, 1, 1 + 3}.
        let mut a = Matrix::identity(3);
        for i in 0..3 {
            for j in 0..3 {
                a[(i, j)] += 1.0;
            }
        }
        let e = eigh(&a).unwrap();
        assert!((e.values[0] - 1.0).abs() < 1e-13);
        assert!((e.values[1] - 1.0).abs() < 1e-13);
        assert!((e.values[2] - 4.0).abs() < 1e-13);
        check_eig(&a, 1e-12);
    }

    #[test]
    fn descending_reorders() {
        let a = random_symmetric(6, 42);
        let asc = eigh(&a).unwrap();
        let e = asc.clone().descending();
        for w in e.values.windows(2) {
            assert!(w[0] >= w[1] - 1e-14);
        }
        // A pure reordering: every eigenpair keeps its bits.
        for j in 0..6 {
            assert_eq!(e.values[j].to_bits(), asc.values[5 - j].to_bits());
            assert_eq!(e.vectors.col(j), asc.vectors.col(5 - j));
        }
        let za = gemm(Trans::No, &a, Trans::No, &e.vectors, 1.0);
        let mut zl = e.vectors.clone();
        for (j, &lam) in e.values.iter().enumerate() {
            zl.scale_col(j, lam);
        }
        assert!(za.max_abs_diff(&zl) < 1e-10 * (1.0 + a.max_abs()));
    }

    #[test]
    fn eig_matches_svd_for_gram() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let a = Matrix::gaussian(30, 6, &mut rng);
        let g = syrk(&a, 1.0);
        let e = eigh(&g).unwrap().descending();
        let s = crate::svd::jacobi_svd(&a);
        for j in 0..6 {
            let sv2 = s.singular_values[j] * s.singular_values[j];
            assert!(
                (e.values[j] - sv2).abs() < 1e-9 * (1.0 + sv2),
                "eig {} vs sv^2 {}",
                e.values[j],
                sv2
            );
        }
    }
}
