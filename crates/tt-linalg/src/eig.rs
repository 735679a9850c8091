//! Symmetric eigendecomposition.
//!
//! The Gram-SVD rounding algorithms need eigendecompositions of the small
//! symmetric positive semi-definite Gram matrices `G_n^L`, `G_n^R`
//! (Algs. 4–6, lines `EIG(G)`), for which we implement the classic dense
//! symmetric solver: a bottom-up Householder tridiagonalization (LAPACK
//! `dsytd2`/`dorg2l`) followed by the implicit-shift QL iteration (EISPACK
//! `tql2`). Every inner loop runs down a column slice of the column-major
//! storage. Eigenvalues are returned in ascending order with an
//! orthonormal eigenvector matrix.

use crate::matrix::Matrix;
use crate::qr::dot;
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

    let mut work = a.clone();
    let mut d = vec![0.0; n];
    let mut e = vec![0.0; n];
    let mut z = tridiagonalize(&mut work, &mut d, &mut e);
    tql2(&mut d, &mut e, &mut z)?;
    Ok(EigH {
        values: d,
        vectors: z,
    })
}

/// Householder reduction of a real symmetric matrix to tridiagonal form,
/// bottom-up on the upper triangle (LAPACK `dsytd2` with `'U'`), returning
/// the orthogonal factor `Z` (formed as in `dorg2l`) with `A = Z·T·Zᵀ`.
/// `d` receives the diagonal of `T` and `e[i]` its coupling of rows
/// `i − 1` and `i` (`e[0] = 0`). Every inner loop runs down a column slice.
///
/// The reduction runs from the last column up, as EISPACK `tred2` did, so
/// the QL iteration meets the same grading: a top-down reduction was faster
/// to form but slowed `tql2` down by more than it saved.
fn tridiagonalize(a: &mut Matrix, d: &mut [f64], e: &mut [f64]) -> Matrix {
    let n = a.rows();
    // Only the lower triangle is referenced: mirror it into the upper one.
    for j in 1..n {
        for i in 0..j {
            a[(i, j)] = a[(j, i)];
        }
    }
    // Reflector H_c = I − τ_c·v·vᵀ (c = n−1, …, 1) annihilates a[..c−1, c]
    // against a[c−1, c]. Its vector (v[c−1] = 1) stays in a[..c, c].
    let mut tau = vec![0.0; n];
    let mut w = vec![0.0; n];
    for c in (1..n).rev() {
        let (block, rest) = a.as_mut_slice().split_at_mut(c * n);
        let v = &mut rest[..c];
        let (t, beta) = householder(v);
        tau[c] = t;
        e[c] = beta;
        if t != 0.0 {
            v[c - 1] = 1.0;
            // w = τ·A·v over the leading c × c block, from its upper triangle.
            let w = &mut w[..c];
            w.fill(0.0);
            for j in 0..c {
                let col = &block[j * n..j * n + j];
                let tvj = t * v[j];
                for (wi, &aij) in w.iter_mut().zip(col) {
                    *wi += tvj * aij;
                }
                w[j] += t * (dot(col, &v[..j]) + block[j * n + j] * v[j]);
            }
            // w −= ½·τ·(wᵀv)·v, then A −= v·wᵀ + w·vᵀ.
            let alpha = -0.5 * t * dot(w, v);
            for (wi, &vi) in w.iter_mut().zip(v.iter()) {
                *wi += alpha * vi;
            }
            for j in 0..c {
                let (vj, wj) = (v[j], w[j]);
                let col = &mut block[j * n..=j * n + j];
                for ((aij, &vi), &wi) in col.iter_mut().zip(&v[..=j]).zip(&w[..=j]) {
                    *aij -= vi * wj + wi * vj;
                }
            }
        }
        d[c] = rest[c];
    }
    d[0] = a[(0, 0)];
    e[0] = 0.0;

    // Z = H_{n−1}⋯H_1·I, applied right to left. Before H_c only the
    // leading (c−1) × (c−1) block differs from I, so H_c changes rows ..c
    // of columns ..c and nothing else.
    let mut z = Matrix::identity(n);
    for (c, &t) in tau.iter().enumerate().skip(1) {
        if t == 0.0 {
            continue;
        }
        let v = &a.col(c)[..c];
        for j in 0..c {
            let zj = &mut z.col_mut(j)[..c];
            let s = t * dot(v, zj);
            for (x, &vi) in zj.iter_mut().zip(v) {
                *x -= s * vi;
            }
        }
    }
    z
}

/// Builds the reflector `H = I − τ·v·vᵀ` with `H·x = β·e_last` for the
/// vector `x` in `v` (LAPACK `dlarfg` with the pivot last); returns
/// `(τ, β)` and leaves `v[..len−1]` scaled so that `v[len−1] = 1` completes
/// the reflector vector. The norm is taken on a scaled copy, so it cannot
/// overflow.
fn householder(v: &mut [f64]) -> (f64, f64) {
    let (x, alpha) = v.split_at_mut(v.len() - 1);
    let alpha = alpha[0];
    let scale = x.iter().fold(0.0f64, |m, &xi| m.max(xi.abs()));
    if scale == 0.0 {
        return (0.0, alpha);
    }
    let xnorm = scale
        * x.iter()
            .map(|&xi| (xi / scale) * (xi / scale))
            .sum::<f64>()
            .sqrt();
    let beta = -alpha.signum() * alpha.hypot(xnorm);
    let inv = 1.0 / (alpha - beta);
    for xi in x.iter_mut() {
        *xi *= inv;
    }
    ((beta - alpha) / beta, beta)
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
                let (zi, zi1) = z.cols_mut_pair(i, i + 1);
                for (x, y) in zi.iter_mut().zip(zi1.iter_mut()) {
                    f = *y;
                    *y = s * *x + c * f;
                    *x = c * *x - s * f;
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
            let (zi, zk) = z.cols_mut_pair(i, k);
            zi.swap_with_slice(zk);
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
