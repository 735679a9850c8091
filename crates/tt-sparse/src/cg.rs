//! Jacobi-preconditioned conjugate gradients.
//!
//! Structure-agnostic iterative alternative to [`crate::BandedCholesky`] for
//! applying the inverse of an SPD operator (used in tests as an independent
//! check on the direct solver, and available for discretizations whose
//! bandwidth makes the banded factorization unattractive).

use crate::csr::CsrMatrix;

/// Result of a CG solve.
#[derive(Debug, Clone, PartialEq)]
pub struct CgOutcome {
    /// Iterations performed.
    pub iterations: usize,
    /// Final relative residual norm `‖b − Ax‖ / ‖b‖`.
    pub relative_residual: f64,
    /// Whether the tolerance was met within the iteration budget.
    pub converged: bool,
}

/// Solves `A x = b` for SPD `A` with Jacobi (diagonal) preconditioning.
///
/// `x` holds the initial guess on entry and the solution on exit.
pub fn conjugate_gradient(
    a: &CsrMatrix,
    b: &[f64],
    x: &mut [f64],
    rel_tol: f64,
    max_iters: usize,
) -> CgOutcome {
    let n = b.len();
    assert_eq!(a.rows(), n, "cg: dimension mismatch");
    assert_eq!(x.len(), n, "cg: dimension mismatch");

    let diag = a.diagonal();
    let inv_diag: Vec<f64> = diag
        .iter()
        .map(|&d| if d.abs() > 0.0 { 1.0 / d } else { 1.0 })
        .collect();

    let bnorm = norm(b);
    // exactly zero right-hand side has the exact solution x = 0; a tolerance would misclassify tiny-but-valid systems
    if bnorm == 0.0 {
        x.fill(0.0);
        return CgOutcome {
            iterations: 0,
            relative_residual: 0.0,
            converged: true,
        };
    }

    let mut r = vec![0.0; n];
    a.matvec(x, &mut r);
    for i in 0..n {
        r[i] = b[i] - r[i];
    }
    let mut z: Vec<f64> = r.iter().zip(&inv_diag).map(|(ri, di)| ri * di).collect();
    let mut p = z.clone();
    let mut rz = dot(&r, &z);
    let mut ap = vec![0.0; n];

    for it in 0..max_iters {
        let rnorm = norm(&r);
        if rnorm <= rel_tol * bnorm {
            return CgOutcome {
                iterations: it,
                relative_residual: rnorm / bnorm,
                converged: true,
            };
        }
        a.matvec(&p, &mut ap);
        let pap = dot(&p, &ap);
        if pap <= 0.0 {
            // Not SPD (or breakdown); stop with the current iterate.
            return CgOutcome {
                iterations: it,
                relative_residual: rnorm / bnorm,
                converged: false,
            };
        }
        let alpha = rz / pap;
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        for i in 0..n {
            z[i] = r[i] * inv_diag[i];
        }
        let rz_new = dot(&r, &z);
        let beta = rz_new / rz;
        rz = rz_new;
        for i in 0..n {
            p[i] = z[i] + beta * p[i];
        }
    }
    let rnorm = norm(&r);
    CgOutcome {
        iterations: max_iters,
        relative_residual: rnorm / bnorm,
        converged: rnorm <= rel_tol * bnorm,
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CooBuilder;
    use crate::BandedCholesky;

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

    #[test]
    fn cg_solves_laplacian() {
        let a = laplacian_2d(10, 10);
        let b: Vec<f64> = (0..100).map(|i| ((i * 31 % 17) as f64) - 8.0).collect();
        let mut x = vec![0.0; 100];
        let out = conjugate_gradient(&a, &b, &mut x, 1e-10, 1000);
        assert!(out.converged, "{out:?}");
        assert!(out.relative_residual <= 1e-10);
    }

    #[test]
    fn cg_matches_direct_solver() {
        let a = laplacian_2d(8, 6);
        let n = 48;
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).cos()).collect();
        let mut x_cg = vec![0.0; n];
        conjugate_gradient(&a, &b, &mut x_cg, 1e-12, 2000);
        let f = BandedCholesky::factor(&a).unwrap();
        let mut x_direct = b.clone();
        f.solve_in_place(&mut x_direct);
        for i in 0..n {
            assert!((x_cg[i] - x_direct[i]).abs() < 1e-8, "entry {i}");
        }
    }

    #[test]
    fn zero_rhs_returns_zero() {
        let a = laplacian_2d(4, 4);
        let b = vec![0.0; 16];
        let mut x = vec![5.0; 16];
        let out = conjugate_gradient(&a, &b, &mut x, 1e-10, 100);
        assert!(out.converged);
        assert!(x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn warm_start_converges_immediately() {
        let a = laplacian_2d(5, 5);
        let b: Vec<f64> = (0..25).map(|i| i as f64).collect();
        let mut x = vec![0.0; 25];
        conjugate_gradient(&a, &b, &mut x, 1e-12, 1000);
        let x0 = x.clone();
        let out = conjugate_gradient(&a, &b, &mut x, 1e-10, 100);
        assert_eq!(out.iterations, 0);
        assert_eq!(x, x0);
    }
}
