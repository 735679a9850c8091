//! Cholesky and diagonally-pivoted Cholesky factorization.
//!
//! The pivoted variant implements the §III-B1 alternative to Gram SVD
//! ("Cholesky QR"): for numerically low-rank Gram matrices it stops once
//! the largest remaining pivot falls below a relative tolerance, sharply
//! truncating the spectrum at `√tol` relative magnitude. On its own that
//! is the robustness limitation the paper's Gram-SVD route avoids (§III-B2:
//! a direction one factor drops may be one the other amplifies). The
//! Gram-RLR/LRL bond truncation takes it anyway, because it pairs the stop
//! with a certificate: [`PivotedCholesky::residual_trace`] bounds what each
//! factor dropped, the product with the other side's Gram bounds what the
//! bond loses, and a bond whose bound misses half its budget takes the EVD
//! route instead. It is also used by the *symmetric* structured Gram-sweep
//! variant of §IV-B.

use crate::matrix::Matrix;
use crate::{LinalgError, Result};

/// Unpivoted Cholesky: returns lower-triangular `L` with `A = L Lᵀ`.
///
/// Only the lower triangle of `a` is read. Fails with
/// [`LinalgError::NotPositiveDefinite`] at the first non-positive pivot.
pub fn cholesky(a: &Matrix) -> Result<Matrix> {
    let n = a.rows();
    assert_eq!(a.rows(), a.cols(), "cholesky requires a square matrix");
    crate::paranoid::check_finite("cholesky", "A", a.as_slice());
    let mut l = Matrix::zeros(n, n);
    for j in 0..n {
        let mut d = a[(j, j)];
        for k in 0..j {
            d -= l[(j, k)] * l[(j, k)];
        }
        if d <= 0.0 {
            return Err(LinalgError::NotPositiveDefinite { pivot: j });
        }
        let dj = d.sqrt();
        l[(j, j)] = dj;
        for i in j + 1..n {
            let mut s = a[(i, j)];
            for k in 0..j {
                s -= l[(i, k)] * l[(j, k)];
            }
            l[(i, j)] = s / dj;
        }
    }
    Ok(l)
}

/// Result of a diagonally-pivoted (rank-revealing) Cholesky factorization:
/// `Pᵀ A P ≈ L Lᵀ` with `L` lower-trapezoidal of width [`rank`](Self::rank).
#[derive(Debug, Clone)]
pub struct PivotedCholesky {
    /// `n × rank` lower-trapezoidal factor (in the *pivoted* row order).
    pub l: Matrix,
    /// Permutation: `perm[k]` is the original index pivoted to position `k`.
    pub perm: Vec<usize>,
    /// Numerical rank detected (columns processed before the pivot fell
    /// below the tolerance).
    pub rank: usize,
    /// Upper bound on the trace of the Schur complement left at the stop,
    /// `tr(Pᵀ A P − L Lᵀ)` for a PSD `A`: `max(0, tr A − ‖L‖_F²) + n·ε·tr A`.
    /// The first term is what the stop dropped; the second covers the
    /// rounding error of the factorization and of that difference, which
    /// is what makes the bound hold without relying on cancellation.
    pub residual_trace: f64,
}

impl PivotedCholesky {
    /// Expands the factor back to original row ordering:
    /// returns `M` with `A ≈ M Mᵀ` (`M = P L`).
    pub fn factor_unpivoted(&self) -> Matrix {
        let n = self.l.rows();
        let mut m = Matrix::zeros(n, self.rank);
        for k in 0..n {
            let orig = self.perm[k];
            for j in 0..self.rank {
                m[(orig, j)] = self.l[(k, j)];
            }
        }
        m
    }
}

/// Diagonally-pivoted Cholesky with relative pivot tolerance `tol`
/// (LAPACK `dpstrf`-style). Stops as soon as the largest remaining diagonal
/// falls below `tol · max_initial_diagonal`, approximating all remaining
/// singular directions as zero — the "sharp truncation" behavior §III-B1
/// describes.
pub fn pivoted_cholesky(a: &Matrix, tol: f64) -> PivotedCholesky {
    let n = a.rows();
    assert_eq!(
        a.rows(),
        a.cols(),
        "pivoted cholesky requires a square matrix"
    );
    crate::paranoid::check_finite("pivoted_cholesky", "A", a.as_slice());
    crate::paranoid::check_finite_scalar("pivoted_cholesky", "tol", tol);
    // Work on a full copy with explicit permutation bookkeeping.
    let mut w = a.clone();
    let mut perm: Vec<usize> = (0..n).collect();
    let init_max = (0..n).fold(0.0_f64, |m, i| m.max(a[(i, i)]));
    let thresh = tol * init_max.max(f64::MIN_POSITIVE);

    let mut rank = n;
    for k in 0..n {
        // Select the largest remaining diagonal entry.
        let mut p = k;
        for i in k + 1..n {
            if w[(i, i)] > w[(p, p)] {
                p = i;
            }
        }
        if w[(p, p)] <= thresh {
            rank = k;
            break;
        }
        if p != k {
            swap_sym(&mut w, k, p);
            perm.swap(k, p);
        }
        let d = w[(k, k)].sqrt();
        w[(k, k)] = d;
        for i in k + 1..n {
            w[(i, k)] /= d;
        }
        for j in k + 1..n {
            for i in j..n {
                let delta = w[(i, k)] * w[(j, k)];
                w[(i, j)] -= delta;
            }
        }
    }

    let mut l = Matrix::zeros(n, rank);
    for j in 0..rank {
        for i in j..n {
            l[(i, j)] = w[(i, j)];
        }
    }
    let trace = (0..n).map(|i| a[(i, i)]).sum::<f64>();
    let residual_trace = (trace - l.as_slice().iter().map(|x| x * x).sum::<f64>()).max(0.0)
        + n as f64 * f64::EPSILON * trace;
    PivotedCholesky {
        l,
        perm,
        rank,
        residual_trace,
    }
}

/// Symmetric row+column swap touching only the lower triangle.
fn swap_sym(w: &mut Matrix, k: usize, p: usize) {
    debug_assert!(k < p);
    let n = w.rows();
    // diagonal
    let tmp = w[(k, k)];
    w[(k, k)] = w[(p, p)];
    w[(p, p)] = tmp;
    // columns below both
    for i in p + 1..n {
        let t = w[(i, k)];
        w[(i, k)] = w[(i, p)];
        w[(i, p)] = t;
    }
    // the segment between k and p: w[(i,k)] <-> w[(p,i)] for k<i<p
    for i in k + 1..p {
        let t = w[(i, k)];
        w[(i, k)] = w[(p, i)];
        w[(p, i)] = t;
    }
    // leading rows: w[(k,j)] <-> w[(p,j)] for j<k
    for j in 0..k {
        let t = w[(k, j)];
        w[(k, j)] = w[(p, j)];
        w[(p, j)] = t;
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp, reason = "tests compare exact values on purpose")]
mod tests {
    use super::*;
    use crate::gemm::{gemm, syrk, Trans};
    use rand::SeedableRng;

    fn spd(n: usize, seed: u64) -> Matrix {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let g = Matrix::gaussian(n + 5, n, &mut rng);
        syrk(&g, 1.0)
    }

    #[test]
    fn cholesky_reconstructs() {
        let a = spd(8, 1);
        let l = cholesky(&a).unwrap();
        let llt = gemm(Trans::No, &l, Trans::Yes, &l, 1.0);
        assert!(llt.max_abs_diff(&a) < 1e-10 * (1.0 + a.max_abs()));
        for j in 0..8 {
            for i in 0..j {
                assert_eq!(l[(i, j)], 0.0);
            }
            assert!(l[(j, j)] > 0.0);
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_row_major(2, 2, &[1., 2., 2., 1.]);
        match cholesky(&a) {
            Err(LinalgError::NotPositiveDefinite { pivot }) => assert_eq!(pivot, 1),
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn pivoted_full_rank_reconstructs() {
        let a = spd(7, 2);
        let pc = pivoted_cholesky(&a, 1e-14);
        assert_eq!(pc.rank, 7);
        let m = pc.factor_unpivoted();
        let mmt = gemm(Trans::No, &m, Trans::Yes, &m, 1.0);
        assert!(mmt.max_abs_diff(&a) < 1e-9 * (1.0 + a.max_abs()));
    }

    #[test]
    fn pivoted_detects_low_rank() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let b = Matrix::gaussian(10, 3, &mut rng);
        let a = gemm(Trans::No, &b, Trans::Yes, &b, 1.0); // rank 3 PSD, 10x10
        let pc = pivoted_cholesky(&a, 1e-10);
        assert_eq!(pc.rank, 3, "rank detection");
        let m = pc.factor_unpivoted();
        let mmt = gemm(Trans::No, &m, Trans::Yes, &m, 1.0);
        assert!(mmt.max_abs_diff(&a) < 1e-9 * (1.0 + a.max_abs()));
    }

    #[test]
    fn pivoted_sharp_truncation_below_tolerance() {
        // Diagonal PSD matrix with a tiny tail: pivoted Cholesky with loose
        // tolerance must cut it (the §III-B1 limitation).
        let d = [1.0, 0.5, 1e-9];
        let a = Matrix::from_fn(3, 3, |i, j| if i == j { d[i] } else { 0.0 });
        let pc = pivoted_cholesky(&a, 1e-6);
        assert_eq!(pc.rank, 2);
    }

    /// The Gram of `[A A]` for a Gaussian `m × R/2` block `A`: rank `R/2`
    /// exactly, with an all-zero Schur complement in exact arithmetic.
    fn duplicated_gram(r: usize, seed: u64) -> Matrix {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let half = Matrix::gaussian(2 * r, r / 2, &mut rng);
        let mut a = Matrix::zeros(2 * r, r);
        for j in 0..r / 2 {
            a.col_mut(j).copy_from_slice(half.col(j));
            a.col_mut(j + r / 2).copy_from_slice(half.col(j));
        }
        syrk(&a, 1.0)
    }

    #[test]
    fn pivoted_stops_at_the_true_rank_of_duplicated_columns() {
        for (r, seed) in [(12, 21), (36, 22), (100, 23)] {
            let g = duplicated_gram(r, seed);
            let pc = pivoted_cholesky(&g, r as f64 * f64::EPSILON);
            assert_eq!(pc.rank, r / 2, "R = {r}");
            // The reported bound covers the Schur complement left at the
            // stop, measured as the trace of G − F Fᵀ ...
            let m = pc.factor_unpivoted();
            let residual = gemm(Trans::No, &m, Trans::Yes, &m, -1.0);
            let trace = (0..r).map(|i| g[(i, i)] + residual[(i, i)]).sum::<f64>();
            assert!(
                trace.abs() <= pc.residual_trace,
                "R = {r}: residual trace {trace:e} over the bound {:e}",
                pc.residual_trace
            );
            // ... and stays at the rounding level of tr G.
            let tr_g = (0..r).map(|i| g[(i, i)]).sum::<f64>();
            assert!(pc.residual_trace <= 2.0 * r as f64 * f64::EPSILON * tr_g);
        }
        // A stop that drops a genuine tail reports at least that tail.
        let d = [1.0, 0.5, 1e-9, 1e-10];
        let a = Matrix::from_fn(4, 4, |i, j| if i == j { d[i] } else { 0.0 });
        let pc = pivoted_cholesky(&a, 1e-6);
        assert_eq!(pc.rank, 2);
        assert!(pc.residual_trace >= 1.1e-9);
    }

    #[test]
    fn pivoted_zero_matrix() {
        let a = Matrix::zeros(4, 4);
        let pc = pivoted_cholesky(&a, 1e-12);
        assert_eq!(pc.rank, 0);
        assert_eq!(pc.l.shape(), (4, 0));
    }
}
