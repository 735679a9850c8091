//! TT-matrix (matrix product operator) representation.
//!
//! A linear operator `G : ⊗ R^{J_k} → ⊗ R^{I_k}` in TT form is a chain of
//! 4-way cores `A_k ∈ R^{S_k × I_k × J_k × S_{k+1}}` with operator ranks
//! `S_0 = S_N = 1`:
//!
//! ```text
//!   G[(i_1..i_N), (j_1..j_N)] = A_1(i_1, j_1, :) ⋅ A_2(:, i_2, j_2, :) ⋯
//! ```
//!
//! Applying a TT-matrix to a TT vector multiplies every bond rank by the
//! corresponding operator rank — the rank growth that makes TT-Rounding the
//! key operation of TT solvers (§I, §II-C). The Kronecker-sum operators of
//! the cookies problem are the special case where every core slice is
//! block-diagonal with identity/diagonal/sparse blocks; [`TtMatrix`] is the
//! general dense-core form.

use crate::core::TtCore;
use crate::tensor::TtTensor;
use tt_linalg::Matrix;

/// One 4-way TT-matrix core, stored as a [`TtCore`] whose "mode" index is
/// the pair `(i, j)` linearized as `i + j·I` (column-major over out/in).
#[derive(Debug, Clone, PartialEq)]
pub struct TtMatrixCore {
    /// Output (row) dimension `I_k`.
    pub rows: usize,
    /// Input (column) dimension `J_k`.
    pub cols: usize,
    core: TtCore,
}

impl TtMatrixCore {
    /// Builds from an underlying 3-way core with mode dimension `rows·cols`.
    pub fn new(core: TtCore, rows: usize, cols: usize) -> Self {
        assert_eq!(
            core.mode_dim(),
            rows * cols,
            "mode dimension must be rows·cols"
        );
        TtMatrixCore { rows, cols, core }
    }

    /// Gaussian random operator core.
    pub fn gaussian(
        s0: usize,
        rows: usize,
        cols: usize,
        s1: usize,
        rng: &mut impl rand::Rng,
    ) -> Self {
        TtMatrixCore {
            rows,
            cols,
            core: TtCore::gaussian(s0, rows * cols, s1, rng),
        }
    }

    /// An operator core representing `I` (identity on this mode) with
    /// operator ranks 1.
    pub fn identity(dim: usize) -> Self {
        let mut core = TtCore::zeros(1, dim * dim, 1);
        for i in 0..dim {
            *core.at_mut(0, i + i * dim, 0) = 1.0;
        }
        TtMatrixCore {
            rows: dim,
            cols: dim,
            core,
        }
    }

    /// Left operator rank `S_k`.
    pub fn s0(&self) -> usize {
        self.core.r0()
    }

    /// Right operator rank `S_{k+1}`.
    pub fn s1(&self) -> usize {
        self.core.r1()
    }

    /// Entry `A(a, i, j, b)`.
    pub fn at(&self, a: usize, i: usize, j: usize, b: usize) -> f64 {
        self.core.at(a, i + j * self.rows, b)
    }

    /// Mutable entry access.
    pub fn at_mut(&mut self, a: usize, i: usize, j: usize, b: usize) -> &mut f64 {
        self.core.at_mut(a, i + j * self.rows, b)
    }
}

/// A linear operator in TT (matrix-product-operator) form.
#[derive(Debug, Clone, PartialEq)]
pub struct TtMatrix {
    cores: Vec<TtMatrixCore>,
}

impl TtMatrix {
    /// Builds from operator cores, validating the rank chain.
    pub fn new(cores: Vec<TtMatrixCore>) -> Self {
        assert!(!cores.is_empty());
        assert_eq!(cores[0].s0(), 1, "first operator rank must be 1");
        assert_eq!(
            cores[cores.len() - 1].s1(),
            1,
            "last operator rank must be 1"
        );
        for w in cores.windows(2) {
            assert_eq!(
                w[0].s1(),
                w[1].s0(),
                "neighboring operator ranks must match"
            );
        }
        TtMatrix { cores }
    }

    /// Random TT-matrix with uniform operator rank.
    pub fn random(
        row_dims: &[usize],
        col_dims: &[usize],
        op_rank: usize,
        rng: &mut impl rand::Rng,
    ) -> Self {
        assert_eq!(row_dims.len(), col_dims.len());
        let n = row_dims.len();
        let cores = (0..n)
            .map(|k| {
                let s0 = if k == 0 { 1 } else { op_rank };
                let s1 = if k == n - 1 { 1 } else { op_rank };
                TtMatrixCore::gaussian(s0, row_dims[k], col_dims[k], s1, rng)
            })
            .collect();
        TtMatrix::new(cores)
    }

    /// The identity operator on the given mode dimensions.
    pub fn identity(dims: &[usize]) -> Self {
        TtMatrix::new(dims.iter().map(|&d| TtMatrixCore::identity(d)).collect())
    }

    /// Number of modes.
    pub fn order(&self) -> usize {
        self.cores.len()
    }

    /// Output dimensions.
    pub fn row_dims(&self) -> Vec<usize> {
        self.cores.iter().map(|c| c.rows).collect()
    }

    /// Input dimensions.
    pub fn col_dims(&self) -> Vec<usize> {
        self.cores.iter().map(|c| c.cols).collect()
    }

    /// Core `k`.
    pub fn core(&self, k: usize) -> &TtMatrixCore {
        &self.cores[k]
    }

    /// Applies the operator to a TT vector: the result's bond ranks are the
    /// products `S_{k}·R_{k}` (formal growth; round afterwards).
    ///
    /// Per mode, the contraction
    /// `Y_k((a,c), i, (b,d)) = Σ_j A_k(a, i, j, b) · X_k(c, j, d)`
    /// is evaluated slice-wise.
    pub fn apply(&self, x: &TtTensor) -> TtTensor {
        assert_eq!(
            self.col_dims(),
            x.dims(),
            "operator input dims must match the vector"
        );
        let cores = self
            .cores
            .iter()
            .zip(x.cores())
            .map(|(a, xc)| {
                let (s0, s1) = (a.s0(), a.s1());
                let (r0, r1) = (xc.r0(), xc.r1());
                let mut out = TtCore::zeros(s0 * r0, a.rows, s1 * r1);
                for i in 0..a.rows {
                    // out(:, i, :) = Σ_j A(:, i, j, :) ⊗ X(:, j, :)
                    for j in 0..a.cols {
                        for aa in 0..s0 {
                            for bb in 0..s1 {
                                let aval = a.at(aa, i, j, bb);
                                // analyze::allow(float_cmp): sparsity skip — only exactly zero entries may be dropped; a tolerance would silently truncate the operator
                                if aval == 0.0 {
                                    continue;
                                }
                                for cc in 0..r0 {
                                    for dd in 0..r1 {
                                        *out.at_mut(aa * r0 + cc, i, bb * r1 + dd) +=
                                            aval * xc.at(cc, j, dd);
                                    }
                                }
                            }
                        }
                    }
                }
                out
            })
            .collect();
        TtTensor::new(cores)
    }

    /// Materializes the operator as a dense matrix (tiny problems only).
    pub fn to_dense(&self) -> Matrix {
        let rows: usize = self.row_dims().iter().product();
        let cols: usize = self.col_dims().iter().product();
        let mut m = Matrix::zeros(rows, cols);
        // Evaluate entrywise via core-chain products.
        let n = self.order();
        let rd = self.row_dims();
        let cd = self.col_dims();
        let mut ridx = vec![0usize; n];
        let mut cidx = vec![0usize; n];
        for r in 0..rows {
            // decode row multi-index (column-major)
            let mut rem = r;
            for (k, ri) in ridx.iter_mut().enumerate() {
                *ri = rem % rd[k];
                rem /= rd[k];
            }
            for c in 0..cols {
                let mut rem = c;
                for (k, ci) in cidx.iter_mut().enumerate() {
                    *ci = rem % cd[k];
                    rem /= cd[k];
                }
                // chain product
                let mut v = vec![1.0];
                for k in 0..n {
                    let core = &self.cores[k];
                    let mut next = vec![0.0; core.s1()];
                    for (b, nb) in next.iter_mut().enumerate() {
                        let mut s = 0.0;
                        for (a, va) in v.iter().enumerate() {
                            s += va * core.at(a, ridx[k], cidx[k], b);
                        }
                        *nb = s;
                    }
                    v = next;
                }
                m[(r, c)] = v[0];
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_linalg::{gemm, Trans};

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::SeedableRng::seed_from_u64(seed)
    }

    #[test]
    fn identity_applies_as_noop() {
        let mut r = rng(1);
        let x = TtTensor::random(&[4, 3, 5], &[2, 3], &mut r);
        let id = TtMatrix::identity(&[4, 3, 5]);
        let y = id.apply(&x);
        // ranks unchanged (operator rank 1)
        assert_eq!(y.ranks(), x.ranks());
        assert!(y.to_dense().fro_dist(&x.to_dense()) < 1e-12);
    }

    #[test]
    fn apply_matches_dense_matvec() {
        let mut r = rng(2);
        let g = TtMatrix::random(&[3, 4, 2], &[3, 4, 2], 2, &mut r);
        let x = TtTensor::random(&[3, 4, 2], &[2, 2], &mut r);
        let y = g.apply(&x);
        assert_eq!(y.ranks(), vec![1, 4, 4, 1], "ranks multiply by op rank");

        let gd = g.to_dense();
        let xd = Matrix::from_col_major(24, 1, x.to_dense().into_vec());
        let expect = gemm(Trans::No, &gd, Trans::No, &xd, 1.0);
        let got = y.to_dense();
        for (k, &e) in expect.as_slice().iter().enumerate() {
            assert!(
                (got.as_slice()[k] - e).abs() < 1e-10 * (1.0 + e.abs()),
                "entry {k}"
            );
        }
    }

    #[test]
    fn rectangular_operator_changes_dims() {
        let mut r = rng(3);
        let g = TtMatrix::random(&[5, 2], &[3, 4], 2, &mut r);
        let x = TtTensor::random(&[3, 4], &[2], &mut r);
        let y = g.apply(&x);
        assert_eq!(y.dims(), vec![5, 2]);
        let gd = g.to_dense();
        assert_eq!(gd.shape(), (10, 12));
        let xd = Matrix::from_col_major(12, 1, x.to_dense().into_vec());
        let expect = gemm(Trans::No, &gd, Trans::No, &xd, 1.0);
        let got = y.to_dense();
        for (k, &e) in expect.as_slice().iter().enumerate() {
            assert!((got.as_slice()[k] - e).abs() < 1e-10 * (1.0 + e.abs()));
        }
    }

    #[test]
    fn apply_then_round_controls_growth() {
        let mut r = rng(4);
        let g = TtMatrix::random(&[4, 4, 4], &[4, 4, 4], 3, &mut r);
        let x = TtTensor::random(&[4, 4, 4], &[2, 2], &mut r);
        let y = g.apply(&x);
        assert_eq!(y.max_rank(), 6);
        let opts = crate::RoundingOptions::with_tolerance(1e-12);
        let comm = tt_comm::SelfComm::new();
        let (z, _) = crate::round(&comm, y.clone(), crate::RoundingMethod::GramLrl, &opts);
        // Exact value preserved.
        assert!(z.to_dense().fro_dist(&y.to_dense()) < 1e-8 * (1.0 + y.norm()));
        assert!(z.max_rank() <= 6);
    }

    #[test]
    fn identity_dense_is_identity() {
        let id = TtMatrix::identity(&[2, 3]);
        let d = id.to_dense();
        assert!(d.max_abs_diff(&Matrix::identity(6)) < 1e-15);
    }

    #[test]
    #[should_panic]
    fn dim_mismatch_rejected() {
        let mut r = rng(5);
        let g = TtMatrix::random(&[3, 3], &[3, 3], 2, &mut r);
        let x = TtTensor::random(&[3, 4], &[2], &mut r);
        let _ = g.apply(&x);
    }
}
