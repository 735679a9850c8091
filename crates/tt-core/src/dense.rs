//! Explicit (dense) tensors — test oracle and TT-SVD input.
//!
//! Dense tensors are only viable for tiny problems (their size is the
//! *product* of the mode dimensions — the curse of dimensionality the TT
//! format exists to beat), so this type is used as the ground truth in
//! tests and as the input to [`crate::tt_svd`].

/// A dense tensor stored column-major (first index fastest).
#[derive(Debug, Clone, PartialEq)]
pub struct DenseTensor {
    dims: Vec<usize>,
    data: Vec<f64>,
}

impl DenseTensor {
    /// An all-zero tensor.
    pub fn zeros(dims: &[usize]) -> Self {
        let n: usize = dims.iter().product();
        DenseTensor {
            dims: dims.to_vec(),
            data: vec![0.0; n],
        }
    }

    /// Wraps an existing column-major buffer.
    pub fn from_data(dims: &[usize], data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            dims.iter().product::<usize>(),
            "buffer length mismatch"
        );
        DenseTensor {
            dims: dims.to_vec(),
            data,
        }
    }

    /// Builds from a function of the multi-index.
    pub fn from_fn(dims: &[usize], mut f: impl FnMut(&[usize]) -> f64) -> Self {
        let mut t = DenseTensor::zeros(dims);
        let mut idx = vec![0usize; dims.len()];
        for k in 0..t.data.len() {
            t.data[k] = f(&idx);
            // column-major odometer
            for (d, i) in idx.iter_mut().enumerate() {
                *i += 1;
                if *i < dims[d] {
                    break;
                }
                *i = 0;
            }
            let _ = k;
        }
        t
    }

    /// Mode dimensions.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of modes.
    pub fn order(&self) -> usize {
        self.dims.len()
    }

    /// Total number of entries.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True for a zero-entry tensor.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The column-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Consumes into the column-major buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Linear (column-major) offset of a multi-index.
    pub fn offset(&self, idx: &[usize]) -> usize {
        debug_assert_eq!(idx.len(), self.dims.len());
        let mut off = 0;
        let mut stride = 1;
        for (d, &i) in idx.iter().enumerate() {
            debug_assert!(i < self.dims[d]);
            off += i * stride;
            stride *= self.dims[d];
        }
        off
    }

    /// Entry at a multi-index.
    pub fn at(&self, idx: &[usize]) -> f64 {
        self.data[self.offset(idx)]
    }

    /// Mutable entry at a multi-index.
    pub fn at_mut(&mut self, idx: &[usize]) -> &mut f64 {
        let o = self.offset(idx);
        &mut self.data[o]
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Frobenius norm of the difference with another tensor.
    pub fn fro_dist(&self, other: &DenseTensor) -> f64 {
        assert_eq!(self.dims, other.dims, "shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }

    /// Mode-`n` unfolding `X_(n) ∈ R^{I_n × Π_{k≠n} I_k}` (mode-`n` fibers
    /// as columns, remaining indices in increasing mode order — the
    /// Kolda–Bader convention). Dense oracle for the TT kernels' unfolding
    /// algebra.
    pub fn mode_unfold(&self, n: usize) -> tt_linalg::Matrix {
        assert!(n < self.dims.len());
        let rows = self.dims[n];
        let cols = self.data.len() / rows;
        let mut m = tt_linalg::Matrix::zeros(rows, cols);
        let mut idx = vec![0usize; self.dims.len()];
        for (flat, &v) in self.data.iter().enumerate() {
            // decode column-major multi-index
            let mut rem = flat;
            for (d, i) in idx.iter_mut().enumerate() {
                *i = rem % self.dims[d];
                rem /= self.dims[d];
            }
            // column index: remaining modes, increasing order, col-major
            let mut col = 0;
            let mut stride = 1;
            for (d, &i) in idx.iter().enumerate() {
                if d == n {
                    continue;
                }
                col += i * stride;
                stride *= self.dims[d];
            }
            m[(idx[n], col)] = v;
        }
        m
    }

    /// Tensor-times-matrix in mode `n`: `Y = X ×_n M`, i.e.
    /// `Y_(n) = M · X_(n)` (the paper's §II-A definition). Dense oracle for
    /// [`crate::TtTensor::apply_mode`].
    pub fn ttm(&self, n: usize, m: &tt_linalg::Matrix) -> DenseTensor {
        assert!(n < self.dims.len());
        assert_eq!(m.cols(), self.dims[n], "ttm: dimension mismatch");
        let unf = self.mode_unfold(n);
        let prod = tt_linalg::gemm(tt_linalg::Trans::No, m, tt_linalg::Trans::No, &unf, 1.0);
        // refold
        let mut new_dims = self.dims.clone();
        new_dims[n] = m.rows();
        let mut out = DenseTensor::zeros(&new_dims);
        let mut idx = vec![0usize; new_dims.len()];
        let total: usize = new_dims.iter().product();
        for flat in 0..total {
            let mut rem = flat;
            for (d, i) in idx.iter_mut().enumerate() {
                *i = rem % new_dims[d];
                rem /= new_dims[d];
            }
            let mut col = 0;
            let mut stride = 1;
            for (d, &i) in idx.iter().enumerate() {
                if d == n {
                    continue;
                }
                col += i * stride;
                stride *= new_dims[d];
            }
            out.data[flat] = prod[(idx[n], col)];
        }
        out
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp, reason = "tests compare exact values on purpose")]
mod tests {
    use super::*;

    #[test]
    fn offsets_are_column_major() {
        let t = DenseTensor::zeros(&[2, 3, 4]);
        assert_eq!(t.offset(&[0, 0, 0]), 0);
        assert_eq!(t.offset(&[1, 0, 0]), 1);
        assert_eq!(t.offset(&[0, 1, 0]), 2);
        assert_eq!(t.offset(&[0, 0, 1]), 6);
        assert_eq!(t.offset(&[1, 2, 3]), 1 + 4 + 18);
    }

    #[test]
    fn from_fn_visits_every_index_once() {
        let t = DenseTensor::from_fn(&[2, 3], |idx| (idx[0] * 10 + idx[1]) as f64);
        assert_eq!(t.at(&[0, 0]), 0.0);
        assert_eq!(t.at(&[1, 0]), 10.0);
        assert_eq!(t.at(&[0, 2]), 2.0);
        assert_eq!(t.at(&[1, 2]), 12.0);
    }

    #[test]
    fn norms() {
        let t = DenseTensor::from_data(&[2, 1], vec![3.0, 4.0]);
        assert!((t.fro_norm() - 5.0).abs() < 1e-15);
        let z = DenseTensor::zeros(&[2, 1]);
        assert!((t.fro_dist(&z) - 5.0).abs() < 1e-15);
    }

    #[test]
    fn mode_unfold_shapes_and_fibers() {
        let t = DenseTensor::from_fn(&[2, 3, 4], |idx| {
            (idx[0] * 100 + idx[1] * 10 + idx[2]) as f64
        });
        let m1 = t.mode_unfold(1);
        assert_eq!(m1.shape(), (3, 8));
        // Fiber (i0=1, :, i2=2) must appear as a column.
        let expect: Vec<f64> = (0..3).map(|j| (100 + j * 10 + 2) as f64).collect();
        let mut found = false;
        for c in 0..8 {
            if (0..3).all(|r| m1[(r, c)] == expect[r]) {
                found = true;
            }
        }
        assert!(found, "fiber missing from unfolding");
    }

    #[test]
    fn ttm_matches_tt_apply_mode() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let x = crate::TtTensor::random(&[3, 4, 2], &[2, 2], &mut rng);
        let m = tt_linalg::Matrix::gaussian(5, 4, &mut rng);
        // TT route
        let mut y_tt = x.clone();
        y_tt.apply_mode(1, |unf| {
            tt_linalg::gemm(tt_linalg::Trans::No, &m, tt_linalg::Trans::No, unf, 1.0)
        });
        // Dense oracle route
        let y_dense = x.to_dense().ttm(1, &m);
        assert_eq!(y_tt.dims(), vec![3, 5, 2]);
        assert!(y_tt.to_dense().fro_dist(&y_dense) < 1e-10 * (1.0 + y_dense.fro_norm()));
    }

    #[test]
    fn ttm_identity_is_noop() {
        let t = DenseTensor::from_fn(&[2, 3], |idx| (idx[0] + 10 * idx[1]) as f64);
        let id = tt_linalg::Matrix::identity(3);
        assert_eq!(t.ttm(1, &id), t);
    }
}
