//! Column-major dense matrix type.
//!
//! Column-major layout is chosen deliberately: a TT core stored contiguously
//! is *simultaneously* its vertical unfolding (as an `R₀I × R₁` column-major
//! matrix) and a column-permuted horizontal unfolding (as an `R₀ × IR₁`
//! column-major matrix), so the TT kernels never copy or permute core data.

use std::ops::{Index, IndexMut};

/// A dense, column-major, `f64` matrix.
///
/// Element `(i, j)` lives at linear index `i + j * rows`. The backing storage
/// is exposed ([`Matrix::as_slice`]) so callers can reinterpret the same
/// buffer under different shapes (the unfolding trick above).
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a function of the index pair.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for j in 0..cols {
            for i in 0..rows {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Wraps an existing column-major buffer. Panics if the length is wrong.
    pub fn from_col_major(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length must be rows*cols");
        Matrix { rows, cols, data }
    }

    /// Builds from row-major data (convenient in tests and examples).
    pub fn from_row_major(rows: usize, cols: usize, data: &[f64]) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length must be rows*cols");
        Matrix::from_fn(rows, cols, |i, j| data[i * cols + j])
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrow of the column-major backing storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable borrow of the column-major backing storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix, returning the column-major buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Reinterprets the same buffer under a new shape with equal element
    /// count. This is the zero-copy unfolding switch used by the TT kernels.
    pub fn reshaped(self, rows: usize, cols: usize) -> Self {
        assert_eq!(
            self.rows * self.cols,
            rows * cols,
            "reshape must preserve element count"
        );
        Matrix {
            rows,
            cols,
            data: self.data,
        }
    }

    /// Column `j` as a slice.
    #[inline]
    pub fn col(&self, j: usize) -> &[f64] {
        debug_assert!(j < self.cols);
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Column `j` as a mutable slice.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        debug_assert!(j < self.cols);
        let r = self.rows;
        &mut self.data[j * r..(j + 1) * r]
    }

    /// Two distinct mutable columns (for rotation kernels). Panics if equal.
    pub fn cols_mut_pair(&mut self, j: usize, k: usize) -> (&mut [f64], &mut [f64]) {
        assert_ne!(j, k, "columns must be distinct");
        let r = self.rows;
        let (lo, hi) = if j < k { (j, k) } else { (k, j) };
        let (left, right) = self.data.split_at_mut(hi * r);
        let a = &mut left[lo * r..(lo + 1) * r];
        let b = &mut right[..r];
        if j < k {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Explicit transpose (allocates).
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Copies the leading `rows × cols` block.
    pub fn sub_matrix(&self, row0: usize, col0: usize, rows: usize, cols: usize) -> Matrix {
        assert!(row0 + rows <= self.rows && col0 + cols <= self.cols);
        Matrix::from_fn(rows, cols, |i, j| self[(row0 + i, col0 + j)])
    }

    /// Keeps only the first `k` columns (no copy of retained data beyond
    /// truncating the buffer).
    pub fn truncate_cols(mut self, k: usize) -> Matrix {
        assert!(k <= self.cols);
        self.data.truncate(self.rows * k);
        self.cols = k;
        self
    }

    /// Stacks `self` on top of `other` (matching column counts).
    pub fn vstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "vstack requires equal column counts");
        let rows = self.rows + other.rows;
        let mut out = Matrix::zeros(rows, self.cols);
        for j in 0..self.cols {
            out.col_mut(j)[..self.rows].copy_from_slice(self.col(j));
            out.col_mut(j)[self.rows..].copy_from_slice(other.col(j));
        }
        out
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Largest absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
    }

    /// Scales every entry in place.
    pub fn scale(&mut self, alpha: f64) {
        for x in &mut self.data {
            *x *= alpha;
        }
    }

    /// `self += alpha * other` (matching shapes).
    pub fn axpy(&mut self, alpha: f64, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "axpy requires equal shapes");
        for (x, y) in self.data.iter_mut().zip(other.data.iter()) {
            *x += alpha * y;
        }
    }

    /// Scales column `j` by `alpha`.
    pub fn scale_col(&mut self, j: usize, alpha: f64) {
        for x in self.col_mut(j) {
            *x *= alpha;
        }
    }

    /// Gaussian random matrix: i.i.d. standard-normal entries from `rng`.
    pub fn gaussian(rows: usize, cols: usize, rng: &mut impl rand::Rng) -> Matrix {
        let mut m = Matrix::zeros(rows, cols);
        crate::rng::fill_standard_normal(&mut m.data, rng);
        m
    }

    /// Maximum absolute entrywise difference to another matrix.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(self.shape(), other.shape());
        self.data
            .iter()
            .zip(other.data.iter())
            .fold(0.0_f64, |m, (a, b)| m.max((a - b).abs()))
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i + j * self.rows]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i + j * self.rows]
    }
}

impl std::fmt::Debug for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_show = 8;
        for i in 0..self.rows.min(max_show) {
            write!(f, "  ")?;
            for j in 0..self.cols.min(max_show) {
                write!(f, "{:>12.5e} ", self[(i, j)])?;
            }
            if self.cols > max_show {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if self.rows > max_show {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp, reason = "tests compare exact values on purpose")]
mod tests {
    use super::*;

    #[test]
    fn index_is_column_major() {
        let m = Matrix::from_col_major(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(m[(0, 0)], 1.);
        assert_eq!(m[(1, 0)], 2.);
        assert_eq!(m[(0, 1)], 3.);
        assert_eq!(m[(1, 2)], 6.);
    }

    #[test]
    fn from_row_major_round_trips() {
        let m = Matrix::from_row_major(2, 3, &[1., 2., 3., 4., 5., 6.]);
        assert_eq!(m[(0, 1)], 2.);
        assert_eq!(m[(1, 0)], 4.);
        assert_eq!(m.transpose()[(0, 1)], 4.);
    }

    #[test]
    fn reshape_preserves_buffer() {
        let m = Matrix::from_col_major(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let r = m.clone().reshaped(3, 2);
        assert_eq!(r.as_slice(), m.as_slice());
        assert_eq!(r[(2, 0)], 3.);
        assert_eq!(r[(0, 1)], 4.);
    }

    #[test]
    fn vstack_stacks_rows() {
        let a = Matrix::from_row_major(1, 2, &[1., 2.]);
        let b = Matrix::from_row_major(2, 2, &[3., 4., 5., 6.]);
        let s = a.vstack(&b);
        assert_eq!(s.shape(), (3, 2));
        assert_eq!(s[(0, 0)], 1.);
        assert_eq!(s[(1, 0)], 3.);
        assert_eq!(s[(2, 1)], 6.);
    }

    #[test]
    fn cols_mut_pair_disjoint() {
        let mut m = Matrix::zeros(3, 4);
        let (a, b) = m.cols_mut_pair(3, 1);
        a[0] = 1.0;
        b[0] = 2.0;
        assert_eq!(m[(0, 3)], 1.0);
        assert_eq!(m[(0, 1)], 2.0);
    }

    #[test]
    fn truncate_cols_keeps_leading_block() {
        let m = Matrix::from_col_major(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let t = m.truncate_cols(2);
        assert_eq!(t.shape(), (2, 2));
        assert_eq!(t.as_slice(), &[1., 2., 3., 4.]);
    }

    #[test]
    fn norms() {
        let m = Matrix::from_col_major(1, 2, vec![3., 4.]);
        assert!((m.fro_norm() - 5.0).abs() < 1e-15);
        assert_eq!(m.max_abs(), 4.0);
    }

    #[test]
    #[should_panic]
    fn bad_buffer_panics() {
        let _ = Matrix::from_col_major(2, 2, vec![1., 2., 3.]);
    }
}
