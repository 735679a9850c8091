//! Borrowed column-major matrix views.
//!
//! A TT core stored contiguously is *simultaneously* its vertical unfolding
//! (an `R₀I × R₁` column-major matrix) and a column-permuted horizontal
//! unfolding (an `R₀ × IR₁` column-major matrix). [`MatRef`]/[`MatMut`] let
//! the TT kernels hand the same buffer to the multiplication kernels under
//! either shape without copying — the zero-copy layout trick the paper's
//! MPI_ATTAC substrate relies on.

use crate::matrix::Matrix;

/// Immutable column-major view over a borrowed buffer.
#[derive(Clone, Copy)]
pub struct MatRef<'a> {
    rows: usize,
    cols: usize,
    data: &'a [f64],
}

impl<'a> MatRef<'a> {
    /// Wraps a column-major buffer. Panics if the length is wrong.
    pub fn new(rows: usize, cols: usize, data: &'a [f64]) -> Self {
        assert_eq!(data.len(), rows * cols, "view length must be rows*cols");
        MatRef { rows, cols, data }
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

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Column `j` as a slice.
    #[inline]
    pub fn col(&self, j: usize) -> &'a [f64] {
        debug_assert!(j < self.cols);
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Element access.
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i + j * self.rows]
    }

    /// The raw column-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &'a [f64] {
        self.data
    }

    /// Owned copy.
    pub fn to_matrix(&self) -> Matrix {
        Matrix::from_col_major(self.rows, self.cols, self.data.to_vec())
    }

    /// Owned transpose.
    pub fn transposed(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self.at(j, i))
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }
}

/// Mutable column-major view over a borrowed buffer.
pub struct MatMut<'a> {
    rows: usize,
    cols: usize,
    data: &'a mut [f64],
}

impl<'a> MatMut<'a> {
    /// Wraps a column-major buffer mutably. Panics if the length is wrong.
    pub fn new(rows: usize, cols: usize, data: &'a mut [f64]) -> Self {
        assert_eq!(data.len(), rows * cols, "view length must be rows*cols");
        MatMut { rows, cols, data }
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

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Column `j` as a mutable slice.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        debug_assert!(j < self.cols);
        let r = self.rows;
        &mut self.data[j * r..(j + 1) * r]
    }

    /// Immutable re-borrow.
    pub fn as_ref(&self) -> MatRef<'_> {
        MatRef {
            rows: self.rows,
            cols: self.cols,
            data: self.data,
        }
    }

    /// Fills with a constant.
    pub fn fill(&mut self, v: f64) {
        self.data.fill(v);
    }

    /// Scales every entry.
    pub fn scale(&mut self, alpha: f64) {
        for x in self.data.iter_mut() {
            *x *= alpha;
        }
    }
}

impl Matrix {
    /// Immutable view of the whole matrix.
    pub fn view(&self) -> MatRef<'_> {
        MatRef::new(self.rows(), self.cols(), self.as_slice())
    }

    /// Zero-copy reinterpretation of the buffer under a different shape
    /// (must preserve the element count).
    pub fn view_as(&self, rows: usize, cols: usize) -> MatRef<'_> {
        MatRef::new(rows, cols, self.as_slice())
    }

    /// Mutable view of the whole matrix.
    pub fn view_mut(&mut self) -> MatMut<'_> {
        let (r, c) = self.shape();
        MatMut::new(r, c, self.as_mut_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_reinterprets_shape() {
        let m = Matrix::from_col_major(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let v = m.view_as(3, 2);
        assert_eq!(v.at(0, 0), 1.);
        assert_eq!(v.at(2, 0), 3.);
        assert_eq!(v.at(0, 1), 4.);
        assert_eq!(v.col(1), &[4., 5., 6.]);
    }

    #[test]
    fn transposed_view() {
        let m = Matrix::from_row_major(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let t = m.view().transposed();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(1, 0)], 2.);
        assert_eq!(t[(0, 1)], 4.);
    }

    #[test]
    #[should_panic]
    fn bad_view_shape_panics() {
        let m = Matrix::zeros(2, 3);
        let _ = m.view_as(4, 2);
    }
}
