//! Compressed-sparse-row matrices.

use tt_linalg::Matrix;

/// Triplet (COO) accumulator used to assemble discretization matrices.
/// Duplicate entries are summed, matching FEM/FDM assembly semantics.
#[derive(Debug, Clone, Default)]
pub struct CooBuilder {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl CooBuilder {
    /// Creates an empty `rows × cols` builder.
    pub fn new(rows: usize, cols: usize) -> Self {
        CooBuilder {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Adds `v` at `(i, j)` (accumulating with any existing entry there).
    pub fn add(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        // sparsity-pattern filter — only exactly zero values may be omitted from the assembled matrix
        if v != 0.0 {
            self.entries.push((i, j, v));
        }
    }

    /// Finalizes into CSR form (sorted rows, duplicates summed).
    pub fn build(mut self) -> CsrMatrix {
        self.entries.sort_unstable_by_key(|&(i, j, _)| (i, j));
        let mut row_ptr = Vec::with_capacity(self.rows + 1);
        let mut col_idx = Vec::with_capacity(self.entries.len());
        let mut vals = Vec::with_capacity(self.entries.len());
        row_ptr.push(0);
        let mut cur_row = 0;
        let mut k = 0;
        while k < self.entries.len() {
            let (i, j, mut v) = self.entries[k];
            k += 1;
            while k < self.entries.len() && self.entries[k].0 == i && self.entries[k].1 == j {
                v += self.entries[k].2;
                k += 1;
            }
            while cur_row < i {
                row_ptr.push(col_idx.len());
                cur_row += 1;
            }
            col_idx.push(j);
            vals.push(v);
        }
        while cur_row < self.rows {
            row_ptr.push(col_idx.len());
            cur_row += 1;
        }
        CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            row_ptr,
            col_idx,
            vals,
        }
    }
}

/// A compressed-sparse-row `f64` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    vals: Vec<f64>,
}

impl CsrMatrix {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The `n × n` identity in CSR form.
    pub fn identity(n: usize) -> CsrMatrix {
        CsrMatrix {
            rows: n,
            cols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n).collect(),
            vals: vec![1.0; n],
        }
    }

    /// Iterator over the stored entries of row `i` as `(col, value)`.
    pub fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        self.col_idx[lo..hi]
            .iter()
            .copied()
            .zip(self.vals[lo..hi].iter().copied())
    }

    /// The main diagonal (zeros where unstored).
    pub fn diagonal(&self) -> Vec<f64> {
        let n = self.rows.min(self.cols);
        let mut d = vec![0.0; n];
        for (i, di) in d.iter_mut().enumerate().take(n) {
            for (j, v) in self.row(i) {
                if j == i {
                    *di = v;
                }
            }
        }
        d
    }

    /// `y = A x`.
    pub fn matvec(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "matvec: x length");
        assert_eq!(y.len(), self.rows, "matvec: y length");
        for (i, yi) in y.iter_mut().enumerate().take(self.rows) {
            let mut s = 0.0;
            for (j, v) in self.row(i) {
                s += v * x[j];
            }
            *yi = s;
        }
    }

    /// `Y = A X` on every column of a dense matrix (used to apply a sparse
    /// operator block to a TT-core unfolding).
    pub fn mat_mul_dense(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.rows(), self.cols, "mat_mul_dense: dimension mismatch");
        let mut y = Matrix::zeros(self.rows, x.cols());
        for c in 0..x.cols() {
            let xcol = x.col(c);
            let ycol = y.col_mut(c);
            for (i, yv) in ycol.iter_mut().enumerate().take(self.rows) {
                let mut s = 0.0;
                let lo = self.row_ptr[i];
                let hi = self.row_ptr[i + 1];
                for k in lo..hi {
                    s += self.vals[k] * xcol[self.col_idx[k]];
                }
                *yv = s;
            }
        }
        y
    }

    /// Dense copy (tests and tiny problems only).
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for (j, v) in self.row(i) {
                m[(i, j)] = v;
            }
        }
        m
    }

    /// Checks structural+numerical symmetry to within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for i in 0..self.rows {
            for (j, v) in self.row(i) {
                let vt = self.get(j, i);
                if (v - vt).abs() > tol * (1.0 + v.abs()) {
                    return false;
                }
            }
        }
        true
    }

    /// Entry lookup (binary search within the row).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        match self.col_idx[lo..hi].binary_search(&j) {
            Ok(k) => self.vals[lo + k],
            Err(_) => 0.0,
        }
    }

    /// `C = self + alpha * other` (same shape, union sparsity).
    pub fn add_scaled(&self, alpha: f64, other: &CsrMatrix) -> CsrMatrix {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        let mut b = CooBuilder::new(self.rows, self.cols);
        for i in 0..self.rows {
            for (j, v) in self.row(i) {
                b.add(i, j, v);
            }
            for (j, v) in other.row(i) {
                b.add(i, j, alpha * v);
            }
        }
        b.build()
    }

    /// Half bandwidth: `max |i - j|` over stored entries (for the banded
    /// Cholesky solver).
    pub fn half_bandwidth(&self) -> usize {
        let mut bw = 0;
        for i in 0..self.rows {
            for (j, _) in self.row(i) {
                bw = bw.max(i.abs_diff(j));
            }
        }
        bw
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp, reason = "tests compare exact values on purpose")]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [2 0 1]
        // [0 3 0]
        // [1 0 4]
        let mut b = CooBuilder::new(3, 3);
        b.add(0, 0, 2.0);
        b.add(0, 2, 1.0);
        b.add(1, 1, 3.0);
        b.add(2, 0, 1.0);
        b.add(2, 2, 4.0);
        b.build()
    }

    #[test]
    fn build_and_lookup() {
        let a = sample();
        assert_eq!(a.vals.len(), 5);
        assert_eq!(a.get(0, 0), 2.0);
        assert_eq!(a.get(0, 1), 0.0);
        assert_eq!(a.get(2, 2), 4.0);
    }

    #[test]
    fn duplicates_are_summed() {
        let mut b = CooBuilder::new(2, 2);
        b.add(0, 0, 1.0);
        b.add(0, 0, 2.5);
        b.add(1, 0, 1.0);
        let a = b.build();
        assert_eq!(a.get(0, 0), 3.5);
        assert_eq!(a.vals.len(), 2);
    }

    #[test]
    fn matvec_matches_dense() {
        let a = sample();
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![0.0; 3];
        a.matvec(&x, &mut y);
        assert_eq!(y, vec![5.0, 6.0, 13.0]);
    }

    #[test]
    fn mat_mul_dense_matches_matvec() {
        let a = sample();
        let x = Matrix::from_row_major(3, 2, &[1., 4., 2., 5., 3., 6.]);
        let y = a.mat_mul_dense(&x);
        let mut col0 = vec![0.0; 3];
        a.matvec(&[1., 2., 3.], &mut col0);
        assert_eq!(y.col(0), &col0[..]);
    }

    #[test]
    fn symmetry_check() {
        assert!(sample().is_symmetric(1e-14));
        let mut b = CooBuilder::new(2, 2);
        b.add(0, 1, 1.0);
        assert!(!b.build().is_symmetric(1e-14));
    }

    #[test]
    fn add_scaled_unions() {
        let a = sample();
        let i = CsrMatrix::identity(3);
        let s = a.add_scaled(10.0, &i);
        assert_eq!(s.get(0, 0), 12.0);
        assert_eq!(s.get(1, 1), 13.0);
        assert_eq!(s.get(0, 2), 1.0);
    }

    #[test]
    fn empty_rows_ok() {
        let mut b = CooBuilder::new(4, 4);
        b.add(0, 0, 1.0);
        b.add(3, 3, 2.0);
        let a = b.build();
        assert_eq!(a.row(1).count(), 0);
        assert_eq!(a.row(2).count(), 0);
        let mut y = vec![0.0; 4];
        a.matvec(&[1.0; 4], &mut y);
        assert_eq!(y, vec![1.0, 0.0, 0.0, 2.0]);
    }

    #[test]
    fn bandwidth() {
        assert_eq!(sample().half_bandwidth(), 2);
        assert_eq!(CsrMatrix::identity(5).half_bandwidth(), 0);
    }

    #[test]
    fn diagonal_extraction() {
        let d = sample().diagonal();
        assert_eq!(d, vec![2.0, 3.0, 4.0]);
    }
}
