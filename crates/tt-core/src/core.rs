//! A single TT core and its zero-copy unfoldings.

use tt_linalg::{MatRef, Matrix};

/// One 3-way TT core `T ∈ R^{r0 × i × r1}`.
///
/// The backing buffer is column-major over `(a, i, b)` (element at
/// `a + i·r0 + b·r0·i`), which makes the vertical unfolding free and the
/// horizontal unfolding free up to an irrelevant column permutation — see
/// the crate-level documentation.
#[derive(Clone, PartialEq)]
pub struct TtCore {
    r0: usize,
    i: usize,
    r1: usize,
    /// Stored under the vertical-unfolding shape `(r0·i) × r1`.
    data: Matrix,
}

impl TtCore {
    /// Builds a core from its vertical unfolding (`(r0·i) × r1`).
    pub fn from_v(v: Matrix, r0: usize, i: usize, r1: usize) -> Self {
        assert_eq!(v.shape(), (r0 * i, r1), "vertical unfolding shape mismatch");
        TtCore { r0, i, r1, data: v }
    }

    /// Builds a core from its (column-permuted) horizontal unfolding
    /// (`r0 × (i·r1)`, column index `i + b·I` — the layout [`TtCore::h`]
    /// produces).
    pub fn from_h(h: Matrix, r0: usize, i: usize, r1: usize) -> Self {
        assert_eq!(
            h.shape(),
            (r0, i * r1),
            "horizontal unfolding shape mismatch"
        );
        TtCore {
            r0,
            i,
            r1,
            data: h.reshaped(r0 * i, r1),
        }
    }

    /// An all-zero core.
    pub fn zeros(r0: usize, i: usize, r1: usize) -> Self {
        TtCore {
            r0,
            i,
            r1,
            data: Matrix::zeros(r0 * i, r1),
        }
    }

    /// A core with i.i.d. standard-normal entries.
    pub fn gaussian(r0: usize, i: usize, r1: usize, rng: &mut impl rand::Rng) -> Self {
        TtCore {
            r0,
            i,
            r1,
            data: Matrix::gaussian(r0 * i, r1, rng),
        }
    }

    /// Left rank `r0`.
    #[inline]
    pub fn r0(&self) -> usize {
        self.r0
    }

    /// Mode (physical) dimension `i`.
    #[inline]
    pub fn mode_dim(&self) -> usize {
        self.i
    }

    /// Right rank `r1`.
    #[inline]
    pub fn r1(&self) -> usize {
        self.r1
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.r0 * self.i * self.r1
    }

    /// True if the core holds no entries (a rank owning zero slices).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Vertical unfolding `V(T) ∈ R^{(r0·i) × r1}` — zero-copy.
    #[inline]
    pub fn v(&self) -> MatRef<'_> {
        self.data.view()
    }

    /// Column-permuted horizontal unfolding `H(T) ∈ R^{r0 × (i·r1)}`
    /// (column index `i + b·I`) — zero-copy. Only legitimate for
    /// column-permutation-invariant operations (`W·H`, `H·Hᵀ`).
    #[inline]
    pub fn h(&self) -> MatRef<'_> {
        self.data.view_as(self.r0, self.i * self.r1)
    }

    /// The vertical unfolding as an owned matrix (clones the buffer).
    pub fn v_matrix(&self) -> Matrix {
        self.data.clone()
    }

    /// Entry `(a, i, b)`.
    #[inline]
    pub fn at(&self, a: usize, i: usize, b: usize) -> f64 {
        debug_assert!(a < self.r0 && i < self.i && b < self.r1);
        self.data[(a + i * self.r0, b)]
    }

    /// Mutable entry `(a, i, b)`.
    #[inline]
    pub fn at_mut(&mut self, a: usize, i: usize, b: usize) -> &mut f64 {
        debug_assert!(a < self.r0 && i < self.i && b < self.r1);
        &mut self.data[(a + i * self.r0, b)]
    }

    /// Slice `T(:, i, :)` as an owned `r0 × r1` matrix.
    pub fn slice(&self, i: usize) -> Matrix {
        assert!(i < self.i);
        Matrix::from_fn(self.r0, self.r1, |a, b| self.at(a, i, b))
    }

    /// Keeps only the mode indices in `lo..hi` (the 1-D distribution cut).
    pub fn mode_block(&self, lo: usize, hi: usize) -> TtCore {
        assert!(lo <= hi && hi <= self.i);
        let n = hi - lo;
        let mut out = TtCore::zeros(self.r0, n, self.r1);
        for b in 0..self.r1 {
            for i in 0..n {
                for a in 0..self.r0 {
                    *out.at_mut(a, i, b) = self.at(a, lo + i, b);
                }
            }
        }
        out
    }

    /// Mode-2 unfolding `i × (r0·r1)` (column index `a + b·r0`) — this one
    /// needs a copy; it is only used to apply a physical-mode operator
    /// (`core ×₂ A`).
    pub fn mode_unfold(&self) -> Matrix {
        Matrix::from_fn(self.i, self.r0 * self.r1, |i, c| {
            let a = c % self.r0;
            let b = c / self.r0;
            self.at(a, i, b)
        })
    }

    /// Inverse of [`TtCore::mode_unfold`]: rebuilds a core from a mode-2
    /// unfolding with a (possibly new) mode dimension.
    pub fn from_mode_unfold(m: &Matrix, r0: usize, r1: usize) -> TtCore {
        assert_eq!(m.cols(), r0 * r1, "mode unfolding width mismatch");
        let i = m.rows();
        let mut out = TtCore::zeros(r0, i, r1);
        for c in 0..r0 * r1 {
            let a = c % r0;
            let b = c / r0;
            for ii in 0..i {
                *out.at_mut(a, ii, b) = m[(ii, c)];
            }
        }
        out
    }

    /// Frobenius norm of the core.
    pub fn fro_norm(&self) -> f64 {
        self.data.fro_norm()
    }

    /// Consumes the core, returning the vertical-unfolding matrix.
    pub fn into_v(self) -> Matrix {
        self.data
    }
}

impl std::fmt::Debug for TtCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TtCore({}×{}×{})", self.r0, self.i, self.r1)
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp, reason = "tests compare exact values on purpose")]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn layout_round_trips() {
        let mut c = TtCore::zeros(2, 3, 4);
        *c.at_mut(1, 2, 3) = 7.0;
        assert_eq!(c.at(1, 2, 3), 7.0);
        // buffer position: a + i*r0 + b*r0*i = 1 + 2*2 + 3*6 = 23
        assert_eq!(c.v().as_slice()[23], 7.0);
        // V view: row a + i*r0 = 5, col b = 3
        assert_eq!(c.v().at(5, 3), 7.0);
        // H view: row a = 1, col i + b*I = 2 + 3*3 = 11
        assert_eq!(c.h().at(1, 11), 7.0);
    }

    #[test]
    fn slice_extracts() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let c = TtCore::gaussian(3, 4, 2, &mut rng);
        let s = c.slice(2);
        for a in 0..3 {
            for b in 0..2 {
                assert_eq!(s[(a, b)], c.at(a, 2, b));
            }
        }
    }

    #[test]
    fn mode_block_takes_slices() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let c = TtCore::gaussian(2, 10, 3, &mut rng);
        let b = c.mode_block(3, 7);
        assert_eq!(b.mode_dim(), 4);
        for i in 0..4 {
            assert_eq!(b.slice(i), c.slice(3 + i));
        }
    }

    #[test]
    fn mode_unfold_round_trips() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let c = TtCore::gaussian(2, 5, 3, &mut rng);
        let m = c.mode_unfold();
        assert_eq!(m.shape(), (5, 6));
        let back = TtCore::from_mode_unfold(&m, 2, 3);
        assert_eq!(back, c);
    }

    #[test]
    fn from_h_matches_layout() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let c = TtCore::gaussian(3, 4, 2, &mut rng);
        let h = c.h();
        let h_owned = Matrix::from_col_major(h.rows(), h.cols(), h.as_slice().to_vec());
        let back = TtCore::from_h(h_owned, 3, 4, 2);
        assert_eq!(back, c);
    }

    #[test]
    fn empty_core_is_empty() {
        let c = TtCore::zeros(3, 0, 2);
        assert!(c.is_empty());
        assert_eq!(c.v().shape(), (0, 2));
    }
}
