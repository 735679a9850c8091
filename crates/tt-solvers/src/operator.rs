//! Low-operator-rank TT operators.
//!
//! The parametrized-PDE operators of §II-C have the Kronecker-sum form
//! `G = Σ_t  G_{t,1} ⊗ G_{t,2} ⊗ … ⊗ G_{t,N}` with a small number of terms
//! (the *operator rank*, `p+1` for the cookies problem) and structured
//! factors: one large sparse stiffness block on the spatial mode and
//! diagonal/identity factors on the parameter modes. Applying such an
//! operator to a TT vector multiplies every bond rank by the number of
//! terms — the rank growth that makes TT-Rounding the key operation of
//! TT-GMRES.

use tt_core::TtTensor;
use tt_linalg::Matrix;
use tt_sparse::CsrMatrix;

/// Anything that maps a TT vector to a TT vector.
pub trait TtOperator {
    /// Applies the operator (no rounding — ranks grow formally).
    fn apply(&self, x: &TtTensor) -> TtTensor;

    /// Factor by which bond ranks grow per application.
    fn rank_growth(&self) -> usize;
}

/// One factor of a Kronecker term, acting on a single physical mode.
#[derive(Debug, Clone)]
pub enum ModeFactor {
    /// The identity (skipped during application).
    Identity,
    /// A diagonal matrix (e.g. the parameter-sample values `ρ_i`).
    Diagonal(Vec<f64>),
    /// A general sparse matrix (e.g. a stiffness block).
    Sparse(CsrMatrix),
}

impl ModeFactor {
    /// Applies the factor to a mode-2 unfolding (`I × R₀R₁`).
    pub fn apply_unfold(&self, m: &Matrix) -> Matrix {
        match self {
            ModeFactor::Identity => m.clone(),
            ModeFactor::Diagonal(d) => {
                assert_eq!(d.len(), m.rows(), "diagonal factor dimension mismatch");
                let mut out = m.clone();
                for c in 0..out.cols() {
                    let col = out.col_mut(c);
                    for (i, x) in col.iter_mut().enumerate() {
                        *x *= d[i];
                    }
                }
                out
            }
            ModeFactor::Sparse(a) => a.mat_mul_dense(m),
        }
    }

    /// The mode dimension the factor expects (None for identity, which
    /// accepts anything).
    pub fn dim(&self) -> Option<usize> {
        match self {
            ModeFactor::Identity => None,
            ModeFactor::Diagonal(d) => Some(d.len()),
            ModeFactor::Sparse(a) => Some(a.cols()),
        }
    }
}

/// `G = Σ_t ⊗_k term[t][k]` — a sum of Kronecker products of mode factors.
#[derive(Debug, Clone, Default)]
pub struct KroneckerSumOperator {
    terms: Vec<Vec<ModeFactor>>,
}

impl KroneckerSumOperator {
    /// Creates an empty operator (use [`KroneckerSumOperator::add_term`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one Kronecker term (one factor per mode).
    pub fn add_term(&mut self, factors: Vec<ModeFactor>) {
        if let Some(first) = self.terms.first() {
            assert_eq!(
                first.len(),
                factors.len(),
                "terms must agree on the mode count"
            );
        }
        self.terms.push(factors);
    }

    /// Number of Kronecker terms (the operator rank).
    pub fn operator_rank(&self) -> usize {
        self.terms.len()
    }

    /// Number of modes.
    pub fn order(&self) -> usize {
        self.terms.first().map_or(0, |t| t.len())
    }

    /// The terms (for inspection / preconditioner construction).
    pub fn terms(&self) -> &[Vec<ModeFactor>] {
        &self.terms
    }

    /// `Σ_t ⊗_k term[t][k] · x`, with `apply_factor(k, factor, y)` applying
    /// each non-identity factor to mode `k` of `y` in place (the
    /// distributed operator gathers mode 1 for its sparse factor).
    pub(crate) fn apply_with(
        &self,
        x: &TtTensor,
        apply_factor: impl Fn(usize, &ModeFactor, &mut TtTensor),
    ) -> TtTensor {
        assert!(!self.terms.is_empty(), "operator has no terms");
        assert_eq!(
            self.order(),
            x.order(),
            "operator/vector mode count mismatch"
        );
        let apply_term = |term: &[ModeFactor]| {
            let mut y = x.clone();
            for (k, factor) in term.iter().enumerate() {
                if !matches!(factor, ModeFactor::Identity) {
                    apply_factor(k, factor, &mut y);
                }
            }
            y
        };
        let mut acc = apply_term(&self.terms[0]);
        for term in &self.terms[1..] {
            acc = acc.add(&apply_term(term));
        }
        acc
    }
}

impl TtOperator for KroneckerSumOperator {
    fn apply(&self, x: &TtTensor) -> TtTensor {
        self.apply_with(x, |k, factor, y| {
            y.apply_mode(k, |m| factor.apply_unfold(m));
        })
    }

    fn rank_growth(&self) -> usize {
        self.terms.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_sparse::CooBuilder;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::SeedableRng::seed_from_u64(seed)
    }

    fn tridiag(n: usize) -> CsrMatrix {
        let mut b = CooBuilder::new(n, n);
        for i in 0..n {
            b.add(i, i, 2.0);
            if i + 1 < n {
                b.add(i, i + 1, -1.0);
                b.add(i + 1, i, -1.0);
            }
        }
        b.build()
    }

    /// Dense application of a Kronecker-sum operator for verification.
    fn dense_apply(op: &KroneckerSumOperator, x: &tt_core::DenseTensor) -> tt_core::DenseTensor {
        let dims = x.dims().to_vec();
        let mut out = tt_core::DenseTensor::zeros(&dims);
        let mut idx = vec![0usize; dims.len()];
        // For every output entry, sum over terms and (sparse) input entries.
        // O(big) — tiny tests only. Build per-term dense factor matrices.
        for term in op.terms() {
            let mats: Vec<Matrix> = term
                .iter()
                .zip(&dims)
                .map(|(f, &d)| match f {
                    ModeFactor::Identity => Matrix::identity(d),
                    ModeFactor::Diagonal(v) => {
                        Matrix::from_fn(d, d, |i, j| if i == j { v[i] } else { 0.0 })
                    }
                    ModeFactor::Sparse(a) => a.to_dense(),
                })
                .collect();
            // y[i] += Σ_j Π_k M_k(i_k, j_k) x[j]
            let total: usize = dims.iter().product();
            for flat_out in 0..total {
                // decode
                let mut rem = flat_out;
                for (d, i) in idx.iter_mut().enumerate() {
                    *i = rem % dims[d];
                    rem /= dims[d];
                }
                let out_idx = idx.clone();
                let mut jdx = vec![0usize; dims.len()];
                let mut s = 0.0;
                for flat_in in 0..total {
                    let mut rem = flat_in;
                    for (d, j) in jdx.iter_mut().enumerate() {
                        *j = rem % dims[d];
                        rem /= dims[d];
                    }
                    let mut prod = 1.0;
                    for k in 0..dims.len() {
                        prod *= mats[k][(out_idx[k], jdx[k])];
                        if prod == 0.0 {
                            break;
                        }
                    }
                    if prod != 0.0 {
                        s += prod * x.at(&jdx);
                    }
                }
                *out.at_mut(&out_idx) += s;
            }
        }
        out
    }

    #[test]
    fn identity_operator_is_noop() {
        let mut r = rng(1);
        let x = TtTensor::random(&[3, 4, 2], &[2, 2], &mut r);
        let mut op = KroneckerSumOperator::new();
        op.add_term(vec![
            ModeFactor::Identity,
            ModeFactor::Identity,
            ModeFactor::Identity,
        ]);
        let y = op.apply(&x);
        assert!(y.to_dense().fro_dist(&x.to_dense()) < 1e-12);
    }

    #[test]
    fn kronecker_apply_matches_dense() {
        let mut r = rng(2);
        let x = TtTensor::random(&[4, 3, 3], &[2, 2], &mut r);
        let mut op = KroneckerSumOperator::new();
        op.add_term(vec![
            ModeFactor::Sparse(tridiag(4)),
            ModeFactor::Identity,
            ModeFactor::Identity,
        ]);
        op.add_term(vec![
            ModeFactor::Identity,
            ModeFactor::Diagonal(vec![1.0, 2.0, 3.0]),
            ModeFactor::Identity,
        ]);
        op.add_term(vec![
            ModeFactor::Sparse(tridiag(4)),
            ModeFactor::Identity,
            ModeFactor::Diagonal(vec![0.5, -1.0, 2.0]),
        ]);
        let y = op.apply(&x);
        assert_eq!(op.operator_rank(), 3);
        // Ranks multiply by the number of terms.
        assert_eq!(y.ranks(), vec![1, 6, 6, 1]);
        let expect = dense_apply(&op, &x.to_dense());
        assert!(
            y.to_dense().fro_dist(&expect) < 1e-10 * (1.0 + expect.fro_norm()),
            "dense mismatch"
        );
    }

    #[test]
    fn rank_growth_is_operator_rank() {
        let mut op = KroneckerSumOperator::new();
        op.add_term(vec![ModeFactor::Identity, ModeFactor::Identity]);
        op.add_term(vec![ModeFactor::Identity, ModeFactor::Identity]);
        assert_eq!(op.rank_growth(), 2);
    }
}
