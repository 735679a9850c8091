//! Preconditioners for TT-GMRES.
//!
//! The *mean preconditioner* of Kressner–Tobler [26] is the paper's choice
//! for the cookies problem: the operator-rank-one approximation
//! `M = Ḡ ⊗ I ⊗ … ⊗ I`, where `Ḡ` is the spatial operator evaluated at the
//! parameter means. Applying `M⁻¹` to a TT vector is a single direct solve
//! on the first core — it leaves TT ranks unchanged and costs one banded
//! backsolve per core column.

use tt_core::TtTensor;
use tt_sparse::{BandedCholesky, CsrMatrix};

/// Anything that applies an (approximate) inverse to a TT vector.
pub trait Preconditioner {
    /// Applies `M⁻¹` (must not grow TT ranks for the solver's rank
    /// accounting to stay meaningful).
    fn apply(&self, x: &TtTensor) -> TtTensor;
}

/// The do-nothing preconditioner.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdentityPreconditioner;

impl Preconditioner for IdentityPreconditioner {
    fn apply(&self, x: &TtTensor) -> TtTensor {
        x.clone()
    }
}

/// The rank-one mean preconditioner `(Ḡ ⊗ I ⊗ … ⊗ I)⁻¹`.
///
/// `Ḡ` must be SPD and banded (true for the FDM stiffness matrices of the
/// cookies problem); it is factored once with a banded Cholesky.
pub struct MeanPreconditioner {
    pub(crate) factor: BandedCholesky,
}

impl MeanPreconditioner {
    /// Factors the mean spatial operator.
    ///
    /// Panics if `mean_matrix` is not SPD (a stiffness matrix always is).
    pub fn new(mean_matrix: &CsrMatrix) -> Self {
        let Some(factor) = BandedCholesky::factor(mean_matrix) else {
            // analyze::allow(panic_surface): a stiffness matrix is SPD by construction; factorization failure means corrupted assembly, documented in the message
            panic!(
                "MeanPreconditioner::new: the mean matrix is not numerically \
                 SPD; a stiffness matrix always is, so the assembled operator \
                 is corrupted"
            )
        };
        MeanPreconditioner { factor }
    }

    /// The spatial dimension the preconditioner acts on.
    pub fn dim(&self) -> usize {
        self.factor.dim()
    }
}

impl Preconditioner for MeanPreconditioner {
    fn apply(&self, x: &TtTensor) -> TtTensor {
        let mut y = x.clone();
        y.apply_mode(0, |m| {
            let mut out = m.clone();
            self.factor.solve_dense_in_place(&mut out);
            out
        });
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use tt_sparse::CooBuilder;

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

    #[test]
    fn identity_preconditioner_is_noop() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let x = TtTensor::random(&[4, 3], &[2], &mut rng);
        let y = IdentityPreconditioner.apply(&x);
        assert_eq!(x, y);
    }

    #[test]
    fn mean_preconditioner_inverts_mode_one_operator() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let x = TtTensor::random(&[6, 3, 4], &[2, 2], &mut rng);
        let a = tridiag(6);
        // Apply A on mode 0, then M^{-1} with M = A ⊗ I ⊗ I: round trip.
        let mut op = crate::operator::KroneckerSumOperator::new();
        op.add_term(vec![
            crate::operator::ModeFactor::Sparse(a.clone()),
            crate::operator::ModeFactor::Identity,
            crate::operator::ModeFactor::Identity,
        ]);
        let ax = crate::operator::TtOperator::apply(&op, &x);
        let pre = MeanPreconditioner::new(&a);
        let back = pre.apply(&ax);
        assert!(
            back.to_dense().fro_dist(&x.to_dense()) < 1e-9 * (1.0 + x.norm()),
            "M^{{-1}} A x != x"
        );
        // Ranks unchanged by the preconditioner.
        assert_eq!(back.ranks(), ax.ranks());
    }
}
