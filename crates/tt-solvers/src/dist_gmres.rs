//! Distributed TT-GMRES — the paper's second stated future-work item
//! (§VI: "we plan to develop a scalable implementation of the TT-based
//! linear solver that can use our parallel TT-Rounding algorithms").
//!
//! The Krylov cycle is [`crate::tt_dist_gmres`], written once against
//! `Communicator`; everything it runs already exists in distributed form:
//! rounding (`tt_core::round`), inner products and norms
//! (`tt_core::dist`). This module adds the two missing pieces under the 1-D
//! slice distribution, each holding the communicator it was built for:
//!
//! * **operator application** ([`DistKroneckerOperator`]): identity and
//!   diagonal factors act slice-locally (the diagonal is pre-sliced to this
//!   rank's block); the mode-1 sparse stiffness factor couples slices, so
//!   the mode-1 core is allgathered (`I₁·R` words), multiplied, and the
//!   local block kept;
//! * **preconditioner application** ([`DistMeanPreconditioner`]): same
//!   allgather, redundant banded solve, keep the local block.
//!
//! The allgather-based mode-1 exchange is the simple-and-correct choice
//! (`β·I₁R` per application); a production implementation would exploit the
//! stiffness matrix's banded structure with halo exchanges (`β·bw·R`). The
//! communication structure of the *rounding* — the paper's subject — is
//! unaffected by this choice.

use crate::operator::{KroneckerSumOperator, ModeFactor, TtOperator};
use crate::precond::{MeanPreconditioner, Preconditioner};
use tt_comm::Communicator;
use tt_core::{block_range, TtCore, TtTensor};
use tt_linalg::Matrix;
use tt_sparse::CsrMatrix;

/// A Kronecker-sum operator prepared for one rank of a 1-D-distributed run.
pub struct DistKroneckerOperator<'c, C: Communicator> {
    comm: &'c C,
    /// The operator with its diagonal factors restricted to this rank's
    /// block; sparse factors stay global (they act on the gathered mode-1
    /// core).
    local: KroneckerSumOperator,
    global_i1: usize,
}

impl<'c, C: Communicator> DistKroneckerOperator<'c, C> {
    /// Prepares the distributed form of `op` for this rank of `comm`.
    pub fn new(comm: &'c C, op: &KroneckerSumOperator, global_dims: &[usize]) -> Self {
        let mut local = KroneckerSumOperator::new();
        for term in op.terms() {
            let factors = term.iter().enumerate().map(|(k, f)| match f {
                ModeFactor::Diagonal(d) => {
                    let range = block_range(global_dims[k], comm.size(), comm.rank());
                    ModeFactor::Diagonal(d[range].to_vec())
                }
                ModeFactor::Sparse(_) => {
                    assert_eq!(
                        k, 0,
                        "sparse factors are only supported on mode 1 \
                         (the cookies structure)"
                    );
                    f.clone()
                }
                ModeFactor::Identity => ModeFactor::Identity,
            });
            local.add_term(factors.collect());
        }
        DistKroneckerOperator {
            comm,
            local,
            global_i1: global_dims[0],
        }
    }
}

impl<C: Communicator> TtOperator for DistKroneckerOperator<'_, C> {
    /// Applies the operator to this rank's local block of a TT vector
    /// (formal rank growth, as in the sequential case).
    fn apply(&self, x: &TtTensor) -> TtTensor {
        self.local.apply_with(x, |k, factor, y| match factor {
            ModeFactor::Sparse(a) => {
                *y = on_gathered_mode1(self.comm, y, self.global_i1, |full| a.mat_mul_dense(&full));
            }
            // Slice-local (diagonals already restricted).
            _ => y.apply_mode(k, |m| factor.apply_unfold(m)),
        })
    }

    fn rank_growth(&self) -> usize {
        self.local.rank_growth()
    }
}

/// The mean preconditioner under the 1-D distribution: every rank holds
/// the factor of the global mean matrix and solves redundantly on the
/// gathered mode-1 core, keeping its own block.
pub struct DistMeanPreconditioner<'c, C: Communicator> {
    comm: &'c C,
    global: MeanPreconditioner,
}

impl<'c, C: Communicator> DistMeanPreconditioner<'c, C> {
    /// Factors the (global) mean matrix on this rank of `comm`.
    pub fn new(comm: &'c C, mean_matrix: &CsrMatrix) -> Self {
        DistMeanPreconditioner {
            comm,
            global: MeanPreconditioner::new(mean_matrix),
        }
    }
}

impl<C: Communicator> Preconditioner for DistMeanPreconditioner<'_, C> {
    /// Applies `M⁻¹` to the local block.
    fn apply(&self, x: &TtTensor) -> TtTensor {
        on_gathered_mode1(self.comm, x, self.global.dim(), |mut full| {
            self.global.factor.solve_dense_in_place(&mut full);
            full
        })
    }
}

/// Applies `f` to the global `I₁ × R` mode-1 unfolding of a distributed
/// train and keeps this rank's row block. The mode-1 core has `r0 = 1`, so
/// its local vertical unfolding is this rank's contiguous row block;
/// allgather concatenates the blocks in rank order, one column at a time,
/// and every rank runs `f` redundantly on the whole matrix.
fn on_gathered_mode1(
    comm: &impl Communicator,
    x: &TtTensor,
    global_i1: usize,
    f: impl FnOnce(Matrix) -> Matrix,
) -> TtTensor {
    let core = x.core(0);
    assert_eq!(core.r0(), 1, "mode-1 core must have unit left rank");
    let r1 = core.r1();
    let mut full = Matrix::zeros(global_i1, r1);
    for c in 0..r1 {
        let gathered = comm.allgather(core.v().col(c));
        assert_eq!(gathered.len(), global_i1, "allgather size mismatch");
        full.col_mut(c).copy_from_slice(&gathered);
    }
    let full = f(full);
    let range = block_range(global_i1, comm.size(), comm.rank());
    let local = full.sub_matrix(range.start, 0, range.len(), r1);
    let mut y = x.clone();
    *y.core_mut(0) = TtCore::from_v(local, 1, range.len(), r1);
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gmres::{GmresOptions, TrueResidualMode};
    use crate::{tt_dist_gmres, tt_gmres, IdentityPreconditioner};
    use tt_core::{gather_tensor, scatter_tensor, RoundingMethod};
    use tt_sparse::{CooBuilder, CsrMatrix};

    fn tridiag(n: usize, diag: f64) -> CsrMatrix {
        let mut b = CooBuilder::new(n, n);
        for i in 0..n {
            b.add(i, i, diag);
            if i + 1 < n {
                b.add(i, i + 1, -1.0);
                b.add(i + 1, i, -1.0);
            }
        }
        b.build()
    }

    fn system() -> (KroneckerSumOperator, TtTensor, CsrMatrix, Vec<usize>) {
        let n1 = 12;
        let n2 = 5;
        let rho: Vec<f64> = (0..n2).map(|i| 0.3 + 0.4 * i as f64).collect();
        let a = tridiag(n1, 4.0);
        let b = tridiag(n1, 2.0);
        let mut op = KroneckerSumOperator::new();
        op.add_term(vec![ModeFactor::Sparse(a.clone()), ModeFactor::Identity]);
        op.add_term(vec![
            ModeFactor::Sparse(b.clone()),
            ModeFactor::Diagonal(rho.clone()),
        ]);
        let mean_rho = rho.iter().sum::<f64>() / rho.len() as f64;
        let mean = a.add_scaled(mean_rho, &b);
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let f = TtTensor::random(&[n1, n2], &[2], &mut rng);
        (op, f, mean, vec![n1, n2])
    }

    #[test]
    fn distributed_operator_matches_sequential() {
        let (op, f, _, dims) = system();
        let seq = op.apply(&f);
        for p in [1usize, 2, 3] {
            let (op2, f2, dims2) = (op.clone(), f.clone(), dims.clone());
            let gathered = tt_comm::ThreadComm::run(p, |comm| {
                let dop = DistKroneckerOperator::new(&comm, &op2, &dims2);
                let local = scatter_tensor(&f2, &comm);
                let y = dop.apply(&local);
                gather_tensor(&y, &dims2, &comm)
            });
            for g in gathered {
                let gap = g.to_dense().fro_dist(&seq.to_dense());
                assert!(gap < 1e-10 * (1.0 + seq.norm()), "p={p}: {gap}");
            }
        }
    }

    #[test]
    fn distributed_preconditioner_matches_sequential() {
        let (_, f, mean, dims) = system();
        let seq = MeanPreconditioner::new(&mean).apply(&f);
        for p in [2usize, 4] {
            let (f2, mean2, dims2) = (f.clone(), mean.clone(), dims.clone());
            let gathered = tt_comm::ThreadComm::run(p, |comm| {
                let pre = DistMeanPreconditioner::new(&comm, &mean2);
                let local = scatter_tensor(&f2, &comm);
                let y = pre.apply(&local);
                gather_tensor(&y, &dims2, &comm)
            });
            for g in gathered {
                let gap = g.to_dense().fro_dist(&seq.to_dense());
                assert!(gap < 1e-9 * (1.0 + seq.norm()), "p={p}: {gap}");
            }
        }
    }

    #[test]
    fn distributed_gmres_matches_sequential() {
        let (op, f, mean, dims) = system();
        for restart in [None, Some(6)] {
            let opts = GmresOptions {
                tolerance: 1e-7,
                max_iters: 40,
                rounding: RoundingMethod::GramLrl,
                true_residual: TrueResidualMode::Tt,
                stagnation_window: 5,
                restart,
            };
            let (u_seq, tr_seq) = tt_gmres(&op, &MeanPreconditioner::new(&mean), &f, &opts);
            assert!(tr_seq.converged, "{restart:?}: sequential did not converge");

            for p in [2usize, 3, 4] {
                let (op2, f2, mean2, dims2, opts2) = (
                    op.clone(),
                    f.clone(),
                    mean.clone(),
                    dims.clone(),
                    opts.clone(),
                );
                let results = tt_comm::ThreadComm::run(p, |comm| {
                    let dop = DistKroneckerOperator::new(&comm, &op2, &dims2);
                    let pre = DistMeanPreconditioner::new(&comm, &mean2);
                    let local = scatter_tensor(&f2, &comm);
                    let (u, tr) = tt_dist_gmres(&comm, &dop, &pre, &local, &opts2);
                    (gather_tensor(&u, &dims2, &comm), tr)
                });
                for (g, tr) in results {
                    assert!(tr.converged, "p={p} {restart:?} did not converge");
                    assert_eq!(
                        tr.iterations.len(),
                        tr_seq.iterations.len(),
                        "p={p} {restart:?}: iteration count"
                    );
                    // A restart changes the residual history from the first
                    // restarted iteration on (by ~25% here), so the histories
                    // must agree to within the rounding noise (1e-4 relative).
                    for (a, b) in tr.iterations.iter().zip(&tr_seq.iterations) {
                        let (a, b) = (a.relative_residual, b.relative_residual);
                        assert!(
                            (a - b).abs() <= 1e-4 * b,
                            "p={p} {restart:?}: residual {a:e} vs {b:e}"
                        );
                    }
                    let gap = g.to_dense().fro_dist(&u_seq.to_dense());
                    assert!(
                        gap < 1e-6 * (1.0 + u_seq.norm()),
                        "p={p} {restart:?}: solution gap {gap}"
                    );
                }
            }
        }
    }

    #[test]
    fn unpreconditioned_reference_still_solves() {
        // Sanity anchor: the plain sequential solver agrees with the
        // distributed one even without preconditioning quality at stake.
        let (op, f, _, _) = system();
        let opts = GmresOptions {
            tolerance: 1e-6,
            max_iters: 60,
            rounding: RoundingMethod::GramLrl,
            true_residual: TrueResidualMode::Dense,
            stagnation_window: 5,
            restart: None,
        };
        let (_, tr) = tt_gmres(&op, &IdentityPreconditioner, &f, &opts);
        assert!(tr.converged);
    }
}
