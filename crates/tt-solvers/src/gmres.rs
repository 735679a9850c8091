//! TT-GMRES — Algorithm 1 of the paper (Dolgov \[8\]).
//!
//! A full-orthogonalization GMRES over TT vectors in which every Krylov
//! vector is compressed by TT-Rounding with an adaptive tolerance
//! `δ = ε·β/r` (looser as the residual drops — the "inexact Krylov"
//! relaxation). The rounding algorithm is pluggable ([`RoundingMethod`]),
//! which is exactly the §V-D experiment: swapping QR-based rounding for
//! Gram-SVD rounding inside an otherwise identical solver.
//!
//! The Krylov cycle is written once, against [`Communicator`], in
//! [`tt_dist_gmres`]: rounding, inner products and norms run in their
//! 1-D-distributed form, and the operator and preconditioner bring their
//! own communication ([`crate::dist_gmres`]). [`tt_gmres`] is its
//! one-rank case under [`SelfComm`].

use std::time::Instant;

use crate::operator::TtOperator;
use crate::precond::Preconditioner;
use tt_comm::{Communicator, SelfComm};
use tt_core::dist::{inner_local, norm_local};
use tt_core::{RoundingMethod, RoundingOptions, TtTensor};
use tt_linalg::{householder_qr, solve_upper, Matrix};

/// `round(x, tol)` with the solver's rounding `method`, adding its wall
/// time to `*seconds`: every solver rounding is a plain ε-rounding of a
/// train it no longer needs.
pub(crate) fn timed_round(
    comm: &impl Communicator,
    method: RoundingMethod,
    x: TtTensor,
    tol: f64,
    seconds: &mut f64,
) -> TtTensor {
    #[expect(
        clippy::disallowed_methods,
        reason = "the wall time goes to the report's timing field, never into the iterate"
    )]
    let t0 = Instant::now();
    let y = tt_core::round(comm, x, method, &RoundingOptions::with_tolerance(tol)).0;
    *seconds += t0.elapsed().as_secs_f64();
    y
}

/// How (and whether) to compute the true residual at the end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrueResidualMode {
    /// Skip (large problems).
    Off,
    /// Via TT arithmetic (fast; accuracy floored at `√ε·‖F‖` by
    /// inner-product cancellation).
    Tt,
    /// Via dense materialization (exact; tiny problems only). On more than
    /// one rank a local block is not the global tensor, so
    /// [`tt_dist_gmres`] falls back to [`TrueResidualMode::Tt`] there.
    Dense,
}

/// Solver options.
#[derive(Debug, Clone)]
pub struct GmresOptions {
    /// Relative residual tolerance ε (also enters the rounding tolerance).
    pub tolerance: f64,
    /// Maximum Krylov dimension `m` (no restarting, per Alg. 1).
    pub max_iters: usize,
    /// The TT-Rounding algorithm to use. Every rounding is ε-driven with no
    /// rank cap, and [`RoundingMethod::Randomized`] ignores ε: with no cap
    /// it keeps every bond's rank, so under TT-GMRES it compresses nothing.
    pub rounding: RoundingMethod,
    /// How to compute the final true residual.
    pub true_residual: TrueResidualMode,
    /// Stop early if the computed residual improves by less than 0.1% over
    /// this many consecutive iterations (stagnation at the TT-arithmetic
    /// noise floor; 0 disables the guard).
    pub stagnation_window: usize,
    /// `Some(m)`: restarted GMRES(m) — bound the Krylov basis at `m`
    /// vectors, restarting from the explicit residual (`max_iters` then
    /// caps the *total* inner iterations). `None` (the default and Alg. 1's
    /// formulation): one full cycle.
    pub restart: Option<usize>,
}

impl Default for GmresOptions {
    fn default() -> Self {
        GmresOptions {
            tolerance: 1e-5,
            max_iters: 50,
            rounding: RoundingMethod::GramLrl,
            true_residual: TrueResidualMode::Tt,
            stagnation_window: 5,
            restart: None,
        }
    }
}

/// Per-iteration diagnostics (the data behind Figs. 5b and 6).
#[derive(Debug, Clone)]
pub struct IterationRecord {
    /// 1-based iteration index `j`.
    pub iter: usize,
    /// Computed relative residual `r/β` after this iteration (from the
    /// small least-squares problem, line 11 of Alg. 1).
    pub relative_residual: f64,
    /// Maximum TT rank of the Krylov vector `V_{j+1}` built this iteration.
    pub max_rank: usize,
    /// Seconds spent inside TT-Rounding this iteration.
    pub rounding_seconds: f64,
    /// Total seconds for this iteration.
    pub total_seconds: f64,
}

/// Full solve diagnostics.
#[derive(Debug, Clone)]
pub struct GmresTrace {
    /// One record per iteration performed.
    pub iterations: Vec<IterationRecord>,
    /// Whether the computed residual met the tolerance.
    pub converged: bool,
    /// Final computed relative residual.
    pub computed_relative_residual: f64,
    /// Final true relative residual `‖F − G·u‖/‖F‖` (`NaN` when
    /// [`TrueResidualMode::Off`]).
    pub true_relative_residual: f64,
    /// Total seconds inside TT-Rounding.
    pub rounding_seconds: f64,
    /// Total solve seconds.
    pub total_seconds: f64,
    /// Maximum TT rank of the returned solution.
    pub solution_max_rank: usize,
}

impl GmresTrace {
    /// Largest Krylov-vector TT rank over the whole solve (paper Fig. 6,
    /// dashed lines).
    pub fn max_krylov_rank(&self) -> usize {
        self.iterations
            .iter()
            .map(|r| r.max_rank)
            .max()
            .unwrap_or(0)
    }
}

/// Right-preconditioned TT-GMRES: solves `G M⁻¹ w = F`, returns
/// `u = M⁻¹ w` (so residual norms are those of the original system).
///
/// The one-rank case of [`tt_dist_gmres`], run under [`SelfComm`].
pub fn tt_gmres(
    op: &dyn TtOperator,
    precond: &dyn Preconditioner,
    f: &TtTensor,
    opts: &GmresOptions,
) -> (TtTensor, GmresTrace) {
    tt_dist_gmres(&SelfComm::new(), op, precond, f, opts)
}

/// Right-preconditioned TT-GMRES over the 1-D slice distribution: solves
/// `G M⁻¹ w = F` and returns this rank's block of `u = M⁻¹ w`.
///
/// Follows Alg. 1 line by line, with the Krylov basis kept in TT format and
/// every new basis vector rounded twice (after the operator application and
/// after orthogonalization) at the adaptive tolerance `δ = ε·β/r`.
/// Rounding, inner products and norms run through `comm`; `op` and
/// `precond` act on local blocks and must be built for the same `comm`
/// (e.g. [`crate::DistKroneckerOperator`], [`crate::DistMeanPreconditioner`]).
/// Every rank computes the identical trace.
pub fn tt_dist_gmres(
    comm: &impl Communicator,
    op: &dyn TtOperator,
    precond: &dyn Preconditioner,
    f_local: &TtTensor,
    opts: &GmresOptions,
) -> (TtTensor, GmresTrace) {
    #[expect(
        clippy::disallowed_methods,
        reason = "the wall time goes to the report's timing field, never into the iterate"
    )]
    let t_start = Instant::now();
    let beta = norm_local(comm, f_local);
    assert!(beta > 0.0, "zero right-hand side");
    let (u, cycle) = match opts.restart {
        None => gmres_cycle(comm, op, precond, f_local, beta, opts),
        Some(m) => restarted(comm, op, precond, f_local, beta, opts, m),
    };
    let true_rel = match opts.true_residual {
        TrueResidualMode::Off => f64::NAN,
        TrueResidualMode::Dense if comm.size() == 1 => {
            let gu = op.apply(&u).to_dense();
            f_local.to_dense().fro_dist(&gu) / beta
        }
        TrueResidualMode::Tt | TrueResidualMode::Dense => {
            norm_local(comm, &f_local.sub(&op.apply(&u))) / beta
        }
    };
    let trace = GmresTrace {
        converged: cycle.converged,
        computed_relative_residual: cycle.relative_residual,
        true_relative_residual: true_rel,
        rounding_seconds: cycle.rounding_seconds,
        total_seconds: t_start.elapsed().as_secs_f64(),
        solution_max_rank: u.max_rank(),
        iterations: cycle.iterations,
    };
    (u, trace)
}

/// What one GMRES cycle (or a restarted chain of them) reports.
struct Cycle {
    iterations: Vec<IterationRecord>,
    converged: bool,
    /// Computed residual relative to the cycle's right-hand side.
    relative_residual: f64,
    rounding_seconds: f64,
}

/// One cycle of Alg. 1 on `G M⁻¹ w = f` with `beta = ‖f‖`, at most
/// `opts.max_iters` iterations; returns `u = M⁻¹ w`.
fn gmres_cycle(
    comm: &impl Communicator,
    op: &dyn TtOperator,
    precond: &dyn Preconditioner,
    f: &TtTensor,
    beta: f64,
    opts: &GmresOptions,
) -> (TtTensor, Cycle) {
    let mut v1 = f.clone();
    v1.scale(1.0 / beta);
    let mut basis: Vec<TtTensor> = vec![v1];

    // H stored column-major as a growing dense matrix (m+1) × m.
    let m = opts.max_iters;
    let mut h = Matrix::zeros(m + 1, m);
    let mut r = beta;
    let mut cycle = Cycle {
        iterations: Vec::new(),
        converged: false,
        relative_residual: 1.0,
        rounding_seconds: 0.0,
    };

    for j in 0..m {
        #[expect(
            clippy::disallowed_methods,
            reason = "the wall time goes to the report's timing field, never into the iterate"
        )]
        let t_iter = Instant::now();
        // Adaptive inexact-Krylov rounding tolerance (Alg. 1 line 4), capped
        // so late-iteration Krylov vectors retain enough accuracy to finish
        // the last fraction of the residual reduction.
        let delta = (opts.tolerance * beta / r).min(0.2);

        // Line 5: W = round(G M⁻¹ V_j, δ).
        let gv = op.apply(&precond.apply(&basis[j]));
        let mut round_iter = 0.0;
        let mut w = timed_round(comm, opts.rounding, gv, delta, &mut round_iter);

        // Lines 6–9: Gram–Schmidt orthogonalization with rounding. Alg. 1
        // writes the classical form (one formal sum of j+1 tensors, one
        // rounding); practical TT-GMRES implementations (Dolgov [8],
        // TT-Toolbox) use *modified* Gram–Schmidt with rounding after each
        // subtraction — the formal rank stays at rank(W) + rank(V_i)
        // instead of growing linearly in j, and the coefficients are the
        // same in exact arithmetic. The per-subtraction tolerance is
        // δ/√(j+1): the j+1 rounding perturbations are uncorrelated, so
        // they accumulate in quadrature and the iteration's total stays
        // ~δ without over-tightening (which needlessly inflates the
        // Krylov ranks).
        let delta_orth = delta / ((j + 1) as f64).sqrt();
        for (i, vi) in basis.iter().enumerate() {
            let hij = inner_local(comm, &w, vi);
            h[(i, j)] = hij;
            // skip-exact-zero fast path — any nonzero coefficient, however small, must still be applied and rounded
            if hij != 0.0 {
                let mut scaled = vi.clone();
                scaled.scale(-hij);
                let sum = w.add(&scaled);
                w = timed_round(comm, opts.rounding, sum, delta_orth, &mut round_iter);
            }
        }

        // Line 10.
        let wnorm = norm_local(comm, &w);
        h[(j + 1, j)] = wnorm;

        // Line 11: small least-squares residual.
        r = ls_residual(&h, j + 1, beta);

        // Line 12.
        let max_rank = w.max_rank();
        if wnorm > 0.0 {
            w.scale(1.0 / wnorm);
        }
        basis.push(w);

        cycle.rounding_seconds += round_iter;
        cycle.iterations.push(IterationRecord {
            iter: j + 1,
            relative_residual: r / beta,
            max_rank,
            rounding_seconds: round_iter,
            total_seconds: t_iter.elapsed().as_secs_f64(),
        });

        // happy-breakdown test — only an exactly zero norm means the Krylov space is exhausted; a tolerance here would stop early
        if r / beta <= opts.tolerance || wnorm == 0.0 {
            cycle.converged = true;
            break;
        }
        // Stagnation guard: TT inner products have a cancellation floor of
        // roughly √ε·‖F‖; once the residual stalls there, further iterations
        // only grow the Krylov ranks.
        let done = &cycle.iterations;
        if opts.stagnation_window > 0 && done.len() > opts.stagnation_window {
            let now = done[done.len() - 1].relative_residual;
            let then = done[done.len() - 1 - opts.stagnation_window].relative_residual;
            if now > 0.999 * then {
                break;
            }
        }
    }
    cycle.relative_residual = r / beta;

    // Lines 14–15: assemble the solution from the minimizer.
    let y = ls_solve(&h, cycle.iterations.len(), beta);
    let mut w_sol: Option<TtTensor> = None;
    for (&yj, vj) in y.iter().zip(&basis) {
        // skip-exact-zero fast path — omitting an exactly zero term is lossless, any tolerance would change the solution
        if yj == 0.0 {
            continue;
        }
        let mut term = vj.clone();
        term.scale(yj);
        w_sol = Some(match w_sol {
            None => term,
            Some(acc) => acc.add(&term),
        });
    }
    let w_sol = w_sol.unwrap_or_else(|| zero_like(f));
    let w_sol = timed_round(
        comm,
        opts.rounding,
        w_sol,
        opts.tolerance,
        &mut cycle.rounding_seconds,
    );
    // Undo the right preconditioning.
    (precond.apply(&w_sol), cycle)
}

/// Restarted GMRES(m): repeated cycles of at most `m` iterations from the
/// explicit residual; `opts.max_iters` caps the total.
fn restarted(
    comm: &impl Communicator,
    op: &dyn TtOperator,
    precond: &dyn Preconditioner,
    f: &TtTensor,
    beta: f64,
    opts: &GmresOptions,
    m: usize,
) -> (TtTensor, Cycle) {
    assert!(m >= 1, "restart length must be positive");
    let mut inner_opts = opts.clone();
    let mut u: Option<TtTensor> = None;
    let mut r = f.clone();
    let mut r_norm = beta;
    let mut out = Cycle {
        iterations: Vec::new(),
        converged: false,
        relative_residual: 1.0,
        rounding_seconds: 0.0,
    };

    while out.iterations.len() < opts.max_iters {
        let rel = out.relative_residual;
        inner_opts.max_iters = m.min(opts.max_iters - out.iterations.len());
        // Inner tolerance relative to the *current* residual so the cycle
        // targets the remaining reduction.
        inner_opts.tolerance = (opts.tolerance / rel).min(0.5);
        let (du, cycle) = gmres_cycle(comm, op, precond, &r, r_norm, &inner_opts);
        out.rounding_seconds += cycle.rounding_seconds;
        // Record the cycle's iterations rescaled to the global residual.
        let offset = out.iterations.len();
        out.iterations
            .extend(cycle.iterations.iter().map(|it| IterationRecord {
                iter: offset + it.iter,
                relative_residual: it.relative_residual * rel,
                ..*it
            }));
        // u += du, rounded at the outer tolerance.
        let new_u = match u {
            None => du,
            Some(prev) => timed_round(
                comm,
                opts.rounding,
                prev.add(&du),
                opts.tolerance,
                &mut out.rounding_seconds,
            ),
        };
        // Explicit restart residual r = F − G u.
        let diff = f.sub(&op.apply(&new_u));
        let tol = (opts.tolerance * 0.1).max(1e-14);
        r = timed_round(comm, opts.rounding, diff, tol, &mut out.rounding_seconds);
        u = Some(new_u);
        r_norm = norm_local(comm, &r);
        out.relative_residual = r_norm / beta;
        if out.relative_residual <= opts.tolerance {
            out.converged = true;
            break;
        }
        if cycle.iterations.is_empty() {
            break; // safety: no progress possible
        }
    }
    (u.unwrap_or_else(|| zero_like(f)), out)
}

/// `0·x`: a zero train with `x`'s shape.
fn zero_like(x: &TtTensor) -> TtTensor {
    let mut z = x.clone();
    z.scale(0.0);
    z
}

/// Residual of `min_y ‖H(1:j+1, 1:j) y − β e₁‖`.
fn ls_residual(h: &Matrix, j: usize, beta: f64) -> f64 {
    let (qt_rhs, _) = ls_qr(h, j, beta);
    qt_rhs[(j, 0)].abs()
}

/// Minimizer `y` of the small least-squares problem.
fn ls_solve(h: &Matrix, j: usize, beta: f64) -> Vec<f64> {
    let (qt_rhs, r) = ls_qr(h, j, beta);
    let mut y = Matrix::from_fn(j, 1, |i, _| qt_rhs[(i, 0)]);
    solve_upper(&r.sub_matrix(0, 0, j, j), &mut y);
    y.col(0).to_vec()
}

/// QR of the leading `(j+1) × j` block of `H`, returning `(Qᵀ·βe₁, R)`.
fn ls_qr(h: &Matrix, j: usize, beta: f64) -> (Matrix, Matrix) {
    let hj = h.sub_matrix(0, 0, j + 1, j);
    let f = householder_qr(&hj);
    let mut rhs = Matrix::zeros(j + 1, 1);
    rhs[(0, 0)] = beta;
    f.apply_qt(&mut rhs);
    (rhs, f.r())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{KroneckerSumOperator, ModeFactor};
    use crate::precond::{IdentityPreconditioner, MeanPreconditioner};
    use rand::SeedableRng;
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

    /// A small SPD parametrized system:
    /// G = A ⊗ I + B ⊗ diag(ρ), both terms SPD-ish.
    fn small_system() -> (KroneckerSumOperator, TtTensor) {
        let n1 = 12;
        let n2 = 5;
        let mut op = KroneckerSumOperator::new();
        op.add_term(vec![
            ModeFactor::Sparse(tridiag(n1, 4.0)),
            ModeFactor::Identity,
        ]);
        op.add_term(vec![
            ModeFactor::Sparse(tridiag(n1, 2.5)),
            ModeFactor::Diagonal((0..n2).map(|i| 0.1 + 0.2 * i as f64).collect()),
        ]);
        // RHS: rank-one f ⊗ 1.
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut f = TtTensor::random(&[n1, n2], &[1], &mut rng);
        // make the second core all ones
        let ones = tt_linalg::Matrix::from_fn(n2, 1, |_, _| 1.0);
        f.set_core(1, tt_core::TtCore::from_v(ones, 1, n2, 1));
        (op, f)
    }

    fn check_solution(op: &KroneckerSumOperator, f: &TtTensor, u: &TtTensor, tol: f64) {
        let gu = crate::operator::TtOperator::apply(op, u);
        let res = f.to_dense().fro_dist(&gu.to_dense()) / f.norm();
        assert!(res <= tol * 10.0, "true residual {res} vs tol {tol}");
    }

    #[test]
    fn gmres_solves_small_system_all_roundings() {
        let (op, f) = small_system();
        for method in [
            RoundingMethod::Qr,
            RoundingMethod::GramRlr,
            RoundingMethod::GramLrl,
            RoundingMethod::GramSim,
        ] {
            let opts = GmresOptions {
                tolerance: 1e-6,
                max_iters: 60,
                rounding: method,
                true_residual: TrueResidualMode::Dense,
                stagnation_window: 5,
                restart: None,
            };
            let (u, trace) = tt_gmres(&op, &IdentityPreconditioner, &f, &opts);
            assert!(trace.converged, "{method:?} did not converge: {trace:?}");
            // Inexact Krylov: the true residual trails the computed one by a
            // modest factor (the paper's own §V-D2 tables show 3.6x-40x).
            assert!(
                trace.true_relative_residual <= 5e-5,
                "{method:?}: true residual {}",
                trace.true_relative_residual
            );
            check_solution(&op, &f, &u, 5e-5);
        }
    }

    #[test]
    fn mean_preconditioner_accelerates() {
        let (op, f) = small_system();
        // Mean operator: A + mean(ρ)·B.
        let mean_rho: f64 = (0..5).map(|i| 0.1 + 0.2 * i as f64).sum::<f64>() / 5.0;
        let mean = tridiag(12, 4.0).add_scaled(mean_rho, &tridiag(12, 2.5));
        let pre = MeanPreconditioner::new(&mean);
        let opts = GmresOptions {
            tolerance: 1e-6,
            max_iters: 60,
            rounding: RoundingMethod::GramLrl,
            true_residual: TrueResidualMode::Dense,
            stagnation_window: 5,
            restart: None,
        };
        let (_, plain) = tt_gmres(&op, &IdentityPreconditioner, &f, &opts);
        let (_, pred) = tt_gmres(&op, &pre, &f, &opts);
        assert!(pred.converged);
        assert!(
            pred.iterations.len() < plain.iterations.len(),
            "preconditioner should reduce iterations: {} vs {}",
            pred.iterations.len(),
            plain.iterations.len()
        );
        assert!(pred.true_relative_residual <= 1e-5);
    }

    #[test]
    fn exact_preconditioner_converges_in_one_iteration() {
        // Single-term operator G = A ⊗ I with M = A: GM⁻¹ = I.
        let n1 = 10;
        let a = tridiag(n1, 3.0);
        let mut op = KroneckerSumOperator::new();
        op.add_term(vec![ModeFactor::Sparse(a.clone()), ModeFactor::Identity]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let f = TtTensor::random(&[n1, 4], &[2], &mut rng);
        let pre = MeanPreconditioner::new(&a);
        let opts = GmresOptions {
            tolerance: 1e-8,
            max_iters: 10,
            rounding: RoundingMethod::GramLrl,
            true_residual: TrueResidualMode::Dense,
            stagnation_window: 5,
            restart: None,
        };
        let (_, trace) = tt_gmres(&op, &pre, &f, &opts);
        assert!(trace.converged);
        assert!(
            trace.iterations.len() <= 2,
            "{} iterations",
            trace.iterations.len()
        );
        assert!(trace.true_relative_residual <= 1e-7);
    }

    #[test]
    fn residual_history_is_monotone_nonincreasing() {
        let (op, f) = small_system();
        let opts = GmresOptions {
            tolerance: 1e-6,
            max_iters: 40,
            rounding: RoundingMethod::GramLrl,
            true_residual: TrueResidualMode::Off,
            stagnation_window: 5,
            restart: None,
        };
        let (_, trace) = tt_gmres(&op, &IdentityPreconditioner, &f, &opts);
        for w in trace.iterations.windows(2) {
            assert!(
                w[1].relative_residual <= w[0].relative_residual * (1.0 + 1e-8),
                "GMRES residual increased: {} -> {}",
                w[0].relative_residual,
                w[1].relative_residual
            );
        }
    }

    #[test]
    fn restarted_gmres_converges_with_bounded_basis() {
        let (op, f) = small_system();
        let opts = GmresOptions {
            tolerance: 1e-6,
            max_iters: 80,
            rounding: RoundingMethod::GramLrl,
            true_residual: TrueResidualMode::Dense,
            stagnation_window: 5,
            restart: Some(6),
        };
        let (_, trace) = tt_gmres(&op, &IdentityPreconditioner, &f, &opts);
        assert!(
            trace.converged,
            "restarted GMRES failed: {:?}",
            trace.computed_relative_residual
        );
        assert!(trace.true_relative_residual < 1e-4);
        // Restart cost: typically more total iterations than full GMRES.
        let full = GmresOptions {
            restart: None,
            ..opts
        };
        let (_, full_trace) = tt_gmres(&op, &IdentityPreconditioner, &f, &full);
        assert!(trace.iterations.len() >= full_trace.iterations.len());
    }

    #[test]
    fn trace_records_ranks_and_times() {
        let (op, f) = small_system();
        let opts = GmresOptions {
            tolerance: 1e-4,
            max_iters: 30,
            rounding: RoundingMethod::Qr,
            true_residual: TrueResidualMode::Tt,
            stagnation_window: 5,
            restart: None,
        };
        let (u, trace) = tt_gmres(&op, &IdentityPreconditioner, &f, &opts);
        assert!(!trace.iterations.is_empty());
        assert!(trace.iterations.iter().all(|r| r.max_rank >= 1));
        assert!(trace.rounding_seconds >= 0.0);
        assert!(trace.total_seconds >= trace.rounding_seconds);
        assert_eq!(trace.solution_max_rank, u.max_rank());
        assert!(trace.true_relative_residual.is_finite());
    }
}
