//! Preconditioned TT-Richardson iteration.
//!
//! The simplest TT solver exploiting rounding: the fixed-point iteration
//!
//! ```text
//!   u_{k+1} = round( u_k + M⁻¹ (F − G u_k), δ )
//! ```
//!
//! converges whenever `‖I − M⁻¹G‖ < 1` (e.g. the mean preconditioner on the
//! cookies problem with moderate parameter contrast). It is the classical
//! baseline TT-GMRES is measured against in the low-rank-solver literature
//! [2, 26]: cheaper per iteration (no Krylov basis, one rounding per step)
//! but with a fixed linear rate, versus GMRES's superlinear convergence at
//! the cost of basis orthogonalization. Every iteration is dominated by one
//! operator application and one TT-Rounding — so the relative performance of
//! the rounding algorithms transfers directly.

use std::time::Instant;

use crate::gmres::timed_round;
use crate::operator::TtOperator;
use crate::precond::Preconditioner;
use tt_comm::SelfComm;
use tt_core::RoundingMethod;
use tt_core::TtTensor;

/// Options for the Richardson iteration.
#[derive(Debug, Clone)]
pub struct RichardsonOptions {
    /// Relative residual tolerance.
    pub tolerance: f64,
    /// Maximum iterations.
    pub max_iters: usize,
    /// Damping factor ω (1.0 for a plain preconditioned iteration).
    pub damping: f64,
    /// The TT-Rounding algorithm applied to the iterate each step.
    pub rounding: RoundingMethod,
    /// Rounding tolerance per step (relative); usually a fraction of
    /// `tolerance`.
    pub rounding_tolerance: f64,
}

impl Default for RichardsonOptions {
    fn default() -> Self {
        RichardsonOptions {
            tolerance: 1e-6,
            max_iters: 200,
            damping: 1.0,
            rounding: RoundingMethod::GramLrl,
            rounding_tolerance: 1e-8,
        }
    }
}

/// Convergence record of a Richardson solve.
#[derive(Debug, Clone)]
pub struct RichardsonTrace {
    /// Relative residual after each iteration.
    pub residuals: Vec<f64>,
    /// Maximum TT rank of the iterate after each iteration.
    pub ranks: Vec<usize>,
    /// Whether the tolerance was met.
    pub converged: bool,
    /// Total seconds.
    pub total_seconds: f64,
    /// Seconds inside TT-Rounding.
    pub rounding_seconds: f64,
}

/// Solves `G u = F` by damped preconditioned Richardson iteration with
/// TT-Rounding after every update.
pub fn tt_richardson(
    op: &dyn TtOperator,
    precond: &dyn Preconditioner,
    f: &TtTensor,
    opts: &RichardsonOptions,
) -> (TtTensor, RichardsonTrace) {
    let t0 = Instant::now();
    let fnorm = f.norm();
    assert!(fnorm > 0.0, "zero right-hand side");

    let comm = SelfComm::new();
    let mut rounding_seconds = 0.0;
    let mut round = |x: TtTensor| {
        timed_round(
            &comm,
            opts.rounding,
            x,
            opts.rounding_tolerance,
            &mut rounding_seconds,
        )
    };

    // u_0 = ω·M⁻¹F.
    let mut u = precond.apply(f);
    u.scale(opts.damping);
    u = round(u);

    let mut residuals = Vec::new();
    let mut ranks = Vec::new();
    let mut converged = false;

    for _ in 0..opts.max_iters {
        // r = F − G u  (formal), relative residual from TT norm.
        let gu = op.apply(&u);
        let r = round(f.sub(&gu));
        let rel = r.norm() / fnorm;
        residuals.push(rel);
        ranks.push(u.max_rank());
        if rel <= opts.tolerance {
            converged = true;
            break;
        }
        // u ← round(u + ω M⁻¹ r).
        let mut corr = precond.apply(&r);
        corr.scale(opts.damping);
        u = round(u.add(&corr));
    }

    let trace = RichardsonTrace {
        residuals,
        ranks,
        converged,
        total_seconds: t0.elapsed().as_secs_f64(),
        rounding_seconds,
    };
    (u, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{KroneckerSumOperator, ModeFactor};
    use crate::precond::MeanPreconditioner;
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

    /// A ⊗ I + B ⊗ diag(ρ) with small ρ: the mean preconditioner gives a
    /// contraction.
    fn contractive_system() -> (KroneckerSumOperator, TtTensor, MeanPreconditioner) {
        let n1 = 14;
        let n2 = 4;
        let rho: Vec<f64> = (0..n2).map(|i| 0.8 + 0.1 * i as f64).collect();
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
        let pre = MeanPreconditioner::new(&mean);
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let f = TtTensor::random(&[n1, n2], &[1], &mut rng);
        (op, f, pre)
    }

    #[test]
    fn richardson_converges_on_contractive_system() {
        let (op, f, pre) = contractive_system();
        let opts = RichardsonOptions {
            tolerance: 1e-8,
            max_iters: 300,
            ..Default::default()
        };
        let (u, trace) = tt_richardson(&op, &pre, &f, &opts);
        assert!(
            trace.converged,
            "residuals: {:?}",
            &trace.residuals[..8.min(trace.residuals.len())]
        );
        // True residual densely.
        let gu = crate::operator::TtOperator::apply(&op, &u);
        let res = f.to_dense().fro_dist(&gu.to_dense()) / f.norm();
        assert!(res < 1e-6, "true residual {res}");
    }

    #[test]
    fn residuals_decrease_monotonically_at_linear_rate() {
        let (op, f, pre) = contractive_system();
        let opts = RichardsonOptions {
            tolerance: 1e-10,
            max_iters: 60,
            ..Default::default()
        };
        let (_, trace) = tt_richardson(&op, &pre, &f, &opts);
        // Linear convergence: ratios roughly constant and < 1.
        let rs = &trace.residuals;
        for w in rs.windows(2).take(20) {
            assert!(w[1] < w[0] * 1.01, "non-decreasing: {} -> {}", w[0], w[1]);
        }
    }

    #[test]
    fn ranks_stay_bounded() {
        let (op, f, pre) = contractive_system();
        let opts = RichardsonOptions {
            tolerance: 1e-8,
            max_iters: 200,
            ..Default::default()
        };
        let (_, trace) = tt_richardson(&op, &pre, &f, &opts);
        // The solution manifold has modest ranks; rounding must keep the
        // iterates from inflating (the whole point of rounding in solvers).
        assert!(trace.ranks.iter().all(|&r| r <= 8), "{:?}", trace.ranks);
    }

    #[test]
    fn gmres_beats_richardson_in_iterations() {
        let (op, f, pre) = contractive_system();
        let r_opts = RichardsonOptions {
            tolerance: 1e-6,
            max_iters: 400,
            ..Default::default()
        };
        let (_, rich) = tt_richardson(&op, &pre, &f, &r_opts);
        let g_opts = crate::gmres::GmresOptions {
            tolerance: 1e-6,
            max_iters: 50,
            rounding: RoundingMethod::GramLrl,
            true_residual: crate::gmres::TrueResidualMode::Off,
            stagnation_window: 5,
            restart: None,
        };
        let (_, gm) = crate::gmres::tt_gmres(&op, &pre, &f, &g_opts);
        assert!(rich.converged && gm.converged);
        assert!(
            gm.iterations.len() <= rich.residuals.len(),
            "GMRES {} vs Richardson {}",
            gm.iterations.len(),
            rich.residuals.len()
        );
    }
}
