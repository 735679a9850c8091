//! Solve the parametrized cookies problem with TT-GMRES (§II-C / §V-D of
//! the paper): one solve covering *every* combination of parameter values
//! at once, with TT-Rounding keeping the Krylov ranks small.
//!
//! Run with: `cargo run --release --example cookies_gmres`

#![allow(
    clippy::print_stdout,
    reason = "user-facing output is this target's job"
)]
use tt_gram_round::cookies::CookiesProblem;
use tt_gram_round::solvers::gmres::TrueResidualMode;
use tt_gram_round::solvers::{tt_gmres, GmresOptions, RoundingMethod};

fn main() {
    // 4 disks, 14×14 spatial grid, 6 parameter samples per disk:
    // the full solution tensor has 196 · 6⁴ ≈ 254K entries across 1296
    // parameter combinations — solved in one TT-GMRES run.
    let problem = CookiesProblem::new(14, 6);
    println!(
        "cookies problem: grid {}x{} (I1 = {}), p = {} disks, {} samples each",
        problem.grid,
        problem.grid,
        problem.spatial_dim(),
        problem.num_params(),
        problem.samples[0].len()
    );
    println!(
        "tensor space: {:?} = {:.2e} unknowns ({} parameter combinations)",
        problem.dims(),
        problem.dims().iter().map(|&d| d as f64).product::<f64>(),
        problem.samples.iter().map(|s| s.len()).product::<usize>()
    );

    let op = problem.operator();
    let f = problem.rhs();
    let pre = problem.mean_preconditioner();
    println!("operator rank: {} (Kronecker terms)", op.operator_rank());

    for method in [RoundingMethod::Qr, RoundingMethod::GramLrl] {
        let opts = GmresOptions {
            tolerance: 1e-6,
            max_iters: 50,
            rounding: method,
            true_residual: TrueResidualMode::Tt,
            stagnation_window: 5,
            restart: None,
        };
        let (u, trace) = tt_gmres(&op, &pre, &f, &opts);
        println!();
        println!("rounding = {}:", method.name());
        println!(
            "  converged in {} iterations; computed residual {:.2e}, true residual {:.2e}",
            trace.iterations.len(),
            trace.computed_relative_residual,
            trace.true_relative_residual
        );
        println!(
            "  solution TT ranks {:?} ({} parameters vs {:.1e} dense entries)",
            u.ranks(),
            u.storage_len(),
            u.dense_len()
        );
        println!(
            "  time: {:.2}s total, {:.2}s in TT-Rounding ({:.0}%)",
            trace.total_seconds,
            trace.rounding_seconds,
            100.0 * trace.rounding_seconds / trace.total_seconds
        );

        // Read one concrete solution out of the compressed tensor: the
        // solution at the parameter combination (rho_1, ..., rho_4) given by
        // sample indices (0, 3, 5, 7), evaluated at the domain center.
        let center = problem.spatial_dim() / 2 + problem.grid / 2;
        let val = u.eval(&[center, 0, 2, 4, 5]);
        println!("  u(center; rho = samples [0,2,4,5]) = {val:.6}");
    }
}
