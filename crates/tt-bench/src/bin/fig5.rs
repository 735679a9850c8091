//! Figure 5: TT-GMRES on the cookies problem, three spatial refinements.
//!
//! * Fig. 5a — wall time of preconditioned TT-GMRES (tolerance 1e-5, mean
//!   preconditioner, p = 4 cookies) for QR, Gram-Sim and Gram-Seq(LRL)
//!   rounding; dark = TT-Rounding time, light = everything else. The paper
//!   sees rounding at ~half the runtime for QR and ≥ 2× rounding speedup
//!   from Gram-Seq, for an overall faster solve.
//! * Fig. 5b — relative residual and max Krylov TT rank per iteration; the
//!   curves must be nearly identical across rounding methods.
//!
//! The paper's discretizations are P1 FEM (2855/11141/24981 DoFs); ours are
//! FDM grids of matching size (53²/105²/158², see DESIGN.md). Level 2 takes
//! a few minutes on one core; restrict with `--max-level`.
//!
//! Usage: `cargo run --release -p tt-bench --bin fig5
//!           [-- --max-level 2 --samples 20 --tol 1e-5]`

#![allow(
    clippy::print_stdout,
    reason = "user-facing output is this target's job"
)]
use tt_bench::Args;
use tt_cookies::CookiesProblem;
use tt_solvers::gmres::TrueResidualMode;
use tt_solvers::{tt_gmres, GmresOptions, RoundingMethod};

fn main() {
    let args = Args::parse();
    let max_level: usize = args.get("max-level").unwrap_or(2);
    let samples: usize = args.get("samples").unwrap_or(20);
    let tol: f64 = args.get("tol").unwrap_or(1e-5);

    println!("FIGURE 5: TT-GMRES on the cookies problem (p = 4, tol {tol}, {samples} samples/disk, mean preconditioner)");
    println!();

    let methods = [
        RoundingMethod::Qr,
        RoundingMethod::GramSim,
        RoundingMethod::GramLrl,
    ];

    println!("(a) timings  [dark = TT-Rounding, light = other]");
    println!(
        "{:>6} {:>8} | {:<10} {:>10} {:>10} {:>10} {:>6} {:>9}",
        "I_1", "grid", "rounding", "round(s)", "other(s)", "total(s)", "iters", "resid"
    );

    // (iteration, residual, max TT rank) per recorded GMRES step.
    type ConvergenceCurve = Vec<(usize, f64, usize)>;
    let mut convergence: Vec<(usize, RoundingMethod, ConvergenceCurve)> = Vec::new();

    for level in 0..=max_level.min(2) {
        let problem = CookiesProblem::paper_discretization(level, samples);
        let op = problem.operator();
        let f = problem.rhs();
        let pre = problem.mean_preconditioner();
        for method in methods {
            let opts = GmresOptions {
                tolerance: tol,
                max_iters: 60,
                rounding: method,
                true_residual: TrueResidualMode::Off,
                stagnation_window: 5,
                restart: None,
            };
            let (_, trace) = tt_gmres(&op, &pre, &f, &opts);
            println!(
                "{:>6} {:>5}^2 | {:<10} {:>10.2} {:>10.2} {:>10.2} {:>6} {:>9.2e}",
                problem.spatial_dim(),
                problem.grid,
                method.name(),
                trace.rounding_seconds,
                trace.total_seconds - trace.rounding_seconds,
                trace.total_seconds,
                trace.iterations.len(),
                trace.computed_relative_residual
            );
            convergence.push((
                problem.spatial_dim(),
                method,
                trace
                    .iterations
                    .iter()
                    .map(|r| (r.iter, r.relative_residual, r.max_rank))
                    .collect(),
            ));
        }
        println!();
    }

    println!("(b) convergence histories  [solid: relative residual, dashed: max TT rank]");
    for (dim, method, hist) in &convergence {
        print!("I1={dim:>6} {:<10} resid:", method.name());
        for (_, r, _) in hist {
            print!(" {r:.1e}");
        }
        println!();
        print!("I1={dim:>6} {:<10} ranks:", method.name());
        for (_, _, k) in hist {
            print!(" {k}");
        }
        println!();
    }
    println!();
    println!("# expected: residual/rank curves nearly identical across rounding methods;");
    println!("# Gram-Seq rounding at least ~2x faster than QR rounding (paper Fig. 5a).");
}
