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
//! As each solve returns, its iterations are printed (the Fig. 5b data:
//! residual, max rank, rounding and total seconds), then its totals. The
//! assembly is the rounding of the solution from the Krylov basis, timed
//! as the solve's rounding time minus its iterations'. The final table
//! adds each method's rounding share of its solve and its rounding speedup
//! over QR (`vs QR`: QR's rounding seconds over its own). The
//! run exits 1 if a solve did not converge or its TT true residual exceeds
//! 10·tol.
//!
//! The paper's discretizations are P1 FEM (2855/11141/24981 DoFs); ours are
//! FDM grids of matching size (53²/105²/158², see DESIGN.md). Level 0 at
//! 20 samples per disk takes about 26 minutes on one core of a 2-vCPU
//! Xeon (EXPERIMENTS.md); restrict with `--max-level` and `--samples`.
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
use tt_solvers::{tt_gmres, GmresOptions, GmresTrace, RoundingMethod};

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

    println!("(b) convergence histories, one block per solve  [resid: relative residual, rank: max Krylov TT rank]");
    let mut solves: Vec<(usize, usize, RoundingMethod, GmresTrace)> = Vec::new();
    let mut failures = Vec::new();
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
                true_residual: TrueResidualMode::Tt,
                stagnation_window: 5,
                restart: None,
            };
            let (_, trace) = tt_gmres(&op, &pre, &f, &opts);
            let dim = problem.spatial_dim();
            println!("I_1 = {dim} ({}^2), {}:", problem.grid, method.name());
            println!(
                "{:>6} {:>9} {:>5} {:>9} {:>9}",
                "iter", "resid", "rank", "round(s)", "total(s)"
            );
            for it in &trace.iterations {
                println!(
                    "{:>6} {:>9.2e} {:>5} {:>9.3} {:>9.3}",
                    it.iter,
                    it.relative_residual,
                    it.max_rank,
                    it.rounding_seconds,
                    it.total_seconds
                );
            }
            println!(
                "{:>6} assembly rounding {:.3} s; solve {:.3} s; TT true residual {:.2e}",
                "",
                assembly_seconds(&trace),
                trace.total_seconds,
                trace.true_relative_residual
            );
            // NaN-safe: a NaN residual fails too.
            let within = trace.true_relative_residual <= 10.0 * tol;
            if !trace.converged || !within {
                failures.push(format!(
                    "I_1 = {dim}, {}: converged {}, TT true residual {:.2e} (bar {:.1e})",
                    method.name(),
                    trace.converged,
                    trace.true_relative_residual,
                    10.0 * tol
                ));
            }
            solves.push((dim, problem.grid, method, trace));
        }
    }
    println!();

    println!(
        "(a) timings  [dark = TT-Rounding, light = other; asm = the solution's assembly rounding]"
    );
    println!(
        "{:>6} {:>8} | {:<10} {:>9} {:>8} {:>9} {:>9} {:>6} {:>5} {:>5} {:>6} {:>9} {:>9}",
        "I_1",
        "grid",
        "rounding",
        "round(s)",
        "asm(s)",
        "other(s)",
        "total(s)",
        "share",
        "iters",
        "rank",
        "vs QR",
        "resid",
        "true"
    );
    for (dim, grid, method, trace) in &solves {
        let qr_rounding = solves
            .iter()
            .find(|s| s.0 == *dim && s.2 == RoundingMethod::Qr)
            .map_or(f64::NAN, |s| s.3.rounding_seconds);
        println!(
            "{:>6} {:>5}^2 | {:<10} {:>9.2} {:>8.2} {:>9.2} {:>9.2} {:>5.0}% {:>5} {:>5} {:>5.2}x {:>9.2e} {:>9.2e}",
            dim,
            grid,
            method.name(),
            trace.rounding_seconds,
            assembly_seconds(trace),
            trace.total_seconds - trace.rounding_seconds,
            trace.total_seconds,
            100.0 * trace.rounding_seconds / trace.total_seconds,
            trace.iterations.len(),
            trace.max_krylov_rank(),
            qr_rounding / trace.rounding_seconds,
            trace.computed_relative_residual,
            trace.true_relative_residual
        );
    }
    println!();
    println!("# expected: residual/rank curves nearly identical across rounding methods;");
    println!("# Gram-Seq rounding at least ~2x faster than QR rounding (paper Fig. 5a).");

    if !failures.is_empty() {
        for failure in &failures {
            println!("FAILED: {failure}");
        }
        std::process::exit(1);
    }
}

/// Rounding seconds outside the iterations: the solution's assembly.
fn assembly_seconds(trace: &GmresTrace) -> f64 {
    trace.rounding_seconds
        - trace
            .iterations
            .iter()
            .map(|it| it.rounding_seconds)
            .sum::<f64>()
}
