//! Figure 6 (+ §V-D2 true-residual table): accuracy of TT-GMRES with QR-
//! versus Gram-based rounding across convergence tolerances 1e-2, 1e-6,
//! 1e-10.
//!
//! Configuration per the paper: cookies problem with I₁ = 1781 (ours: the
//! matching 42² = 1764 FDM grid) and I₂..₅ = 10 parameter samples, mean
//! preconditioner.
//!
//! Expected reproduction targets:
//! * computed residual histories nearly identical between QR and Gram-LRL
//!   for every ε (Figs. 6a–c, solid lines);
//! * for ε = 1e-10 (below √ε_machine), Gram rounding *overestimates the TT
//!   ranks* in the early iterations (Fig. 6c, dashed lines deviate);
//! * true residuals match the paper's table: ~1.1e-2, ~3.6e-6 for both, and
//!   ~4e-9 (QR) vs ~1.2e-9 (Gram) at 1e-10.
//!
//! Usage: `cargo run --release -p tt-bench --bin fig6 [-- --samples 10]`

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
    let samples: usize = args.get("samples").unwrap_or(10);
    let max_iters: usize = args.get("max-iters").unwrap_or(40);
    let problem = CookiesProblem::with_disks(42, tt_cookies::default_disks(), samples);
    let op = problem.operator();
    let f = problem.rhs();
    let pre = problem.mean_preconditioner();

    println!(
        "FIGURE 6: accuracy of TT-GMRES, QR vs Gram rounding; I1 = {} (paper: 1781), I_k = {samples}",
        problem.spatial_dim()
    );
    println!();

    let tols = [1e-2, 1e-6, 1e-10];
    let mut true_table: Vec<(f64, &'static str, f64)> = Vec::new();

    for (panel, &tol) in tols.iter().enumerate() {
        println!(
            "--- panel ({}) epsilon = {tol:.0e} ---",
            char::from(b"abc"[panel])
        );
        for method in [RoundingMethod::Qr, RoundingMethod::GramLrl] {
            // Dense true residual is exact but only feasible while ranks are
            // moderate; fall back to TT arithmetic at the tightest tolerance.
            let true_mode = if tol >= 1e-6 {
                TrueResidualMode::Dense
            } else {
                TrueResidualMode::Tt
            };
            let opts = GmresOptions {
                tolerance: tol,
                max_iters,
                rounding: method,
                true_residual: true_mode,
                stagnation_window: 5,
                restart: None,
            };
            let (_, trace) = tt_gmres(&op, &pre, &f, &opts);
            print!("{:<10} resid:", method.name());
            for r in &trace.iterations {
                print!(" {:.1e}", r.relative_residual);
            }
            println!();
            print!("{:<10} ranks:", method.name());
            for r in &trace.iterations {
                print!(" {}", r.max_rank);
            }
            println!("   (max {})", trace.max_krylov_rank());
            true_table.push((tol, method.name(), trace.true_relative_residual));
        }
        println!();
    }

    println!("true residual norms (paper §V-D2: 1.1e-2 / 1.1e-2, 3.6e-6 / 3.6e-6, 4.0e-9 QR vs 1.2e-9 Gram):");
    println!("{:>10} {:<10} {:>12}", "epsilon", "rounding", "true resid");
    for (tol, name, tr) in &true_table {
        println!("{:>10.0e} {:<10} {:>12.2e}", tol, name, tr);
    }
    println!();
    println!("# note: at eps = 1e-10 the true residual is computed with TT arithmetic,");
    println!("# whose cancellation floor is ~sqrt(eps_machine)*||F||; the computed");
    println!("# residual histories above are the primary reproduction target there.");
}
