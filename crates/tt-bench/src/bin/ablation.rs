//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! 1. **Gram-sweep update** (§IV-B): non-symmetric (`gemm`+`gemm`, the
//!    paper's empirical choice) vs symmetric (`chol`+`trmm`+`syrk`, half
//!    the flops). The paper found gemm's higher machine efficiency wins;
//!    with our naive kernels the flop saving may or may not.
//! 2. **Randomized-rounding oversampling**: accuracy/time vs the
//!    oversampling parameter (the §VI future-work method's single knob).
//! 3. **Solver choice**: TT-GMRES vs TT-Richardson on the same cookies
//!    instance — iterations, time, and where rounding time goes.
//!
//! Usage: `cargo run --release -p tt-bench --bin ablation`

#![allow(clippy::print_stdout)] // user-facing output is this target's job
use std::time::Instant;

use rand::SeedableRng;
use tt_bench::fmt_secs;
use tt_cookies::CookiesProblem;
use tt_core::round::{gram_sweep_right, gram_sweep_right_symmetric};
use tt_core::synthetic::generate_redundant;
use tt_core::{round, RoundingOptions};
use tt_solvers::gmres::TrueResidualMode;
use tt_solvers::{tt_gmres, tt_richardson, GmresOptions, RichardsonOptions, RoundingMethod};

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(2022);

    // ---- 1. Symmetric vs non-symmetric Gram sweep. ----
    println!("(1) structured Gram sweep: nonsymmetric (gemm+gemm) vs symmetric (chol+trmm+syrk)");
    let mut dims = vec![20usize; 12];
    dims[0] = 4000;
    let x = generate_redundant(&dims, 10, &mut rng);
    let comm = tt_comm::SelfComm::new();
    let reps = 5;
    let t0 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(gram_sweep_right(&comm, &x));
    }
    let t_ns = t0.elapsed().as_secs_f64() / reps as f64;
    let t0 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(gram_sweep_right_symmetric(&comm, &x));
    }
    let t_sym = t0.elapsed().as_secs_f64() / reps as f64;
    println!("    nonsymmetric: {}", fmt_secs(t_ns));
    println!(
        "    symmetric:    {}  ({:.2}x the nonsymmetric time; paper kept the nonsymmetric variant)",
        fmt_secs(t_sym),
        t_sym / t_ns
    );

    // ---- 2. Randomized rounding: oversampling sweep. ----
    println!();
    println!("(2) randomized rounding: oversampling vs accuracy (target rank 10, true rank 10)");
    let xnorm = x.norm();
    println!("    {:>4} {:>12} {:>12}", "p", "time", "rel error");
    for p in [0usize, 2, 4, 8, 16] {
        let method = RoundingMethod::Randomized {
            oversampling: p,
            seed: 42,
        };
        let opts = RoundingOptions::default().max_rank(10);
        let t0 = Instant::now();
        let (y, _) = round(&comm, x.clone(), method, &opts);
        let dt = t0.elapsed().as_secs_f64();
        let err = y.sub(&x).norm() / xnorm;
        println!("    {:>4} {:>12} {:>12.2e}", p, fmt_secs(dt), err);
    }
    println!("    (exact-rank inputs recover to the sqrt(eps) inner-product floor even at p = 0;");
    println!("     oversampling matters for noisy spectra — see round::random tests)");

    // ---- 3. GMRES vs Richardson on the cookies problem. ----
    println!();
    println!("(3) TT-GMRES vs TT-Richardson, cookies 16x16 grid, 6 samples/disk, tol 1e-6");
    let problem = CookiesProblem::new(16, 6);
    let op = problem.operator();
    let f = problem.rhs();
    let pre = problem.mean_preconditioner();
    let g_opts = GmresOptions {
        tolerance: 1e-6,
        max_iters: 60,
        rounding: RoundingMethod::GramLrl,
        true_residual: TrueResidualMode::Off,
        stagnation_window: 5,
        restart: None,
    };
    let (_, gm) = tt_gmres(&op, &pre, &f, &g_opts);
    let r_opts = RichardsonOptions {
        tolerance: 1e-6,
        max_iters: 400,
        rounding: RoundingMethod::GramLrl,
        rounding_tolerance: 1e-8,
        damping: 1.0,
    };
    let (_, rich) = tt_richardson(&op, &pre, &f, &r_opts);
    println!(
        "    TT-GMRES:      {:>4} iters, {:>9}, rounding {:>9}, converged {}",
        gm.iterations.len(),
        fmt_secs(gm.total_seconds),
        fmt_secs(gm.rounding_seconds),
        gm.converged
    );
    println!(
        "    TT-Richardson: {:>4} iters, {:>9}, rounding {:>9}, converged {}",
        rich.residuals.len(),
        fmt_secs(rich.total_seconds),
        fmt_secs(rich.rounding_seconds),
        rich.converged
    );
}
