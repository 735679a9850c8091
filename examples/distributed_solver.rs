//! The paper's §VI outlook, realized end-to-end: a *distributed* TT-GMRES
//! solve of the cookies problem, run here on real threads — every operation
//! (operator application, preconditioning, rounding, inner products) in its
//! 1-D-distributed form.
//!
//! Run with: `cargo run --release --example distributed_solver`

#![allow(clippy::print_stdout)] // user-facing output is this target's job
use tt_gram_round::comm::ThreadComm;
use tt_gram_round::cookies::CookiesProblem;
use tt_gram_round::solvers::gmres::TrueResidualMode;
use tt_gram_round::solvers::{
    tt_dist_gmres, tt_gmres, DistKroneckerOperator, DistMeanPreconditioner, GmresOptions,
    RoundingMethod,
};
use tt_gram_round::tt::{gather_tensor, scatter_tensor};

fn main() {
    let problem = CookiesProblem::new(10, 3);
    let dims = problem.dims();
    let op = problem.operator();
    let f = problem.rhs();
    let mean = problem.mean_matrix();
    let opts = GmresOptions {
        tolerance: 1e-5,
        max_iters: 40,
        rounding: RoundingMethod::GramLrl,
        true_residual: TrueResidualMode::Off,
        stagnation_window: 5,
        restart: None,
    };

    println!(
        "cookies problem: dims {:?} ({} parameter combinations)",
        dims,
        problem.samples.iter().map(|s| s.len()).product::<usize>()
    );

    // Sequential reference.
    let t0 = std::time::Instant::now();
    let (u_seq, tr_seq) = tt_gmres(&op, &problem.mean_preconditioner(), &f, &opts);
    println!(
        "sequential:    {} iterations, residual {:.2e}, {:.2}s",
        tr_seq.iterations.len(),
        tr_seq.computed_relative_residual,
        t0.elapsed().as_secs_f64()
    );

    // Distributed solves on P threads (1-core machines time-share; the
    // point here is bitwise-equivalent results through real collectives).
    for p in [2usize, 4] {
        let (op2, f2, mean2, dims2, opts2) = (
            op.clone(),
            f.clone(),
            mean.clone(),
            dims.clone(),
            opts.clone(),
        );
        let results = ThreadComm::run(p, |comm| {
            let dop = DistKroneckerOperator::new(&comm, &op2, &dims2);
            let pre = DistMeanPreconditioner::new(&comm, &mean2);
            let local_f = scatter_tensor(&f2, &comm);
            let (u, tr) = tt_dist_gmres(&comm, &dop, &pre, &local_f, &opts2);
            (
                gather_tensor(&u, &dims2, &comm),
                tr.iterations.len(),
                tr.computed_relative_residual,
            )
        });
        let (u_dist, iters, resid) = &results[0];
        let gap = u_dist.sub(&u_seq).norm() / (1.0 + u_seq.norm());
        println!(
            "P = {p} threads: {iters} iterations, residual {resid:.2e}, gap to sequential {gap:.1e}"
        );
    }
    println!();
    println!("every rank executes the same Krylov iteration; the only communication is");
    println!("the rounding/inner-product allreduces plus the mode-1 core exchange for");
    println!("the stiffness factor and preconditioner (see tt_solvers::dist_gmres).");
}
