//! Pins TT-GMRES on the benchmark's cookies problem (grid 5, the first
//! three default disks, three samples each): the iteration count and the
//! largest Krylov rank of every deterministic rounding method at three
//! tolerances. The small `R × R` factorizations the roundings run decide
//! these ranks: the pivoted Cholesky of the Grams (completed to a square
//! factor on Gram-Sim's bonds), the EVD pair of a Gram-RLR/LRL bond whose
//! Cholesky certificate misses, and the TSVD of `M`. A change to them must
//! leave these unchanged.

use tt_gram_round::cookies::{default_disks, CookiesProblem};
use tt_gram_round::solvers::gmres::TrueResidualMode;
use tt_gram_round::solvers::{tt_gmres, GmresOptions, RoundingMethod};

/// `(method, tolerance, iterations, max Krylov rank)`.
const PINS: [(RoundingMethod, f64, usize, usize); 12] = [
    (RoundingMethod::Qr, 1e-5, 13, 9),
    (RoundingMethod::GramRlr, 1e-5, 13, 9),
    (RoundingMethod::GramLrl, 1e-5, 13, 9),
    (RoundingMethod::GramSim, 1e-5, 13, 9),
    (RoundingMethod::Qr, 1e-8, 18, 9),
    (RoundingMethod::GramRlr, 1e-8, 18, 20),
    (RoundingMethod::GramLrl, 1e-8, 18, 18),
    (RoundingMethod::GramSim, 1e-8, 19, 13),
    (RoundingMethod::Qr, 1e-10, 22, 9),
    (RoundingMethod::GramRlr, 1e-10, 23, 82),
    (RoundingMethod::GramLrl, 1e-10, 22, 27),
    (RoundingMethod::GramSim, 1e-10, 22, 16),
];

#[test]
fn cookies_iterations_and_ranks_are_pinned() {
    let problem = CookiesProblem::with_disks(5, default_disks().into_iter().take(3).collect(), 3);
    let op = problem.operator();
    let pre = problem.mean_preconditioner();
    let f = problem.rhs();
    let mut got = Vec::new();
    for &(method, tolerance, _, _) in &PINS {
        let opts = GmresOptions {
            tolerance,
            max_iters: 60,
            rounding: method,
            true_residual: TrueResidualMode::Off,
            stagnation_window: 5,
            restart: None,
        };
        let (_, trace) = tt_gmres(&op, &pre, &f, &opts);
        got.push((
            method,
            tolerance,
            trace.iterations.len(),
            trace.max_krylov_rank(),
        ));
    }
    let want: Vec<_> = PINS.to_vec();
    assert_eq!(
        got, want,
        "(method, tolerance, iterations, max Krylov rank)"
    );
}
