//! Cross-crate integration tests: the full pipelines the paper's evaluation
//! exercises, wired through the facade crate.

use rand::SeedableRng;
use tt_gram_round::cookies::CookiesProblem;
use tt_gram_round::solvers::gmres::TrueResidualMode;
use tt_gram_round::solvers::{tt_gmres, GmresOptions, RoundingMethod, TtOperator};
use tt_gram_round::tt::synthetic::generate_redundant;
use tt_gram_round::tt::{round, tt_svd, RoundingOptions, TtTensor};

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

/// Sequential rounding of a copy of `x` at tolerance `tol`.
fn round_seq(x: &TtTensor, method: RoundingMethod, tol: f64) -> TtTensor {
    let opts = RoundingOptions::with_tolerance(tol);
    round(
        &tt_gram_round::comm::SelfComm::new(),
        x.clone(),
        method,
        &opts,
    )
    .0
}

/// The headline use case: arithmetic inflates ranks, rounding deflates them,
/// the value is preserved — for every algorithm variant.
#[test]
fn arithmetic_growth_then_rounding_pipeline() {
    let mut r = rng(1);
    let base = TtTensor::random(&[12, 9, 11, 8], &[4, 5, 3], &mut r);
    // w = 2·x + x ∘ 1 (Hadamard with the all-ones rank-1 tensor is a no-op
    // value-wise but doubles nothing — build ones explicitly).
    let ones = {
        let cores = base
            .dims()
            .iter()
            .map(|&d| {
                tt_gram_round::tt::TtCore::from_v(
                    tt_gram_round::linalg::Matrix::from_fn(d, 1, |_, _| 1.0),
                    1,
                    d,
                    1,
                )
            })
            .collect();
        TtTensor::new(cores)
    };
    let had = base.hadamard(&ones); // same values, ranks unchanged (×1)
    let sum = base.add(&had); // = 2·base, ranks doubled
    assert_eq!(sum.max_rank(), 10);

    let mut expect = base.clone();
    expect.scale(2.0);
    let dense_expect = expect.to_dense();

    for (name, rounded) in [
        ("qr", round_seq(&sum, RoundingMethod::Qr, 1e-10)),
        ("rlr", round_seq(&sum, RoundingMethod::GramRlr, 1e-10)),
        ("lrl", round_seq(&sum, RoundingMethod::GramLrl, 1e-10)),
        ("sim", round_seq(&sum, RoundingMethod::GramSim, 1e-10)),
    ] {
        assert_eq!(rounded.ranks(), base.ranks(), "{name}: ranks");
        let err = rounded.to_dense().fro_dist(&dense_expect);
        assert!(
            err < 1e-8 * (1.0 + dense_expect.fro_norm()),
            "{name}: err {err}"
        );
    }
}

/// Rounding is quasi-optimal: it finds the same ranks TT-SVD (the optimal
/// compressor) finds on the same data at the same tolerance.
#[test]
fn rounding_matches_tt_svd_ranks() {
    let mut r = rng(2);
    let x = TtTensor::random(&[8, 7, 6, 7], &[3, 4, 2], &mut r);
    let dense = x.to_dense();
    for tol in [1e-2, 1e-6] {
        let compressed = tt_svd(&dense, tol, None);
        // Re-represent x redundantly, then round at the same tolerance.
        let redundant = x.add(&x);
        let rounded = round_seq(&redundant, RoundingMethod::GramLrl, tol);
        assert!(
            rounded.max_rank() <= compressed.max_rank().max(x.max_rank()),
            "tol {tol}: rounded {:?} vs tt-svd {:?}",
            rounded.ranks(),
            compressed.ranks()
        );
    }
}

/// The cookies pipeline end-to-end with QR and every Gram variant: same
/// convergence, same (small) ranks, correct solution.
#[test]
fn cookies_tt_gmres_end_to_end() {
    let problem = CookiesProblem::new(10, 3);
    let op = problem.operator();
    let f = problem.rhs();
    let pre = problem.mean_preconditioner();

    let mut results = Vec::new();
    for method in [
        RoundingMethod::Qr,
        RoundingMethod::GramLrl,
        RoundingMethod::GramRlr,
        RoundingMethod::GramSim,
    ] {
        let opts = GmresOptions {
            tolerance: 1e-6,
            max_iters: 50,
            rounding: method,
            true_residual: TrueResidualMode::Dense,
            stagnation_window: 5,
            restart: None,
        };
        let (u, trace) = tt_gmres(&op, &pre, &f, &opts);
        assert!(trace.converged, "{method:?}");
        assert!(trace.true_relative_residual < 1e-5, "{method:?}");
        results.push((method, u, trace));
    }
    // Every Gram variant matches QR: iteration counts within 1 and max
    // Krylov ranks within 2 (the Fig. 5b/6a–b observation at tolerances
    // above √ε), and the solutions agree.
    let (qr, grams) = (&results[0], &results[1..]);
    for (method, u, trace) in grams {
        assert!(
            qr.2.iterations.len().abs_diff(trace.iterations.len()) <= 1,
            "{method:?}: iteration counts diverged: {} vs {}",
            qr.2.iterations.len(),
            trace.iterations.len()
        );
        assert!(
            qr.2.max_krylov_rank().abs_diff(trace.max_krylov_rank()) <= 2,
            "{method:?}: ranks diverged: {} vs {}",
            qr.2.max_krylov_rank(),
            trace.max_krylov_rank()
        );
        let gap = qr.1.to_dense().fro_dist(&u.to_dense());
        assert!(
            gap < 1e-4 * (1.0 + qr.1.norm()),
            "{method:?}: solutions diverged: {gap}"
        );
    }
}

/// Solving the tensorized system must agree with solving one parameter
/// combination directly.
#[test]
fn tensor_solution_matches_single_parameter_solve() {
    let problem = CookiesProblem::new(10, 3);
    let op = problem.operator();
    let f = problem.rhs();
    let pre = problem.mean_preconditioner();
    let opts = GmresOptions {
        tolerance: 1e-8,
        max_iters: 60,
        rounding: RoundingMethod::GramLrl,
        true_residual: TrueResidualMode::Off,
        stagnation_window: 5,
        restart: None,
    };
    let (u, trace) = tt_gmres(&op, &pre, &f, &opts);
    assert!(trace.converged);

    // Pick parameter combination (sample indices 1, 0, 2, 1) and solve the
    // corresponding spatial system directly with the banded factorization.
    let idx = [1usize, 0, 2, 1];
    let rho: Vec<f64> = idx
        .iter()
        .enumerate()
        .map(|(i, &k)| problem.samples[i][k])
        .collect();
    let a = problem.assemble_for(&rho);
    let n = problem.spatial_dim();
    let mut direct = vec![1.0; n];
    tt_gram_round::sparse::BandedCholesky::factor(&a)
        .unwrap()
        .solve_in_place(&mut direct);

    for probe in [0usize, n / 3, n / 2, n - 1] {
        let tt_val = u.eval(&[probe, idx[0], idx[1], idx[2], idx[3]]);
        assert!(
            (tt_val - direct[probe]).abs() < 1e-6 * (1.0 + direct[probe].abs()),
            "entry {probe}: TT {tt_val} vs direct {}",
            direct[probe]
        );
    }
}

/// Operator application grows ranks exactly by the operator rank, and the
/// rounded result satisfies the tolerance — the inner loop of TT-GMRES.
#[test]
fn operator_apply_then_round() {
    let problem = CookiesProblem::new(9, 3);
    let op = problem.operator();
    let f = problem.rhs();
    let gf = op.apply(&f);
    assert_eq!(gf.max_rank(), op.rank_growth()); // rank-1 rhs × operator rank
    let rounded = round_seq(&gf, RoundingMethod::GramLrl, 1e-8);
    assert!(rounded.max_rank() <= gf.max_rank());
    let err = rounded.to_dense().fro_dist(&gf.to_dense());
    assert!(err <= 1e-6 * (1.0 + gf.norm()));
}

/// Synthetic Table-I models round 20 → 10 under every variant (the Table I
/// contract used by all scaling figures).
#[test]
fn table1_contract_on_scaled_models() {
    let mut r = rng(3);
    for id in 1..=4 {
        let spec = tt_gram_round::tt::synthetic::ModelSpec::table1(id).scaled(0.004);
        let x = generate_redundant(&spec.dims, spec.target_rank, &mut r);
        assert_eq!(x.max_rank(), spec.rank);
        for (name, y) in [
            ("qr", round_seq(&x, RoundingMethod::Qr, 1e-8)),
            ("lrl", round_seq(&x, RoundingMethod::GramLrl, 1e-8)),
        ] {
            assert_eq!(y.max_rank(), spec.target_rank, "model {id} {name}");
        }
    }
}
