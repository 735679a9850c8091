//! Bit pin for TT-GMRES on the benchmark's cookies problem (grid 5, the
//! first three default disks, three samples each — the problem of
//! `cookies_pins.rs`).
//!
//! For QR and Gram-RLR/LRL/Sim at ε ∈ {1e-5, 1e-8} the test hashes the
//! returned solution (ranks and every core entry) and the per-iteration
//! `relative_residual` history (FNV-1a over `f64::to_bits`), and compares
//! against committed constants. It then runs the distributed solver
//! `tt_dist_gmres` under `SelfComm` with the distributed operator and
//! preconditioner and requires the same bits: the sequential solver is the
//! one-rank case of the distributed one.
//!
//! Scalar builds only: under `simd` + `fma` the microkernels fuse each
//! multiply-add, which changes the bits by design (DESIGN.md §11).
#![cfg(not(feature = "simd"))]

use tt_gram_round::comm::SelfComm;
use tt_gram_round::cookies::{default_disks, CookiesProblem};
use tt_gram_round::solvers::gmres::TrueResidualMode;
use tt_gram_round::solvers::{
    tt_dist_gmres, tt_gmres, DistKroneckerOperator, DistMeanPreconditioner, GmresOptions,
    GmresTrace, RoundingMethod,
};
use tt_gram_round::tt::TtTensor;
use RoundingMethod::{GramLrl, GramRlr, GramSim, Qr};

/// `(method, tolerance, solution hash, residual-history hash)`.
const PINS: [(RoundingMethod, f64, u64, u64); 8] = [
    (Qr, 1e-5, 0xea4dc5cb00ff3983, 0xb189cea508a0ed45),
    (GramRlr, 1e-5, 0xc6a83eee113fb541, 0x6054d3c9933dc0c7),
    (GramLrl, 1e-5, 0x37e9dd7ff9c4c2af, 0x79896800dcef4b8f),
    (GramSim, 1e-5, 0xb6349a63e8962dd0, 0x779c25d41fb13f09),
    (Qr, 1e-8, 0xb2b95df7f99fde88, 0xe720b379d49a7347),
    (GramRlr, 1e-8, 0x06fc9cf99098a191, 0x98acafc37bbbb1bf),
    (GramLrl, 1e-8, 0x95a882ea1c54ff90, 0xd4775d76765decb8),
    (GramSim, 1e-8, 0xeef28e16a1685d45, 0xf4797dbb3de0d488),
];

/// FNV-1a over a stream of 64-bit words, little-endian.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for word in words {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Hash of the rank chain and every core entry's bit pattern.
fn solution_hash(u: &TtTensor) -> u64 {
    let ranks = u.ranks().into_iter().map(|r| r as u64);
    let entries = u
        .cores()
        .iter()
        .flat_map(|c| c.v().as_slice().iter().map(|v| v.to_bits()));
    fnv1a(ranks.chain(entries))
}

/// Hash of the iteration count and every iteration's residual bits.
fn residual_hash(trace: &GmresTrace) -> u64 {
    let residuals = trace.iterations.iter().map(|it| it.relative_residual);
    fnv1a(std::iter::once(trace.iterations.len() as u64).chain(residuals.map(f64::to_bits)))
}

#[test]
fn gmres_bits_are_pinned_and_shared_with_the_distributed_solver() {
    let problem = CookiesProblem::with_disks(5, default_disks().into_iter().take(3).collect(), 3);
    let op = problem.operator();
    let pre = problem.mean_preconditioner();
    let f = problem.rhs();
    let comm = SelfComm::new();
    let dop = DistKroneckerOperator::new(&comm, &op, &problem.dims());
    let dpre = DistMeanPreconditioner::new(&comm, &problem.mean_matrix());
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
        let (u, trace) = tt_gmres(&op, &pre, &f, &opts);
        let pin = (method, tolerance, solution_hash(&u), residual_hash(&trace));
        let (u_dist, trace_dist) = tt_dist_gmres(&comm, &dop, &dpre, &f, &opts);
        assert_eq!(
            (solution_hash(&u_dist), residual_hash(&trace_dist)),
            (pin.2, pin.3),
            "{method:?} at {tolerance:e}: tt_dist_gmres under SelfComm differs from tt_gmres"
        );
        got.push(pin);
    }
    let want: Vec<_> = PINS.to_vec();
    assert_eq!(
        got, want,
        "(method, tolerance, solution hash, residual hash)"
    );
}
