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
    (Qr, 1e-5, 0xdcafc41023ca5f5c, 0x7982f3a606995bdf),
    (GramRlr, 1e-5, 0x7fbdee8ed0b02cd4, 0x561a37fe263a6548),
    (GramLrl, 1e-5, 0xce21381a7bc0730d, 0x90e66aa3cad03549),
    (GramSim, 1e-5, 0x142dbebb0d6abc9b, 0x911243898d6e261c),
    (Qr, 1e-8, 0x03da9a478528741d, 0xcae7f63bd1600b8e),
    (GramRlr, 1e-8, 0xdb11188400a38bc8, 0xbb1c50ae9ec2972c),
    (GramLrl, 1e-8, 0x745e6a625d7d8b1b, 0x2e0c435daa0893f9),
    (GramSim, 1e-8, 0xbac71f2640128000, 0xaef734e93317a18a),
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
