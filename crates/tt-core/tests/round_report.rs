//! The one `RoundReport` every rounding method returns: a table test over
//! all seven methods (four deterministic, three randomized) at p ∈ {1, 2}.

use rand::SeedableRng;
use tt_core::RandomizedVariant::{AdaptiveKr, OrthThenRand, RandThenOrth};
use tt_core::RoundingMethod::{self, GramLrl, GramRlr, GramSim, Qr};
use tt_core::{gather_tensor, round, scatter_tensor, RoundReport, RoundingOptions, TtTensor};

/// Every method, with whether it is sketch-only (never forms ‖X‖).
const METHODS: [(RoundingMethod, bool); 7] = [
    (Qr, false),
    (GramRlr, false),
    (GramLrl, false),
    (GramSim, false),
    (randomized(RandThenOrth), true),
    (randomized(OrthThenRand), false),
    (randomized(AdaptiveKr), false),
];

const fn randomized(variant: tt_core::RandomizedVariant) -> RoundingMethod {
    RoundingMethod::Randomized {
        variant,
        oversampling: 4,
        seed: 17,
    }
}

#[test]
fn every_method_fills_the_shared_report() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let x = tt_core::synthetic::generate_redundant(&[8, 6, 9, 7], 3, &mut rng);
    let dims = x.dims();
    let n = x.order();
    // ε for the deterministic and adaptive methods; the cap is the
    // fixed-rank randomized target (and the true rank, so it never binds
    // on the others).
    let opts = RoundingOptions::with_tolerance(1e-9).max_rank(3);
    for (method, sketch_only) in METHODS {
        for p in [1usize, 2] {
            let runs: Vec<(TtTensor, RoundReport)> = tt_comm::run_verified(p, |comm| {
                let local = scatter_tensor(&x, &comm);
                let (y, report) = round(&comm, local, method, &opts);
                (gather_tensor(&y, &dims, &comm), report)
            });
            for (rank, (y, report)) in runs.iter().enumerate() {
                let what = format!("{method:?} p={p} rank {rank}");
                assert_eq!(report.ranks_before, x.ranks(), "{what}: ranks_before");
                assert_eq!(report.ranks_after, y.ranks(), "{what}: ranks_after");
                let mut bonds: Vec<usize> = report.truncations.iter().map(|t| t.bond).collect();
                bonds.sort_unstable();
                assert_eq!(bonds, (1..n).collect::<Vec<_>>(), "{what}: bond records");
                if sketch_only {
                    assert!(report.norm.is_nan(), "{what}: norm {}", report.norm);
                } else {
                    let rel = (report.norm - x.norm()).abs() / x.norm();
                    assert!(rel <= 1e-12, "{what}: norm off by {rel:e}");
                }
            }
        }
    }
}
