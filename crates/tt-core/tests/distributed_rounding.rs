//! Distributed rounding correctness: every variant, run on P thread-backed
//! ranks over the 1-D slice distribution, must represent the same tensor as
//! its sequential counterpart.

use rand::SeedableRng;
use tt_comm::{run_verified, run_verified_with_timeout, Communicator, ModelComm};
use tt_core::RoundingMethod::{self, GramLrl, GramRlr, GramSim, Qr};
use tt_core::{block_range, gather_tensor, round, scatter_tensor, RoundingOptions, TtTensor};

fn redundant(dims: &[usize], rank_half: usize, seed: u64) -> TtTensor {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    tt_core::synthetic::generate_redundant(dims, rank_half, &mut rng)
}

/// Runs one distributed rounding variant on `p` ranks and returns the
/// gathered result (identical on all ranks; rank 0's copy returned).
///
/// Every rank's communicator is wrapped in `VerifyComm`, so these agreement
/// tests additionally certify that all variants issue well-matched SPMD
/// collective streams.
fn run_dist(x: &TtTensor, p: usize, opts: &RoundingOptions, method: RoundingMethod) -> TtTensor {
    let dims = x.dims();
    let results = run_verified(p, |comm| {
        let local = scatter_tensor(x, &comm);
        let (rounded, _report) = round(&comm, local, method, opts);
        gather_tensor(&rounded, &dims, &comm)
    });
    // All ranks must agree exactly (they gathered the same blocks).
    for r in &results[1..] {
        assert_eq!(r.ranks(), results[0].ranks(), "ranks diverged across ranks");
    }
    results.into_iter().next().unwrap()
}

#[test]
fn distributed_matches_sequential_all_variants() {
    let dims = [8usize, 6, 9, 7];
    let x = redundant(&dims, 3, 42);
    let opts = RoundingOptions::with_tolerance(1e-9);
    let dense_x = x.to_dense();

    for variant in [GramRlr, GramLrl, GramSim, Qr] {
        // Sequential reference.
        let comm = tt_comm::SelfComm::new();
        let (seq, _) = round(&comm, x.clone(), variant, &opts);
        assert_eq!(
            seq.ranks(),
            vec![1, 3, 3, 3, 1],
            "{variant:?}: sequential ranks"
        );

        for p in [2usize, 3, 4] {
            let dist = run_dist(&x, p, &opts, variant);
            assert_eq!(dist.ranks(), seq.ranks(), "{variant:?} p={p}: ranks");
            // The represented tensors agree with the original to tolerance.
            let err = dist.to_dense().fro_dist(&dense_x);
            assert!(
                err <= 1e-8 * (1.0 + dense_x.fro_norm()),
                "{variant:?} p={p}: error {err}"
            );
            // And with the sequential rounding result.
            let gap = dist.to_dense().fro_dist(&seq.to_dense());
            assert!(
                gap <= 1e-8 * (1.0 + dense_x.fro_norm()),
                "{variant:?} p={p}: dist-vs-seq gap {gap}"
            );
        }
    }
}

/// A one-core train has no bond to truncate: every method hands each
/// rank's block back unchanged, and every rank reports the global norm.
#[test]
fn one_core_train_comes_back_unchanged() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let x = TtTensor::random(&[11], &[], &mut rng);
    let opts = RoundingOptions::with_tolerance(1e-9);
    for method in [GramRlr, GramLrl, GramSim, Qr, RoundingMethod::randomized()] {
        for p in [2usize, 3, 4] {
            let runs = run_verified(p, |comm| {
                let local = scatter_tensor(&x, &comm);
                let (rounded, report) = round(&comm, local.clone(), method, &opts);
                (local, rounded, report.norm)
            });
            for (r, (local, rounded, norm)) in runs.iter().enumerate() {
                assert_eq!(rounded, local, "{method:?} p={p} rank {r}: block changed");
                assert_eq!(
                    norm.to_bits(),
                    runs[0].2.to_bits(),
                    "{method:?} p={p} rank {r}"
                );
                assert!(
                    (norm - x.norm()).abs() <= 1e-12 * x.norm(),
                    "{method:?} p={p}: norm {norm} vs {}",
                    x.norm()
                );
            }
        }
    }
}

#[test]
fn distributed_rounding_with_uneven_blocks() {
    // Dimensions deliberately not divisible by P.
    let x = redundant(&[7, 5, 11], 2, 7);
    let opts = RoundingOptions::with_tolerance(1e-9);
    let dense_x = x.to_dense();
    for p in [3usize, 4, 6] {
        let dist = run_dist(&x, p, &opts, GramRlr);
        assert_eq!(dist.ranks(), vec![1, 2, 2, 1], "p={p}");
        let err = dist.to_dense().fro_dist(&dense_x);
        assert!(err <= 1e-8 * (1.0 + dense_x.fro_norm()), "p={p}: {err}");
    }
}

#[test]
fn distributed_rounding_tolerance_guarantee_holds() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let x = TtTensor::random(&[8, 7, 6, 8], &[6, 7, 5], &mut rng);
    let dense_x = x.to_dense();
    let xnorm = dense_x.fro_norm();
    for tol in [1e-1, 1e-3] {
        let opts = RoundingOptions::with_tolerance(tol);
        for variant in [GramRlr, GramLrl, GramSim, Qr] {
            let dist = run_dist(&x, 3, &opts, variant);
            let err = dist.to_dense().fro_dist(&dense_x);
            assert!(
                err <= tol * xnorm * 1.5,
                "{variant:?} tol={tol}: err {err} vs {}",
                tol * xnorm
            );
        }
    }
}

#[test]
fn rank_capped_distributed_rounding() {
    let x = redundant(&[9, 8, 7], 4, 13);
    let opts = RoundingOptions::with_tolerance(1e-14).max_rank(2);
    for variant in [GramRlr, GramLrl, GramSim, Qr] {
        let dist = run_dist(&x, 2, &opts, variant);
        assert!(dist.max_rank() <= 2, "{variant:?}");
    }
}

/// The acceptance scenario for the verification layer: a deliberately
/// mis-sequenced distributed rounding run — rank 0 slips one extra
/// collective in front of the sweep, the classic SPMD divergence bug —
/// must fail with the rank-annotated fingerprint diagnostic instead of
/// deadlocking or silently producing garbage.
#[test]
#[should_panic(expected = "SPMD collective stream mismatch")]
fn mis_sequenced_distributed_rounding_is_diagnosed() {
    let x = redundant(&[8, 6, 9, 7], 3, 42);
    let opts = RoundingOptions::with_tolerance(1e-9);
    run_verified_with_timeout(2, std::time::Duration::from_secs(10), |comm| {
        let local = scatter_tensor(&x, &comm);
        if comm.rank() == 0 {
            // Only rank 0 "helpfully" reduces a scalar first; from here on
            // the two ranks' collective streams are mis-sequenced: rank 0's
            // op #1 is a length-1 allreduce while rank 1's op #1 is the
            // sweep's first R×R Gram allreduce.
            let mut extra = vec![0.0];
            comm.allreduce_sum(&mut extra);
        }
        let (rounded, _report) = round(&comm, local, GramRlr, &opts);
        rounded.ranks()
    });
}

#[test]
fn model_comm_executes_one_ranks_work() {
    // The performance-model backend must run without panicking for every
    // variant and record communication consistent with the algorithm:
    // Gram variants use allreduces only; QR uses TSQR point-to-point trees.
    let p = 16;
    let spec = tt_core::synthetic::ModelSpec::table1(4).scaled(0.01);
    let local_dims: Vec<usize> = spec
        .dims
        .iter()
        .map(|&d| block_range(d, p, 0).len().max(1))
        .collect();
    let x = redundant(&local_dims, 5, 17);
    let opts = RoundingOptions::with_tolerance(1e-8).max_rank(5);

    let n = x.order();
    // RLR/LRL: one allreduce per Gram-sweep step (N-1 bonds + the end
    // core) plus one per on-the-fly Gram of the other side — 2N-1 total.
    // Sim: two full sweeps of N allreduces each — 2N total.
    for (method, allreduces) in [(GramRlr, 2 * n - 1), (GramLrl, 2 * n - 1), (GramSim, 2 * n)] {
        let comm = ModelComm::new(p);
        let (_, report) = round(&comm, x.clone(), method, &opts);
        let stats = comm.stats();
        assert_eq!(
            stats.count(tt_comm::CollectiveKind::Allreduce),
            allreduces,
            "{method:?} allreduce count"
        );
        assert_eq!(stats.count(tt_comm::CollectiveKind::PointToPoint), 0);
        assert!(report.ranks_after.iter().all(|&r| r <= 5), "{method:?}");
    }

    let comm = ModelComm::new(p);
    let _ = round(&comm, x, Qr, &opts);
    let stats = comm.stats();
    // QR: TSQR trees communicate point-to-point; 4 levels × 2 msgs × (2N-2)
    // factorizations.
    assert_eq!(
        stats.count(tt_comm::CollectiveKind::PointToPoint),
        4 * 2 * (2 * n - 2),
        "TSQR message count"
    );
}
