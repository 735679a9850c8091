//! Sequential ≡ distributed agreement for the randomized rounding family.
//!
//! Every `_dist` variant runs under [`tt_comm::run_verified`], so each test
//! additionally certifies (via `VerifyComm` fingerprinting) that all ranks
//! issue identical collective streams — the adaptive variant's data-dependent
//! sketch growth makes that a real claim, not a formality: one rank taking a
//! different grow/commit decision would diverge the stream and fail loudly.
//!
//! Bitwise scope: at `p = 1` the distributed run must equal the sequential
//! run *bit for bit* (same arithmetic, allreduce over one rank is the
//! identity). For `p > 1` an allreduce associates partial sums differently
//! than one local sum, so seq-vs-dist holds to floating tolerance — but all
//! ranks of one run must agree bitwise, every rank must take identical rank
//! decisions, and repeated runs must be bitwise reproducible.

use rand::SeedableRng;
use tt_core::{
    gather_tensor, round, scatter_tensor, RandomizedVariant, RoundingMethod, RoundingOptions,
    TtTensor,
};

const ALL_VARIANTS: [RandomizedVariant; 3] = [
    RandomizedVariant::RandThenOrth,
    RandomizedVariant::OrthThenRand,
    RandomizedVariant::AdaptiveKr,
];

fn redundant(dims: &[usize], rank_half: usize, seed: u64) -> TtTensor {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    tt_core::synthetic::generate_redundant(dims, rank_half, &mut rng)
}

/// The method and options of one randomized run: the adaptive variant at
/// ε = 1e-7, the fixed-rank ones at a uniform rank cap with oversampling 4.
fn opts_for(
    variant: RandomizedVariant,
    rank: usize,
    seed: u64,
) -> (RoundingMethod, RoundingOptions) {
    let (oversampling, opts) = match variant {
        RandomizedVariant::AdaptiveKr => (8, RoundingOptions::with_tolerance(1e-7)),
        _ => (4, RoundingOptions::default().max_rank(rank)),
    };
    let method = RoundingMethod::Randomized {
        variant,
        oversampling,
        seed,
    };
    (method, opts)
}

/// Sequential rounding of a copy of `x`.
fn round_seq(x: &TtTensor, (method, opts): &(RoundingMethod, RoundingOptions)) -> TtTensor {
    round(&tt_comm::SelfComm::new(), x.clone(), *method, opts).0
}

fn assert_tensors_bitwise_eq(a: &TtTensor, b: &TtTensor, what: &str) {
    assert_eq!(a.ranks(), b.ranks(), "{what}: ranks");
    for k in 0..a.order() {
        for (idx, (x, y)) in a
            .core(k)
            .v()
            .as_slice()
            .iter()
            .zip(b.core(k).v().as_slice())
            .enumerate()
        {
            assert!(
                x.to_bits() == y.to_bits(),
                "{what}: core {k} entry {idx} differs: {x:?} vs {y:?}"
            );
        }
    }
}

/// Runs one distributed variant on `p` verified ranks; returns every rank's
/// gathered copy.
fn run_dist(x: &TtTensor, p: usize, run: &(RoundingMethod, RoundingOptions)) -> Vec<TtTensor> {
    let dims = x.dims();
    tt_comm::run_verified(p, |comm| {
        let local = scatter_tensor(x, &comm);
        let (rounded, _) = round(&comm, local, run.0, &run.1);
        gather_tensor(&rounded, &dims, &comm)
    })
}

#[test]
fn single_rank_distributed_is_bitwise_sequential() {
    let dims = [8usize, 6, 9, 7];
    let x = redundant(&dims, 3, 21);
    for variant in ALL_VARIANTS {
        let opts = opts_for(variant, 3, 99);
        let seq = round_seq(&x, &opts);
        let gathered = run_dist(&x, 1, &opts);
        assert_tensors_bitwise_eq(&seq, &gathered[0], &format!("{variant:?} p=1"));
    }
}

#[test]
fn multi_rank_agreement_all_variants() {
    let dims = [8usize, 6, 9, 7];
    let x = redundant(&dims, 3, 21);
    let dense = x.to_dense();
    let norm = dense.fro_norm();
    for variant in ALL_VARIANTS {
        let opts = opts_for(variant, 3, 99);
        let seq = round_seq(&x, &opts);
        for p in [2usize, 4] {
            let gathered = run_dist(&x, p, &opts);
            // All ranks gathered the same blocks: bitwise identical copies,
            // and (crucially for the adaptive variant) identical *rank
            // decisions* on every rank.
            for (r, g) in gathered.iter().enumerate().skip(1) {
                assert_tensors_bitwise_eq(&gathered[0], g, &format!("{variant:?} p={p} rank {r}"));
            }
            assert_eq!(gathered[0].ranks(), seq.ranks(), "{variant:?} p={p}");
            // Sequential vs distributed: same algorithm, reassociated sums.
            let gap = gathered[0].to_dense().fro_dist(&seq.to_dense());
            assert!(
                gap <= 1e-8 * (1.0 + norm),
                "{variant:?} p={p}: seq-vs-dist gap {gap}"
            );
            // And a repeated run is bitwise reproducible.
            let again = run_dist(&x, p, &opts);
            assert_tensors_bitwise_eq(&gathered[0], &again[0], &format!("{variant:?} p={p} rerun"));
        }
    }
}

#[test]
fn adaptive_reports_agree_on_every_rank() {
    // The certificate and posterior are computed from replicated reductions:
    // every rank must report exactly the same numbers and bond records.
    let dims = [9usize, 7, 8];
    let x = redundant(&dims, 3, 5);
    let method = RoundingMethod::Randomized {
        variant: RandomizedVariant::AdaptiveKr,
        oversampling: 8,
        seed: 7,
    };
    let opts = RoundingOptions::with_tolerance(1e-6);
    for p in [2usize, 3] {
        let reports = tt_comm::run_verified(p, |comm| {
            let local = scatter_tensor(&x, &comm);
            let (_, report) = round(&comm, local, method, &opts);
            (
                report.ranks_after.clone(),
                report.certified_error,
                report.posterior_error,
                report
                    .truncations
                    .iter()
                    .map(|b| (b.bond, b.sketch_cols, b.rank_after))
                    .collect::<Vec<_>>(),
            )
        });
        for r in &reports[1..] {
            assert_eq!(r.0, reports[0].0, "p={p}: ranks");
            assert_eq!(
                r.1.map(f64::to_bits),
                reports[0].1.map(f64::to_bits),
                "p={p}: certified error"
            );
            assert_eq!(
                r.2.map(f64::to_bits),
                reports[0].2.map(f64::to_bits),
                "p={p}: posterior error"
            );
            assert_eq!(r.3, reports[0].3, "p={p}: bond records");
        }
    }
}

#[test]
fn sketch_seed_determinism_and_independence() {
    let dims = [8usize, 7, 6];
    let x = redundant(&dims, 3, 33);
    let expect = x.to_dense();
    let norm = expect.fro_norm();
    for variant in ALL_VARIANTS {
        // Same seed ⇒ bitwise identical output (p = 1 and p = 2 each
        // reproduce themselves).
        let a = run_dist(&x, 2, &opts_for(variant, 3, 99));
        let b = run_dist(&x, 2, &opts_for(variant, 3, 99));
        assert_tensors_bitwise_eq(&a[0], &b[0], &format!("{variant:?} same seed"));

        // Different seeds ⇒ (generically) different sketches, but both
        // results stay within the variant's error bound — randomness moves
        // the sketch, not the guarantee.
        let c = run_dist(&x, 2, &opts_for(variant, 3, 1234));
        for (name, out) in [("seed 99", &a[0]), ("seed 1234", &c[0])] {
            let err = out.to_dense().fro_dist(&expect);
            assert!(err <= 1e-7 * (1.0 + norm), "{variant:?} {name}: err {err}");
        }
    }
}
