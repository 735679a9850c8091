//! Sequential ≡ distributed agreement for randomized rounding.
//!
//! Every run goes through [`tt_comm::run_verified`], so each test
//! additionally certifies (via `VerifyComm` fingerprinting) that all ranks
//! issue identical collective streams.
//!
//! Bitwise scope: at `p = 1` the distributed run must equal the sequential
//! run *bit for bit* (same arithmetic, allreduce over one rank is the
//! identity). For `p > 1` an allreduce associates partial sums differently
//! than one local sum, so seq-vs-dist holds to floating tolerance — but all
//! ranks of one run must agree bitwise, every rank must take identical rank
//! decisions, and repeated runs must be bitwise reproducible.

use rand::SeedableRng;
use tt_core::{gather_tensor, round, scatter_tensor, RoundingMethod, RoundingOptions, TtTensor};

fn redundant(dims: &[usize], rank_half: usize, seed: u64) -> TtTensor {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    tt_core::synthetic::generate_redundant(dims, rank_half, &mut rng)
}

/// The method and options of one randomized run: a uniform rank cap with
/// oversampling 4.
fn opts_for(rank: usize, seed: u64) -> (RoundingMethod, RoundingOptions) {
    let method = RoundingMethod::Randomized {
        oversampling: 4,
        seed,
    };
    (method, RoundingOptions::default().max_rank(rank))
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

/// Runs one distributed rounding on `p` verified ranks; returns every
/// rank's gathered copy.
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
    let opts = opts_for(3, 99);
    let seq = round_seq(&x, &opts);
    let gathered = run_dist(&x, 1, &opts);
    assert_tensors_bitwise_eq(&seq, &gathered[0], "p=1");
}

#[test]
fn multi_rank_agreement() {
    let dims = [8usize, 6, 9, 7];
    let x = redundant(&dims, 3, 21);
    let dense = x.to_dense();
    let norm = dense.fro_norm();
    let opts = opts_for(3, 99);
    let seq = round_seq(&x, &opts);
    for p in [2usize, 3, 4] {
        let gathered = run_dist(&x, p, &opts);
        // All ranks gathered the same blocks: bitwise identical copies and
        // identical rank decisions on every rank.
        for (r, g) in gathered.iter().enumerate().skip(1) {
            assert_tensors_bitwise_eq(&gathered[0], g, &format!("p={p} rank {r}"));
        }
        assert_eq!(gathered[0].ranks(), seq.ranks(), "p={p}");
        // Sequential vs distributed: same algorithm, reassociated sums.
        let gap = gathered[0].to_dense().fro_dist(&seq.to_dense());
        assert!(gap <= 1e-8 * (1.0 + norm), "p={p}: seq-vs-dist gap {gap}");
        // And a repeated run is bitwise reproducible.
        let again = run_dist(&x, p, &opts);
        assert_tensors_bitwise_eq(&gathered[0], &again[0], &format!("p={p} rerun"));
    }
}

#[test]
fn sketch_seed_determinism_and_independence() {
    let dims = [8usize, 7, 6];
    let x = redundant(&dims, 3, 33);
    let expect = x.to_dense();
    let norm = expect.fro_norm();
    // Same seed ⇒ bitwise identical output (p = 2 reproduces itself).
    let a = run_dist(&x, 2, &opts_for(3, 99));
    let b = run_dist(&x, 2, &opts_for(3, 99));
    assert_tensors_bitwise_eq(&a[0], &b[0], "same seed");

    // Different seeds ⇒ (generically) different sketches, but both results
    // stay within the error bound — randomness moves the sketch, not the
    // guarantee.
    let c = run_dist(&x, 2, &opts_for(3, 1234));
    for (name, out) in [("seed 99", &a[0]), ("seed 1234", &c[0])] {
        let err = out.to_dense().fro_dist(&expect);
        assert!(err <= 1e-7 * (1.0 + norm), "{name}: err {err}");
    }
}
