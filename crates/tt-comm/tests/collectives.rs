//! Property tests for the thread-backed collectives: results must match the
//! sequential reductions exactly for arbitrary rank counts and payloads.
//!
//! The nonblocking methods are the trait's provided forms, which complete at
//! post over the blocking operations, so on `ThreadComm` they pass the same
//! per-message checks as the blocking ones.

#![allow(clippy::float_cmp, reason = "tests compare exact values on purpose")]

use proptest::prelude::*;
use tt_comm::{Communicator, ThreadComm};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Allreduce-sum across P ranks equals the serial sum of contributions.
    #[test]
    fn allreduce_sum_correct(p in 1usize..=6, len in 1usize..40, seed in any::<u32>()) {
        // Deterministic per-rank contributions.
        let contribution = |rank: usize, i: usize| -> f64 {
            (((seed as usize).wrapping_mul(31) + rank * 101 + i * 7) % 1000) as f64 - 500.0
        };
        let expected: Vec<f64> = (0..len)
            .map(|i| (0..p).map(|r| contribution(r, i)).sum())
            .collect();
        let results = ThreadComm::run(p, |comm| {
            let mut buf: Vec<f64> = (0..len).map(|i| contribution(comm.rank(), i)).collect();
            comm.allreduce_sum(&mut buf);
            buf
        });
        for r in results {
            for (a, b) in r.iter().zip(&expected) {
                prop_assert!((a - b).abs() < 1e-9, "{a} vs {b}");
            }
        }
    }

    /// Allreduce-max across P ranks equals the serial max.
    #[test]
    fn allreduce_max_correct(p in 1usize..=6, len in 1usize..20, seed in any::<u32>()) {
        let contribution = |rank: usize, i: usize| -> f64 {
            (((seed as usize).wrapping_mul(17) + rank * 59 + i * 13) % 997) as f64
        };
        let expected: Vec<f64> = (0..len)
            .map(|i| (0..p).map(|r| contribution(r, i)).fold(f64::MIN, f64::max))
            .collect();
        let results = ThreadComm::run(p, |comm| {
            let mut buf: Vec<f64> = (0..len).map(|i| contribution(comm.rank(), i)).collect();
            comm.allreduce_max(&mut buf);
            buf
        });
        for r in results {
            prop_assert_eq!(&r, &expected);
        }
    }

    /// Broadcast delivers the root's buffer verbatim to all ranks.
    #[test]
    fn broadcast_correct(p in 1usize..=6, root_pick in any::<usize>(), len in 1usize..30) {
        let root = root_pick % p;
        let payload: Vec<f64> = (0..len).map(|i| i as f64 * 1.5 - 3.0).collect();
        let expected = payload.clone();
        let results = ThreadComm::run(p, |comm| {
            let mut buf = if comm.rank() == root { payload.clone() } else { vec![0.0; len] };
            comm.broadcast(root, &mut buf);
            buf
        });
        for r in results {
            prop_assert_eq!(&r, &expected);
        }
    }

    /// Allgather returns the rank-ordered concatenation on every rank.
    #[test]
    fn allgather_correct(p in 1usize..=6, base_len in 1usize..10) {
        let expect: Vec<f64> = (0..p)
            .flat_map(|r| (0..base_len + r).map(move |i| (r * 100 + i) as f64))
            .collect();
        let results = ThreadComm::run(p, |comm| {
            let send: Vec<f64> =
                (0..base_len + comm.rank()).map(|i| (comm.rank() * 100 + i) as f64).collect();
            comm.allgather(&send)
        });
        for r in results {
            prop_assert_eq!(&r, &expect);
        }
    }

    /// Posting an iallreduce and waiting immediately is bitwise identical to
    /// the blocking allreduce_sum for arbitrary rank counts and payloads.
    #[test]
    fn iallreduce_post_then_wait_matches_blocking(p in 1usize..=6, len in 1usize..40, seed in any::<u32>()) {
        let contribution = |rank: usize, i: usize| -> f64 {
            (((seed as usize).wrapping_mul(43) + rank * 97 + i * 11) % 1000) as f64 - 500.0
        };
        let both = |comm: &dyn Communicator| {
            let local: Vec<f64> = (0..len).map(|i| contribution(comm.rank(), i)).collect();
            let mut blocking = local.clone();
            comm.allreduce_sum(&mut blocking);
            let nonblocking = comm.iallreduce_sum(local).wait();
            (blocking, nonblocking)
        };
        let results = ThreadComm::run(p, |comm| both(&comm));
        for (blocking, nonblocking) in results {
            prop_assert_eq!(blocking, nonblocking);
        }
    }

    /// Chained collectives don't interleave payloads (ordering safety).
    #[test]
    fn repeated_collectives_stay_ordered(p in 2usize..=5, rounds in 1usize..6) {
        let results = ThreadComm::run(p, |comm| {
            let mut out = Vec::new();
            for round in 0..rounds {
                let mut buf = vec![(comm.rank() + round) as f64];
                comm.allreduce_sum(&mut buf);
                out.push(buf[0]);
            }
            out
        });
        for r in &results {
            for (round, &v) in r.iter().enumerate() {
                let expect: f64 = (0..p).map(|rk| (rk + round) as f64).sum();
                prop_assert_eq!(v, expect);
            }
        }
    }
}

/// A ring of isend/irecv pairs delivers each rank's message to its
/// successor. `irecv` blocks at post, so every rank posts its send first.
#[test]
fn isend_irecv_ring_round_trips() {
    fn ring(comm: &dyn Communicator) -> Vec<f64> {
        let p = comm.size();
        let next = (comm.rank() + 1) % p;
        let prev = (comm.rank() + p - 1) % p;
        comm.isend(next, vec![comm.rank() as f64, 0.5]).wait();
        comm.irecv(prev).wait()
    }
    for p in [2usize, 3, 4] {
        let results = ThreadComm::run(p, |comm| ring(&comm));
        for (r, msg) in results.iter().enumerate() {
            assert_eq!(msg, &vec![((r + p - 1) % p) as f64, 0.5], "p={p}");
        }
    }
}

/// Letting a `Request` go out of scope without `wait`/`test` is a leaked
/// rendezvous; the debug drop guard turns it into an immediate panic on
/// every backend.
#[test]
#[cfg_attr(not(debug_assertions), ignore = "drop check is debug-only")]
fn dropping_an_unwaited_request_panics_in_debug() {
    fn forget(comm: &dyn Communicator) {
        let _forgotten = comm.iallreduce_sum(vec![1.0, 2.0]);
    }
    for p in [2usize, 3, 4] {
        let outcome = std::panic::catch_unwind(|| {
            ThreadComm::run(p, |comm| forget(&comm));
        });
        let Err(payload) = outcome else {
            panic!("p={p}: dropping an unwaited request did not panic");
        };
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("");
        assert!(
            msg.contains("Request dropped without wait()"),
            "p={p}: {msg}"
        );
    }
}
