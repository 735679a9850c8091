//! SPMD collective-matching verification layer.
//!
//! Every distributed algorithm in this reproduction is SPMD code written
//! against [`Communicator`]: correctness silently assumes that **every rank
//! executes an identical stream of collectives** (same operations, in the
//! same order, with compatible shapes and roots). Violations of that
//! assumption — the classic MPI bug class that verifiers like MUST exist to
//! catch — otherwise surface as wrong numbers or a hung test.
//!
//! [`VerifyComm`] is a decorator over [`ThreadComm`], built for every rank
//! by [`run_verified`], that makes the assumption machine-checked:
//!
//! * every operation gets a per-rank **sequence number** and a **call
//!   fingerprint** (collective position, operation kind, root, buffer
//!   length) — point-to-point ops are traced but excluded from the
//!   cross-checked collective position, since tree algorithms legitimately
//!   issue different send/recv counts per rank;
//! * with more than one rank, the fingerprint is **piggybacked through the
//!   underlying communicator** (one small `allreduce_max` check round per
//!   collective) and cross-checked across all ranks *before* the real
//!   operation executes, so a mismatched or reordered collective panics with
//!   a rank-annotated diagnostic instead of deadlocking or corrupting data;
//! * point-to-point messages carry a fingerprint header checked on receive;
//! * the nonblocking trait methods keep their provided forms, which run the
//!   blocking operation at post, so they are checked as that operation.
//!
//! The decorator holds the last `TRACE_CAPACITY` events of every rank in a
//! shared ring, and dumps all of them on any mismatch. Overhead is one
//! 8-word allreduce per collective — negligible for a validation backend,
//! and exactly zero for production paths that do not opt in.
//!
//! Layering: [`VerifyComm`] catches *semantic* divergence before it
//! deadlocks; the [`crate::ThreadComm`] watchdog catches whatever still
//! hangs (e.g. one rank exiting early) by aborting the stuck operation with
//! a per-rank event dump. [`run_verified`] gives a test both.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::cost::CommStats;
use crate::{Communicator, ThreadComm};

/// Number of per-rank events retained for mismatch diagnostics.
const TRACE_CAPACITY: usize = 16;

/// Magic word marking a fingerprinted point-to-point message.
const P2P_MAGIC: f64 = -(0x7EAC0DE as f64);

/// The kind of a fingerprinted communication operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    /// [`Communicator::allreduce_sum`].
    AllreduceSum,
    /// [`Communicator::allreduce_max`].
    AllreduceMax,
    /// [`Communicator::broadcast`].
    Broadcast,
    /// [`Communicator::allgather`] (lengths may legitimately differ per rank).
    Allgather,
    /// [`Communicator::barrier`].
    Barrier,
    /// [`Communicator::send`].
    Send,
    /// [`Communicator::recv`].
    Recv,
}

impl OpKind {
    fn id(self) -> u64 {
        match self {
            OpKind::AllreduceSum => 1,
            OpKind::AllreduceMax => 2,
            OpKind::Broadcast => 3,
            OpKind::Allgather => 4,
            OpKind::Barrier => 5,
            OpKind::Send => 6,
            OpKind::Recv => 7,
        }
    }

    fn from_id(id: u64) -> &'static str {
        match id {
            1 => "allreduce_sum",
            2 => "allreduce_max",
            3 => "broadcast",
            4 => "allgather",
            5 => "barrier",
            6 => "send",
            7 => "recv",
            _ => "<unknown op>",
        }
    }
}

impl std::fmt::Display for OpKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(OpKind::from_id(self.id()))
    }
}

/// One fingerprinted communication event of one rank.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Event {
    /// Position in this rank's operation stream (1-based).
    seq: u64,
    /// Operation kind.
    kind: OpKind,
    /// Root rank (broadcast) — 0 for rootless operations.
    root: usize,
    /// Buffer length in `f64` words (0 where lengths may legitimately
    /// differ per rank, i.e. allgather, or are not defined, i.e. barrier).
    len: usize,
    /// Peer rank for point-to-point operations.
    peer: Option<usize>,
}

impl std::fmt::Display for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (self.kind, self.peer) {
            (OpKind::Send, Some(p)) => write!(f, "#{} send(to={p}, len={})", self.seq, self.len),
            (OpKind::Recv, Some(p)) => write!(f, "#{} recv(from={p})", self.seq),
            (OpKind::Broadcast, _) => {
                write!(
                    f,
                    "#{} broadcast(root={}, len={})",
                    self.seq, self.root, self.len
                )
            }
            (OpKind::Allgather, _) => write!(f, "#{} allgather(local_len={})", self.seq, self.len),
            (OpKind::Barrier, _) => write!(f, "#{} barrier", self.seq),
            (kind, _) => write!(f, "#{} {kind}(len={})", self.seq, self.len),
        }
    }
}

/// Shared per-rank ring of recent events, dumped on mismatch.
#[derive(Debug)]
struct TraceRegistry {
    rings: Mutex<Vec<VecDeque<Event>>>,
}

impl TraceRegistry {
    fn new(p: usize) -> Arc<Self> {
        Arc::new(TraceRegistry {
            rings: Mutex::new((0..p).map(|_| VecDeque::new()).collect()),
        })
    }

    fn push(&self, rank: usize, ev: Event) {
        let mut rings = match self.rings.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        let ring = &mut rings[rank];
        if ring.len() == TRACE_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(ev);
    }

    fn render(&self) -> String {
        let rings = match self.rings.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        rings
            .iter()
            .enumerate()
            .map(|(r, ring)| {
                let events: Vec<String> = ring.iter().map(|e| e.to_string()).collect();
                format!(
                    "  rank {r}: {}",
                    if events.is_empty() {
                        "<no events observed by this verifier>".to_string()
                    } else {
                        events.join("; ")
                    }
                )
            })
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// A verifying decorator over one [`ThreadComm`] rank; see the module docs.
pub struct VerifyComm {
    inner: ThreadComm,
    seq: Cell<u64>,
    /// Number of *collectives* issued — the cross-checked position. Kept
    /// separate from `seq` because point-to-point patterns are legitimately
    /// asymmetric (a TSQR combine tree's root does more sends/recvs than a
    /// leaf), so the overall op count may differ across ranks even when the
    /// collective streams are perfectly matched.
    coll_seq: Cell<u64>,
    traces: Arc<TraceRegistry>,
    /// Whether fingerprints are cross-checked through the underlying
    /// communicator (false for a one-rank group, which has no peer).
    piggyback: bool,
}

impl VerifyComm {
    fn record(&self, kind: OpKind, root: usize, len: usize, peer: Option<usize>) -> Event {
        let seq = self.seq.get() + 1;
        self.seq.set(seq);
        let ev = Event {
            seq,
            kind,
            root,
            len,
            peer,
        };
        self.traces.push(self.inner.rank(), ev.clone());
        ev
    }

    /// Assigns the next collective position and cross-checks `ev`'s
    /// fingerprint across all ranks through the underlying communicator
    /// before the collective executes; panics with a rank-annotated
    /// diagnostic on the first divergent call.
    #[expect(
        clippy::panic,
        reason = "the verifier's contract is to abort on the first divergent collective with a full fingerprint report"
    )]
    fn check_collective(&self, ev: &Event) {
        let coll_seq = self.coll_seq.get() + 1;
        self.coll_seq.set(coll_seq);
        let fields = [
            coll_seq as f64,
            ev.kind.id() as f64,
            ev.root as f64,
            ev.len as f64,
        ];
        if !self.piggyback {
            return;
        }
        // Fingerprint fields, piggybacked as [v, -v] through one
        // allreduce_max: afterwards word i holds max_i and word i+4 holds
        // -min_i, so any cross-rank disagreement makes max_i != min_i. The
        // check rounds themselves run in lockstep, so `collective#` can only
        // disagree if the underlying backend delivered check rounds out of
        // order — it is a self-check on the verifier more than on the
        // algorithm; divergent algorithms surface as kind/root/len
        // mismatches at the first divergent collective.
        let mut check = [0.0f64; 8];
        for (i, v) in fields.iter().enumerate() {
            check[i] = *v;
            check[i + 4] = -*v;
        }
        self.inner.allreduce_max(&mut check);
        let names = ["collective#", "kind", "root", "len"];
        let mut mismatches = Vec::new();
        for i in 0..4 {
            let max = check[i];
            let min = -check[i + 4];
            #[expect(
                clippy::float_cmp,
                reason = "fingerprint fields are exact integers in f64 words: any difference is a disagreement"
            )]
            if max != min {
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "the kind field is an exact small integer in an f64 word"
                )]
                let (lo, hi) = if names[i] == "kind" {
                    (
                        OpKind::from_id(min as u64).to_string(),
                        OpKind::from_id(max as u64).to_string(),
                    )
                } else {
                    (format!("{min}"), format!("{max}"))
                };
                mismatches.push(format!(
                    "  {}: disagrees across ranks (min {lo}, max {hi}; this rank: {})",
                    names[i],
                    if names[i] == "kind" {
                        ev.kind.to_string()
                    } else {
                        fields[i].to_string()
                    }
                ));
            }
        }
        if !mismatches.is_empty() {
            panic!(
                "VerifyComm rank {}: SPMD collective stream mismatch at this rank's \
                 operation #{}.\nThis rank called: {}\nDivergent fingerprint \
                 fields:\n{}\nLast {} events per rank (oldest first):\n{}",
                self.inner.rank(),
                ev.seq,
                ev,
                mismatches.join("\n"),
                TRACE_CAPACITY,
                self.traces.render()
            );
        }
    }

    /// Validates a fingerprinted point-to-point frame and strips the header.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the frame header's kind, sender and length are exact integers in f64 words"
    )]
    fn validate_frame(&self, framed: Vec<f64>, from: usize, ev: &Event) -> Vec<f64> {
        #[expect(
            clippy::panic,
            reason = "the verifier's contract is to abort on the first mismatched p2p frame with a full event report"
        )]
        let fail = |why: String| -> ! {
            panic!(
                "VerifyComm rank {}: point-to-point mismatch at this rank's \
                 operation #{} ({ev}): {why}\nLast {} events per rank (oldest \
                 first):\n{}",
                self.inner.rank(),
                ev.seq,
                TRACE_CAPACITY,
                self.traces.render()
            );
        };
        if framed.len() < 4 || framed[0] != P2P_MAGIC {
            fail(format!(
                "received a {}-word message without a fingerprint header — the \
                 sender is not running under VerifyComm, or a collective's \
                 internal message was misrouted into a recv",
                framed.len()
            ));
        }
        let kind = framed[1] as u64;
        let sender = framed[2] as usize;
        let len = framed[3] as usize;
        if kind != OpKind::Send.id() {
            fail(format!(
                "message header says the peer issued {}, not send",
                OpKind::from_id(kind)
            ));
        }
        if sender != from {
            fail(format!(
                "expected a message from rank {from} but the header says it was \
                 sent by rank {sender}"
            ));
        }
        if len != framed.len() - 4 {
            fail(format!(
                "header announces {len} payload words but {} arrived",
                framed.len() - 4
            ));
        }
        framed[4..].to_vec()
    }
}

impl Communicator for VerifyComm {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn allreduce_sum(&self, buf: &mut [f64]) {
        let ev = self.record(OpKind::AllreduceSum, 0, buf.len(), None);
        self.check_collective(&ev);
        self.inner.allreduce_sum(buf);
    }

    fn allreduce_max(&self, buf: &mut [f64]) {
        let ev = self.record(OpKind::AllreduceMax, 0, buf.len(), None);
        self.check_collective(&ev);
        self.inner.allreduce_max(buf);
    }

    fn broadcast(&self, root: usize, buf: &mut [f64]) {
        let ev = self.record(OpKind::Broadcast, root, buf.len(), None);
        self.check_collective(&ev);
        self.inner.broadcast(root, buf);
    }

    fn allgather(&self, send: &[f64]) -> Vec<f64> {
        // Allgatherv semantics: per-rank lengths may legitimately differ, so
        // the fingerprint carries len = 0 (the local length is still
        // recorded in the trace for diagnostics).
        let mut ev = self.record(OpKind::Allgather, 0, send.len(), None);
        ev.len = 0;
        self.check_collective(&ev);
        self.inner.allgather(send)
    }

    fn send(&self, to: usize, buf: &[f64]) {
        let ev = self.record(OpKind::Send, 0, buf.len(), Some(to));
        if self.piggyback {
            // Fingerprint header travels with the message and is validated
            // by the receiving VerifyComm.
            let mut framed = Vec::with_capacity(buf.len() + 4);
            framed.extend_from_slice(&[
                P2P_MAGIC,
                ev.kind.id() as f64,
                self.inner.rank() as f64,
                buf.len() as f64,
            ]);
            framed.extend_from_slice(buf);
            self.inner.send(to, &framed);
        } else {
            self.inner.send(to, buf);
        }
    }

    fn recv(&self, from: usize) -> Vec<f64> {
        let ev = self.record(OpKind::Recv, 0, 0, Some(from));
        if !self.piggyback {
            return self.inner.recv(from);
        }
        let framed = self.inner.recv(from);
        self.validate_frame(framed, from, &ev)
    }

    fn barrier(&self) {
        let ev = self.record(OpKind::Barrier, 0, 0, None);
        self.check_collective(&ev);
        self.inner.barrier();
    }

    fn stats(&self) -> CommStats {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats()
    }
}

/// Runs `f` as an SPMD program on `p` verified thread-backed ranks: every
/// rank's communicator is a [`VerifyComm`] over [`ThreadComm`] sharing one
/// trace registry, so collective mismatches panic with a full per-rank event
/// dump and deadlocks are bounded by the watchdog.
pub fn run_verified<R, F>(p: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(VerifyComm) -> R + Sync,
{
    run_verified_with_timeout(p, ThreadComm::DEFAULT_WATCHDOG, f)
}

/// [`run_verified`] with a custom watchdog timeout.
pub fn run_verified_with_timeout<R, F>(p: usize, watchdog: Duration, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(VerifyComm) -> R + Sync,
{
    // One trace registry for the whole group, so a mismatch diagnostic
    // shows the last events of every rank, not just the panicking one.
    let traces = TraceRegistry::new(p);
    ThreadComm::run_with_timeout(p, watchdog, |inner| {
        f(VerifyComm {
            seq: Cell::new(0),
            coll_seq: Cell::new(0),
            traces: Arc::clone(&traces),
            piggyback: p > 1,
            inner,
        })
    })
}

#[cfg(test)]
#[allow(clippy::float_cmp, reason = "tests compare exact values on purpose")]
mod tests {
    use super::*;

    #[test]
    fn matched_streams_pass_and_compute_correctly() {
        for p in [1usize, 2, 3, 5] {
            let results = run_verified(p, |comm| {
                let mut buf = vec![comm.rank() as f64 + 1.0; 4];
                comm.allreduce_sum(&mut buf);
                let mut maxb = vec![comm.rank() as f64];
                comm.allreduce_max(&mut maxb);
                let mut b = vec![if comm.rank() == 0 { 7.0 } else { 0.0 }; 3];
                comm.broadcast(0, &mut b);
                comm.barrier();
                let g = comm.allgather(&[comm.rank() as f64; 2]);
                (buf[0], maxb[0], b[2], g.len())
            });
            let sum: f64 = (1..=p).map(|r| r as f64).sum();
            for (s, m, b, g) in results {
                assert_eq!(s, sum, "p={p}");
                assert_eq!(m, (p - 1) as f64);
                assert_eq!(b, 7.0);
                assert_eq!(g, 2 * p);
            }
        }
    }

    #[test]
    fn verified_p2p_round_trips() {
        let p = 4;
        let results = run_verified(p, |comm| {
            let next = (comm.rank() + 1) % p;
            let prev = (comm.rank() + p - 1) % p;
            comm.send(next, &[comm.rank() as f64, 42.0]);
            comm.recv(prev)
        });
        for (r, msg) in results.iter().enumerate() {
            assert_eq!(msg, &vec![((r + p - 1) % p) as f64, 42.0]);
        }
    }

    #[test]
    #[should_panic(expected = "SPMD collective stream mismatch")]
    fn wrong_collective_kind_is_caught() {
        run_verified(2, |comm| {
            let mut buf = vec![1.0; 4];
            if comm.rank() == 0 {
                comm.allreduce_sum(&mut buf);
            } else {
                comm.allreduce_max(&mut buf);
            }
        });
    }

    #[test]
    #[should_panic(expected = "len: disagrees across ranks")]
    fn wrong_length_is_caught() {
        run_verified(3, |comm| {
            let mut buf = vec![1.0; 4 + comm.rank() % 2];
            comm.allreduce_sum(&mut buf);
        });
    }

    #[test]
    #[should_panic(expected = "root: disagrees across ranks")]
    fn wrong_root_is_caught() {
        run_verified(2, |comm| {
            let mut buf = vec![1.0; 4];
            comm.broadcast(comm.rank(), &mut buf);
        });
    }

    #[test]
    #[should_panic(expected = "kind: disagrees across ranks")]
    fn skipped_collective_is_caught() {
        // Rank 1 forgets a barrier, so its operation stream runs one step
        // ahead: the check rounds stay lockstep, so the skip surfaces as a
        // kind mismatch at the first divergent operation (barrier on rank 0
        // meets allreduce_sum on rank 1).
        run_verified(2, |comm| {
            let mut buf = vec![1.0; 4];
            if comm.rank() == 0 {
                comm.barrier();
            }
            comm.allreduce_sum(&mut buf);
        });
    }

    #[test]
    #[should_panic(expected = "len: disagrees across ranks")]
    fn nonblocking_len_mismatch_is_caught_at_post() {
        // The provided iallreduce_sum runs the checked allreduce_sum at post.
        run_verified(3, |comm| {
            let req = comm.iallreduce_sum(vec![1.0; 4 + comm.rank() % 2]);
            req.wait();
        });
    }

    #[test]
    fn trace_ring_is_bounded() {
        // 24 matched barriers, then a kind mismatch as operation #25: the
        // dump must show each rank's newest TRACE_CAPACITY events, #10..#25.
        let ops = TRACE_CAPACITY + 9;
        let caught = std::panic::catch_unwind(|| {
            run_verified(2, |comm| {
                for _ in 1..ops {
                    comm.barrier();
                }
                if comm.rank() == 0 {
                    comm.barrier();
                } else {
                    comm.allreduce_sum(&mut [0.0]);
                }
            })
        });
        let payload = caught.expect_err("the kind mismatch must panic");
        let message = payload
            .downcast_ref::<String>()
            .expect("the mismatch diagnostic is a formatted message");
        assert!(
            message.contains("SPMD collective stream mismatch"),
            "{message}"
        );
        for rank in 0..2 {
            let line = message
                .lines()
                .find_map(|l| l.strip_prefix(&format!("  rank {rank}: ")))
                .unwrap_or_else(|| panic!("no dump line for rank {rank}: {message}"));
            let events: Vec<&str> = line.split("; ").collect();
            assert_eq!(events.len(), TRACE_CAPACITY, "rank {rank}: {line}");
            assert!(events[0].starts_with("#10 "), "rank {rank}: {line}");
            assert!(
                events[TRACE_CAPACITY - 1].starts_with(&format!("#{ops} ")),
                "rank {rank}: {line}"
            );
        }
    }
}
