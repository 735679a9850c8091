//! Thread-backed communicator: `P` ranks as OS threads, with every message
//! checked against the SPMD contract as it is delivered.
//!
//! This backend exists to *validate* the distributed algorithms — the
//! binomial reduce/broadcast trees perform the same data movement an MPI
//! implementation would, so integration tests can assert that the
//! distributed rounding variants agree with their sequential counterparts.
//! (On a multi-core machine it also yields real speedup; scaling *studies*
//! use the analytic model in [`crate::cost`] instead, see DESIGN.md.)
//!
//! # Checked delivery
//!
//! The distributed algorithms are correct only if every rank issues the
//! same stream of operations. Every message therefore travels with the
//! record of the operation that sent it: its kind, the sender's collective
//! position and the root. Every receive compares that record and the
//! payload length with the operation the receiving rank is in before the
//! payload is combined or returned. A mismatched, reordered or skipped
//! operation whose message reaches the wrong receive panics with
//! `SPMD collective stream mismatch`, naming both sides' operations and
//! dumping the last `TRACE_CAPACITY` operations of every rank. A
//! point-to-point receive checks only that a `send` made the message: an
//! eager send may legally cross a collective.
//!
//! Two failures have no receive to catch them:
//! * a message that no rank receives (a one-way send, or broadcasts whose
//!   ranks disagree on the root): [`ThreadComm::run`] fails once every rank
//!   has returned, naming the sender, the receiver and the operation;
//! * a receive cycle, where each rank waits on the next: the watchdog ends
//!   a receive that waits longer than the timeout
//!   ([`ThreadComm::run_with_timeout`], default
//!   [`ThreadComm::DEFAULT_WATCHDOG`]) with the same dump. A mismatch
//!   whose first receives point at each other is such a cycle: at p = 2,
//!   rank 0 in a `barrier` that rank 1 skipped waits for rank 1's reduce
//!   message, while rank 1 in the following `broadcast` from rank 0 waits
//!   for rank 0. No message crosses, so only the watchdog ends it.
//!
//! That receive is the one place a rank blocks: the barrier is an
//! empty-payload reduce and broadcast through the collective trees.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use crate::cost::{CollectiveKind, CommStats};
use crate::Communicator;

/// Number of per-rank operations kept for diagnostics.
const TRACE_CAPACITY: usize = 16;

/// The kind of a communication operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    AllreduceSum,
    AllreduceMax,
    Broadcast,
    Allgather,
    Barrier,
    Send,
    Recv,
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OpKind::AllreduceSum => "allreduce_sum",
            OpKind::AllreduceMax => "allreduce_max",
            OpKind::Broadcast => "broadcast",
            OpKind::Allgather => "allgather",
            OpKind::Barrier => "barrier",
            OpKind::Send => "send",
            OpKind::Recv => "recv",
        })
    }
}

/// One operation as a rank issued it: traced in the rank's ring, and
/// carried with every message it sends.
#[derive(Debug, Clone, Copy)]
struct Op {
    kind: OpKind,
    /// For a collective, its 1-based position in the rank's stream of
    /// collectives; for a `send` or `recv`, the collectives issued before it.
    position: u64,
    root: usize,
    /// Payload length in `f64` words (an allgather's local part).
    len: usize,
    /// The peer of a `send` or `recv`.
    peer: usize,
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Op {
            kind,
            position,
            root,
            len,
            peer,
        } = *self;
        match kind {
            OpKind::Send => write!(f, "send(to={peer}, len={len}) after collective #{position}"),
            OpKind::Recv => write!(f, "recv(from={peer}) after collective #{position}"),
            OpKind::Broadcast => write!(f, "#{position} broadcast(root={root}, len={len})"),
            OpKind::Allgather => write!(f, "#{position} allgather(local_len={len})"),
            OpKind::Barrier => write!(f, "#{position} barrier"),
            kind => write!(f, "#{position} {kind}(len={len})"),
        }
    }
}

/// A message: the operation that sent it, and its payload.
type Message = (Op, Vec<f64>);

/// One rank's incoming channels, indexed by sender.
type Mailbox = Vec<Receiver<Message>>;

/// Locks `m`, ignoring poisoning: diagnostics stay best-effort once a rank
/// has panicked.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// State shared by the ranks of one run.
struct Shared {
    /// `traces[r]`: rank `r`'s last `TRACE_CAPACITY` operations.
    traces: Vec<Mutex<VecDeque<Op>>>,
    /// `followed[r]`: rank `r` panicked only because a peer ended first.
    followed: Vec<AtomicBool>,
    /// The mailbox of every ended rank, drained by `run` for messages that
    /// were never received.
    mailboxes: Mutex<Vec<(usize, Mailbox)>>,
}

impl Shared {
    fn dump(&self) -> String {
        let lines: Vec<String> = self
            .traces
            .iter()
            .enumerate()
            .map(|(r, ring)| {
                let ring = lock(ring);
                let ops: Vec<String> = ring.iter().map(Op::to_string).collect();
                format!("  rank {r}: {}", ops.join("; "))
            })
            .collect();
        format!(
            "Last {TRACE_CAPACITY} operations per rank (oldest first):\n{}",
            lines.join("\n")
        )
    }

    /// Fails the run if any message was sent but never received.
    #[expect(
        clippy::panic,
        reason = "an unreceived message means the ranks' streams diverged; the run must not report success"
    )]
    fn assert_all_received(&self) {
        let mut mailboxes = lock(&self.mailboxes);
        mailboxes.sort_by_key(|(rank, _)| *rank);
        let mut lost = Vec::new();
        for (to, mailbox) in mailboxes.iter() {
            for (from, inbox) in mailbox.iter().enumerate() {
                for (op, _) in inbox.try_iter() {
                    lost.push(format!("  rank {from} to rank {to}: {op}"));
                }
            }
        }
        if !lost.is_empty() {
            panic!(
                "ThreadComm: every rank returned, but {} message(s) were never \
                 received (a one-way send, or ranks that disagree on a \
                 broadcast root):\n{}\n{}",
                lost.len(),
                lost.join("\n"),
                self.dump()
            );
        }
    }
}

/// One rank's endpoint of a `P`-rank thread communicator, handed to each
/// rank's closure by [`ThreadComm::run`].
pub struct ThreadComm {
    rank: usize,
    size: usize,
    /// `senders[to]` feeds rank `to`'s mailbox for messages from us.
    senders: Vec<Sender<Message>>,
    /// `receivers[from]` drains our mailbox for messages from `from`.
    receivers: Mailbox,
    shared: Arc<Shared>,
    watchdog: Duration,
    /// Collectives issued so far.
    collectives: Cell<u64>,
    stats: RefCell<CommStats>,
}

impl ThreadComm {
    /// Default watchdog timeout for [`ThreadComm::run`]: generous enough
    /// for any legitimate receive in the test suite, small enough that a
    /// deadlocked test fails rather than hanging CI.
    pub const DEFAULT_WATCHDOG: Duration = Duration::from_secs(30);

    /// Creates the `p` connected endpoints of a new communicator.
    fn create(p: usize, watchdog: Duration) -> (Vec<ThreadComm>, Arc<Shared>) {
        assert!(p >= 1);
        // mesh[from][to]
        let mut senders_by_from: Vec<Vec<Sender<Message>>> = Vec::with_capacity(p);
        let mut receivers_by_to: Vec<Mailbox> = (0..p).map(|_| Vec::new()).collect();
        for _from in 0..p {
            let mut row = Vec::with_capacity(p);
            for inbox in receivers_by_to.iter_mut() {
                let (s, r) = channel();
                row.push(s);
                inbox.push(r);
            }
            senders_by_from.push(row);
        }
        let shared = Arc::new(Shared {
            traces: (0..p)
                .map(|_| Mutex::new(VecDeque::with_capacity(TRACE_CAPACITY)))
                .collect(),
            followed: (0..p).map(|_| AtomicBool::new(false)).collect(),
            mailboxes: Mutex::new(Vec::with_capacity(p)),
        });
        let comms = senders_by_from
            .into_iter()
            .zip(receivers_by_to)
            .enumerate()
            .map(|(rank, (senders, receivers))| ThreadComm {
                rank,
                size: p,
                senders,
                receivers,
                shared: Arc::clone(&shared),
                watchdog,
                collectives: Cell::new(0),
                stats: RefCell::new(CommStats::default()),
            })
            .collect();
        (comms, shared)
    }

    /// Runs `f` as an SPMD program on `p` ranks (threads), returning each
    /// rank's result in rank order.
    ///
    /// If a rank panics (a stream mismatch, the watchdog, or the closure's
    /// own panic), the panic is re-raised on the caller's thread after all
    /// ranks have terminated, preserving the original message. A rank's
    /// own panic is re-raised in preference to a peer's resulting
    /// disconnect. If no rank panics, the run still fails when a message
    /// was sent but never received.
    pub fn run<R, F>(p: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(ThreadComm) -> R + Sync,
    {
        Self::run_with_timeout(p, Self::DEFAULT_WATCHDOG, f)
    }

    /// [`ThreadComm::run`] with a custom watchdog timeout: a receive that
    /// waits longer than `watchdog` panics with a per-rank operation dump.
    pub fn run_with_timeout<R, F>(p: usize, watchdog: Duration, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(ThreadComm) -> R + Sync,
    {
        let (comms, shared) = ThreadComm::create(p, watchdog);
        // Join every rank before propagating any panic: resuming a panic
        // while sibling ranks are still running would make the scope's
        // implicit join panic during unwinding and abort the process.
        let results: Vec<std::thread::Result<R>> = std::thread::scope(|scope| {
            let handles: Vec<_> = comms
                .into_iter()
                .map(|comm| {
                    let f = &f;
                    scope.spawn(move || f(comm))
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
        let mut values = Vec::with_capacity(p);
        // (the panicking rank followed a peer, its payload)
        let mut failure = None;
        for (rank, result) in results.into_iter().enumerate() {
            match result {
                Ok(v) => values.push(v),
                Err(payload) => {
                    let followed = shared.followed[rank].load(Ordering::Relaxed);
                    if failure.as_ref().is_none_or(|(f, _)| *f && !followed) {
                        failure = Some((followed, payload));
                    }
                }
            }
        }
        if let Some((_, payload)) = failure {
            std::panic::resume_unwind(payload);
        }
        shared.assert_all_received();
        values
    }

    /// Traces an operation and returns it; a collective takes the next
    /// collective position.
    fn begin(&self, kind: OpKind, root: usize, len: usize, peer: usize) -> Op {
        let mut position = self.collectives.get();
        if !matches!(kind, OpKind::Send | OpKind::Recv) {
            position += 1;
            self.collectives.set(position);
        }
        let op = Op {
            kind,
            position,
            root,
            len,
            peer,
        };
        let mut ring = lock(&self.shared.traces[self.rank]);
        if ring.len() == TRACE_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(op);
        op
    }

    fn raw_send(&self, to: usize, buf: &[f64], op: Op) {
        // Mailboxes outlive their ranks (see `Drop`), so this cannot fail
        // during a run; a message nobody receives is reported by `run`.
        let _ = self.senders[to].send((op, buf.to_vec()));
    }

    /// Blocks for the next message from `from`, checks it against `op`,
    /// the operation this rank is in (and against payload length `len`
    /// where ranks must agree on it), and returns its payload.
    #[expect(
        clippy::panic,
        reason = "a blocking transport cannot recover from a hung or departed peer; the panic carries the per-rank operation dump"
    )]
    fn raw_recv(&self, from: usize, op: Op, len: Option<usize>) -> Vec<f64> {
        let (got, payload) = match self.receivers[from].recv_timeout(self.watchdog) {
            Ok(msg) => msg,
            Err(RecvTimeoutError::Timeout) => panic!(
                "ThreadComm watchdog: rank {} stuck in {} waiting {:?} for a \
                 message from rank {from}. The ranks wait on each other in a \
                 receive cycle (ranks that issue different operations can \
                 too), or rank {from} never sends.\n{}",
                self.rank,
                op.kind,
                self.watchdog,
                self.shared.dump()
            ),
            Err(RecvTimeoutError::Disconnected) => {
                self.shared.followed[self.rank].store(true, Ordering::Relaxed);
                panic!(
                    "ThreadComm rank {}: {} waiting for rank {from} failed: rank \
                     {from} has terminated without sending (its endpoint was \
                     dropped).\n{}",
                    self.rank,
                    op.kind,
                    self.shared.dump()
                )
            }
        };
        self.check(from, op, len, got, payload.len());
        payload
    }

    /// Panics unless the message `got` from `from`, with `got_len` payload
    /// words, belongs to `op`: a `recv` takes a `send`'s message, a
    /// collective one of its own kind, position and root, and of length
    /// `len` if given.
    #[expect(
        clippy::panic,
        reason = "combining a foreign message would silently corrupt the result; abort with the divergence report instead"
    )]
    fn check(&self, from: usize, op: Op, len: Option<usize>, got: Op, got_len: usize) {
        let sent_by = match op.kind {
            OpKind::Recv => OpKind::Send,
            kind => kind,
        };
        let mut fields = Vec::new();
        let mut field = |name: &str, mine: String, theirs: String| {
            fields.push(format!(
                "  {name}: disagrees across ranks (rank {}: {mine}, rank {from}: {theirs})",
                self.rank
            ));
        };
        if got.kind != sent_by {
            field("kind", op.kind.to_string(), got.kind.to_string());
        } else if op.kind != OpKind::Recv {
            if got.position != op.position {
                field(
                    "position",
                    op.position.to_string(),
                    got.position.to_string(),
                );
            }
            if got.root != op.root {
                field("root", op.root.to_string(), got.root.to_string());
            }
            if let Some(len) = len.filter(|&len| len != got_len) {
                field("len", len.to_string(), got_len.to_string());
            }
        }
        if fields.is_empty() {
            return;
        }
        panic!(
            "ThreadComm rank {}: SPMD collective stream mismatch: this rank is \
             in {op} and received from rank {from} a message of {got}.\n\
             Divergent fields:\n{}\n{}",
            self.rank,
            fields.join("\n"),
            self.shared.dump()
        );
    }

    /// Binomial-tree reduction to rank 0 with a custom combiner.
    fn reduce_with(&self, buf: &mut [f64], op: Op, combine: impl Fn(&mut [f64], &[f64])) {
        let p = self.size;
        let rank = self.rank;
        let mut mask = 1;
        while mask < p {
            if rank & mask != 0 {
                self.raw_send(rank - mask, buf, op);
                break;
            } else if rank + mask < p {
                let inc = self.raw_recv(rank + mask, op, Some(buf.len()));
                combine(buf, &inc);
            }
            mask <<= 1;
        }
    }

    /// Binomial-tree broadcast from `op.root` (standard MPICH virtual-rank
    /// formulation), without recording a stats event.
    fn broadcast_internal(&self, buf: &mut [f64], op: Op) {
        let p = self.size;
        if p == 1 {
            return;
        }
        let root = op.root;
        let vrank = (self.rank + p - root) % p;
        let mut mask = 1usize;
        while mask < p {
            if vrank & mask != 0 {
                let vsrc = vrank - mask;
                let src = (vsrc + root) % p;
                let data = self.raw_recv(src, op, Some(buf.len()));
                buf.copy_from_slice(&data);
                break;
            }
            mask <<= 1;
        }
        mask >>= 1;
        while mask > 0 {
            if vrank & (mask - 1) == 0 && vrank & mask == 0 && vrank + mask < p {
                let vdst = vrank + mask;
                let dst = (vdst + root) % p;
                self.raw_send(dst, buf, op);
            }
            mask >>= 1;
        }
    }

    /// Reduce-then-broadcast allreduce with the elementwise `combine`.
    fn allreduce_with(&self, buf: &mut [f64], kind: OpKind, combine: impl Fn(&mut f64, f64)) {
        let op = self.begin(kind, 0, buf.len(), 0);
        self.reduce_with(buf, op, |acc, inc| {
            for (a, &b) in acc.iter_mut().zip(inc) {
                combine(a, b);
            }
        });
        self.broadcast_internal(buf, op);
        self.stats
            .borrow_mut()
            .record(CollectiveKind::Allreduce, buf.len());
    }
}

impl Drop for ThreadComm {
    /// Parks this rank's mailbox with the run, so a message sent to an
    /// ended rank is still delivered and then reported as unreceived. The
    /// senders drop after this, so a peer blocked on this rank sees the
    /// disconnect.
    fn drop(&mut self) {
        let mailbox = std::mem::take(&mut self.receivers);
        lock(&self.shared.mailboxes).push((self.rank, mailbox));
    }
}

impl Communicator for ThreadComm {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    /// Binomial-tree reduce to rank 0 followed by a binomial broadcast —
    /// the same `O(log P)` data movement an MPI allreduce performs.
    fn allreduce_sum(&self, buf: &mut [f64]) {
        self.allreduce_with(buf, OpKind::AllreduceSum, |a, b| *a += b);
    }

    fn allreduce_max(&self, buf: &mut [f64]) {
        self.allreduce_with(buf, OpKind::AllreduceMax, |a, b| {
            if b > *a {
                *a = b;
            }
        });
    }

    fn broadcast(&self, root: usize, buf: &mut [f64]) {
        let op = self.begin(OpKind::Broadcast, root, buf.len(), 0);
        self.broadcast_internal(buf, op);
        self.stats
            .borrow_mut()
            .record(CollectiveKind::Broadcast, buf.len());
    }

    /// Gather-to-root + broadcast (binomial trees on both legs), supporting
    /// per-rank payload lengths (MPI_Allgatherv semantics).
    fn allgather(&self, send: &[f64]) -> Vec<f64> {
        let op = self.begin(OpKind::Allgather, 0, send.len(), 0);
        let mut gathered = if self.rank == 0 {
            let mut gathered = send.to_vec();
            for from in 1..self.size {
                gathered.extend(self.raw_recv(from, op, None));
            }
            gathered
        } else {
            self.raw_send(0, send, op);
            Vec::new()
        };
        // Broadcast the total length, then the payload.
        let mut len_buf = [gathered.len() as f64];
        self.broadcast_internal(&mut len_buf, op);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "the length travels as an f64 word holding an exact integer below 2^53"
        )]
        let total = len_buf[0] as usize;
        gathered.resize(total, 0.0);
        self.broadcast_internal(&mut gathered, op);
        self.stats
            .borrow_mut()
            .record(CollectiveKind::Allgather, total);
        gathered
    }

    fn send(&self, to: usize, buf: &[f64]) {
        let op = self.begin(OpKind::Send, 0, buf.len(), to);
        self.stats
            .borrow_mut()
            .record(CollectiveKind::PointToPoint, buf.len());
        self.raw_send(to, buf, op);
    }

    fn recv(&self, from: usize) -> Vec<f64> {
        let op = self.begin(OpKind::Recv, 0, 0, from);
        self.raw_recv(from, op, None)
    }

    /// An empty-payload reduce and broadcast through the collective trees.
    fn barrier(&self) {
        let op = self.begin(OpKind::Barrier, 0, 0, 0);
        self.reduce_with(&mut [], op, |_, _| {});
        self.broadcast_internal(&mut [], op);
    }

    fn stats(&self) -> CommStats {
        self.stats.borrow().clone()
    }

    fn reset_stats(&self) {
        *self.stats.borrow_mut() = CommStats::default();
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp, reason = "tests compare exact values on purpose")]
mod tests {
    use super::*;

    /// The panic message of a run that must fail.
    fn failure_of<R>(run: impl FnOnce() -> R + std::panic::UnwindSafe) -> String {
        let payload = std::panic::catch_unwind(run)
            .err()
            .expect("the run must panic");
        payload
            .downcast_ref::<String>()
            .expect("ThreadComm diagnostics are formatted messages")
            .clone()
    }

    #[test]
    fn allreduce_sums_across_ranks() {
        for p in [1usize, 2, 3, 4, 5, 8] {
            let results = ThreadComm::run(p, |comm| {
                let mut buf = vec![comm.rank() as f64 + 1.0, 10.0 * (comm.rank() as f64 + 1.0)];
                comm.allreduce_sum(&mut buf);
                buf
            });
            let expect0: f64 = (1..=p).map(|r| r as f64).sum();
            for r in results {
                assert_eq!(r[0], expect0, "p={p}");
                assert_eq!(r[1], 10.0 * expect0, "p={p}");
            }
        }
    }

    #[test]
    fn allreduce_max_across_ranks() {
        for p in [2usize, 3, 7] {
            let results = ThreadComm::run(p, |comm| {
                let mut buf = vec![-(comm.rank() as f64), comm.rank() as f64];
                comm.allreduce_max(&mut buf);
                buf
            });
            for r in results {
                assert_eq!(r[0], 0.0);
                assert_eq!(r[1], (p - 1) as f64);
            }
        }
    }

    #[test]
    fn broadcast_from_every_root() {
        for p in [2usize, 3, 4, 6] {
            for root in 0..p {
                let results = ThreadComm::run(p, |comm| {
                    let mut buf = if comm.rank() == root {
                        vec![42.0, root as f64]
                    } else {
                        vec![0.0, 0.0]
                    };
                    comm.broadcast(root, &mut buf);
                    buf
                });
                for r in results {
                    assert_eq!(r, vec![42.0, root as f64], "p={p} root={root}");
                }
            }
        }
    }

    #[test]
    fn point_to_point_ring() {
        let p = 4;
        let results = ThreadComm::run(p, |comm| {
            let next = (comm.rank() + 1) % p;
            let prev = (comm.rank() + p - 1) % p;
            comm.send(next, &[comm.rank() as f64]);
            comm.recv(prev)[0]
        });
        assert_eq!(results, vec![3.0, 0.0, 1.0, 2.0]);
    }

    #[test]
    fn allgather_concatenates_in_rank_order() {
        for p in [1usize, 2, 3, 5] {
            let results = ThreadComm::run(p, |comm| {
                // Variable-length payloads: rank r contributes r+1 values.
                let send: Vec<f64> = (0..comm.rank() + 1)
                    .map(|i| (comm.rank() * 10 + i) as f64)
                    .collect();
                comm.allgather(&send)
            });
            let expect: Vec<f64> = (0..p)
                .flat_map(|r| (0..r + 1).map(move |i| (r * 10 + i) as f64))
                .collect();
            for r in results {
                assert_eq!(r, expect, "p={p}");
            }
        }
    }

    #[test]
    fn barrier_completes() {
        let results = ThreadComm::run(5, |comm| {
            comm.barrier();
            comm.barrier();
            comm.rank()
        });
        assert_eq!(results, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn stats_are_per_rank() {
        let results = ThreadComm::run(3, |comm| {
            let mut buf = vec![1.0; 10];
            comm.allreduce_sum(&mut buf);
            comm.stats().count(CollectiveKind::Allreduce)
        });
        assert_eq!(results, vec![1, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "watchdog")]
    fn watchdog_fires_on_missing_sender() {
        // Rank 1 waits for a message rank 0 never sends.
        ThreadComm::run_with_timeout(2, Duration::from_millis(200), |comm| {
            if comm.rank() == 1 {
                comm.recv(0);
            } else {
                // Keep rank 0 alive past the timeout so the failure is a
                // watchdog timeout, not a disconnect.
                std::thread::sleep(Duration::from_millis(400));
            }
        });
    }

    #[test]
    #[should_panic(expected = "stuck in barrier")]
    fn watchdog_fires_on_abandoned_barrier() {
        ThreadComm::run_with_timeout(2, Duration::from_millis(200), |comm| {
            if comm.rank() == 0 {
                comm.barrier();
            } else {
                std::thread::sleep(Duration::from_millis(400));
            }
        });
    }

    #[test]
    #[should_panic(expected = "terminated without sending")]
    fn disconnect_is_reported_structurally() {
        ThreadComm::run_with_timeout(2, Duration::from_secs(5), |comm| {
            if comm.rank() == 1 {
                comm.recv(0); // rank 0 returns immediately; its endpoint drops
            }
        });
    }

    #[test]
    #[should_panic(expected = "len: disagrees across ranks")]
    fn length_mismatch_in_tree_is_reported() {
        // Both ranks enter "allreduce_sum" but with different buffer lengths:
        // the internal tree detects the foreign message length.
        ThreadComm::run_with_timeout(2, Duration::from_secs(5), |comm| {
            let mut buf = vec![1.0; if comm.rank() == 0 { 4 } else { 7 }];
            comm.allreduce_sum(&mut buf);
        });
    }

    #[test]
    #[should_panic(expected = "SPMD collective stream mismatch")]
    fn watchdog_diagnoses_mismatched_collectives() {
        // The canonical mismatched-collective deadlock: rank 0 broadcasts
        // while rank 1 allreduces. The 4-word reduce message rank 1 sends
        // reaches rank 0's broadcast receive, whose message check rejects
        // it at once, long before the watchdog would end rank 1's wait for
        // the result broadcast.
        ThreadComm::run_with_timeout(2, Duration::from_millis(300), |comm| {
            let mut buf = vec![1.0; 4];
            if comm.rank() == 0 {
                comm.broadcast(1, &mut buf);
            } else {
                comm.allreduce_sum(&mut buf);
            }
        });
    }

    #[test]
    #[should_panic(expected = "ThreadComm watchdog")]
    fn skipped_barrier_before_a_broadcast_is_a_receive_cycle() {
        // Rank 1 skips the barrier rank 0 runs before a broadcast from rank
        // 0: rank 0's barrier waits for rank 1's reduce message, and rank
        // 1's broadcast waits for rank 0. No message crosses, so no check
        // can fire and only the watchdog ends the run.
        ThreadComm::run_with_timeout(2, Duration::from_millis(200), |comm| {
            if comm.rank() == 0 {
                comm.barrier();
            }
            comm.broadcast(0, &mut [0.0]);
        });
    }

    #[test]
    fn deep_trees_and_watchdog_coexist() {
        // A legitimate long chain of collectives at P=8 must not trip the
        // watchdog.
        let results = ThreadComm::run_with_timeout(8, Duration::from_secs(10), |comm| {
            let mut acc = 0.0;
            for round in 0..50 {
                let mut buf = vec![(comm.rank() + round) as f64; 3];
                comm.allreduce_sum(&mut buf);
                acc += buf[0];
            }
            acc
        });
        for r in &results[1..] {
            assert_eq!(*r, results[0]);
        }
    }

    #[test]
    fn matched_streams_pass_and_compute_correctly() {
        for p in [1usize, 2, 3, 5] {
            let results = ThreadComm::run(p, |comm| {
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
        let results = ThreadComm::run(p, |comm| {
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
        ThreadComm::run(2, |comm| {
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
        ThreadComm::run(3, |comm| {
            let mut buf = vec![1.0; 4 + comm.rank() % 2];
            comm.allreduce_sum(&mut buf);
        });
    }

    #[test]
    #[should_panic(expected = "never received")]
    fn wrong_root_is_caught() {
        // Each rank roots its own broadcast, so each sends to the other and
        // neither receives: no receive can compare the roots, and the run
        // fails on the two unreceived messages once both ranks return.
        ThreadComm::run(2, |comm| {
            let mut buf = vec![1.0; 4];
            comm.broadcast(comm.rank(), &mut buf);
        });
    }

    #[test]
    #[should_panic(expected = "kind: disagrees across ranks")]
    fn skipped_collective_is_caught() {
        // Rank 1 forgets a barrier, so rank 0's barrier receives rank 1's
        // allreduce_sum message.
        ThreadComm::run(2, |comm| {
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
        ThreadComm::run(3, |comm| {
            let req = comm.iallreduce_sum(vec![1.0; 4 + comm.rank() % 2]);
            req.wait();
        });
    }

    #[test]
    fn trace_ring_is_bounded() {
        // 24 matched barriers, then a kind mismatch as operation #25: the
        // dump must show each rank's newest TRACE_CAPACITY events, #10..#25.
        let ops = TRACE_CAPACITY + 9;
        let message = failure_of(|| {
            ThreadComm::run(2, |comm| {
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

    #[test]
    fn one_way_send_fails_the_run() {
        let message = failure_of(|| {
            ThreadComm::run(2, |comm| {
                if comm.rank() == 0 {
                    comm.send(1, &[1.0, 2.0, 3.0]);
                }
            })
        });
        assert!(message.contains("never received"), "{message}");
        assert!(
            message.contains("rank 0 to rank 1: send(to=1, len=3)"),
            "{message}"
        );
    }

    #[test]
    fn the_diagnosing_rank_is_reraised_not_a_disconnect() {
        // At p = 4, rank 2 receives rank 3's reduce message, so it is rank 2
        // that meets rank 3's allreduce_max while rank 0, having taken rank
        // 1's message, is blocked on rank 2. Rank 2's panic then disconnects
        // rank 0 and, through rank 0, ranks 1 and 3.
        let message = failure_of(|| {
            ThreadComm::run(4, |comm| {
                let mut buf = vec![1.0; 4];
                if comm.rank() == 3 {
                    comm.allreduce_max(&mut buf);
                } else {
                    comm.allreduce_sum(&mut buf);
                }
            })
        });
        assert!(
            message.starts_with("ThreadComm rank 2: SPMD collective stream mismatch"),
            "{message}"
        );
        assert!(
            message.contains("kind: disagrees across ranks"),
            "{message}"
        );
    }
}
