//! Thread-backed communicator: `P` ranks as OS threads.
//!
//! This backend exists to *validate* the distributed algorithms — the
//! binomial reduce/broadcast trees perform the same data movement an MPI
//! implementation would, so integration tests can assert that the
//! distributed rounding variants agree with their sequential counterparts.
//! (On a multi-core machine it also yields real speedup; scaling *studies*
//! use the analytic model in [`crate::cost`] instead, see DESIGN.md.)
//!
//! # Deadlock watchdog
//!
//! The classic failure mode of SPMD code is ranks issuing mismatched or
//! reordered collectives, which under a blocking runtime surfaces as a hung
//! test suite. Every blocking operation here (point-to-point receive, the
//! internal tree receives of the collectives, and [`Communicator::barrier`])
//! is therefore guarded by a watchdog: if the operation does not complete
//! within the communicator's timeout ([`ThreadComm::create_with_timeout`],
//! default [`ThreadComm::DEFAULT_WATCHDOG`]), the rank panics with a
//! diagnostic that names the stuck operation and dumps every rank's last
//! communication event, instead of hanging forever. Cross-rank *semantic*
//! checking (catching the mismatch before it deadlocks) is layered on top:
//! run under [`crate::run_verified`].

use std::cell::RefCell;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::cost::{CollectiveKind, CommStats};
use crate::Communicator;

/// Shared per-rank "last event" table used for watchdog diagnostics.
#[derive(Debug)]
struct StatusBoard {
    entries: Mutex<Vec<String>>,
}

impl StatusBoard {
    fn new(p: usize) -> Self {
        StatusBoard {
            entries: Mutex::new(vec!["<no events yet>".to_string(); p]),
        }
    }

    fn set(&self, rank: usize, event: String) {
        match self.entries.lock() {
            Ok(mut e) => e[rank] = event,
            // A poisoned board means another rank already panicked while
            // holding the lock; diagnostics are best-effort at that point.
            Err(poisoned) => poisoned.into_inner()[rank] = event,
        }
    }

    fn snapshot(&self) -> Vec<String> {
        match self.entries.lock() {
            Ok(e) => e.clone(),
            Err(poisoned) => poisoned.into_inner().clone(),
        }
    }

    fn render(&self) -> String {
        self.snapshot()
            .iter()
            .enumerate()
            .map(|(r, e)| format!("  rank {r}: {e}"))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// A reusable barrier whose `wait` panics with a diagnostic instead of
/// blocking forever when some rank never arrives.
#[derive(Debug)]
struct WatchdogBarrier {
    size: usize,
    state: Mutex<BarrierState>,
    cv: Condvar,
}

#[derive(Debug)]
struct BarrierState {
    arrived: usize,
    generation: u64,
}

impl WatchdogBarrier {
    fn new(size: usize) -> Self {
        WatchdogBarrier {
            size,
            state: Mutex::new(BarrierState {
                arrived: 0,
                generation: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// Blocks until all ranks arrive or `timeout` elapses; on timeout calls
    /// `diag` for a panic message.
    fn wait(&self, timeout: Duration, diag: impl FnOnce(Duration) -> String) {
        let mut guard = match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        guard.arrived += 1;
        if guard.arrived == self.size {
            guard.arrived = 0;
            guard.generation = guard.generation.wrapping_add(1);
            self.cv.notify_all();
            return;
        }
        let gen_at_entry = guard.generation;
        let start = Instant::now();
        while guard.generation == gen_at_entry {
            let remaining = match timeout.checked_sub(start.elapsed()) {
                Some(d) if !d.is_zero() => d,
                #[expect(
                    clippy::panic,
                    reason = "watchdog abort — turning a silent deadlock into a loud diagnostic is this type's purpose"
                )]
                _ => panic!("{}", diag(start.elapsed())),
            };
            guard = match self.cv.wait_timeout(guard, remaining) {
                Ok((g, _)) => g,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
    }
}

/// One rank's endpoint of a `P`-rank thread communicator.
///
/// Handles are created in bulk with [`ThreadComm::create`] and moved into
/// their threads; [`ThreadComm::run`] wraps the whole spawn/join dance.
pub struct ThreadComm {
    rank: usize,
    size: usize,
    /// `senders[to]` feeds rank `to`'s mailbox for messages from us.
    senders: Vec<Sender<Vec<f64>>>,
    /// `receivers[from]` drains our mailbox for messages from `from`.
    receivers: Vec<Receiver<Vec<f64>>>,
    barrier: Arc<WatchdogBarrier>,
    board: Arc<StatusBoard>,
    watchdog: Duration,
    stats: RefCell<CommStats>,
}

impl ThreadComm {
    /// Default watchdog timeout for [`ThreadComm::create`]/[`ThreadComm::run`]:
    /// generous enough for any legitimate collective in the test suite, small
    /// enough that a deadlocked test fails rather than hanging CI.
    pub const DEFAULT_WATCHDOG: Duration = Duration::from_secs(30);

    /// Creates the `p` connected endpoints of a new communicator with the
    /// default watchdog timeout.
    pub fn create(p: usize) -> Vec<ThreadComm> {
        Self::create_with_timeout(p, Self::DEFAULT_WATCHDOG)
    }

    /// Creates the `p` connected endpoints with a custom watchdog timeout:
    /// any blocking receive or barrier that exceeds `watchdog` panics with a
    /// per-rank event dump instead of hanging.
    pub fn create_with_timeout(p: usize, watchdog: Duration) -> Vec<ThreadComm> {
        assert!(p >= 1);
        // mesh[from][to]
        let mut senders_by_from: Vec<Vec<Sender<Vec<f64>>>> = Vec::with_capacity(p);
        let mut receivers_by_to: Vec<Vec<Receiver<Vec<f64>>>> =
            (0..p).map(|_| Vec::new()).collect();
        for _from in 0..p {
            let mut row = Vec::with_capacity(p);
            for inbox in receivers_by_to.iter_mut() {
                let (s, r) = channel();
                row.push(s);
                inbox.push(r);
            }
            senders_by_from.push(row);
        }
        let barrier = Arc::new(WatchdogBarrier::new(p));
        let board = Arc::new(StatusBoard::new(p));
        senders_by_from
            .into_iter()
            .zip(receivers_by_to)
            .enumerate()
            .map(|(rank, (senders, receivers))| ThreadComm {
                rank,
                size: p,
                senders,
                receivers,
                barrier: Arc::clone(&barrier),
                board: Arc::clone(&board),
                watchdog,
                stats: RefCell::new(CommStats::default()),
            })
            .collect()
    }

    /// Runs `f` as an SPMD program on `p` ranks (threads), returning each
    /// rank's result in rank order.
    ///
    /// If a rank panics (including watchdog and [`crate::run_verified`]
    /// diagnostics), the panic is re-raised on the caller's thread after all
    /// ranks have terminated, preserving the original message.
    pub fn run<R, F>(p: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(ThreadComm) -> R + Sync,
    {
        Self::run_with_timeout(p, Self::DEFAULT_WATCHDOG, f)
    }

    /// [`ThreadComm::run`] with a custom watchdog timeout.
    pub fn run_with_timeout<R, F>(p: usize, watchdog: Duration, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(ThreadComm) -> R + Sync,
    {
        let comms = ThreadComm::create_with_timeout(p, watchdog);
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
        results
            .into_iter()
            .map(|r| match r {
                Ok(v) => v,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    }

    fn note(&self, event: String) {
        self.board.set(self.rank, event);
    }

    #[expect(
        clippy::panic,
        reason = "peer death mid-run is unrecoverable for a blocking transport; panic carries the per-rank event board"
    )]
    fn raw_send(&self, to: usize, buf: &[f64]) {
        if self.senders[to].send(buf.to_vec()).is_err() {
            panic!(
                "ThreadComm rank {}: send(to={to}, len={}) failed: rank {to} has \
                 terminated (its endpoint was dropped). Per-rank last events:\n{}",
                self.rank,
                buf.len(),
                self.board.render()
            );
        }
    }

    fn raw_recv(&self, from: usize) -> Vec<f64> {
        let start = Instant::now();
        loop {
            let remaining = match self.watchdog.checked_sub(start.elapsed()) {
                Some(d) if !d.is_zero() => d,
                #[expect(
                    clippy::panic,
                    reason = "watchdog abort — turning a silent deadlock into a loud diagnostic is this type's purpose"
                )]
                _ => panic!(
                    "ThreadComm watchdog: rank {} stuck in recv(from={from}) for \
                     {:?} (timeout {:?}). Per-rank last events:\n{}\n\
                     This usually means ranks issued mismatched or reordered \
                     collectives; run under tt_comm::run_verified to pinpoint \
                     the first divergent call.",
                    self.rank,
                    start.elapsed(),
                    self.watchdog,
                    self.board.render()
                ),
            };
            match self.receivers[from].recv_timeout(remaining) {
                Ok(msg) => return msg,
                Err(RecvTimeoutError::Timeout) => continue,
                #[expect(
                    clippy::panic,
                    reason = "peer death mid-run is unrecoverable for a blocking transport; panic carries the per-rank event board"
                )]
                Err(RecvTimeoutError::Disconnected) => panic!(
                    "ThreadComm rank {}: recv(from={from}) failed: rank {from} has \
                     terminated without sending (its endpoint was dropped). \
                     Per-rank last events:\n{}",
                    self.rank,
                    self.board.render()
                ),
            }
        }
    }

    /// Receive for the internal collective trees, where the expected payload
    /// length is known: a length mismatch means a foreign message (from a
    /// misaligned operation on the peer) was consumed, and is reported as
    /// such rather than silently corrupting the reduction.
    #[expect(
        clippy::panic,
        reason = "consuming a foreign message would silently corrupt the reduction; abort with the divergence report instead"
    )]
    fn raw_recv_expect(&self, from: usize, expected_len: usize, op: &str) -> Vec<f64> {
        let msg = self.raw_recv(from);
        if msg.len() != expected_len {
            panic!(
                "ThreadComm rank {}: {op} expected a {expected_len}-word message \
                 from rank {from} but received {} words — the ranks' collective \
                 streams have diverged (mismatched or reordered operations). \
                 Per-rank last events:\n{}",
                self.rank,
                msg.len(),
                self.board.render()
            );
        }
        msg
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
        self.note(format!("in allreduce_sum(len={})", buf.len()));
        self.reduce_with(buf, "allreduce_sum", |acc, inc| {
            for (a, b) in acc.iter_mut().zip(inc.iter()) {
                *a += b;
            }
        });
        self.broadcast_internal(0, buf, "allreduce_sum");
        self.stats
            .borrow_mut()
            .record(CollectiveKind::Allreduce, buf.len());
        self.note(format!("after allreduce_sum(len={})", buf.len()));
    }

    fn allreduce_max(&self, buf: &mut [f64]) {
        self.note(format!("in allreduce_max(len={})", buf.len()));
        self.reduce_with(buf, "allreduce_max", |acc, inc| {
            for (a, b) in acc.iter_mut().zip(inc.iter()) {
                if *b > *a {
                    *a = *b;
                }
            }
        });
        self.broadcast_internal(0, buf, "allreduce_max");
        self.stats
            .borrow_mut()
            .record(CollectiveKind::Allreduce, buf.len());
        self.note(format!("after allreduce_max(len={})", buf.len()));
    }

    fn broadcast(&self, root: usize, buf: &mut [f64]) {
        self.note(format!("in broadcast(root={root}, len={})", buf.len()));
        self.broadcast_internal(root, buf, "broadcast");
        self.stats
            .borrow_mut()
            .record(CollectiveKind::Broadcast, buf.len());
        self.note(format!("after broadcast(root={root}, len={})", buf.len()));
    }

    /// Gather-to-root + broadcast (binomial trees on both legs), supporting
    /// per-rank payload lengths (MPI_Allgatherv semantics).
    fn allgather(&self, send: &[f64]) -> Vec<f64> {
        self.note(format!("in allgather(local_len={})", send.len()));
        let p = self.size;
        let mut gathered: Vec<f64>;
        if self.rank == 0 {
            let mut parts: Vec<Vec<f64>> = Vec::with_capacity(p);
            parts.push(send.to_vec());
            for from in 1..p {
                parts.push(self.raw_recv(from));
            }
            gathered = parts.concat();
        } else {
            self.raw_send(0, send);
            gathered = Vec::new();
        }
        // Broadcast the total length, then the payload.
        let mut len_buf = [gathered.len() as f64];
        self.broadcast_internal(0, &mut len_buf, "allgather");
        #[expect(
            clippy::cast_possible_truncation,
            reason = "the length travels as an f64 word holding an exact integer below 2^53"
        )]
        let total = len_buf[0] as usize;
        gathered.resize(total, 0.0);
        self.broadcast_internal(0, &mut gathered, "allgather");
        self.stats
            .borrow_mut()
            .record(CollectiveKind::Allgather, total);
        self.note(format!("after allgather(local_len={})", send.len()));
        gathered
    }

    fn send(&self, to: usize, buf: &[f64]) {
        self.note(format!("in send(to={to}, len={})", buf.len()));
        self.stats
            .borrow_mut()
            .record(CollectiveKind::PointToPoint, buf.len());
        self.raw_send(to, buf);
        self.note(format!("after send(to={to}, len={})", buf.len()));
    }

    fn recv(&self, from: usize) -> Vec<f64> {
        self.note(format!("in recv(from={from})"));
        let msg = self.raw_recv(from);
        self.note(format!("after recv(from={from}, len={})", msg.len()));
        msg
    }

    fn barrier(&self) {
        self.note("in barrier".to_string());
        let rank = self.rank;
        let board = Arc::clone(&self.board);
        self.barrier.wait(self.watchdog, move |elapsed| {
            format!(
                "ThreadComm watchdog: rank {rank} stuck in barrier for {elapsed:?}: \
                 some rank never arrived. Per-rank last events:\n{}",
                board.render()
            )
        });
        self.note("after barrier".to_string());
    }

    fn stats(&self) -> CommStats {
        self.stats.borrow().clone()
    }

    fn reset_stats(&self) {
        *self.stats.borrow_mut() = CommStats::default();
    }
}

impl ThreadComm {
    /// Binomial-tree reduction to rank 0 with a custom combiner.
    fn reduce_with(&self, buf: &mut [f64], op: &str, combine: impl Fn(&mut [f64], &[f64])) {
        let p = self.size;
        let rank = self.rank;
        let mut mask = 1;
        while mask < p {
            if rank & mask != 0 {
                self.raw_send(rank - mask, buf);
                break;
            } else if rank + mask < p {
                let inc = self.raw_recv_expect(rank + mask, buf.len(), op);
                combine(buf, &inc);
            }
            mask <<= 1;
        }
    }

    /// Binomial-tree broadcast from `root` (standard MPICH virtual-rank
    /// formulation), without recording a stats event.
    fn broadcast_internal(&self, root: usize, buf: &mut [f64], op: &str) {
        let p = self.size;
        if p == 1 {
            return;
        }
        let vrank = (self.rank + p - root) % p;
        let mut mask = 1usize;
        while mask < p {
            if vrank & mask != 0 {
                let vsrc = vrank - mask;
                let src = (vsrc + root) % p;
                let data = self.raw_recv_expect(src, buf.len(), op);
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
                self.raw_send(dst, buf);
            }
            mask >>= 1;
        }
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp, reason = "tests compare exact values on purpose")]
mod tests {
    use super::*;

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
    #[should_panic(expected = "collective streams have diverged")]
    fn length_mismatch_in_tree_is_reported() {
        // Both ranks enter "allreduce_sum" but with different buffer lengths:
        // the internal tree detects the foreign message length.
        ThreadComm::run_with_timeout(2, Duration::from_secs(5), |comm| {
            let mut buf = vec![1.0; if comm.rank() == 0 { 4 } else { 7 }];
            comm.allreduce_sum(&mut buf);
        });
    }

    #[test]
    #[should_panic(expected = "ThreadComm watchdog")]
    fn watchdog_diagnoses_mismatched_collectives() {
        // The canonical mismatched-collective deadlock: rank 0 broadcasts
        // while rank 1 allreduces. The 4-word reduce message rank 1 sends is
        // consumed by rank 0's broadcast receive (the length matches, so the
        // structural check cannot see the divergence); rank 0 completes and
        // idles while rank 1 blocks forever waiting for the result broadcast.
        // The watchdog must convert that silent hang into a diagnostic panic
        // naming the stuck receive and dumping every rank's last event.
        ThreadComm::run_with_timeout(2, Duration::from_millis(300), |comm| {
            let mut buf = vec![1.0; 4];
            if comm.rank() == 0 {
                comm.broadcast(1, &mut buf);
                // Stay alive past the timeout so rank 1's failure is the
                // watchdog, not a disconnect.
                std::thread::sleep(Duration::from_millis(900));
            } else {
                comm.allreduce_sum(&mut buf);
            }
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
}
