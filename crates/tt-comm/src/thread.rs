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
//! checking (catching the mismatch before it deadlocks) is layered on top by
//! [`crate::verify::VerifyComm`].

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::cost::{CollectiveKind, CommStats};
use crate::{Communicator, Request};

/// Shared per-rank "last event" table used for watchdog diagnostics, plus a
/// per-rank summary of posted-but-unwaited nonblocking requests: a hang with
/// an in-flight iallreduce must name the unserved request, not show an empty
/// queue.
#[derive(Debug)]
struct StatusBoard {
    entries: Mutex<Vec<String>>,
    pending: Mutex<Vec<String>>,
}

impl StatusBoard {
    fn new(p: usize) -> Self {
        StatusBoard {
            entries: Mutex::new(vec!["<no events yet>".to_string(); p]),
            pending: Mutex::new(vec!["none".to_string(); p]),
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

    fn set_pending(&self, rank: usize, summary: String) {
        match self.pending.lock() {
            Ok(mut e) => e[rank] = summary,
            Err(poisoned) => poisoned.into_inner()[rank] = summary,
        }
    }

    fn snapshot(&self) -> Vec<String> {
        match self.entries.lock() {
            Ok(e) => e.clone(),
            Err(poisoned) => poisoned.into_inner().clone(),
        }
    }

    fn snapshot_pending(&self) -> Vec<String> {
        match self.pending.lock() {
            Ok(e) => e.clone(),
            Err(poisoned) => poisoned.into_inner().clone(),
        }
    }

    fn render(&self) -> String {
        self.snapshot()
            .iter()
            .zip(self.snapshot_pending())
            .enumerate()
            .map(|(r, (e, p))| format!("  rank {r}: {e} | in-flight: {p}"))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Tag marking a nonblocking point-to-point message on the nonblocking
/// channel mesh (collective messages carry their post-order counter).
const NB_P2P_TAG: u64 = u64::MAX;

/// A tagged payload on the nonblocking channel mesh.
type TaggedMsg = (u64, Vec<f64>);

/// One posted-but-uncompleted nonblocking operation of a rank.
struct PendingReq {
    id: u64,
    op: PendingOp,
}

enum PendingOp {
    /// Flat-exchange iallreduce: the contribution was eagerly sent to every
    /// peer at post time; ours is kept for the tree-order combine at wait.
    Allreduce { tag: u64, buf: Vec<f64> },
    /// Deferred receive of a peer's `isend`.
    Recv { from: usize },
}

impl PendingOp {
    fn describe(&self) -> String {
        match self {
            PendingOp::Allreduce { tag, buf } => {
                format!("iallreduce#{tag}(len={})", buf.len())
            }
            PendingOp::Recv { from } => format!("irecv(from={from})"),
        }
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
                // analyze::allow(panic_surface): watchdog abort — turning a silent deadlock into a loud diagnostic is this type's purpose
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
    /// Second, independent mesh for nonblocking traffic (tagged messages):
    /// blocking collectives issued between a post and its wait can never
    /// consume an in-flight nonblocking message, and vice versa.
    nb_senders: Vec<Sender<TaggedMsg>>,
    nb_receivers: Vec<Receiver<TaggedMsg>>,
    /// Per-peer park for nonblocking messages pulled off the channel while
    /// looking for a different tag (out-of-order waits).
    nb_stash: RefCell<Vec<VecDeque<TaggedMsg>>>,
    /// Post-order counter tagging nonblocking collective messages; SPMD
    /// programs post in identical order, so tags agree across ranks.
    nb_coll_tag: Cell<u64>,
    next_req_id: Cell<u64>,
    /// Posted-but-uncompleted requests, completed strictly in post (FIFO)
    /// order regardless of the order the user waits in.
    pending: RefCell<VecDeque<PendingReq>>,
    /// Results of requests completed ahead of their own wait by the FIFO
    /// progression.
    completed: RefCell<BTreeMap<u64, Vec<f64>>>,
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
        // mesh[from][to], one per traffic class (blocking / nonblocking)
        let mut senders_by_from: Vec<Vec<Sender<Vec<f64>>>> = Vec::with_capacity(p);
        let mut receivers_by_to: Vec<Vec<Receiver<Vec<f64>>>> =
            (0..p).map(|_| Vec::new()).collect();
        let mut nb_senders_by_from: Vec<Vec<Sender<TaggedMsg>>> = Vec::with_capacity(p);
        let mut nb_receivers_by_to: Vec<Vec<Receiver<TaggedMsg>>> =
            (0..p).map(|_| Vec::new()).collect();
        for _from in 0..p {
            let mut row = Vec::with_capacity(p);
            for inbox in receivers_by_to.iter_mut() {
                let (s, r) = channel();
                row.push(s);
                inbox.push(r);
            }
            senders_by_from.push(row);
            let mut nb_row = Vec::with_capacity(p);
            for inbox in nb_receivers_by_to.iter_mut() {
                let (s, r) = channel();
                nb_row.push(s);
                inbox.push(r);
            }
            nb_senders_by_from.push(nb_row);
        }
        let barrier = Arc::new(WatchdogBarrier::new(p));
        let board = Arc::new(StatusBoard::new(p));
        senders_by_from
            .into_iter()
            .zip(receivers_by_to)
            .zip(nb_senders_by_from.into_iter().zip(nb_receivers_by_to))
            .enumerate()
            .map(
                |(rank, ((senders, receivers), (nb_senders, nb_receivers)))| ThreadComm {
                    rank,
                    size: p,
                    senders,
                    receivers,
                    nb_senders,
                    nb_receivers,
                    nb_stash: RefCell::new((0..p).map(|_| VecDeque::new()).collect()),
                    nb_coll_tag: Cell::new(0),
                    next_req_id: Cell::new(0),
                    pending: RefCell::new(VecDeque::new()),
                    completed: RefCell::new(BTreeMap::new()),
                    barrier: Arc::clone(&barrier),
                    board: Arc::clone(&board),
                    watchdog,
                    stats: RefCell::new(CommStats::default()),
                },
            )
            .collect()
    }

    /// Runs `f` as an SPMD program on `p` ranks (threads), returning each
    /// rank's result in rank order.
    ///
    /// If a rank panics (including watchdog and [`crate::verify::VerifyComm`]
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

    pub(crate) fn raw_send(&self, to: usize, buf: &[f64]) {
        if self.senders[to].send(buf.to_vec()).is_err() {
            // analyze::allow(panic_surface): peer death mid-run is unrecoverable for a blocking transport; panic carries the per-rank event board
            panic!(
                "ThreadComm rank {}: send(to={to}, len={}) failed: rank {to} has \
                 terminated (its endpoint was dropped). Per-rank last events:\n{}",
                self.rank,
                buf.len(),
                self.board.render()
            );
        }
    }

    pub(crate) fn raw_recv(&self, from: usize) -> Vec<f64> {
        let start = Instant::now();
        loop {
            let remaining = match self.watchdog.checked_sub(start.elapsed()) {
                Some(d) if !d.is_zero() => d,
                // analyze::allow(panic_surface): watchdog abort — turning a silent deadlock into a loud diagnostic is this type's purpose
                _ => panic!(
                    "ThreadComm watchdog: rank {} stuck in recv(from={from}) for \
                     {:?} (timeout {:?}). Per-rank last events:\n{}\n\
                     This usually means ranks issued mismatched or reordered \
                     collectives; wrap the communicator in \
                     tt_comm::verify::VerifyComm to pinpoint the first divergent \
                     call.",
                    self.rank,
                    start.elapsed(),
                    self.watchdog,
                    self.board.render()
                ),
            };
            match self.receivers[from].recv_timeout(remaining) {
                Ok(msg) => return msg,
                Err(RecvTimeoutError::Timeout) => continue,
                // analyze::allow(panic_surface): peer death mid-run is unrecoverable for a blocking transport; panic carries the per-rank event board
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
    fn raw_recv_expect(&self, from: usize, expected_len: usize, op: &str) -> Vec<f64> {
        let msg = self.raw_recv(from);
        if msg.len() != expected_len {
            // analyze::allow(panic_surface): consuming a foreign message would silently corrupt the reduction; abort with the divergence report instead
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

    fn alloc_req(&self) -> u64 {
        let id = self.next_req_id.get();
        self.next_req_id.set(id + 1);
        id
    }

    /// Publishes this rank's pending-request queue (plus the op currently
    /// being completed, if any) to the shared board, so watchdog dumps name
    /// in-flight requests.
    fn note_pending(&self, completing: Option<&PendingOp>) {
        let mut items: Vec<String> = Vec::new();
        if let Some(op) = completing {
            items.push(format!("{} (in wait)", op.describe()));
        }
        items.extend(self.pending.borrow().iter().map(|r| r.op.describe()));
        let summary = if items.is_empty() {
            "none".to_string()
        } else {
            items.join(", ")
        };
        self.board.set_pending(self.rank, summary);
    }

    fn nb_send(&self, to: usize, tag: u64, buf: Vec<f64>) {
        let len = buf.len();
        if self.nb_senders[to].send((tag, buf)).is_err() {
            // analyze::allow(panic_surface): peer death mid-run is unrecoverable for a blocking transport; panic carries the per-rank event board
            panic!(
                "ThreadComm rank {}: nonblocking send(to={to}, len={len}) failed: \
                 rank {to} has terminated (its endpoint was dropped). Per-rank \
                 last events:\n{}",
                self.rank,
                self.board.render()
            );
        }
    }

    /// Blocking receive of the nonblocking message with tag `want` from
    /// `from`; foreign-tagged messages are parked in the stash for the
    /// requests they belong to. Watchdog-guarded like every blocking wait.
    fn nb_recv_tagged(&self, from: usize, want: u64, op: &str) -> Vec<f64> {
        {
            let mut stash = self.nb_stash.borrow_mut();
            let q = &mut stash[from];
            if let Some((_, payload)) = q
                .iter()
                .position(|(t, _)| *t == want)
                .and_then(|pos| q.remove(pos))
            {
                return payload;
            }
        }
        let start = Instant::now();
        loop {
            let remaining = match self.watchdog.checked_sub(start.elapsed()) {
                Some(d) if !d.is_zero() => d,
                // analyze::allow(panic_surface): watchdog abort — turning a silent deadlock into a loud diagnostic is this type's purpose
                _ => panic!(
                    "ThreadComm watchdog: rank {} stuck completing {op} (waiting \
                     for a nonblocking message from rank {from}) for {:?} \
                     (timeout {:?}). Per-rank last events and in-flight \
                     requests:\n{}\n\
                     This usually means some rank never posted the matching \
                     nonblocking operation, or waits were placed at divergent \
                     program points; wrap the communicator in \
                     tt_comm::verify::VerifyComm to pinpoint the first \
                     divergent call.",
                    self.rank,
                    start.elapsed(),
                    self.watchdog,
                    self.board.render()
                ),
            };
            match self.nb_receivers[from].recv_timeout(remaining) {
                Ok((tag, msg)) if tag == want => return msg,
                Ok(other) => self.nb_stash.borrow_mut()[from].push_back(other),
                Err(RecvTimeoutError::Timeout) => continue,
                // analyze::allow(panic_surface): peer death mid-run is unrecoverable for a blocking transport; panic carries the per-rank event board
                Err(RecvTimeoutError::Disconnected) => panic!(
                    "ThreadComm rank {}: completing {op} failed: rank {from} has \
                     terminated without sending (its endpoint was dropped). \
                     Per-rank last events:\n{}",
                    self.rank,
                    self.board.render()
                ),
            }
        }
    }

    /// Drains whatever nonblocking messages have already arrived into the
    /// stash without blocking (`req_test` progression).
    fn nb_pump(&self) {
        let mut stash = self.nb_stash.borrow_mut();
        for (from, rx) in self.nb_receivers.iter().enumerate() {
            while let Ok(msg) = rx.try_recv() {
                stash[from].push_back(msg);
            }
        }
    }

    /// Whether `op` can complete from the stash alone (after [`nb_pump`]).
    fn op_is_ready(&self, op: &PendingOp) -> bool {
        let stash = self.nb_stash.borrow();
        match op {
            PendingOp::Allreduce { tag, .. } => (0..self.size)
                .filter(|&from| from != self.rank)
                .all(|from| stash[from].iter().any(|(t, _)| t == tag)),
            PendingOp::Recv { from } => stash[*from].iter().any(|(t, _)| *t == NB_P2P_TAG),
        }
    }

    /// Completes one pending operation, blocking as needed.
    ///
    /// For an iallreduce the exchange already happened at post time (every
    /// rank eagerly sent its contribution to all peers); here the P
    /// contributions are combined **in the exact association order of the
    /// blocking binomial tree** (`reduce_with` + broadcast from rank 0), so
    /// the result is bitwise identical to `allreduce_sum` on every rank.
    fn complete_op(&self, op: PendingOp) -> Vec<f64> {
        match op {
            PendingOp::Allreduce { tag, buf } => {
                let p = self.size;
                let len = buf.len();
                let mut acc: Vec<Vec<f64>> = Vec::with_capacity(p);
                for from in 0..p {
                    if from == self.rank {
                        acc.push(Vec::new()); // placeholder, filled below
                        continue;
                    }
                    let msg = self.nb_recv_tagged(from, tag, "iallreduce_sum");
                    if msg.len() != len {
                        // analyze::allow(panic_surface): consuming a foreign message would silently corrupt the reduction; abort with the divergence report instead
                        panic!(
                            "ThreadComm rank {}: iallreduce_sum#{tag} expected a \
                             {len}-word contribution from rank {from} but received \
                             {} words — the ranks' nonblocking collective streams \
                             have diverged. Per-rank last events:\n{}",
                            self.rank,
                            msg.len(),
                            self.board.render()
                        );
                    }
                    acc.push(msg);
                }
                acc[self.rank] = buf;
                // Binomial-tree-order combine, replayed locally: identical
                // floating-point operations in identical order on every rank.
                let mut mask = 1usize;
                while mask < p {
                    let mut r = 0usize;
                    while r + mask < p {
                        let (lo, hi) = acc.split_at_mut(r + mask);
                        for (a, b) in lo[r].iter_mut().zip(hi[0].iter()) {
                            *a += b;
                        }
                        r += mask << 1;
                    }
                    mask <<= 1;
                }
                acc.swap_remove(0)
            }
            PendingOp::Recv { from } => self.nb_recv_tagged(from, NB_P2P_TAG, "irecv"),
        }
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

    /// Nonblocking allreduce as an eager **flat exchange**: the contribution
    /// is sent to every peer at post time, so between post and wait the only
    /// outstanding work is receiving the P−1 peer contributions — which is
    /// exactly what overlapped compute hides. The combine at wait time
    /// replays the blocking binomial-tree association order, so results are
    /// bitwise identical to [`Communicator::allreduce_sum`].
    fn iallreduce_sum(&self, buf: Vec<f64>) -> Request<'_> {
        self.note(format!("posted iallreduce_sum(len={})", buf.len()));
        self.stats
            .borrow_mut()
            .record(CollectiveKind::Allreduce, buf.len());
        if self.size == 1 {
            return Request::ready(buf);
        }
        let tag = self.nb_coll_tag.get();
        self.nb_coll_tag.set(tag + 1);
        for to in 0..self.size {
            if to != self.rank {
                self.nb_send(to, tag, buf.clone());
            }
        }
        let id = self.alloc_req();
        self.pending.borrow_mut().push_back(PendingReq {
            id,
            op: PendingOp::Allreduce { tag, buf },
        });
        self.note_pending(None);
        Request::pending(self, id)
    }

    fn isend(&self, to: usize, buf: Vec<f64>) -> Request<'_> {
        self.note(format!("isend(to={to}, len={})", buf.len()));
        self.stats
            .borrow_mut()
            .record(CollectiveKind::PointToPoint, buf.len());
        self.nb_send(to, NB_P2P_TAG, buf);
        // Eager channel send: locally complete as soon as it is posted.
        Request::ready(Vec::new())
    }

    fn irecv(&self, from: usize) -> Request<'_> {
        self.note(format!("posted irecv(from={from})"));
        let id = self.alloc_req();
        self.pending.borrow_mut().push_back(PendingReq {
            id,
            op: PendingOp::Recv { from },
        });
        self.note_pending(None);
        Request::pending(self, id)
    }

    /// Completes requests strictly in post order until `id` is served:
    /// waiting on a later request first simply drags the earlier ones to
    /// completion ahead of it (their results are held for their own waits).
    /// This pins the byte-consumption order to the post order, which is the
    /// determinism contract the nonblocking callers rely on (DESIGN.md §14).
    fn req_wait(&self, id: u64) -> Vec<f64> {
        loop {
            if let Some(v) = self.completed.borrow_mut().remove(&id) {
                return v;
            }
            let req = self.pending.borrow_mut().pop_front();
            let Some(req) = req else {
                // analyze::allow(panic_surface): an id with no pending entry means a request was completed twice or crossed communicators — an unrecoverable harness bug
                panic!(
                    "ThreadComm rank {}: req_wait(id={id}) found no matching \
                     pending request — a Request was completed twice or used \
                     with a different communicator",
                    self.rank
                );
            };
            self.note_pending(Some(&req.op));
            let result = self.complete_op(req.op);
            self.note_pending(None);
            if req.id == id {
                return result;
            }
            self.completed.borrow_mut().insert(req.id, result);
        }
    }

    /// Nonblocking progression: drains arrived messages, then completes
    /// pending requests in post order for as long as the queue head can
    /// finish without blocking.
    fn req_test(&self, id: u64) -> Option<Vec<f64>> {
        loop {
            if let Some(v) = self.completed.borrow_mut().remove(&id) {
                return Some(v);
            }
            self.nb_pump();
            let head_ready = {
                let pending = self.pending.borrow();
                match pending.front() {
                    Some(req) => self.op_is_ready(&req.op),
                    None => return None,
                }
            };
            if !head_ready {
                return None;
            }
            // `head_ready` proved the queue non-empty just above, but pop
            // defensively anyway rather than unwrap.
            let req = self.pending.borrow_mut().pop_front()?;
            let result = self.complete_op(req.op);
            self.note_pending(None);
            self.completed.borrow_mut().insert(req.id, result);
        }
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
    fn iallreduce_matches_blocking_bitwise() {
        for p in [1usize, 2, 3, 4, 5, 8] {
            let blocking = ThreadComm::run(p, |comm| {
                let mut buf: Vec<f64> =
                    (0..6).map(|i| (comm.rank() * 7 + i) as f64 / 3.0).collect();
                comm.allreduce_sum(&mut buf);
                buf
            });
            let nonblocking = ThreadComm::run(p, |comm| {
                let buf: Vec<f64> = (0..6).map(|i| (comm.rank() * 7 + i) as f64 / 3.0).collect();
                comm.iallreduce_sum(buf).wait()
            });
            assert_eq!(blocking, nonblocking, "p={p}");
        }
    }

    #[test]
    fn out_of_order_waits_complete_in_post_order() {
        for p in [2usize, 3, 4] {
            let results = ThreadComm::run(p, |comm| {
                let a = comm.iallreduce_sum(vec![1.0; 3]);
                let b = comm.iallreduce_sum(vec![10.0; 5]);
                // Waiting b first must still serve both correctly.
                let vb = b.wait();
                let va = a.wait();
                (va, vb)
            });
            for (va, vb) in results {
                assert_eq!(va, vec![p as f64; 3]);
                assert_eq!(vb, vec![10.0 * p as f64; 5]);
            }
        }
    }

    #[test]
    fn isend_irecv_ring_round_trips() {
        let p = 4;
        let results = ThreadComm::run(p, |comm| {
            let next = (comm.rank() + 1) % p;
            let prev = (comm.rank() + p - 1) % p;
            let req = comm.irecv(prev);
            comm.isend(next, vec![comm.rank() as f64, 0.5]).wait();
            req.wait()
        });
        for (r, msg) in results.iter().enumerate() {
            assert_eq!(msg, &vec![((r + p - 1) % p) as f64, 0.5]);
        }
    }

    #[test]
    fn nonblocking_and_blocking_traffic_stay_separate() {
        // A blocking collective issued between post and wait must not
        // consume the in-flight nonblocking messages.
        let p = 3;
        let results = ThreadComm::run(p, |comm| {
            let req = comm.iallreduce_sum(vec![comm.rank() as f64 + 1.0; 4]);
            let mut mid = vec![1.0; 2];
            comm.allreduce_sum(&mut mid);
            comm.barrier();
            let out = req.wait();
            (out[0], mid[0])
        });
        let expect: f64 = (1..=p).map(|r| r as f64).sum();
        for (a, m) in results {
            assert_eq!(a, expect);
            assert_eq!(m, p as f64);
        }
    }

    #[test]
    fn test_progresses_without_blocking() {
        let p = 2;
        let results = ThreadComm::run(p, |comm| {
            let mut req = comm.iallreduce_sum(vec![2.0; 3]);
            // Poll until the peer contribution arrives; a bounded spin keeps
            // the test finite even if test() were broken (wait() then
            // produces the diagnosis).
            for _ in 0..10_000 {
                if req.test() {
                    break;
                }
                std::thread::yield_now();
            }
            req.wait()
        });
        for r in results {
            assert_eq!(r, vec![4.0; 3]);
        }
    }

    #[test]
    #[should_panic(expected = "in-flight: iallreduce")]
    fn watchdog_dump_names_pending_requests() {
        // Rank 0 waits on an iallreduce rank 1 never posts: the watchdog
        // panic must name the unserved in-flight request in the per-rank
        // dump rather than showing an empty queue.
        ThreadComm::run_with_timeout(2, Duration::from_millis(300), |comm| {
            if comm.rank() == 0 {
                comm.iallreduce_sum(vec![1.0; 4]).wait();
            } else {
                std::thread::sleep(Duration::from_millis(900));
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
