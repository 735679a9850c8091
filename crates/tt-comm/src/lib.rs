//! Simulated distributed-memory runtime.
//!
//! The paper's implementation runs flat MPI (one rank per core) on the Andes
//! cluster, with all communication in the Gram-SVD rounding path cast as
//! `MPI_Allreduce` and the QR-based baseline using the TSQR reduction tree.
//! This crate substitutes for MPI with two cooperating layers:
//!
//! * [`Communicator`] — the MPI-analog interface the TT algorithms are
//!   written against (point-to-point send/recv plus the collectives the
//!   algorithms use), with
//!   * [`ThreadComm`]: a real shared-memory backend executing `P` ranks as
//!     OS threads with binomial-tree collectives, used to validate that the
//!     distributed algorithms compute exactly what the sequential ones do.
//!     It checks every message it delivers against the operation the
//!     receiving rank is in, so a run whose ranks issue different
//!     communication streams fails with a per-rank diagnostic instead of
//!     hanging or corrupting data (see [`thread`]);
//!   * [`SelfComm`]: the trivial single-rank communicator;
//!   * [`ModelComm`]: a single-thread "rank 0 of P" harness backend that
//!     executes one representative rank's local work for performance
//!     studies (see [`cost`]).
//! * [`cost`] — a LogP-style analytic cost model (α latency, β per-word,
//!   γ per-flop) with per-rank instrumentation, used to produce the modeled
//!   communication times in the scaling figures. The model is the same one
//!   the paper's complexity analysis (§IV-E) uses.
//!
//! Every communicator records the collectives it performs ([`CommStats`]),
//! so harnesses can report computation/communication breakdowns.
//!
//! All communication is blocking. The trait's five nonblocking methods and
//! [`Request`] remain only because the benchmark's `TimedComm` decorator
//! implements them and tests that TSQR's eager downsweep send reaches it as
//! a request; see [`Communicator`] (DESIGN.md §14).

#![allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "tt-comm is the rank runtime: its rank threads and the locks of its shared event rings are what the bans keep out of the numeric crates"
)]
#![forbid(unsafe_code)]

pub mod cost;
pub mod thread;

pub use cost::{CollectiveKind, CommStats, CostModel};
pub use thread::ThreadComm;

/// A handle to a nonblocking operation (MPI_Request analog).
///
/// Obtained from [`Communicator::iallreduce_sum`], [`Communicator::isend`],
/// or [`Communicator::irecv`]; consumed by [`Request::wait`], which returns
/// the operation's result buffer (the reduced vector for an iallreduce, the
/// received message for an irecv, empty for an isend). [`Request::test`]
/// polls for completion without blocking.
///
/// Every backend in this crate completes these operations at post time, so
/// the requests it hands out are ready. The type and its `Pending` form
/// remain for decorators outside the library that forward the nonblocking
/// methods (the benchmark's `TimedComm`). The one library request is the
/// TSQR downsweep's `isend(..).wait()`, an eager send.
///
/// Dropping a request that was never waited on is a program bug (the posted
/// operation's result is silently discarded, and on a real backend its
/// messages would leak into a later receive); in debug builds the drop
/// panics.
pub struct Request<'a> {
    state: RequestState<'a>,
}

enum RequestState<'a> {
    /// Completed locally at post time (single-rank and model backends, and
    /// eager sends).
    Ready(Vec<f64>),
    /// Handed out by a decorator under its own id; completion goes through
    /// [`Communicator::req_wait`]/[`Communicator::req_test`].
    Pending { host: &'a dyn Communicator, id: u64 },
    /// `wait`/`detach` already consumed the result.
    Discharged,
}

/// A [`Request`] decoupled from its host borrow — used by decorating
/// communicators that must store an inner backend's request inside
/// themselves without creating a self-referential struct.
pub enum DetachedRequest {
    /// The operation completed at post time with this payload.
    Ready(Vec<f64>),
    /// Still in flight under the host-side id; complete it with
    /// [`Communicator::req_wait`] on the host that issued it.
    Pending(u64),
}

impl<'a> Request<'a> {
    /// A request that completed at post time.
    pub fn ready(payload: Vec<f64>) -> Request<'static> {
        Request {
            state: RequestState::Ready(payload),
        }
    }

    /// A request in flight on `host` under a backend-assigned id.
    pub fn pending(host: &'a dyn Communicator, id: u64) -> Request<'a> {
        Request {
            state: RequestState::Pending { host, id },
        }
    }

    /// Blocks until the operation completes and returns its result buffer.
    pub fn wait(mut self) -> Vec<f64> {
        match std::mem::replace(&mut self.state, RequestState::Discharged) {
            RequestState::Ready(v) => v,
            RequestState::Pending { host, id } => host.req_wait(id),
            RequestState::Discharged => unreachable!("Request::wait consumes the handle"),
        }
    }

    /// Polls for completion: `true` once the result is locally available
    /// (after which [`Request::wait`] returns without blocking). A `false`
    /// may be conservative, so `test` must never be the only completion
    /// path.
    pub fn test(&mut self) -> bool {
        match &self.state {
            RequestState::Ready(_) => true,
            RequestState::Discharged => true,
            RequestState::Pending { host, id } => match host.req_test(*id) {
                Some(v) => {
                    self.state = RequestState::Ready(v);
                    true
                }
                None => false,
            },
        }
    }

    /// Splits the handle from its host borrow, marking it discharged; the
    /// caller takes over completion (decorator backends only).
    pub fn detach(mut self) -> DetachedRequest {
        match std::mem::replace(&mut self.state, RequestState::Discharged) {
            RequestState::Ready(v) => DetachedRequest::Ready(v),
            RequestState::Pending { id, .. } => DetachedRequest::Pending(id),
            RequestState::Discharged => unreachable!("Request::detach consumes the handle"),
        }
    }
}

impl Drop for Request<'_> {
    #[expect(
        clippy::panic,
        reason = "dropping an unwaited request silently discards a posted operation's result — a leak this debug panic makes loud"
    )]
    fn drop(&mut self) {
        if cfg!(debug_assertions)
            && !std::thread::panicking()
            && !matches!(self.state, RequestState::Discharged)
        {
            panic!(
                "Request dropped without wait(): a posted nonblocking operation \
                 was never completed. Every iallreduce_sum/isend/irecv request \
                 must be discharged with wait() (or detach() in a decorator) on \
                 every path."
            );
        }
    }
}

/// MPI-analog communication interface used by the distributed TT kernels.
///
/// All collectives operate on `f64` buffers and must be called by every rank
/// of the communicator (SPMD style), like their MPI counterparts. Every
/// operation the library issues is blocking, as in the paper: the Gram
/// sweeps call `allreduce_sum` and the TSQR tree calls `send`/`recv`.
///
/// # Nonblocking operations
///
/// [`Communicator::iallreduce_sum`], [`Communicator::isend`], and
/// [`Communicator::irecv`] are provided methods that run the blocking
/// operation at post time and return a ready [`Request`]: an `irecv` blocks
/// until its message arrives, so a ring must post its sends first. They
/// stay because the benchmark's `TimedComm` decorator implements them, and
/// its transparency test checks that a p = 2 QR rounding completes a
/// request through it; TSQR's downsweep sends with `isend(..).wait()` for
/// that reason alone, and no other library code calls them. They go when
/// tracing moves into the library (ROADMAP item 4). DESIGN.md §14 records
/// why the nonblocking backends were deleted.
pub trait Communicator {
    /// This rank's index in `0..size()`.
    fn rank(&self) -> usize;

    /// Number of ranks.
    fn size(&self) -> usize;

    /// Element-wise global sum; every rank ends with the reduced buffer
    /// (MPI_Allreduce with MPI_SUM).
    fn allreduce_sum(&self, buf: &mut [f64]);

    /// Element-wise global max; every rank ends with the reduced buffer.
    fn allreduce_max(&self, buf: &mut [f64]);

    /// Broadcast `buf` from `root` to all ranks.
    fn broadcast(&self, root: usize, buf: &mut [f64]);

    /// Gathers every rank's buffer (arbitrary, possibly differing lengths)
    /// and returns the concatenation in rank order on every rank
    /// (MPI_Allgatherv).
    fn allgather(&self, send: &[f64]) -> Vec<f64>;

    /// Blocking point-to-point send (used by the TSQR tree). Sends are
    /// eager: the call returns once the message is queued for `to`.
    fn send(&self, to: usize, buf: &[f64]);

    /// Blocking point-to-point receive of the next message from `from`.
    fn recv(&self, from: usize) -> Vec<f64>;

    /// [`Communicator::allreduce_sum`] at post time; `wait` yields the
    /// reduced buffer. Must be posted by every rank (SPMD).
    fn iallreduce_sum(&self, mut buf: Vec<f64>) -> Request<'_> {
        self.allreduce_sum(&mut buf);
        Request::ready(buf)
    }

    /// [`Communicator::send`] at post time; `wait` yields an empty buffer.
    /// Matches a `recv` or an `irecv` on the peer.
    fn isend(&self, to: usize, buf: Vec<f64>) -> Request<'_> {
        self.send(to, &buf);
        Request::ready(Vec::new())
    }

    /// [`Communicator::recv`] at post time; `wait` yields the message.
    ///
    /// This blocks until the message arrives, so it must never be posted
    /// before the send it matches: an MPI-style exchange that posts every
    /// `irecv` ahead of its `isend` (around a ring, say) stalls until the
    /// `ThreadComm` watchdog fires.
    fn irecv(&self, from: usize) -> Request<'_> {
        Request::ready(self.recv(from))
    }

    /// Completes the pending request `id`, blocking if necessary (called by
    /// [`Request::wait`]; not part of the user-facing API). Only a decorator
    /// that hands out pending requests reaches this, and it overrides it.
    #[expect(
        clippy::panic,
        reason = "only reachable if a backend hands out Pending requests without overriding completion — a backend implementation bug"
    )]
    fn req_wait(&self, id: u64) -> Vec<f64> {
        panic!(
            "Communicator::req_wait(id={id}): this backend never returns \
             pending requests, so no request id can reach it"
        );
    }

    /// Polls the pending request `id` (called by [`Request::test`]); `Some`
    /// carries the result. Backends may conservatively return `None` when
    /// completion requires blocking work.
    fn req_test(&self, id: u64) -> Option<Vec<f64>> {
        let _ = id;
        None
    }

    /// Synchronization barrier.
    fn barrier(&self);

    /// Snapshot of the communication events this rank has performed.
    fn stats(&self) -> CommStats;

    /// Resets the event counters.
    fn reset_stats(&self);

    /// True for performance-model backends ([`ModelComm`]): algorithms with
    /// data-dependent communication (TSQR trees) take a model-aware path
    /// that executes one rank's computation and records the messages.
    fn is_model(&self) -> bool {
        false
    }

    /// Manually records a communication event (used by model-aware code
    /// paths for communication the backend does not itself perform).
    fn record_event(&self, kind: CollectiveKind, words: usize) {
        let _ = (kind, words);
    }
}

/// The trivial single-rank communicator: every collective is a no-op.
/// Sequential algorithm runs use this, so one code path serves both the
/// sequential and distributed implementations.
#[derive(Debug, Default)]
pub struct SelfComm {
    stats: std::cell::RefCell<CommStats>,
}

impl SelfComm {
    /// Creates a fresh single-rank communicator.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Communicator for SelfComm {
    fn rank(&self) -> usize {
        0
    }
    fn size(&self) -> usize {
        1
    }
    fn allreduce_sum(&self, _buf: &mut [f64]) {}
    fn allreduce_max(&self, _buf: &mut [f64]) {}
    fn broadcast(&self, _root: usize, _buf: &mut [f64]) {}
    fn allgather(&self, send: &[f64]) -> Vec<f64> {
        send.to_vec()
    }
    #[expect(
        clippy::panic,
        reason = "single-rank backend — p2p here is a caller contract violation; the message documents the required size()==1 branch"
    )]
    fn send(&self, to: usize, buf: &[f64]) {
        panic!(
            "SelfComm::send(to={to}, len={}): SelfComm has a single rank, so \
             point-to-point communication is always a caller bug. Algorithms \
             with data-dependent messaging (the TSQR reduction tree in \
             tt_core::round::tsqr) must branch on size() == 1 and take their \
             sequential path instead of sending.",
            buf.len()
        );
    }
    #[expect(
        clippy::panic,
        reason = "single-rank backend — p2p here is a caller contract violation; the message documents the required size()==1 branch"
    )]
    fn recv(&self, from: usize) -> Vec<f64> {
        panic!(
            "SelfComm::recv(from={from}): SelfComm has a single rank, so \
             point-to-point communication is always a caller bug. Algorithms \
             with data-dependent messaging (the TSQR reduction tree in \
             tt_core::round::tsqr) must branch on size() == 1 and take their \
             sequential path instead of receiving."
        );
    }
    fn barrier(&self) {}
    fn stats(&self) -> CommStats {
        self.stats.borrow().clone()
    }
    fn reset_stats(&self) {
        *self.stats.borrow_mut() = CommStats::default();
    }
}

/// A performance-study communicator: executes as a single thread that plays
/// the role of rank 0 in a `P`-rank job.
///
/// Collectives leave the local buffer untouched (numerically this yields one
/// rank's *contribution* rather than the global sum — performance harnesses
/// run with fixed target ranks so the executed instruction stream is
/// identical to a real run) but are *recorded* with their true sizes, so the
/// cost model can price the communication exactly as the real job would
/// perform it.
#[derive(Debug)]
pub struct ModelComm {
    size: usize,
    stats: std::cell::RefCell<CommStats>,
}

impl ModelComm {
    /// Creates a model communicator pretending to be rank 0 of `size` ranks.
    pub fn new(size: usize) -> Self {
        assert!(size >= 1);
        ModelComm {
            size,
            stats: std::cell::RefCell::new(CommStats::default()),
        }
    }
}

impl Communicator for ModelComm {
    fn rank(&self) -> usize {
        0
    }
    fn size(&self) -> usize {
        self.size
    }
    fn allreduce_sum(&self, buf: &mut [f64]) {
        self.stats
            .borrow_mut()
            .record(CollectiveKind::Allreduce, buf.len());
    }
    fn allreduce_max(&self, buf: &mut [f64]) {
        self.stats
            .borrow_mut()
            .record(CollectiveKind::Allreduce, buf.len());
    }
    fn broadcast(&self, _root: usize, buf: &mut [f64]) {
        self.stats
            .borrow_mut()
            .record(CollectiveKind::Broadcast, buf.len());
    }
    fn allgather(&self, send: &[f64]) -> Vec<f64> {
        // One representative rank: record the full gathered volume, return
        // P copies of the local contribution (correct sizes, modeled data).
        self.stats
            .borrow_mut()
            .record(CollectiveKind::Allgather, send.len() * self.size);
        let mut out = Vec::with_capacity(send.len() * self.size);
        for _ in 0..self.size {
            out.extend_from_slice(send);
        }
        out
    }
    fn send(&self, _to: usize, buf: &[f64]) {
        self.stats
            .borrow_mut()
            .record(CollectiveKind::PointToPoint, buf.len());
    }
    #[expect(
        clippy::panic,
        reason = "model backend cannot materialize peer data — recv is a documented contract violation, not a recoverable error"
    )]
    fn recv(&self, from: usize) -> Vec<f64> {
        panic!(
            "ModelComm::recv(from={from}): a performance-model backend plays \
             one representative rank and cannot materialize data another rank \
             would have sent. Algorithms with data-dependent messaging must \
             check is_model() and take their model-aware path — execute the \
             local computation and account for the messages with \
             record_event(), as tt_core::round::tsqr::tsqr_q does."
        );
    }
    fn barrier(&self) {}
    fn stats(&self) -> CommStats {
        self.stats.borrow().clone()
    }
    fn reset_stats(&self) {
        *self.stats.borrow_mut() = CommStats::default();
    }
    fn is_model(&self) -> bool {
        true
    }
    fn record_event(&self, kind: CollectiveKind, words: usize) {
        self.stats.borrow_mut().record(kind, words);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_comm_is_identity() {
        let c = SelfComm::new();
        let mut buf = vec![1.0, 2.0];
        c.allreduce_sum(&mut buf);
        assert_eq!(buf, vec![1.0, 2.0]);
        assert_eq!(c.rank(), 0);
        assert_eq!(c.size(), 1);
        assert_eq!(c.stats().total_messages(), 0);
    }

    #[test]
    #[should_panic(expected = "sequential path instead of sending")]
    fn self_comm_send_names_the_sequential_path() {
        SelfComm::new().send(0, &[1.0]);
    }

    #[test]
    #[should_panic(expected = "sequential path instead of receiving")]
    fn self_comm_recv_names_the_sequential_path() {
        SelfComm::new().recv(0);
    }

    #[test]
    #[should_panic(expected = "model-aware path")]
    fn model_comm_recv_names_the_model_aware_path() {
        ModelComm::new(4).recv(1);
    }

    #[test]
    fn self_comm_iallreduce_completes_at_post() {
        let c = SelfComm::new();
        let mut req = c.iallreduce_sum(vec![3.0, 4.0]);
        assert!(req.test(), "single-rank requests are ready immediately");
        assert_eq!(req.wait(), vec![3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "sequential path instead of sending")]
    fn self_comm_isend_names_the_sequential_path() {
        let _ = SelfComm::new().isend(0, vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "sequential path instead of receiving")]
    fn self_comm_irecv_names_the_sequential_path() {
        let _ = SelfComm::new().irecv(0);
    }

    #[test]
    #[should_panic(expected = "model-aware path")]
    fn model_comm_irecv_names_the_model_aware_path() {
        let _ = ModelComm::new(4).irecv(1);
    }

    #[test]
    fn model_comm_nonblocking_records_like_blocking() {
        let c = ModelComm::new(8);
        let req = c.iallreduce_sum(vec![0.0; 25]);
        assert_eq!(req.wait(), vec![0.0; 25]);
        c.isend(3, vec![1.0; 7]).wait();
        let s = c.stats();
        assert_eq!(s.count(CollectiveKind::Allreduce), 1);
        assert_eq!(s.words(CollectiveKind::Allreduce), 25);
        assert_eq!(s.count(CollectiveKind::PointToPoint), 1);
        assert_eq!(s.words(CollectiveKind::PointToPoint), 7);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "drop check is debug-only")]
    #[should_panic(expected = "Request dropped without wait()")]
    fn dropping_an_unwaited_request_panics_in_debug() {
        let c = SelfComm::new();
        let req = c.iallreduce_sum(vec![1.0]);
        drop(req);
    }

    #[test]
    fn model_comm_records_events() {
        let c = ModelComm::new(16);
        let mut buf = vec![0.0; 100];
        c.allreduce_sum(&mut buf);
        c.allreduce_sum(&mut buf);
        c.broadcast(0, &mut buf[..10]);
        let s = c.stats();
        assert_eq!(s.count(CollectiveKind::Allreduce), 2);
        assert_eq!(s.words(CollectiveKind::Allreduce), 200);
        assert_eq!(s.count(CollectiveKind::Broadcast), 1);
        c.reset_stats();
        assert_eq!(c.stats().total_messages(), 0);
    }
}
