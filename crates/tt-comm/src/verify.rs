//! SPMD collective-matching verification layer.
//!
//! Every distributed algorithm in this reproduction is SPMD code written
//! against [`Communicator`]: correctness silently assumes that **every rank
//! executes an identical stream of collectives** (same operations, in the
//! same order, with compatible shapes and roots). Violations of that
//! assumption — the classic MPI bug class that verifiers like MUST exist to
//! catch — otherwise surface as wrong numbers or a hung test.
//!
//! [`VerifyComm`] is a decorator over any [`Communicator`] that makes the
//! assumption machine-checked:
//!
//! * every operation gets a per-rank **sequence number** and a **call
//!   fingerprint** (collective position, operation kind, root, buffer
//!   length) — point-to-point ops are traced but excluded from the
//!   cross-checked collective position, since tree algorithms legitimately
//!   issue different send/recv counts per rank;
//! * for real multi-rank backends ([`crate::ThreadComm`]) the fingerprint is
//!   **piggybacked through the underlying communicator** (one small
//!   `allreduce_max` check round per collective) and cross-checked across all
//!   ranks *before* the real operation executes, so a mismatched or
//!   reordered collective panics with a rank-annotated diagnostic instead of
//!   deadlocking or corrupting data;
//! * point-to-point messages carry a fingerprint header checked on receive;
//! * for single-rank and model backends ([`crate::SelfComm`],
//!   [`crate::ModelComm`]) the stream is **recorded locally** ([`VerifyComm::trace`])
//!   so separate runs can be diffed with [`assert_streams_match`].
//!
//! The decorator holds the last [`TRACE_CAPACITY`] events of every rank in a
//! shared ring, and dumps all of them on any mismatch. Overhead is one
//! 8-word allreduce per collective — negligible for a validation backend,
//! and exactly zero for production paths that do not opt in.
//!
//! Layering: [`VerifyComm`] catches *semantic* divergence before it
//! deadlocks; the [`crate::ThreadComm`] watchdog catches whatever still
//! hangs (e.g. one rank exiting early) by aborting the stuck operation with
//! a per-rank event dump. Use both in tests:
//! [`run_verified`] wraps every rank of a [`crate::ThreadComm`] job.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::cost::{CollectiveKind, CommStats};
use crate::{Communicator, DetachedRequest, Request, ThreadComm};

/// Number of per-rank events retained for mismatch diagnostics.
pub const TRACE_CAPACITY: usize = 16;

/// Magic word marking a fingerprinted point-to-point message.
const P2P_MAGIC: f64 = -(0x7EAC0DE as f64);

/// The kind of a fingerprinted communication operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
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
    /// [`Communicator::iallreduce_sum`] (fingerprinted at post, checked at
    /// wait).
    IallreduceSum,
    /// [`Communicator::isend`].
    Isend,
    /// [`Communicator::irecv`].
    Irecv,
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
            OpKind::IallreduceSum => 8,
            OpKind::Isend => 9,
            OpKind::Irecv => 10,
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
            8 => "iallreduce_sum",
            9 => "isend",
            10 => "irecv",
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
pub struct Event {
    /// Position in this rank's operation stream (1-based).
    pub seq: u64,
    /// Operation kind.
    pub kind: OpKind,
    /// Root rank (broadcast) — 0 for rootless operations.
    pub root: usize,
    /// Buffer length in `f64` words (0 where lengths may legitimately
    /// differ per rank, i.e. allgather, or are not defined, i.e. barrier).
    pub len: usize,
    /// Peer rank for point-to-point operations.
    pub peer: Option<usize>,
}

impl std::fmt::Display for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (self.kind, self.peer) {
            (OpKind::Send, Some(p)) => write!(f, "#{} send(to={p}, len={})", self.seq, self.len),
            (OpKind::Recv, Some(p)) => write!(f, "#{} recv(from={p})", self.seq),
            (OpKind::Isend, Some(p)) => write!(f, "#{} isend(to={p}, len={})", self.seq, self.len),
            (OpKind::Irecv, Some(p)) => write!(f, "#{} irecv(from={p})", self.seq),
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

    fn trace_of(&self, rank: usize) -> Vec<Event> {
        let rings = match self.rings.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        rings[rank].iter().cloned().collect()
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

/// A verifying decorator over any [`Communicator`]; see the module docs.
pub struct VerifyComm<C: Communicator> {
    inner: C,
    seq: Cell<u64>,
    /// Number of *collectives* issued — the cross-checked position. Kept
    /// separate from `seq` because point-to-point patterns are legitimately
    /// asymmetric (a TSQR combine tree's root does more sends/recvs than a
    /// leaf), so the overall op count may differ across ranks even when the
    /// collective streams are perfectly matched.
    coll_seq: Cell<u64>,
    traces: Arc<TraceRegistry>,
    /// Whether fingerprints are cross-checked through the underlying
    /// communicator (true for real multi-rank backends).
    piggyback: bool,
    next_req_id: Cell<u64>,
    /// Posted nonblocking operations with their post-time fingerprints;
    /// completed strictly in post order, so the check rounds (issued at
    /// wait) execute at identical program points on every rank.
    pending: RefCell<VecDeque<VerifyPending>>,
    /// Results completed ahead of their own wait by the FIFO progression.
    completed: RefCell<BTreeMap<u64, Vec<f64>>>,
}

/// One posted-but-unwaited nonblocking operation under verification.
struct VerifyPending {
    id: u64,
    /// Collective fingerprint fields captured at post time, cross-checked
    /// through the inner communicator when the request is completed.
    check: Option<[f64; 4]>,
    /// The operation's trace event (diagnostics + frame validation).
    ev: Event,
    /// The inner backend's request, decoupled from its borrow.
    inner_req: DetachedRequest,
}

impl<C: Communicator> VerifyComm<C> {
    /// Wraps a single communicator endpoint.
    ///
    /// For multi-rank non-model backends the fingerprint check rounds are
    /// enabled; [`crate::SelfComm`] and [`crate::ModelComm`] get local-stream
    /// recording only (their collective streams can be diffed across runs
    /// with [`assert_streams_match`]).
    pub fn new(inner: C) -> Self {
        let piggyback = inner.size() > 1 && !inner.is_model();
        let traces = TraceRegistry::new(inner.size());
        VerifyComm {
            seq: Cell::new(0),
            coll_seq: Cell::new(0),
            traces,
            piggyback,
            next_req_id: Cell::new(0),
            pending: RefCell::new(VecDeque::new()),
            completed: RefCell::new(BTreeMap::new()),
            inner,
        }
    }

    /// Wraps every endpoint of a communicator group so that all ranks share
    /// one event-trace registry: any mismatch diagnostic then includes the
    /// last [`TRACE_CAPACITY`] events of *every* rank, not just the
    /// panicking one.
    pub fn wrap_all(comms: Vec<C>) -> Vec<VerifyComm<C>> {
        let p = comms.len();
        let traces = TraceRegistry::new(p);
        comms
            .into_iter()
            .map(|inner| {
                let piggyback = inner.size() > 1 && !inner.is_model();
                VerifyComm {
                    seq: Cell::new(0),
                    coll_seq: Cell::new(0),
                    traces: Arc::clone(&traces),
                    piggyback,
                    next_req_id: Cell::new(0),
                    pending: RefCell::new(VecDeque::new()),
                    completed: RefCell::new(BTreeMap::new()),
                    inner,
                }
            })
            .collect()
    }

    /// The wrapped communicator.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// This rank's recorded event stream (oldest of the retained events
    /// first; at most [`TRACE_CAPACITY`] events are retained).
    pub fn trace(&self) -> Vec<Event> {
        self.traces.trace_of(self.inner.rank())
    }

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

    /// Assigns the next collective position and captures `ev`'s fingerprint
    /// fields. For blocking collectives this happens at the call; for
    /// nonblocking ones at *post* time, so the recorded position reflects
    /// where the operation was issued, not where it was waited.
    fn fingerprint(&self, ev: &Event) -> [f64; 4] {
        let coll_seq = self.coll_seq.get() + 1;
        self.coll_seq.set(coll_seq);
        [
            coll_seq as f64,
            ev.kind.id() as f64,
            ev.root as f64,
            ev.len as f64,
        ]
    }

    /// Cross-checks a blocking collective's fingerprint before it executes.
    fn check_collective(&self, ev: &Event) {
        let fields = self.fingerprint(ev);
        self.check_fingerprint(ev, fields);
    }

    /// Cross-checks captured fingerprint fields across all ranks through the
    /// underlying communicator; panics with a rank-annotated diagnostic on
    /// the first divergent call.
    fn check_fingerprint(&self, ev: &Event, fields: [f64; 4]) {
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
            if max != min {
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
            // analyze::allow(panic_surface): the verifier's contract is to abort on the first divergent collective with a full fingerprint report
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

    fn alloc_req(&self) -> u64 {
        let id = self.next_req_id.get();
        self.next_req_id.set(id + 1);
        id
    }

    /// Validates a fingerprinted point-to-point frame and strips the header.
    fn validate_frame(
        &self,
        framed: Vec<f64>,
        from: usize,
        ev: &Event,
        expect: OpKind,
    ) -> Vec<f64> {
        let fail = |why: String| -> ! {
            // analyze::allow(panic_surface): the verifier's contract is to abort on the first mismatched p2p frame with a full event report
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
        if kind != expect.id() {
            fail(format!(
                "message header says the peer issued {}, not {expect}",
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

    /// Completes one pending nonblocking operation: runs its deferred
    /// fingerprint check round (collectives), waits on the inner request,
    /// and validates the frame (irecv).
    fn complete_pending(&self, req: VerifyPending) -> Vec<f64> {
        if let Some(fields) = req.check {
            self.check_fingerprint(&req.ev, fields);
        }
        let raw = match req.inner_req {
            DetachedRequest::Ready(v) => v,
            DetachedRequest::Pending(inner_id) => self.inner.req_wait(inner_id),
        };
        if req.ev.kind == OpKind::Irecv && self.piggyback {
            // Every Irecv event is constructed with `peer: Some(from)` at
            // its single post site; a peerless one skips frame validation.
            if let Some(from) = req.ev.peer {
                return self.validate_frame(raw, from, &req.ev, OpKind::Isend);
            }
        }
        raw
    }
}

impl<C: Communicator> Communicator for VerifyComm<C> {
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
        self.validate_frame(framed, from, &ev, OpKind::Send)
    }

    /// Fingerprint captured and traced at **post** time; the cross-rank
    /// check round runs when the request completes (post order), so the
    /// verification contract survives reordered waits — see DESIGN.md §14.
    fn iallreduce_sum(&self, buf: Vec<f64>) -> Request<'_> {
        let ev = self.record(OpKind::IallreduceSum, 0, buf.len(), None);
        let check = Some(self.fingerprint(&ev));
        let inner_req = self.inner.iallreduce_sum(buf).detach();
        let id = self.alloc_req();
        self.pending.borrow_mut().push_back(VerifyPending {
            id,
            check,
            ev,
            inner_req,
        });
        Request::pending(self, id)
    }

    fn isend(&self, to: usize, buf: Vec<f64>) -> Request<'_> {
        let ev = self.record(OpKind::Isend, 0, buf.len(), Some(to));
        let inner_req = if self.piggyback {
            let mut framed = Vec::with_capacity(buf.len() + 4);
            framed.extend_from_slice(&[
                P2P_MAGIC,
                ev.kind.id() as f64,
                self.inner.rank() as f64,
                buf.len() as f64,
            ]);
            framed.extend_from_slice(&buf);
            self.inner.isend(to, framed).detach()
        } else {
            self.inner.isend(to, buf).detach()
        };
        let id = self.alloc_req();
        self.pending.borrow_mut().push_back(VerifyPending {
            id,
            check: None,
            ev,
            inner_req,
        });
        Request::pending(self, id)
    }

    fn irecv(&self, from: usize) -> Request<'_> {
        let ev = self.record(OpKind::Irecv, 0, 0, Some(from));
        let inner_req = self.inner.irecv(from).detach();
        let id = self.alloc_req();
        self.pending.borrow_mut().push_back(VerifyPending {
            id,
            check: None,
            ev,
            inner_req,
        });
        Request::pending(self, id)
    }

    /// Completes in post (FIFO) order, like the backends: the deferred
    /// fingerprint check rounds are themselves collectives on the inner
    /// communicator, so executing them in post order keeps them lockstep
    /// across ranks even when user code waits out of order.
    fn req_wait(&self, id: u64) -> Vec<f64> {
        loop {
            if let Some(v) = self.completed.borrow_mut().remove(&id) {
                return v;
            }
            let req = self.pending.borrow_mut().pop_front();
            let Some(req) = req else {
                // analyze::allow(panic_surface): an id with no pending entry means a request was completed twice or crossed communicators — an unrecoverable harness bug
                panic!(
                    "VerifyComm rank {}: req_wait(id={id}) found no matching \
                     pending request — a Request was completed twice or used \
                     with a different communicator",
                    self.inner.rank()
                );
            };
            let req_id = req.id;
            let result = self.complete_pending(req);
            if req_id == id {
                return result;
            }
            self.completed.borrow_mut().insert(req_id, result);
        }
    }

    /// Conservative: only reports requests the FIFO progression has already
    /// completed. Speculatively completing here would run the deferred
    /// check round — a collective — at a rank-dependent moment, breaking
    /// the lockstep the verifier itself relies on; `wait` is the completion
    /// path.
    fn req_test(&self, id: u64) -> Option<Vec<f64>> {
        self.completed.borrow_mut().remove(&id)
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

    fn is_model(&self) -> bool {
        self.inner.is_model()
    }

    fn record_event(&self, kind: CollectiveKind, words: usize) {
        self.inner.record_event(kind, words)
    }
}

/// Runs `f` as an SPMD program on `p` verified thread-backed ranks: every
/// rank's communicator is a [`VerifyComm`] over [`ThreadComm`] sharing one
/// trace registry, so collective mismatches panic with a full per-rank event
/// dump and deadlocks are bounded by the watchdog.
pub fn run_verified<R, F>(p: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(VerifyComm<ThreadComm>) -> R + Sync,
{
    run_verified_with_timeout(p, ThreadComm::DEFAULT_WATCHDOG, f)
}

/// [`run_verified`] with a custom watchdog timeout.
pub fn run_verified_with_timeout<R, F>(p: usize, watchdog: Duration, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(VerifyComm<ThreadComm>) -> R + Sync,
{
    let comms = ThreadComm::create_with_timeout(p, watchdog);
    let verified = VerifyComm::wrap_all(comms);
    let results: Vec<std::thread::Result<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = verified
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

/// Asserts that independently recorded per-rank event streams (from
/// [`VerifyComm::trace`], e.g. separate [`crate::SelfComm`] or
/// [`crate::ModelComm`] runs) are identical, panicking at the first
/// divergence with both streams' context.
pub fn assert_streams_match(streams: &[Vec<Event>]) {
    let Some((first, rest)) = streams.split_first() else {
        return;
    };
    for (r, stream) in rest.iter().enumerate() {
        if stream.len() != first.len() {
            // analyze::allow(panic_surface): post-run assertion helper — divergent recorded streams must fail the harness loudly
            panic!(
                "recorded collective streams diverge: stream 0 has {} events, \
                 stream {} has {}",
                first.len(),
                r + 1,
                stream.len()
            );
        }
        for (i, (a, b)) in first.iter().zip(stream.iter()).enumerate() {
            // Peer ranks legitimately differ across ranks (tree edges);
            // kind/root/len/seq must not.
            if a.seq != b.seq || a.kind != b.kind || a.root != b.root || a.len != b.len {
                // analyze::allow(panic_surface): post-run assertion helper — divergent recorded streams must fail the harness loudly
                panic!(
                    "recorded collective streams diverge at event {i}: stream 0 \
                     has {a}, stream {} has {b}",
                    r + 1
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ModelComm, SelfComm};

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
    fn nonblocking_matched_streams_pass() {
        for p in [1usize, 2, 3] {
            let results = run_verified(p, |comm| {
                let a = comm.iallreduce_sum(vec![1.0; 4]);
                let b = comm.iallreduce_sum(vec![2.0; 3]);
                // Waiting out of post order must still verify: fingerprints
                // were taken at post, check rounds run in post order.
                let vb = b.wait();
                let va = a.wait();
                (va[0], vb[0])
            });
            for (va, vb) in results {
                assert_eq!(va, p as f64, "p={p}");
                assert_eq!(vb, 2.0 * p as f64, "p={p}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "len: disagrees across ranks")]
    fn nonblocking_len_mismatch_is_caught_at_wait() {
        run_verified(3, |comm| {
            let req = comm.iallreduce_sum(vec![1.0; 4 + comm.rank() % 2]);
            req.wait();
        });
    }

    #[test]
    #[should_panic(expected = "kind: disagrees across ranks")]
    fn nonblocking_vs_blocking_kind_mismatch_is_caught() {
        // A rank that posts iallreduce_sum where its peer calls the blocking
        // allreduce_sum has genuinely diverged (the backends route them over
        // different channels), and the fingerprint kinds differ.
        run_verified(2, |comm| {
            if comm.rank() == 0 {
                comm.iallreduce_sum(vec![1.0; 4]).wait();
            } else {
                let mut buf = vec![1.0; 4];
                comm.allreduce_sum(&mut buf);
            }
        });
    }

    #[test]
    fn verified_isend_irecv_ring_round_trips() {
        let p = 4;
        let results = run_verified(p, |comm| {
            let next = (comm.rank() + 1) % p;
            let prev = (comm.rank() + p - 1) % p;
            let rx = comm.irecv(prev);
            let tx = comm.isend(next, vec![comm.rank() as f64, 42.0]);
            tx.wait();
            rx.wait()
        });
        for (r, msg) in results.iter().enumerate() {
            assert_eq!(msg, &vec![((r + p - 1) % p) as f64, 42.0]);
        }
    }

    #[test]
    fn self_comm_records_stream_locally() {
        let comm = VerifyComm::new(SelfComm::new());
        let mut buf = vec![1.0, 2.0];
        comm.allreduce_sum(&mut buf);
        comm.broadcast(0, &mut buf);
        comm.barrier();
        assert_eq!(buf, vec![1.0, 2.0], "SelfComm ops must stay no-ops");
        let trace = comm.trace();
        assert_eq!(trace.len(), 3);
        assert_eq!(trace[0].kind, OpKind::AllreduceSum);
        assert_eq!(trace[1].kind, OpKind::Broadcast);
        assert_eq!(trace[2].kind, OpKind::Barrier);
    }

    #[test]
    fn model_comm_records_stream_and_stats() {
        let comm = VerifyComm::new(ModelComm::new(8));
        let mut buf = vec![0.0; 10];
        comm.allreduce_sum(&mut buf);
        comm.allreduce_sum(&mut buf);
        assert_eq!(comm.stats().count(CollectiveKind::Allreduce), 2);
        assert_eq!(comm.trace().len(), 2);
        assert!(comm.is_model());
    }

    #[test]
    fn identical_recorded_streams_match() {
        let run = |scale: f64| {
            let comm = VerifyComm::new(SelfComm::new());
            let mut buf = vec![scale; 4];
            comm.allreduce_sum(&mut buf);
            comm.broadcast(0, &mut buf);
            comm.trace()
        };
        assert_streams_match(&[run(1.0), run(2.0)]);
    }

    #[test]
    #[should_panic(expected = "streams diverge at event 1")]
    fn divergent_recorded_streams_panic() {
        let a = {
            let comm = VerifyComm::new(SelfComm::new());
            comm.allreduce_sum(&mut [0.0; 4]);
            comm.broadcast(0, &mut [0.0; 4]);
            comm.trace()
        };
        let b = {
            let comm = VerifyComm::new(SelfComm::new());
            comm.allreduce_sum(&mut [0.0; 4]);
            comm.allreduce_sum(&mut [0.0; 4]);
            comm.trace()
        };
        assert_streams_match(&[a, b]);
    }

    #[test]
    fn trace_ring_is_bounded() {
        let comm = VerifyComm::new(SelfComm::new());
        for _ in 0..(TRACE_CAPACITY + 9) {
            comm.barrier();
        }
        let trace = comm.trace();
        assert_eq!(trace.len(), TRACE_CAPACITY);
        assert_eq!(trace[0].seq, 10, "ring must keep the newest events");
        assert_eq!(trace[TRACE_CAPACITY - 1].seq, (TRACE_CAPACITY + 9) as u64);
    }
}
