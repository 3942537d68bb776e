//! The pluggable fabric boundary: node identity, wire accounting, typed
//! errors, reply handles, and the [`Transport`] trait that both the
//! in-process channel fabric and `semtree-net`'s TCP fabric implement.

use std::fmt;
use std::sync::mpsc;

use crate::metrics::MetricsSnapshot;
use crate::runtime::NodeCtx;

/// Bits of a [`ComputeNodeId`] reserved for the per-process node index.
///
/// Node ids are globally unique across a deployment: the high bits carry
/// the owning *process index* (0 = coordinator) and the low
/// `PROCESS_STRIDE_BITS` bits the node's slot within that process. The
/// single-process fabric uses process 0, so ids count 0, 1, 2, … exactly
/// as they did before the fabric became pluggable.
pub const PROCESS_STRIDE_BITS: u32 = 16;

/// Identifier of a compute node, unique across every process of a
/// deployment (see [`PROCESS_STRIDE_BITS`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ComputeNodeId(pub u32);

impl ComputeNodeId {
    /// Compose an id from an owning process index and a local slot.
    #[must_use]
    pub fn from_parts(process: u32, local_index: u32) -> Self {
        assert!(
            process < (1 << (32 - PROCESS_STRIDE_BITS)),
            "process index {process} out of range"
        );
        assert!(
            local_index < (1 << PROCESS_STRIDE_BITS),
            "local node index {local_index} out of range"
        );
        ComputeNodeId((process << PROCESS_STRIDE_BITS) | local_index)
    }

    /// Index of the process hosting this node (0 = coordinator).
    #[must_use]
    pub fn process(self) -> u32 {
        self.0 >> PROCESS_STRIDE_BITS
    }

    /// The node's slot within its owning process.
    #[must_use]
    pub fn local_index(self) -> usize {
        (self.0 & ((1 << PROCESS_STRIDE_BITS) - 1)) as usize
    }

    /// The raw id as a usable index (kept for single-process callers).
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Exact encoded payload size in bytes, used for byte accounting and the
/// per-byte component of the cost model. For protocol types this must
/// match the length of the `semtree-net` binary encoding of the value
/// (frame length prefix excluded); the default (0 bytes) still counts
/// messages, just not volume.
pub trait Wire {
    /// Encoded size in bytes.
    fn wire_size(&self) -> usize {
        0
    }
}

impl Wire for () {}
impl Wire for u64 {
    fn wire_size(&self) -> usize {
        8
    }
}
impl Wire for Vec<f64> {
    // u64 length prefix + fixed 8-byte elements.
    fn wire_size(&self) -> usize {
        8 + 8 * self.len()
    }
}
impl Wire for String {
    // u64 length prefix + UTF-8 bytes.
    fn wire_size(&self) -> usize {
        8 + self.len()
    }
}

/// Why a cluster operation failed. Carried across process boundaries by
/// `semtree-net`, so query paths degrade to errors instead of panics when
/// a partition is unknown, shut down, or unreachable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// The target node id is not (or no longer) registered.
    UnknownNode(ComputeNodeId),
    /// The target node existed but its thread is gone (panicked or
    /// shut down) before answering.
    NodeDied(ComputeNodeId),
    /// A network-level failure: connect, frame I/O, or decode.
    Net(String),
    /// A new member node could not be created.
    SpawnFailed(String),
    /// The remote process reported a failure while handling the request.
    Remote(String),
    /// A bounded wait (e.g. for workers to join) expired before its
    /// condition held.
    Timeout(String),
    /// The request itself is malformed (wrong dimensionality, non-finite
    /// coordinate, negative or non-finite radius). Raised before the
    /// request reaches any partition; nothing was executed.
    InvalidRequest(String),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::UnknownNode(id) => write!(f, "unknown compute node {id:?}"),
            ClusterError::NodeDied(id) => write!(f, "compute node {id:?} died before answering"),
            ClusterError::Net(msg) => write!(f, "network transport error: {msg}"),
            ClusterError::SpawnFailed(msg) => write!(f, "could not spawn compute node: {msg}"),
            ClusterError::Remote(msg) => write!(f, "remote handler error: {msg}"),
            ClusterError::Timeout(msg) => write!(f, "timed out: {msg}"),
            ClusterError::InvalidRequest(msg) => write!(f, "invalid request: {msg}"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// The response side of one in-flight request.
///
/// Produced by [`Transport::send`]; [`wait`](ReplyHandle::wait) blocks
/// until the responder fills the matching [`ReplySlot`]. Holding several
/// handles before waiting is how fan-out travels in parallel.
pub struct ReplyHandle<Resp> {
    rx: mpsc::Receiver<Result<Resp, ClusterError>>,
    target: ComputeNodeId,
}

/// Called exactly once with the outcome of a submitted request — the
/// pipelined alternative to blocking on a [`ReplyHandle`]. Runs on
/// whatever thread fills the slot (a node thread, a transport's demux
/// reader), so it must be quick and must not block on the transport.
pub type CompleteFn<Resp> = Box<dyn FnOnce(Result<Resp, ClusterError>) + Send>;

/// The responder side of one in-flight request: a completion callback
/// that runs exactly once, on [`fill`](ReplySlot::fill) or — with
/// [`ClusterError::NodeDied`] — when the slot is dropped unfilled
/// (responder gone, connection torn down).
pub struct ReplySlot<Resp> {
    complete: Option<CompleteFn<Resp>>,
    target: ComputeNodeId,
}

impl<Resp: Send + 'static> ReplyHandle<Resp> {
    /// A connected slot/handle pair for a request addressed to `target`:
    /// the slot's callback hands the outcome to the waiting handle.
    #[must_use]
    pub fn pair(target: ComputeNodeId) -> (ReplySlot<Resp>, Self) {
        let (tx, rx) = mpsc::channel();
        // A receiver that gave up waiting is not an error.
        let deliver = move |outcome| drop(tx.send(outcome));
        (
            ReplySlot::with_callback(target, Box::new(deliver)),
            ReplyHandle { rx, target },
        )
    }
}

impl<Resp> ReplyHandle<Resp> {
    /// Block until the response (or a typed failure) arrives; a slot
    /// dropped unfilled surfaces as [`ClusterError::NodeDied`].
    pub fn wait(self) -> Result<Resp, ClusterError> {
        self.rx
            .recv()
            .unwrap_or_else(|_| Err(ClusterError::NodeDied(self.target)))
    }
}

impl<Resp> ReplySlot<Resp> {
    /// A slot whose outcome is delivered by invoking `complete`.
    #[must_use]
    pub fn with_callback(target: ComputeNodeId, complete: CompleteFn<Resp>) -> Self {
        ReplySlot {
            complete: Some(complete),
            target,
        }
    }

    /// Deliver the outcome.
    pub fn fill(mut self, outcome: Result<Resp, ClusterError>) {
        if let Some(complete) = self.complete.take() {
            complete(outcome);
        }
    }
}

impl<Resp> Drop for ReplySlot<Resp> {
    fn drop(&mut self) {
        if let Some(complete) = self.complete.take() {
            complete(Err(ClusterError::NodeDied(self.target)));
        }
    }
}

/// A compute node's request handler: owns its state and handles one
/// request at a time — on the node's own thread, or on the thread of a
/// caller that found the node idle ([`Transport::call`]). It may call
/// other nodes or spawn new ones through the [`NodeCtx`]. Boxed as a
/// [`BoxHandler`].
pub trait Handler<Req, Resp>: Send {
    /// Process one request to completion.
    fn handle(&mut self, ctx: &NodeCtx<Req, Resp>, req: Req) -> Resp;
}

/// A boxed, type-erased node handler.
pub type BoxHandler<Req, Resp> = Box<dyn Handler<Req, Resp> + 'static>;

/// Builds the handler for a dynamically created member node
/// ([`Transport::spawn_member`]). Every process of a deployment installs
/// the same factory, which is what lets a remote process materialise a
/// fresh partition without shipping code or state.
pub type NodeFactory<Req, Resp> = dyn Fn() -> BoxHandler<Req, Resp> + Send + Sync + 'static;

/// A cluster fabric: routes requests to compute nodes and creates new
/// ones. Implemented by the in-process channel fabric (the default, and
/// the paper-faithful simulation) and by `semtree-net`'s TCP fabric
/// (real multi-process deployment). Object-safe so running systems can
/// hold `Arc<dyn Transport<_, _>>`.
pub trait Transport<Req, Resp>: Send + Sync {
    /// Route `req` to `target`; `reply` receives the outcome exactly
    /// once — filled by the responder, filled here with the error when
    /// the request cannot leave, or reporting
    /// [`ClusterError::NodeDied`] when dropped unfilled. Never blocks on
    /// the responder; the transit cost (simulated or real) is paid on
    /// the responder's side. [`send`](Transport::send) and
    /// [`submit`](Transport::submit) are this plus a choice of slot.
    fn dispatch(&self, target: ComputeNodeId, req: Req, reply: ReplySlot<Resp>);

    /// Dispatch `req` to `target`, returning a handle to await the
    /// response; routing failures come out of
    /// [`wait`](ReplyHandle::wait) like any other. This is the fan-out
    /// form: the request always leaves through the target's mailbox, so
    /// several handles held before any is waited on run at once.
    fn send(&self, target: ComputeNodeId, req: Req) -> ReplyHandle<Resp>
    where
        Resp: Send + 'static,
    {
        let (slot, handle) = ReplyHandle::pair(target);
        self.dispatch(target, req, slot);
        handle
    }

    /// Send `req` to `target` and wait for the outcome: for a caller that
    /// would block on the reply at once. Not for fan-out — a transport
    /// may run the handler on the calling thread, so nothing else
    /// overlaps it. The channel fabric does when the node is idle, and
    /// never lets a thread's call overtake that thread's earlier
    /// requests to the node. Cost and metering are
    /// [`send`](Transport::send)'s.
    fn call(&self, target: ComputeNodeId, req: Req) -> Result<Resp, ClusterError>
    where
        Resp: Send + 'static,
    {
        self.send(target, req).wait()
    }

    /// Dispatch `req` to `target` and deliver the outcome by invoking
    /// `complete` — exactly once — from the thread that finishes the
    /// request (a node thread, a demux reader), so a submitting executor
    /// is free the moment this returns.
    fn submit(&self, target: ComputeNodeId, req: Req, complete: CompleteFn<Resp>) {
        self.dispatch(target, req, ReplySlot::with_callback(target, complete));
    }

    /// Start a node running `handler` in *this* process.
    fn spawn_handler(&self, handler: BoxHandler<Req, Resp>) -> Result<ComputeNodeId, ClusterError>;

    /// Create a new member node somewhere in the deployment using the
    /// installed node factory — on a remote process when the transport
    /// spans several (build-partition's "allocate a fresh partition").
    fn spawn_member(&self) -> Result<ComputeNodeId, ClusterError>;

    /// Install the factory used by [`spawn_member`](Transport::spawn_member).
    fn set_node_factory(&self, factory: Box<NodeFactory<Req, Resp>>);

    /// Number of live compute nodes hosted by *this* process.
    fn node_count(&self) -> usize;

    /// Current metrics snapshot (messages, bytes, spawns, delay).
    fn metrics(&self) -> MetricsSnapshot;

    /// Reset metrics counters (between experiment phases).
    fn reset_metrics(&self);

    /// Stop every locally hosted node and release transport resources.
    fn shutdown(&self);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_round_trips_through_parts() {
        let id = ComputeNodeId::from_parts(3, 17);
        assert_eq!(id.process(), 3);
        assert_eq!(id.local_index(), 17);
        assert_eq!(id.0, (3 << PROCESS_STRIDE_BITS) | 17);
        // Single-process ids keep counting from zero.
        assert_eq!(ComputeNodeId::from_parts(0, 5), ComputeNodeId(5));
    }

    #[test]
    fn reply_pair_delivers_and_maps_drop_to_node_died() {
        let target = ComputeNodeId(9);
        let (slot, handle) = ReplyHandle::<u64>::pair(target);
        slot.fill(Ok(77));
        assert_eq!(handle.wait(), Ok(77));

        let (slot, handle) = ReplyHandle::<u64>::pair(target);
        drop(slot);
        assert_eq!(handle.wait(), Err(ClusterError::NodeDied(target)));
    }

    #[test]
    fn callback_slot_runs_exactly_once_on_fill() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let hits = Arc::new(AtomicU64::new(0));
        let sink = Arc::clone(&hits);
        let slot = ReplySlot::<u64>::with_callback(
            ComputeNodeId(3),
            Box::new(move |out| {
                assert_eq!(out, Ok(5));
                sink.fetch_add(1, Ordering::Relaxed);
            }),
        );
        slot.fill(Ok(5)); // drop after fill must NOT re-run the callback
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn callback_slot_dropped_unfilled_reports_node_died() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let target = ComputeNodeId(9);
        let hits = Arc::new(AtomicU64::new(0));
        let sink = Arc::clone(&hits);
        let slot = ReplySlot::<u64>::with_callback(
            target,
            Box::new(move |out| {
                assert_eq!(out, Err(ClusterError::NodeDied(target)));
                sink.fetch_add(1, Ordering::Relaxed);
            }),
        );
        drop(slot);
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn errors_display_their_cause() {
        let msg = ClusterError::UnknownNode(ComputeNodeId(4)).to_string();
        assert!(msg.contains("unknown"), "{msg}");
        assert!(ClusterError::Net("refused".into())
            .to_string()
            .contains("refused"));
    }

    #[test]
    fn wire_sizes_match_codec_layout() {
        assert_eq!(7u64.wire_size(), 8);
        assert_eq!(vec![1.0f64, 2.0].wire_size(), 8 + 16);
        assert_eq!(String::from("abc").wire_size(), 8 + 3);
        assert_eq!(().wire_size(), 0);
    }
}
