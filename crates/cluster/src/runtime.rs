//! Compute nodes, the in-process channel fabric, and blocking calls.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

use semtree_conc::sync::{Mutex, RwLock};

use crate::cost::CostModel;
use crate::gate::MembershipGate;
use crate::metrics::{ClusterMetrics, MetricsSnapshot};
use crate::transport::{
    BoxHandler, ClusterError, ComputeNodeId, NodeFactory, ReplySlot, Transport, Wire,
    PROCESS_STRIDE_BITS,
};

struct Envelope<Req, Resp> {
    req: Req,
    reply: ReplySlot<Resp>,
}

/// What a node's thread shares with the threads that call it.
struct NodeState<Req, Resp> {
    /// The node's handler; `None` once it panicked. Held by whoever runs
    /// a request: the node's thread, blocking, or an idle caller, which
    /// only ever `try_lock`s it.
    handler: Mutex<Option<BoxHandler<Req, Resp>>>,
    /// Envelopes in the mailbox or being handled from it. A caller runs
    /// a request in place only when this is zero, so its call never
    /// overtakes its own earlier send to the node.
    queued: AtomicUsize,
}

impl<Req: Wire + Send + 'static, Resp: Wire + Send + 'static> NodeState<Req, Resp> {
    /// Run `req` on the handler, on this thread, while `handler` is held:
    /// meter the request as delivered and sleep its transit delay, then
    /// handle it. A dead handler answers `None`, unmetered; a panic drops
    /// the handler — the node is dead from then on — and answers `None`.
    fn handle(
        handler: &mut Option<BoxHandler<Req, Resp>>,
        ctx: &NodeCtx<Req, Resp>,
        req: Req,
    ) -> Option<Resp> {
        let live = handler.as_mut()?;
        sleep(ctx.fabric.record(req.wire_size()));
        let resp = catch_unwind(AssertUnwindSafe(|| live.handle(ctx, req)));
        if resp.is_err() {
            *handler = None;
        }
        resp.ok()
    }
}

/// A live node: its mailbox and the state its thread shares.
struct NodeEntry<Req, Resp> {
    tx: Sender<Envelope<Req, Resp>>,
    state: Arc<NodeState<Req, Resp>>,
}

impl<Req, Resp> Clone for NodeEntry<Req, Resp> {
    fn clone(&self) -> Self {
        NodeEntry {
            tx: self.tx.clone(),
            state: Arc::clone(&self.state),
        }
    }
}

/// A live node, or `None` once the node has shut down.
type NodeSlot<Req, Resp> = Option<NodeEntry<Req, Resp>>;

/// The in-process fabric: compute nodes as threads exchanging typed
/// messages over channels, with simulated interconnect cost. This is the
/// paper-faithful simulation backend and the default [`Transport`]; the
/// TCP backend in `semtree-net` composes one of these per process for
/// its locally hosted nodes.
pub struct ChannelFabric<Req, Resp> {
    /// Index of the process this fabric represents (0 when standalone).
    process_index: u32,
    /// Local node slots; a `None` slot is a node that has shut down.
    nodes: RwLock<Vec<NodeSlot<Req, Resp>>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    metrics: Arc<ClusterMetrics>,
    cost: CostModel,
    /// The composite transport node calls route through. Empty (or dead)
    /// means "route through this fabric itself" — the standalone case.
    /// `semtree-net` points this at its TCP fabric so a node's call to a
    /// remote partition leaves the process.
    router: RwLock<Weak<dyn Transport<Req, Resp>>>,
    factory: RwLock<Option<Arc<NodeFactory<Req, Resp>>>>,
    /// Flipped (and `factory_gate` notified) once a node factory is
    /// installed, so spawn retries can wait on a condvar instead of
    /// polling. The gate predicate reads only this atomic — never the
    /// `factory` lock — keeping the lock order acyclic.
    factory_installed: AtomicBool,
    factory_gate: MembershipGate,
    self_weak: Weak<ChannelFabric<Req, Resp>>,
}

impl<Req: Wire + Send + 'static, Resp: Wire + Send + 'static> ChannelFabric<Req, Resp> {
    /// An empty fabric for one process of a deployment.
    #[must_use]
    pub fn new(cost: CostModel, process_index: u32) -> Arc<Self> {
        Arc::new_cyclic(|self_weak| ChannelFabric {
            process_index,
            nodes: RwLock::new(Vec::new()),
            handles: Mutex::new(Vec::new()),
            metrics: ClusterMetrics::new(),
            cost,
            router: RwLock::new(
                Weak::<ChannelFabric<Req, Resp>>::new() as Weak<dyn Transport<Req, Resp>>
            ),
            factory: RwLock::new(None),
            factory_installed: AtomicBool::new(false),
            factory_gate: MembershipGate::new(),
            self_weak: Weak::clone(self_weak),
        })
    }

    /// Block until a node factory has been installed via
    /// [`Transport::set_node_factory`], or `timeout` elapses. Returns
    /// `true` when a factory is available. Remote spawn handlers use
    /// this to ride out the startup race where a `SpawnFresh` frame
    /// arrives before the worker finishes installing its factory —
    /// without sleep-polling.
    #[must_use]
    pub fn wait_for_node_factory(&self, timeout: std::time::Duration) -> bool {
        if self.factory_installed.load(Ordering::Acquire) {
            return true;
        }
        let timeout_nanos = u64::try_from(timeout.as_nanos()).unwrap_or(u64::MAX);
        self.factory_gate
            .wait_until(timeout_nanos, || {
                self.factory_installed.load(Ordering::Acquire)
            })
            .is_ok()
    }

    /// Route node-initiated traffic through `router` instead of this
    /// fabric alone (set by a composite transport wrapping this one).
    pub fn set_router(&self, router: Weak<dyn Transport<Req, Resp>>) {
        *self.router.write() = router;
    }

    /// The transport node calls go through: the installed router if it is
    /// alive, otherwise this fabric itself.
    fn route(&self) -> Result<Arc<dyn Transport<Req, Resp>>, ClusterError> {
        if let Some(router) = self.router.read().upgrade() {
            return Ok(router);
        }
        self.self_weak
            .upgrade()
            .map(|fabric| fabric as Arc<dyn Transport<Req, Resp>>)
            .ok_or_else(|| ClusterError::Net("channel fabric shut down".into()))
    }

    /// The metrics sink, shared so a composite transport accounts its
    /// network frames into the same counters.
    #[must_use]
    pub fn metrics_handle(&self) -> Arc<ClusterMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Index of the process this fabric represents.
    #[must_use]
    pub fn process_index(&self) -> u32 {
        self.process_index
    }

    /// The installed node factory, if any.
    fn factory(&self) -> Result<Arc<NodeFactory<Req, Resp>>, ClusterError> {
        self.factory
            .read()
            .clone()
            .ok_or_else(|| ClusterError::SpawnFailed("no node factory installed".into()))
    }

    /// Record a message; the transit delay is *not* slept here — it is
    /// slept on the receiving side, so that fan-out messages travel
    /// concurrently like non-blocking MPI sends.
    fn record(&self, bytes: usize) -> Duration {
        let delay = self.cost.delay_for(bytes);
        self.metrics.record_message(bytes, delay.as_nanos() as u64);
        delay
    }

    /// Meter `resp` going back and pay its transit delay on this thread,
    /// so parallel responders overlap.
    fn respond(&self, resp: Resp) -> Resp {
        let size = resp.wire_size();
        let delay = self.record(size);
        self.metrics.record_response_bytes(size);
        sleep(delay);
        resp
    }

    /// The live node `target` names in this process.
    fn node(&self, target: ComputeNodeId) -> Option<NodeEntry<Req, Resp>> {
        // An id owned by another process can only reach a bare channel
        // fabric when no composite transport is routing, so it is as
        // unknown as a slot that never existed or has shut down.
        if target.process() != self.process_index {
            return None;
        }
        self.nodes.read().get(target.local_index())?.clone()
    }
}

/// Sleep a simulated transit delay (none under [`CostModel::zero`]).
fn sleep(delay: Duration) {
    if !delay.is_zero() {
        std::thread::sleep(delay);
    }
}

impl<Req: Wire + Send + 'static, Resp: Wire + Send + 'static> Transport<Req, Resp>
    for ChannelFabric<Req, Resp>
{
    fn dispatch(&self, target: ComputeNodeId, req: Req, reply: ReplySlot<Resp>) {
        let Some(node) = self.node(target) else {
            reply.fill(Err(ClusterError::UnknownNode(target)));
            return;
        };
        // Counted before the send, so the node is busy by the time a
        // `call` from this thread looks.
        node.state.queued.fetch_add(1, Ordering::SeqCst);
        // A mailbox whose node thread is gone hands the envelope back and
        // the unfilled slot in it drops, which reports `NodeDied` — only
        // once the count is taken back. The request is metered by the
        // node that takes it, so before its reply.
        if let Err(refused) = node.tx.send(Envelope { req, reply }) {
            node.state.queued.fetch_sub(1, Ordering::SeqCst);
            drop(refused);
        }
    }

    /// Runs the handler on this thread when `target` is idle: hosted
    /// here, nothing in its mailbox, and its handler free. Otherwise the
    /// request takes the mailbox. Metered and delayed the same either
    /// way.
    fn call(&self, target: ComputeNodeId, req: Req) -> Result<Resp, ClusterError> {
        let idle = self
            .node(target)
            .filter(|node| node.state.queued.load(Ordering::SeqCst) == 0);
        let Some(mut handler) = idle.as_ref().and_then(|node| node.state.handler.try_lock()) else {
            return self.send(target, req).wait();
        };
        let fabric = self
            .self_weak
            .upgrade()
            .ok_or_else(|| ClusterError::Net("channel fabric shut down".into()))?;
        let ctx = NodeCtx { id: target, fabric };
        let resp = NodeState::handle(&mut handler, &ctx, req);
        drop(handler);
        resp.map(|resp| self.respond(resp))
            .ok_or(ClusterError::NodeDied(target))
    }

    fn spawn_handler(&self, handler: BoxHandler<Req, Resp>) -> Result<ComputeNodeId, ClusterError> {
        let (tx, rx) = channel::<Envelope<Req, Resp>>();
        let state = Arc::new(NodeState {
            handler: Mutex::new(Some(handler)),
            queued: AtomicUsize::new(0),
        });
        let id = {
            let mut nodes = self.nodes.write();
            if nodes.len() >= 1 << PROCESS_STRIDE_BITS {
                return Err(ClusterError::SpawnFailed(format!(
                    "process {} is full ({} nodes)",
                    self.process_index,
                    nodes.len()
                )));
            }
            let id = ComputeNodeId::from_parts(self.process_index, nodes.len() as u32);
            nodes.push(Some(NodeEntry {
                tx,
                state: Arc::clone(&state),
            }));
            id
        };
        self.metrics.record_spawn();
        let fabric = self.self_weak.upgrade().ok_or_else(|| {
            ClusterError::SpawnFailed("channel fabric shut down mid-spawn".into())
        })?;
        let ctx = NodeCtx { id, fabric };
        let handle = std::thread::Builder::new()
            .name(format!("compute-node-{}", id.0))
            .spawn(move || {
                while let Ok(env) = rx.recv() {
                    // The request's transit delay is slept on arrival: this
                    // is where the simulated interconnect latency
                    // materialises, and concurrent senders overlap their
                    // delays.
                    let resp = NodeState::handle(&mut state.handler.lock(), &ctx, env.req);
                    state.queued.fetch_sub(1, Ordering::SeqCst);
                    // A dead handler ends the loop; the unfilled reply
                    // reports `NodeDied`, and so does every envelope still
                    // queued once the mailbox drops.
                    let Some(resp) = resp else { break };
                    env.reply.fill(Ok(ctx.fabric.respond(resp)));
                }
            })
            .map_err(|e| ClusterError::SpawnFailed(e.to_string()))?;
        self.handles.lock().push(handle);
        Ok(id)
    }

    fn spawn_member(&self) -> Result<ComputeNodeId, ClusterError> {
        let factory = self.factory()?;
        self.spawn_handler(factory())
    }

    fn set_node_factory(&self, factory: Box<NodeFactory<Req, Resp>>) {
        *self.factory.write() = Some(Arc::from(factory));
        self.factory_installed.store(true, Ordering::Release);
        self.factory_gate.notify();
    }

    fn node_count(&self) -> usize {
        self.nodes
            .read()
            .iter()
            .filter(|slot| slot.is_some())
            .count()
    }

    fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    fn reset_metrics(&self) {
        self.metrics.reset();
    }

    fn shutdown(&self) {
        // Dropping the senders ends each node's receive loop...
        for slot in self.nodes.write().iter_mut() {
            *slot = None;
        }
        // ...then join. (Node threads hold the fabric Arc but never their
        // own JoinHandle, so joining here cannot self-deadlock.)
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.handles.lock());
        for h in handles {
            let _ = h.join();
        }
    }
}

/// The capabilities a handler has while processing a request: identify
/// itself, call other nodes (blocking) or send through their transport,
/// and create new compute nodes.
pub struct NodeCtx<Req, Resp> {
    id: ComputeNodeId,
    fabric: Arc<ChannelFabric<Req, Resp>>,
}

impl<Req: Wire + Send + 'static, Resp: Wire + Send + 'static> NodeCtx<Req, Resp> {
    /// This node's id.
    #[must_use]
    pub fn node_id(&self) -> ComputeNodeId {
        self.id
    }

    /// Synchronous request to another node (MPI-style send + recv),
    /// possibly in another process when a network transport is routing;
    /// an idle node in this process runs it on this thread
    /// ([`Transport::call`]).
    ///
    /// SemTree request flows are strictly parent → child in the partition
    /// tree, so blocking here cannot deadlock, and a handler running
    /// another in place only `try_lock`s it.
    pub fn call(&self, target: ComputeNodeId, req: Req) -> Result<Resp, ClusterError> {
        assert_ne!(
            target, self.id,
            "a node must not call itself (would deadlock)"
        );
        self.transport()?.call(target, req)
    }

    /// The transport this node's requests go through: the deployment's
    /// when a network transport is routing, otherwise this process's
    /// fabric. Several requests sent through it before any is waited on
    /// travel and run concurrently ("the navigation is performed in a
    /// parallel way").
    pub fn transport(&self) -> Result<Arc<dyn Transport<Req, Resp>>, ClusterError> {
        self.fabric.route()
    }

    /// Create a new member node via the installed factory, placed by the
    /// routing transport — on another process under `semtree-net`.
    pub fn spawn_member(&self) -> Result<ComputeNodeId, ClusterError> {
        self.fabric.route()?.spawn_member()
    }
}

#[cfg(test)]
mod tests {
    use std::time::{Duration, Instant};

    use super::*;
    use crate::transport::Handler;

    /// A standalone fabric: it hosts the nodes and is their transport.
    fn fabric(cost: CostModel) -> Arc<ChannelFabric<u64, u64>> {
        ChannelFabric::new(cost, 0)
    }

    fn spawn(
        fabric: &ChannelFabric<u64, u64>,
        handler: impl Handler<u64, u64> + 'static,
    ) -> ComputeNodeId {
        fabric.spawn_handler(Box::new(handler)).unwrap()
    }

    struct Echo;
    impl Handler<u64, u64> for Echo {
        fn handle(&mut self, _ctx: &NodeCtx<u64, u64>, req: u64) -> u64 {
            req
        }
    }

    #[test]
    fn echo_roundtrip() {
        let fabric = fabric(CostModel::zero());
        let node = spawn(&fabric, Echo);
        assert_eq!(fabric.send(node, 7).wait(), Ok(7));
        assert_eq!(fabric.node_count(), 1);
        fabric.shutdown();
    }

    #[test]
    fn submit_completes_through_the_callback_without_blocking() {
        let fabric = fabric(CostModel::zero());
        let node = spawn(&fabric, Echo);
        let (tx, rx) = channel();
        fabric.submit(node, 9, Box::new(move |out| tx.send(out).unwrap()));
        assert_eq!(rx.recv().unwrap(), Ok(9));
        // Routing failures also arrive through the callback, never a panic.
        let (tx, rx) = channel();
        fabric.submit(
            ComputeNodeId(77),
            1,
            Box::new(move |out| tx.send(out).unwrap()),
        );
        assert_eq!(
            rx.recv().unwrap(),
            Err(ClusterError::UnknownNode(ComputeNodeId(77)))
        );
        fabric.shutdown();
    }

    #[test]
    fn metrics_count_request_and_response() {
        let fabric = fabric(CostModel::zero());
        let node = spawn(&fabric, Echo);
        fabric.send(node, 1).wait().unwrap();
        let m = fabric.metrics();
        assert_eq!(m.messages, 2); // request + response
        assert_eq!(m.bytes, 16);
        assert_eq!(m.response_bytes, 8); // the echoed u64 coming back
        assert_eq!(m.spawned_nodes, 1);
        fabric.reset_metrics();
        assert_eq!(fabric.metrics().messages, 0);
        fabric.shutdown();
    }

    /// Forwards any request to the next node (if any), adding 1 per hop.
    struct Chain {
        next: Option<ComputeNodeId>,
    }
    impl Handler<u64, u64> for Chain {
        fn handle(&mut self, ctx: &NodeCtx<u64, u64>, req: u64) -> u64 {
            match self.next {
                Some(next) => ctx.call(next, req + 1).expect("chain hop"),
                None => req,
            }
        }
    }

    #[test]
    fn nodes_call_each_other_down_a_chain() {
        let fabric = fabric(CostModel::zero());
        let tail = spawn(&fabric, Chain { next: None });
        let mid = spawn(&fabric, Chain { next: Some(tail) });
        let head = spawn(&fabric, Chain { next: Some(mid) });
        assert_eq!(fabric.send(head, 0).wait(), Ok(2)); // two hops increment twice
        assert_eq!(fabric.metrics().messages, 6); // 3 calls × (req+resp)
        fabric.shutdown();
    }

    /// Spawns a member node from the installed factory on demand, then
    /// forwards to it.
    struct Spawner {
        child: Option<ComputeNodeId>,
    }
    impl Handler<u64, u64> for Spawner {
        fn handle(&mut self, ctx: &NodeCtx<u64, u64>, req: u64) -> u64 {
            if req == 0 {
                let child = ctx.spawn_member().expect("factory installed");
                self.child = Some(child);
                child.0.into()
            } else {
                ctx.call(self.child.expect("child spawned first"), 0)
                    .expect("child answers")
            }
        }
    }

    #[test]
    fn handlers_spawn_nodes_at_runtime() {
        let fabric = fabric(CostModel::zero());
        fabric.set_node_factory(Box::new(|| Box::new(Spawner { child: None })));
        let root = spawn(&fabric, Spawner { child: None });
        assert_eq!(fabric.node_count(), 1);
        let child_id = fabric.send(root, 0).wait().unwrap();
        assert_eq!(fabric.node_count(), 2);
        assert_eq!(child_id, 1);
        // The dynamically spawned child is reachable through the parent.
        let grandchild = fabric.send(root, 1).wait().unwrap();
        assert_eq!(grandchild, 2);
        assert_eq!(fabric.node_count(), 3);
        fabric.shutdown();
    }

    #[test]
    fn cost_model_injects_measurable_delay() {
        let fabric = fabric(CostModel {
            latency: Duration::from_millis(10),
            per_kib: Duration::ZERO,
        });
        let node = spawn(&fabric, Echo);
        let start = Instant::now();
        fabric.send(node, 1).wait().unwrap();
        assert!(start.elapsed() >= Duration::from_millis(20)); // req + resp
        let m = fabric.metrics();
        assert!(m.simulated_delay_nanos >= 20_000_000);
        fabric.shutdown();
    }

    #[test]
    fn calling_unknown_node_is_a_typed_error() {
        let fabric = fabric(CostModel::zero());
        assert_eq!(
            fabric.send(ComputeNodeId(5), 1).wait(),
            Err(ClusterError::UnknownNode(ComputeNodeId(5)))
        );
        // Ids owned by another process are equally unknown to a bare
        // channel fabric.
        let foreign = ComputeNodeId::from_parts(2, 0);
        assert_eq!(
            fabric.send(foreign, 1).wait(),
            Err(ClusterError::UnknownNode(foreign))
        );
        fabric.shutdown();
    }

    #[test]
    fn calls_after_shutdown_fail_gracefully() {
        let fabric = fabric(CostModel::zero());
        let node = spawn(&fabric, Echo);
        fabric.shutdown();
        assert_eq!(
            fabric.send(node, 1).wait(),
            Err(ClusterError::UnknownNode(node))
        );
    }

    /// Dies on its first request.
    struct Doomed;
    impl Handler<u64, u64> for Doomed {
        fn handle(&mut self, _ctx: &NodeCtx<u64, u64>, _req: u64) -> u64 {
            panic!("doomed node (expected by the test)")
        }
    }

    #[test]
    fn a_request_to_a_dead_node_is_not_metered_as_delivered() {
        let fabric = fabric(CostModel::zero());
        let node = spawn(&fabric, Doomed);
        assert_eq!(
            fabric.send(node, 1).wait(),
            Err(ClusterError::NodeDied(node))
        );
        // The mailbox outlives the panic by the rest of the unwinding;
        // once it is gone a request is refused, and must leave no trace.
        let refused = (0..10_000).any(|_| {
            std::thread::yield_now();
            let before = fabric.metrics();
            assert_eq!(
                fabric.send(node, 2).wait(),
                Err(ClusterError::NodeDied(node))
            );
            let after = fabric.metrics();
            (after.messages, after.bytes) == (before.messages, before.bytes)
        });
        assert!(refused, "every request to the dead node was metered");
        fabric.shutdown();
    }

    #[test]
    fn a_call_to_a_dead_node_is_not_metered_as_delivered() {
        let fabric = fabric(CostModel::zero());
        let node = spawn(&fabric, Doomed);
        // The node is idle, so the handler panics on this thread: the
        // node is dead by the time the call returns, and a call to it is
        // refused at once, unmetered.
        assert_eq!(fabric.call(node, 1), Err(ClusterError::NodeDied(node)));
        let before = fabric.metrics();
        assert_eq!(fabric.call(node, 2), Err(ClusterError::NodeDied(node)));
        let after = fabric.metrics();
        assert_eq!(
            (after.messages, after.bytes),
            (before.messages, before.bytes)
        );
        fabric.shutdown();
    }

    /// Each request handled, with the thread it ran on.
    type Log = Arc<Mutex<Vec<(u64, std::thread::ThreadId)>>>;

    /// Logs who sent each request (`sender << 32 | seq`) and the thread
    /// it ran on, and flags two requests running at once.
    struct Recorder {
        log: Log,
        busy: Arc<AtomicBool>,
    }
    impl Handler<u64, u64> for Recorder {
        fn handle(&mut self, _ctx: &NodeCtx<u64, u64>, req: u64) -> u64 {
            assert!(!self.busy.swap(true, Ordering::SeqCst), "ran twice at once");
            self.log.lock().push((req, std::thread::current().id()));
            std::thread::yield_now();
            self.busy.store(false, Ordering::SeqCst);
            req
        }
    }

    fn recorder(fabric: &ChannelFabric<u64, u64>) -> (ComputeNodeId, Log) {
        let log = Arc::new(Mutex::new(Vec::new()));
        let busy = Arc::new(AtomicBool::new(false));
        let node = spawn(
            fabric,
            Recorder {
                log: Arc::clone(&log),
                busy,
            },
        );
        (node, log)
    }

    #[test]
    fn mixed_traffic_keeps_each_senders_order_and_one_request_at_a_time() {
        const SENDERS: u64 = 4;
        const PER_SENDER: u64 = 500;
        let fabric = fabric(CostModel::zero());
        let (node, log) = recorder(&fabric);
        let answered = Arc::new(AtomicUsize::new(0));
        let senders: Vec<_> = (0..SENDERS)
            .map(|sender| {
                let fabric = Arc::clone(&fabric);
                let answered = Arc::clone(&answered);
                std::thread::spawn(move || {
                    let (tx, rx) = channel();
                    let mut submitted = 0;
                    // A xorshift picks each request's way in, so a submit
                    // is often followed at once by a call.
                    let mut pick = sender + 1;
                    for seq in 0..PER_SENDER {
                        pick ^= pick << 13;
                        pick ^= pick >> 7;
                        pick ^= pick << 17;
                        let req = sender << 32 | seq;
                        let check = |out: Result<u64, ClusterError>| {
                            assert_eq!(out, Ok(req));
                            answered.fetch_add(1, Ordering::SeqCst);
                        };
                        match pick % 3 {
                            0 => {
                                let (tx, answered) = (tx.clone(), Arc::clone(&answered));
                                fabric.submit(
                                    node,
                                    req,
                                    Box::new(move |out| {
                                        assert_eq!(out, Ok(req));
                                        answered.fetch_add(1, Ordering::SeqCst);
                                        tx.send(()).unwrap();
                                    }),
                                );
                                submitted += 1;
                            }
                            1 => check(fabric.send(node, req).wait()),
                            _ => check(fabric.call(node, req)),
                        }
                    }
                    for _ in 0..submitted {
                        rx.recv().unwrap();
                    }
                })
            })
            .collect();
        for sender in senders {
            sender.join().unwrap();
        }
        let total = (SENDERS * PER_SENDER) as usize;
        assert_eq!(answered.load(Ordering::SeqCst), total, "each answered once");
        let log = log.lock();
        assert_eq!(log.len(), total, "each handled once");
        for sender in 0..SENDERS {
            let seqs: Vec<u64> = log
                .iter()
                .filter(|(req, _)| req >> 32 == sender)
                .map(|(req, _)| req & u64::from(u32::MAX))
                .collect();
            assert_eq!(seqs, (0..PER_SENDER).collect::<Vec<_>>(), "sender {sender}");
        }
        drop(log);
        fabric.shutdown();
    }

    #[test]
    fn only_a_call_to_an_idle_node_runs_on_the_callers_thread() {
        let fabric = fabric(CostModel::zero());
        let (node, log) = recorder(&fabric);
        let me = std::thread::current().id();
        let ran_on = |log: &Log| log.lock().last().expect("handled").1;
        assert_eq!(fabric.call(node, 1), Ok(1));
        assert_eq!(ran_on(&log), me, "call");
        assert_eq!(fabric.send(node, 2).wait(), Ok(2));
        assert_ne!(ran_on(&log), me, "send");
        let (tx, rx) = channel();
        fabric.submit(node, 3, Box::new(move |out| tx.send(out).unwrap()));
        assert_eq!(rx.recv().unwrap(), Ok(3));
        assert_ne!(ran_on(&log), me, "submit");
        assert_eq!(fabric.metrics().messages, 6, "metered alike");
        fabric.shutdown();
    }

    #[test]
    fn sends_still_overlap_and_a_call_still_pays_both_delays() {
        let latency = Duration::from_millis(20);
        let fabric = fabric(CostModel {
            latency,
            per_kib: Duration::ZERO,
        });
        let (a, b) = (spawn(&fabric, Echo), spawn(&fabric, Echo));
        let start = Instant::now();
        let (ha, hb) = (fabric.send(a, 1), fabric.send(b, 2));
        assert_eq!((ha.wait(), hb.wait()), (Ok(1), Ok(2)));
        let fanned = start.elapsed();
        assert!(fanned < 3 * latency, "two sends took {fanned:?}");
        let start = Instant::now();
        assert_eq!(fabric.call(a, 3), Ok(3));
        let called = start.elapsed();
        assert!(called >= 2 * latency, "a call took {called:?}");
        fabric.shutdown();
    }

    #[test]
    fn member_spawns_use_the_installed_factory() {
        let fabric = fabric(CostModel::zero());
        // Without a factory, member spawns fail with a typed error.
        match fabric.spawn_member() {
            Err(ClusterError::SpawnFailed(msg)) => assert!(msg.contains("factory"), "{msg}"),
            other => panic!("expected SpawnFailed, got {other:?}"),
        }
        fabric.set_node_factory(Box::new(|| Box::new(Echo)));
        let member = fabric.spawn_member().unwrap();
        assert_eq!(fabric.send(member, 3).wait(), Ok(3));
        assert_eq!(fabric.node_count(), 1);
        fabric.shutdown();
    }

    #[test]
    fn shutdown_joins_all_threads() {
        let fabric = fabric(CostModel::zero());
        for _ in 0..8 {
            spawn(&fabric, Echo);
        }
        fabric.shutdown(); // must not hang
    }
}
