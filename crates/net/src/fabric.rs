//! [`NetFabric`]: the TCP implementation of the cluster [`Transport`].
//!
//! One `NetFabric` per OS process. Process 0 (the **coordinator**)
//! listens for joining **workers**; every process hosts its own nodes on
//! an in-process [`ChannelFabric`] and routes cross-process traffic over
//! framed TCP connections carrying [`NetMsg`] payloads. Workers learn of
//! each other through the coordinator (`Welcome` / `PeerJoined`) and dial
//! peers lazily on first use, forming a mesh only where the partition
//! tree actually crosses process boundaries.
//!
//! Threading model: one accept-loop thread per process, one reader
//! thread per established connection, and one short-lived thread per
//! incoming request (a blocking call on a local node, which runs the
//! handler on that thread when the node is idle and may itself call
//! further processes). Node handlers never run on reader threads, so
//! readers always drain and the blocking parent→child call discipline
//! of `semtree-dist` cannot deadlock across processes.

use std::collections::HashMap;
use std::io;
use std::net::{IpAddr, Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Weak};
use std::time::{Duration, Instant};

use semtree_cluster::{
    BoxHandler, ChannelFabric, ClusterError, ClusterMetrics, ComputeNodeId, CostModel,
    MembershipGate, MetricsSnapshot, NodeFactory, ReplySlot, Transport, Wire,
};
use semtree_conc::sync::Mutex;

use crate::codec::{decode_exact, Decode, Encode};
use crate::frame::{dial_with_timeout, frame_overhead, read_frame, write_frame};
use crate::mesh::ConnRegistry;
use crate::msg::{decode_error, encode_error, NetMsg};

/// How long a lazy peer dial keeps retrying before giving up.
const DIAL_TIMEOUT: Duration = Duration::from_secs(10);

enum Pending<Resp> {
    /// An in-flight request awaiting a `Response`.
    Call(ReplySlot<Resp>),
    /// An in-flight remote spawn awaiting a `Spawned`.
    Spawn(mpsc::Sender<Result<ComputeNodeId, ClusterError>>),
}

/// One established connection to a peer process.
struct Conn<Resp> {
    peer: u32,
    writer: Mutex<TcpStream>,
    pending: Mutex<HashMap<u64, Pending<Resp>>>,
}

impl<Resp> Conn<Resp> {
    fn write_payload(&self, payload: &[u8]) -> io::Result<()> {
        write_frame(&mut *self.writer.lock(), payload)
    }

    fn take_pending(&self, call_id: u64) -> Option<Pending<Resp>> {
        self.pending.lock().remove(&call_id)
    }

    /// Fail every in-flight operation (connection lost).
    fn fail_all(&self, err: &ClusterError) {
        let drained: Vec<Pending<Resp>> = {
            let mut pending = self.pending.lock();
            pending.drain().map(|(_, p)| p).collect()
        };
        for p in drained {
            match p {
                Pending::Call(slot) => slot.fill(Err(err.clone())),
                Pending::Spawn(tx) => {
                    let _ = tx.send(Err(err.clone()));
                }
            }
        }
    }
}

/// TCP-backed cluster fabric (see module docs).
pub struct NetFabric<Req, Resp>
where
    Req: Encode + Decode + Wire + Send + 'static,
    Resp: Encode + Decode + Wire + Send + 'static,
{
    local: Arc<ChannelFabric<Req, Resp>>,
    process_index: u32,
    listen_addr: SocketAddr,
    /// Known peer listener addresses by process index (never includes
    /// this process).
    peers: semtree_conc::sync::RwLock<HashMap<u32, SocketAddr>>,
    conns: ConnRegistry<Arc<Conn<Resp>>>,
    next_call_id: AtomicU64,
    /// Coordinator only: the next index handed to a joining worker.
    next_worker_index: AtomicU64,
    /// Round-robin cursor for member-spawn placement.
    spawn_rr: AtomicUsize,
    /// Notified whenever the peer set changes, so
    /// [`wait_for_workers`](Self::wait_for_workers) can block on the
    /// gate instead of polling.
    membership: MembershipGate,
    metrics: Arc<ClusterMetrics>,
    shutting_down: AtomicBool,
    shutdown_tx: mpsc::Sender<()>,
    shutdown_rx: Mutex<Option<mpsc::Receiver<()>>>,
    /// Coordinator only: the opaque config blob shipped in `Welcome`.
    config: Vec<u8>,
    self_weak: Weak<NetFabric<Req, Resp>>,
}

impl<Req, Resp> NetFabric<Req, Resp>
where
    Req: Encode + Decode + Wire + Send + 'static,
    Resp: Encode + Decode + Wire + Send + 'static,
{
    /// Start the coordinator (process 0): bind `listen` and accept
    /// joining workers. `config` is an opaque blob delivered verbatim to
    /// every worker in its `Welcome` (the application's deployment
    /// parameters).
    pub fn coordinator(
        listen: SocketAddr,
        config: Vec<u8>,
        cost: CostModel,
    ) -> io::Result<Arc<Self>> {
        let listener = TcpListener::bind(listen)?;
        let listen_addr = listener.local_addr()?;
        let fabric = Self::build(ChannelFabric::new(cost, 0), 0, listen_addr, config);
        fabric.start_accept_loop(listener)?;
        Ok(fabric)
    }

    /// Join a deployment as a worker: dial the coordinator, receive an
    /// assigned process index plus the coordinator's config blob, and
    /// start accepting mesh connections from sibling workers.
    pub fn join(
        coordinator: SocketAddr,
        cost: CostModel,
        timeout: Duration,
    ) -> io::Result<(Arc<Self>, Vec<u8>)> {
        Self::handshake(coordinator, cost, timeout, |listen_port| NetMsg::Hello {
            process_index: NetMsg::<Req, Resp>::UNASSIGNED,
            listen_port,
        })
    }

    /// Rejoin a deployment as a **restarted** worker: dial the
    /// coordinator and ask to resume under the previously assigned
    /// `process_index`, presenting the raw ids of the `partitions`
    /// recovered from local durable state. The coordinator replaces its
    /// stale route and connection for that index and re-announces the
    /// worker to its siblings, so traffic to the old partition ids flows
    /// again once the caller has re-spawned them on the local fabric.
    ///
    /// # Errors
    /// Fails when the coordinator is unreachable or refuses the rejoin
    /// (unknown index, index 0, or a partition owned by another process)
    /// — a refusal surfaces as the coordinator hanging up.
    pub fn rejoin(
        coordinator: SocketAddr,
        cost: CostModel,
        timeout: Duration,
        process_index: u32,
        partitions: &[u32],
    ) -> io::Result<Arc<Self>> {
        let (fabric, _config) =
            Self::handshake(coordinator, cost, timeout, |listen_port| NetMsg::Rejoin {
                process_index,
                listen_port,
                partitions: partitions.to_vec(),
            })?;
        if fabric.process_index != process_index {
            fabric.shutdown();
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "asked to rejoin as process {process_index}, coordinator says {}",
                    fabric.process_index
                ),
            ));
        }
        Ok(fabric)
    }

    /// The worker's side of the membership handshake: send `first` (a
    /// `Hello` or a `Rejoin`, given the mesh listener's port) and become
    /// the process the coordinator's `Welcome` names. Returns the fabric
    /// and the coordinator's config blob.
    fn handshake(
        coordinator: SocketAddr,
        cost: CostModel,
        timeout: Duration,
        first: impl FnOnce(u16) -> NetMsg<Req, Resp>,
    ) -> io::Result<(Arc<Self>, Vec<u8>)> {
        // Bind the mesh listener first so its port can ride in `first`.
        let listener = TcpListener::bind((Ipv4Addr::UNSPECIFIED, 0))?;
        let listen_addr = listener.local_addr()?;

        let mut stream = dial_with_timeout(coordinator, timeout)?;
        write_frame(&mut stream, &first(listen_addr.port()).to_bytes())?;
        let payload = read_frame(&mut stream)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "coordinator hung up"))?;
        let welcome: NetMsg<Req, Resp> = decode_exact(&payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let NetMsg::Welcome {
            assigned_index,
            peers,
            config,
        } = welcome
        else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "expected Welcome from coordinator",
            ));
        };

        let fabric = Self::build(
            ChannelFabric::new(cost, assigned_index),
            assigned_index,
            listen_addr,
            Vec::new(),
        );
        {
            let mut map = fabric.peers.write();
            map.insert(0, coordinator);
            for (index, addr) in peers {
                if let Ok(parsed) = addr.parse() {
                    map.insert(index, parsed);
                }
            }
        }
        fabric.register_conn(0, stream)?;
        fabric.start_accept_loop(listener)?;
        Ok((fabric, config))
    }

    fn build(
        local: Arc<ChannelFabric<Req, Resp>>,
        process_index: u32,
        listen_addr: SocketAddr,
        config: Vec<u8>,
    ) -> Arc<Self> {
        let metrics = local.metrics_handle();
        let (shutdown_tx, shutdown_rx) = mpsc::channel();
        let fabric = Arc::new_cyclic(|self_weak: &Weak<NetFabric<Req, Resp>>| NetFabric {
            local,
            process_index,
            listen_addr,
            peers: semtree_conc::sync::RwLock::new(HashMap::new()),
            conns: ConnRegistry::new(),
            next_call_id: AtomicU64::new(1),
            next_worker_index: AtomicU64::new(1),
            spawn_rr: AtomicUsize::new(0),
            membership: MembershipGate::new(),
            metrics,
            shutting_down: AtomicBool::new(false),
            shutdown_tx,
            shutdown_rx: Mutex::new(Some(shutdown_rx)),
            config,
            self_weak: Weak::clone(self_weak),
        });
        // Node-initiated calls must route through this fabric so they can
        // leave the process.
        let router: Weak<dyn Transport<Req, Resp>> = fabric.self_weak.clone();
        fabric.local.set_router(router);
        fabric
    }

    /// The address this process accepts cluster connections on (with the
    /// actual port when bound to port 0).
    #[must_use]
    pub fn listen_addr(&self) -> SocketAddr {
        self.listen_addr
    }

    /// This process's index in the deployment (0 = coordinator).
    #[must_use]
    pub fn process_index(&self) -> u32 {
        self.process_index
    }

    /// Number of known peer processes (coordinator: joined workers).
    #[must_use]
    pub fn peer_count(&self) -> usize {
        self.peers.read().len()
    }

    /// The in-process fabric hosting this process's nodes.
    #[must_use]
    pub fn local_fabric(&self) -> Arc<ChannelFabric<Req, Resp>> {
        Arc::clone(&self.local)
    }

    /// Block until `n` workers have joined, or fail after `timeout`
    /// with a typed [`ClusterError::Timeout`]. Joins wake this
    /// immediately via the membership gate; the predicate loop inside
    /// [`MembershipGate::wait_until`] makes the wait immune to spurious
    /// wakeups, and the deadline is honored exactly rather than at poll
    /// granularity.
    pub fn wait_for_workers(&self, n: usize, timeout: Duration) -> Result<(), ClusterError> {
        let timeout_nanos = u64::try_from(timeout.as_nanos()).unwrap_or(u64::MAX);
        self.membership
            .wait_until(timeout_nanos, || self.peer_count() >= n)
            .map_err(|_elapsed| {
                ClusterError::Timeout(format!(
                    "only {} of {n} workers joined within {timeout:?}",
                    self.peer_count()
                ))
            })
    }

    /// Wake every [`wait_for_workers`](Self::wait_for_workers) after a
    /// peer-set change. Callers must NOT hold the `peers` lock: the
    /// waiter's predicate reads it while holding the gate mutex
    /// (membership ranks below peers in the lock hierarchy).
    fn notify_membership(&self) {
        self.membership.notify();
    }

    /// Block until this process is told to shut down (a `Shutdown` frame
    /// arrives or [`Transport::shutdown`] is called locally). Worker
    /// main loops park here.
    pub fn wait_for_shutdown(&self) {
        let rx = self.shutdown_rx.lock().take();
        if let Some(rx) = rx {
            let _ = rx.recv();
        }
    }

    fn start_accept_loop(self: &Arc<Self>, listener: TcpListener) -> io::Result<()> {
        let weak = Arc::downgrade(self);
        std::thread::Builder::new()
            .name(format!("net-accept-{}", self.process_index))
            .spawn(move || {
                for stream in listener.incoming() {
                    let Some(fabric) = weak.upgrade() else { break };
                    if fabric.shutting_down.load(Ordering::SeqCst) {
                        break;
                    }
                    if let Ok(stream) = stream {
                        fabric.handle_incoming(stream);
                    }
                }
            })?;
        Ok(())
    }

    /// Handshake a fresh inbound connection on its own thread (the first
    /// frame identifies the dialer).
    fn handle_incoming(self: &Arc<Self>, mut stream: TcpStream) {
        let weak = Arc::downgrade(self);
        std::thread::spawn(move || {
            let Ok(Some(payload)) = read_frame(&mut stream) else {
                return;
            };
            let Ok(msg) = decode_exact::<NetMsg<Req, Resp>>(&payload) else {
                return;
            };
            let Some(fabric) = weak.upgrade() else { return };
            let peer_ip = stream
                .peer_addr()
                .map(|a| a.ip())
                .unwrap_or(IpAddr::V4(Ipv4Addr::LOCALHOST));
            match msg {
                NetMsg::Hello {
                    process_index,
                    listen_port,
                } => {
                    let peer_listen = SocketAddr::new(peer_ip, listen_port);
                    if process_index == NetMsg::<Req, Resp>::UNASSIGNED {
                        fabric.admit_worker(stream, peer_listen);
                    } else {
                        // Mesh connection from an already-assigned sibling.
                        fabric.peers.write().insert(process_index, peer_listen);
                        fabric.notify_membership();
                        let _ = fabric.register_conn(process_index, stream);
                    }
                }
                NetMsg::Rejoin {
                    process_index,
                    listen_port,
                    partitions,
                } => {
                    let peer_listen = SocketAddr::new(peer_ip, listen_port);
                    fabric.readmit_worker(stream, peer_listen, process_index, &partitions);
                }
                // Anything else as a first frame is a protocol violation;
                // dropping the socket tells the dialer.
                _ => {}
            }
        });
    }

    /// Coordinator path: assign an index, welcome the worker, tell the
    /// others. A worker drops the socket instead: admitting would
    /// announce the joiner to the coordinator under an index it already
    /// routes to another worker.
    fn admit_worker(self: &Arc<Self>, stream: TcpStream, peer_listen: SocketAddr) {
        if self.process_index != 0 {
            return;
        }
        let assigned = self.next_worker_index.fetch_add(1, Ordering::SeqCst) as u32;
        self.welcome_worker(stream, peer_listen, assigned);
    }

    /// Coordinator path for a **restarted** worker: validate that the
    /// claimed index was really assigned in this deployment and that the
    /// presented partitions belong to it, then swap in the fresh route
    /// and connection and welcome it back under its old index. Invalid
    /// claims just drop the socket.
    fn readmit_worker(
        self: &Arc<Self>,
        stream: TcpStream,
        peer_listen: SocketAddr,
        process_index: u32,
        partitions: &[u32],
    ) {
        if self.process_index != 0
            || process_index == 0
            || u64::from(process_index) >= self.next_worker_index.load(Ordering::SeqCst)
        {
            return;
        }
        if partitions
            .iter()
            .any(|&p| ComputeNodeId(p).process() != process_index)
        {
            return;
        }
        // Drop the dead connection so nothing writes into the old socket;
        // the replacement is registered under the same index.
        self.conns.remove(process_index);
        self.welcome_worker(stream, peer_listen, process_index);
    }

    /// Make the worker behind `stream` process `index` of the deployment:
    /// tell the others, install its route and connection, welcome it.
    fn welcome_worker(self: &Arc<Self>, stream: TcpStream, peer_listen: SocketAddr, index: u32) {
        let existing: Vec<(u32, String)> = {
            let peers = self.peers.read();
            peers
                .iter()
                .filter(|&(&peer, _)| peer != index)
                .map(|(&peer, addr)| (peer, addr.to_string()))
                .collect()
        };
        // The others learn the address for lazy dialing; for a restarted
        // worker it replaces their stale route (their connection to the
        // old incarnation died with it).
        let joined: NetMsg<Req, Resp> = NetMsg::PeerJoined {
            index,
            addr: peer_listen.to_string(),
        };
        let joined_bytes = joined.to_bytes();
        for conn in self.conns.values() {
            let _ = self.write_recorded(&conn, &joined_bytes);
        }
        // Ordering matters twice over. The route and connection must
        // exist before the Welcome goes out (the worker treats Welcome as
        // "joined", and the coordinator may be asked to reach it the
        // moment `join` returns) — and the membership gate must fire only
        // AFTER the Welcome is on the wire: waking waiters earlier lets a
        // sender grab the freshly registered conn's writer first, and the
        // worker's first frame becomes a request instead of its Welcome.
        self.peers.write().insert(index, peer_listen);
        let Ok(conn) = self.register_conn(index, stream) else {
            return;
        };
        let welcome: NetMsg<Req, Resp> = NetMsg::Welcome {
            assigned_index: index,
            peers: existing,
            config: self.config.clone(),
        };
        let _ = self.write_recorded(&conn, &welcome.to_bytes());
        self.notify_membership();
    }

    /// Adopt an established socket as the connection to `peer`: start its
    /// reader thread and make it available for sends.
    fn register_conn(
        self: &Arc<Self>,
        peer: u32,
        stream: TcpStream,
    ) -> io::Result<Arc<Conn<Resp>>> {
        stream.set_nodelay(true).ok();
        let reader_stream = stream.try_clone()?;
        let conn = Arc::new(Conn {
            peer,
            writer: Mutex::new(stream),
            pending: Mutex::new(HashMap::new()),
        });
        self.conns.insert(peer, Arc::clone(&conn));
        let weak = Arc::downgrade(self);
        let reader_conn = Arc::clone(&conn);
        std::thread::Builder::new()
            .name(format!("net-reader-{}-from-{peer}", self.process_index))
            .spawn(move || Self::read_loop(&weak, &reader_conn, reader_stream))?;
        Ok(conn)
    }

    fn read_loop(weak: &Weak<Self>, conn: &Arc<Conn<Resp>>, mut stream: TcpStream) {
        while let Ok(Some(payload)) = read_frame(&mut stream) {
            let Some(fabric) = weak.upgrade() else { break };
            fabric
                .metrics
                .record_message(frame_overhead(payload.len()), 0);
            if !fabric.handle_frame(conn, &payload) {
                break;
            }
        }
        // Evict this connection so the next send re-dials (a restarted
        // peer listens on a new port) — but only if the map still holds
        // *this* connection, not a replacement registered by a rejoin.
        if let Some(fabric) = weak.upgrade() {
            fabric.conns.evict_if(conn.peer, |c| Arc::ptr_eq(c, conn));
        }
        conn.fail_all(&ClusterError::Net(format!(
            "connection to process {} closed",
            conn.peer
        )));
    }

    /// Handle one inbound frame. Returns `false` when the reader should
    /// stop (corrupt stream or shutdown).
    fn handle_frame(self: &Arc<Self>, conn: &Arc<Conn<Resp>>, payload: &[u8]) -> bool {
        let msg: NetMsg<Req, Resp> = match decode_exact(payload) {
            Ok(msg) => msg,
            // A corrupt frame desynchronises the stream; tear it down.
            Err(_) => return false,
        };
        match msg {
            NetMsg::Request {
                call_id,
                target,
                body,
            } => {
                let fabric = Arc::clone(self);
                let conn = Arc::clone(conn);
                // Request handling blocks on a local node (which may call
                // further processes), so it must not occupy the reader.
                std::thread::spawn(move || {
                    let started = Instant::now();
                    let result = fabric.local.call(ComputeNodeId(target), body);
                    let elapsed = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    fabric.metrics.record_latency(elapsed);
                    let reply: NetMsg<Req, Resp> = match result {
                        Ok(body) => NetMsg::Response { call_id, body },
                        Err(err) => {
                            let (code, node, message) = encode_error(&err);
                            NetMsg::Error {
                                call_id,
                                code,
                                node,
                                message,
                            }
                        }
                    };
                    let _ = fabric.write_recorded_response(&conn, &reply.to_bytes());
                });
            }
            NetMsg::Response { call_id, body } => {
                self.metrics
                    .record_response_bytes(frame_overhead(payload.len()));
                if let Some(Pending::Call(slot)) = conn.take_pending(call_id) {
                    slot.fill(Ok(body));
                }
            }
            NetMsg::SpawnFresh { call_id } => {
                let fabric = Arc::clone(self);
                let conn = Arc::clone(conn);
                std::thread::spawn(move || {
                    // A spawn can arrive moments after this process joined,
                    // before its application code installed the node
                    // factory; wait on the factory gate (condvar, no
                    // polling) rather than failing the coordinator's
                    // build-partition.
                    let _ = fabric.local.wait_for_node_factory(Duration::from_secs(2));
                    let spawned = fabric.local.spawn_member();
                    let reply: NetMsg<Req, Resp> = match spawned {
                        Ok(node) => NetMsg::Spawned {
                            call_id,
                            node: node.0,
                        },
                        Err(err) => {
                            let (code, node, message) = encode_error(&err);
                            NetMsg::Error {
                                call_id,
                                code,
                                node,
                                message,
                            }
                        }
                    };
                    let _ = fabric.write_recorded_response(&conn, &reply.to_bytes());
                });
            }
            NetMsg::Spawned { call_id, node } => {
                self.metrics
                    .record_response_bytes(frame_overhead(payload.len()));
                if let Some(Pending::Spawn(tx)) = conn.take_pending(call_id) {
                    let _ = tx.send(Ok(ComputeNodeId(node)));
                }
            }
            NetMsg::Error {
                call_id,
                code,
                node,
                message,
            } => {
                self.metrics
                    .record_response_bytes(frame_overhead(payload.len()));
                let err = decode_error(code, node, message);
                match conn.take_pending(call_id) {
                    Some(Pending::Call(slot)) => slot.fill(Err(err)),
                    Some(Pending::Spawn(tx)) => {
                        let _ = tx.send(Err(err));
                    }
                    None => {}
                }
            }
            NetMsg::PeerJoined { index, addr } => {
                if let Ok(parsed) = addr.parse() {
                    // A re-announced index means that peer restarted: any
                    // cached connection to its old incarnation is dead.
                    self.conns.remove(index);
                    self.peers.write().insert(index, parsed);
                    self.notify_membership();
                }
            }
            NetMsg::Shutdown => {
                // Only notify: the process's main loop performs the actual
                // teardown by calling `shutdown` itself.
                let _ = self.shutdown_tx.send(());
                return false;
            }
            // Handshake frames are never valid mid-stream.
            NetMsg::Hello { .. } | NetMsg::Welcome { .. } | NetMsg::Rejoin { .. } => return false,
        }
        true
    }

    /// Write one frame, accounting its actual on-the-wire size.
    fn write_recorded(&self, conn: &Conn<Resp>, payload: &[u8]) -> Result<(), ClusterError> {
        self.metrics
            .record_message(frame_overhead(payload.len()), 0);
        conn.write_payload(payload)
            .map_err(|e| ClusterError::Net(format!("write to process {}: {e}", conn.peer)))
    }

    /// [`write_recorded`](Self::write_recorded) for frames answering a
    /// request: also feeds the response-bytes counter.
    fn write_recorded_response(
        &self,
        conn: &Conn<Resp>,
        payload: &[u8],
    ) -> Result<(), ClusterError> {
        self.metrics
            .record_response_bytes(frame_overhead(payload.len()));
        self.write_recorded(conn, payload)
    }

    /// The connection to `peer`, dialing it lazily if needed.
    fn conn_to(self: &Arc<Self>, peer: u32) -> Result<Arc<Conn<Resp>>, ClusterError> {
        if let Some(conn) = self.conns.get(peer) {
            return Ok(conn);
        }
        let addr = *self
            .peers
            .read()
            .get(&peer)
            .ok_or_else(|| ClusterError::Net(format!("no route to process {peer}")))?;
        let mut stream =
            dial_with_timeout(addr, DIAL_TIMEOUT).map_err(|e| ClusterError::Net(e.to_string()))?;
        let hello: NetMsg<Req, Resp> = NetMsg::Hello {
            process_index: self.process_index,
            listen_port: self.listen_addr.port(),
        };
        self.metrics
            .record_message(frame_overhead(hello.to_bytes().len()), 0);
        write_frame(&mut stream, &hello.to_bytes())
            .map_err(|e| ClusterError::Net(e.to_string()))?;
        self.register_conn(peer, stream)
            .map_err(|e| ClusterError::Net(e.to_string()))
    }

    /// Worker process indices eligible for member placement: every known
    /// worker peer, plus this process itself when it is a worker.
    fn placement_candidates(&self) -> Vec<u32> {
        let mut workers: Vec<u32> = self
            .peers
            .read()
            .keys()
            .copied()
            .filter(|&index| index >= 1)
            .collect();
        if self.process_index >= 1 {
            workers.push(self.process_index);
        }
        workers.sort_unstable();
        workers
    }

    fn spawn_on(self: &Arc<Self>, peer: u32) -> Result<ComputeNodeId, ClusterError> {
        let conn = self.conn_to(peer)?;
        let call_id = self.next_call_id.fetch_add(1, Ordering::SeqCst);
        let (tx, rx) = mpsc::channel();
        conn.pending.lock().insert(call_id, Pending::Spawn(tx));
        let msg: NetMsg<Req, Resp> = NetMsg::SpawnFresh { call_id };
        if let Err(err) = self.write_recorded(&conn, &msg.to_bytes()) {
            conn.take_pending(call_id);
            return Err(err);
        }
        rx.recv().unwrap_or_else(|_| {
            Err(ClusterError::Net(format!(
                "process {peer} gone during spawn"
            )))
        })
    }
}

impl<Req, Resp> Transport<Req, Resp> for NetFabric<Req, Resp>
where
    Req: Encode + Decode + Wire + Send + 'static,
    Resp: Encode + Decode + Wire + Send + 'static,
{
    /// A local target goes to the channel fabric; a remote one rides the
    /// persistent per-peer connection with `reply` registered under a
    /// fresh call id, so the demux reader completes the caller directly
    /// when the correlated response frame arrives. Teardown (`fail_all`),
    /// a remote error frame and a failed write all go through the same
    /// slot.
    fn dispatch(&self, target: ComputeNodeId, req: Req, reply: ReplySlot<Resp>) {
        let shutting_down = || ClusterError::Net("fabric is shutting down".into());
        if self.shutting_down.load(Ordering::SeqCst) {
            return reply.fill(Err(shutting_down()));
        }
        if target.process() == self.process_index {
            return self.local.dispatch(target, req, reply);
        }
        let Some(this) = self.self_weak.upgrade() else {
            return reply.fill(Err(shutting_down()));
        };
        let conn = match this.conn_to(target.process()) {
            Ok(conn) => conn,
            Err(err) => return reply.fill(Err(err)),
        };
        let call_id = self.next_call_id.fetch_add(1, Ordering::SeqCst);
        conn.pending.lock().insert(call_id, Pending::Call(reply));
        let msg: NetMsg<Req, Resp> = NetMsg::Request {
            call_id,
            target: target.0,
            body: req,
        };
        if let Err(err) = self.write_recorded(&conn, &msg.to_bytes()) {
            // The reader will never see a response for a request that
            // never left; surface the write failure ourselves.
            if let Some(Pending::Call(slot)) = conn.take_pending(call_id) {
                slot.fill(Err(err));
            }
        }
    }

    /// A local target is the channel fabric's call, run on this thread
    /// when the node is idle; a remote one is a send and a wait.
    fn call(&self, target: ComputeNodeId, req: Req) -> Result<Resp, ClusterError> {
        if target.process() == self.process_index && !self.shutting_down.load(Ordering::SeqCst) {
            return self.local.call(target, req);
        }
        self.send(target, req).wait()
    }

    fn spawn_handler(&self, handler: BoxHandler<Req, Resp>) -> Result<ComputeNodeId, ClusterError> {
        self.local.spawn_handler(handler)
    }

    fn spawn_member(&self) -> Result<ComputeNodeId, ClusterError> {
        let candidates = self.placement_candidates();
        if candidates.is_empty() {
            // No workers: everything lives on the coordinator (degenerate
            // single-process deployment).
            return self.local.spawn_member();
        }
        let pick = candidates[self.spawn_rr.fetch_add(1, Ordering::SeqCst) % candidates.len()];
        if pick == self.process_index {
            self.local.spawn_member()
        } else {
            let this = self
                .self_weak
                .upgrade()
                .ok_or_else(|| ClusterError::Net("fabric is shutting down".into()))?;
            this.spawn_on(pick)
        }
    }

    fn set_node_factory(&self, factory: Box<NodeFactory<Req, Resp>>) {
        self.local.set_node_factory(factory);
    }

    fn node_count(&self) -> usize {
        self.local.node_count()
    }

    fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    fn reset_metrics(&self) {
        self.metrics.reset();
    }

    fn shutdown(&self) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        // The coordinator owns deployment lifetime: tell every peer.
        if self.process_index == 0 {
            let msg: NetMsg<Req, Resp> = NetMsg::Shutdown;
            let bytes = msg.to_bytes();
            for conn in self.conns.values() {
                let _ = conn.write_payload(&bytes);
            }
        }
        // Dropping connections first closes writer sockets: readers see
        // EOF and fail any in-flight calls, which unblocks local nodes
        // waiting on remote responses so they can be joined below.
        drop(self.conns.clear());
        self.local.shutdown();
        let _ = self.shutdown_tx.send(());
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.listen_addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semtree_cluster::{Handler, NodeCtx};

    struct Echo;
    impl Handler<u64, u64> for Echo {
        fn handle(&mut self, _ctx: &NodeCtx<u64, u64>, req: u64) -> u64 {
            req * 2
        }
    }

    fn loopback() -> SocketAddr {
        SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), 0)
    }

    #[test]
    fn coordinator_and_worker_exchange_requests() {
        let coord =
            NetFabric::<u64, u64>::coordinator(loopback(), vec![9, 9], CostModel::zero()).unwrap();
        let (worker, config) =
            NetFabric::<u64, u64>::join(coord.listen_addr(), CostModel::zero(), DIAL_TIMEOUT)
                .unwrap();
        assert_eq!(config, vec![9, 9]);
        assert_eq!(worker.process_index(), 1);

        // A node hosted by the worker, called from the coordinator side.
        let node = worker.spawn_handler(Box::new(Echo)).unwrap();
        assert_eq!(node.process(), 1);
        assert_eq!(coord.send(node, 21).wait(), Ok(42));

        // Actual frame bytes were accounted on both sides, and the reply
        // leg also fed the response-bytes counter on each.
        assert!(coord.metrics().bytes > 0);
        assert!(worker.metrics().bytes > 0);
        assert!(coord.metrics().response_bytes > 0);
        assert!(worker.metrics().response_bytes > 0);
        assert!(coord.metrics().response_bytes < coord.metrics().bytes);

        coord.shutdown();
        worker.wait_for_shutdown();
        worker.shutdown();
    }

    #[test]
    fn wait_for_workers_honors_its_timeout_without_polling_slack() {
        let coord =
            NetFabric::<u64, u64>::coordinator(loopback(), Vec::new(), CostModel::zero()).unwrap();
        let start = Instant::now();
        let err = coord
            .wait_for_workers(1, Duration::from_millis(150))
            .unwrap_err();
        let waited = start.elapsed();
        assert!(matches!(err, ClusterError::Timeout(_)), "{err:?}");
        assert!(
            waited >= Duration::from_millis(150),
            "returned early: {waited:?}"
        );
        assert!(
            waited < Duration::from_secs(2),
            "overshot wildly: {waited:?}"
        );
        coord.shutdown();
    }

    #[test]
    fn restarted_worker_rejoins_under_its_old_index() {
        let coord =
            NetFabric::<u64, u64>::coordinator(loopback(), vec![7], CostModel::zero()).unwrap();
        let (worker, _) =
            NetFabric::<u64, u64>::join(coord.listen_addr(), CostModel::zero(), DIAL_TIMEOUT)
                .unwrap();
        assert_eq!(worker.process_index(), 1);
        let node = worker.spawn_handler(Box::new(Echo)).unwrap();
        assert_eq!(coord.send(node, 2).wait(), Ok(4));

        // Crash: sockets close without a goodbye frame.
        drop(worker);

        let revived = NetFabric::<u64, u64>::rejoin(
            coord.listen_addr(),
            CostModel::zero(),
            DIAL_TIMEOUT,
            1,
            &[1 << 16],
        )
        .unwrap();
        assert_eq!(revived.process_index(), 1);
        // The local fabric re-assigns the same id the crashed run had.
        let renode = revived.spawn_handler(Box::new(Echo)).unwrap();
        assert_eq!(renode, node);
        // The coordinator reaches the revived worker over the new socket.
        assert_eq!(coord.send(node, 21).wait(), Ok(42));

        coord.shutdown();
        revived.wait_for_shutdown();
        revived.shutdown();
    }

    #[test]
    fn bogus_rejoin_claims_are_refused() {
        let coord =
            NetFabric::<u64, u64>::coordinator(loopback(), Vec::new(), CostModel::zero()).unwrap();
        let (worker, _) =
            NetFabric::<u64, u64>::join(coord.listen_addr(), CostModel::zero(), DIAL_TIMEOUT)
                .unwrap();
        let node = worker.spawn_handler(Box::new(Echo)).unwrap();
        // Index 0 is the coordinator, index 7 was never assigned, and the
        // third claim presents a partition owned by another process.
        for (index, partitions) in [(0u32, vec![]), (7, vec![]), (1, vec![5 << 16])] {
            let err = match NetFabric::<u64, u64>::rejoin(
                coord.listen_addr(),
                CostModel::zero(),
                Duration::from_secs(2),
                index,
                &partitions,
            ) {
                Ok(_) => panic!("claim index={index} partitions={partitions:?} was admitted"),
                Err(e) => e,
            };
            assert_eq!(
                err.kind(),
                io::ErrorKind::UnexpectedEof,
                "claim index={index} partitions={partitions:?} must be hung up on"
            );
        }
        // The refused impostors did not disturb the legitimate worker.
        assert_eq!(coord.send(node, 5).wait(), Ok(10));
        coord.shutdown();
        worker.wait_for_shutdown();
        worker.shutdown();
    }

    #[test]
    fn remote_errors_come_back_typed() {
        let coord =
            NetFabric::<u64, u64>::coordinator(loopback(), Vec::new(), CostModel::zero()).unwrap();
        let (worker, _) =
            NetFabric::<u64, u64>::join(coord.listen_addr(), CostModel::zero(), DIAL_TIMEOUT)
                .unwrap();
        // No such node on the worker: the failure crosses the wire typed.
        let ghost = ComputeNodeId::from_parts(1, 7);
        let outcome = coord.send(ghost, 1).wait();
        assert_eq!(outcome, Err(ClusterError::UnknownNode(ghost)));
        // The callback slot takes the same route, demux reader included.
        let (tx, rx) = mpsc::channel();
        coord.submit(ghost, 1, Box::new(move |out| tx.send(out).unwrap()));
        assert_eq!(rx.recv().unwrap(), Err(ClusterError::UnknownNode(ghost)));
        coord.shutdown();
        worker.wait_for_shutdown();
        worker.shutdown();
    }

    #[test]
    fn member_spawns_round_robin_across_workers() {
        let coord =
            NetFabric::<u64, u64>::coordinator(loopback(), Vec::new(), CostModel::zero()).unwrap();
        let (w1, _) =
            NetFabric::<u64, u64>::join(coord.listen_addr(), CostModel::zero(), DIAL_TIMEOUT)
                .unwrap();
        let (w2, _) =
            NetFabric::<u64, u64>::join(coord.listen_addr(), CostModel::zero(), DIAL_TIMEOUT)
                .unwrap();
        coord.wait_for_workers(2, DIAL_TIMEOUT).unwrap();
        for fabric in [&coord, &w1, &w2] {
            fabric.set_node_factory(Box::new(|| Box::new(Echo)));
        }
        let spawned: Vec<ComputeNodeId> = (0..4).map(|_| coord.spawn_member().unwrap()).collect();
        let owners: Vec<u32> = spawned.iter().map(|id| id.process()).collect();
        assert_eq!(owners, vec![1, 2, 1, 2], "round-robin over workers only");
        // Every spawned member is reachable from the coordinator.
        for id in spawned {
            assert_eq!(coord.send(id, 3).wait(), Ok(6));
        }
        coord.shutdown();
        for worker in [w1, w2] {
            worker.wait_for_shutdown();
            worker.shutdown();
        }
    }

    #[test]
    fn workers_dial_each_other_lazily() {
        let coord =
            NetFabric::<u64, u64>::coordinator(loopback(), Vec::new(), CostModel::zero()).unwrap();
        let (w1, _) =
            NetFabric::<u64, u64>::join(coord.listen_addr(), CostModel::zero(), DIAL_TIMEOUT)
                .unwrap();
        let (w2, _) =
            NetFabric::<u64, u64>::join(coord.listen_addr(), CostModel::zero(), DIAL_TIMEOUT)
                .unwrap();
        coord.wait_for_workers(2, DIAL_TIMEOUT).unwrap();
        let on_w2 = w2.spawn_handler(Box::new(Echo)).unwrap();
        // w1 has never talked to w2; the PeerJoined broadcast lets it
        // dial. Wait on the membership gate instead of sleep-polling.
        w1.wait_for_workers(2, DIAL_TIMEOUT).unwrap();
        assert_eq!(w1.send(on_w2, 8).wait(), Ok(16));
        coord.shutdown();
        for worker in [w1, w2] {
            worker.wait_for_shutdown();
            worker.shutdown();
        }
    }
}
