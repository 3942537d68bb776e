//! The sharded readiness fabric: accept, balance, buffer, admit,
//! execute, reply.
//!
//! N reactor shards (one thread each) multiplex the client connections
//! through one level-triggered `poll(2)` poller each, while a
//! small pool of executor threads runs the [`Service`] on admitted
//! requests. Shard 0 owns the listener and hands each accepted socket
//! to the least-loaded shard over a lock-protected inbox plus a wake
//! pipe; after that the connection lives and dies on its owning shard
//! (its fd is registered with that shard's poller exactly once).
//! A request the service can answer without blocking
//! ([`Service::call_inline`]) never leaves the shard that decoded it:
//! the reply is framed straight into the connection's write queue, and
//! every reply queued in one readiness turn leaves in one `write`.
//! Everything else is admitted to the executor pool, and its response
//! flows back through per-shard completion lists, so out-of-order
//! completion under pipelining is the natural case — each frame
//! carries its correlation id home.
//!
//! Executor completions are routed by an `Arc`'d [`ReplyToken`], which
//! makes the reply path location-independent: an executor can answer
//! synchronously ([`Dispatch::Sync`]), or a [`Service`] can take the
//! token across threads and complete the response later from a
//! transport's demux callback ([`Dispatch::Completed`]) — the pipelined
//! worker hop.
//!
//! Connection lifecycle: `Accepted → Reading ⇄ Backpressured → Draining
//! → Closed`. *Backpressured* means the connection's in-flight count
//! reached the per-connection bound, or its unwritten replies reached
//! `MAX_QUEUED_REPLY_BYTES`: the shard drops the socket's read
//! interest (already-buffered bytes stay buffered) until a completion
//! frees a slot or a flush drains the replies below the cap. Admission
//! against a full **global** bound instead sheds the request: the
//! service's typed `overloaded` response is queued immediately, and the
//! client sees backpressure as latency, never as a silent stall.
//! Within one loop iteration a connection may admit at most
//! [`DRAIN_BUDGET`] buffered frames before the shard moves on to its
//! siblings, so one saturated pipelined connection cannot starve the
//! others.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use semtree_cluster::{ClusterMetrics, MAX_REACTOR_SHARDS};
use semtree_conc::sync::Mutex;
use semtree_net::split_frame_v2;

use crate::buffer::{FrameReader, WriteQueue};
use crate::queue::{Push, ServeQueue};
use crate::sys::{Event, Interest, Poller};

/// Poller token of a shard's wake pipe.
const TOKEN_WAKE: u64 = u64::MAX;
/// Poller token of the listener (accepting shard only).
const TOKEN_LISTENER: u64 = u64::MAX - 1;
/// Bits of a connection id carrying its owning shard index.
const SHARD_SHIFT: u32 = 48;

/// Most buffered frames one connection may admit per loop iteration —
/// the fairness bound keeping a saturated pipelined connection from
/// starving its shard-mates. Leftover frames stay buffered and the
/// shard re-pumps them on its next iteration without waiting for new
/// socket readiness.
pub const DRAIN_BUDGET: usize = 32;

/// Most unwritten reply bytes a connection may queue before its shard
/// stops answering it: past the cap the shard neither parses its
/// buffered frames nor reads its socket until a flush drains the queue
/// below the cap. Inline answers and shed replies skip the pipeline
/// bound, so without this a client that pipelines and never reads would
/// grow the server's memory instead of meeting TCP backpressure. The
/// cap is checked before each frame, so one reply may overshoot it.
pub(crate) const MAX_QUEUED_REPLY_BYTES: usize = 256 * 1024;

/// Largest `k` of a k-NN that a [`Service`] may answer on the shard
/// thread ([`Service::call_inline`]). The shard is the one thread all of
/// its connections share, so what runs on it must be as bounded as the
/// drain budget is: up to one default leaf bucket (32 points) of results
/// is a descent plus a scan of a bucket or two — microseconds, less than
/// the executor hand-off it saves — and a connection's turn stays within
/// `DRAIN_BUDGET` such reads. A larger `k` scans leaves in proportion
/// and a range search has no bound at all; both go to the executors.
pub const INLINE_MAX_K: usize = 32;

/// The shard index encoded in connection id `id`.
fn conn_shard(id: u64) -> usize {
    (id >> SHARD_SHIFT) as usize
}

/// What a [`Service`] returns for one request.
#[derive(Debug)]
pub struct ServiceReply {
    /// Encoded response body (framed and correlated by the reactor).
    pub payload: Vec<u8>,
    /// `true` when this request asked the server to stop: the reply is
    /// still delivered, then the reactor drains and returns.
    pub shutdown: bool,
}

/// How a [`Service::call_pipelined`] invocation left the request.
pub enum Dispatch {
    /// The service consumed the [`ReplyToken`]; the response will be
    /// (or already was) delivered via [`ReplyToken::complete`] from
    /// whatever thread finishes the work.
    Completed,
    /// The service answered synchronously; the executor completes the
    /// token with this reply.
    Sync(ReplyToken, ServiceReply),
}

/// The application behind the reactor: decodes a request body, produces
/// an encoded response. Called concurrently from executor threads.
pub trait Service: Sync {
    /// Handle one request body (the frame payload minus the v2 header).
    fn call(&self, request: &[u8]) -> ServiceReply;

    /// The encoded "overloaded, retry later" response sent when the
    /// global queue is full and the request is shed without running.
    fn overloaded(&self) -> Vec<u8>;

    /// Pipelined entry point: services that fan work out to other
    /// threads (or processes) take the [`ReplyToken`] and return
    /// [`Dispatch::Completed`], freeing this executor immediately; the
    /// response is completed later from the finishing thread. The
    /// default answers synchronously via [`call`](Service::call).
    fn call_pipelined(&self, request: &[u8], token: ReplyToken) -> Dispatch {
        Dispatch::Sync(token, self.call(request))
    }

    /// Answer `request` right now on the reactor shard that decoded it,
    /// or decline with `None`, which sends it to the executors
    /// unchanged. Only for work that neither blocks nor waits on another
    /// thread and is small next to the executor hand-off (see
    /// [`INLINE_MAX_K`]): every connection of the shard waits while it
    /// runs. Declining must be cheap — every request is offered here
    /// first. The default declines everything.
    fn call_inline(&self, _request: &[u8]) -> Option<ServiceReply> {
        None
    }
}

/// Tunables for [`serve`].
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Executor threads running the service (≥ 1).
    pub executors: usize,
    /// Global bound on admitted-but-uncompleted requests; admission
    /// beyond it sheds with the service's `overloaded` reply.
    pub global_depth: usize,
    /// Per-connection bound; a connection at the bound stops being
    /// read (backpressure) until a completion frees a slot.
    pub per_conn_depth: usize,
    /// Sink for per-request serving latency (dispatch → reply ready)
    /// and per-shard served/shed counters.
    pub metrics: Option<Arc<ClusterMetrics>>,
    /// Reactor shard count, clamped to `1..=`[`MAX_REACTOR_SHARDS`] (the
    /// width of the per-shard metrics arrays). The default is one: no
    /// committed measurement shows several shards beating one.
    pub reactors: usize,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            executors: 4,
            global_depth: 1024,
            per_conn_depth: 64,
            metrics: None,
            reactors: 1,
        }
    }
}

/// The shard count a `reactors` setting resolves to: at least one, and
/// at most [`MAX_REACTOR_SHARDS`] so every shard's counters have a slot.
#[must_use]
pub fn effective_reactors(reactors: usize) -> usize {
    reactors.clamp(1, MAX_REACTOR_SHARDS)
}

/// What happened over one [`serve`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReactorReport {
    /// Requests admitted, executed, and answered.
    pub served: u64,
    /// Requests shed with an `overloaded` response.
    pub shed: u64,
}

/// One admitted request travelling to an executor.
struct Job {
    /// The request frame's correlation id, carried home by its reply.
    corr: u64,
    body: Vec<u8>,
    admitted: Instant,
}

/// One finished response travelling back to its owning shard.
struct Completion {
    conn: u64,
    corr: u64,
    /// Encoded response body; the shard frames it into the write queue.
    payload: Vec<u8>,
}

/// One shard's cross-thread surface: where its completions, handed-off
/// sockets, and wakes land.
struct ShardPort {
    completions: Mutex<Vec<Completion>>,
    /// Sockets accepted by shard 0 and assigned to this shard.
    inbox: Mutex<Vec<TcpStream>>,
    wake_tx: UnixStream,
    /// Live connections owned by this shard (accept balancing reads
    /// these across shards).
    conn_count: AtomicUsize,
}

impl ShardPort {
    /// Poke the shard's wake pipe; a full pipe means a wake is already
    /// pending, so `WouldBlock` is success.
    fn wake(&self) {
        let _ = (&self.wake_tx).write(&[1]);
    }
}

/// The `'static` heart shared by shards, executors, and in-flight
/// [`ReplyToken`]s (which may outlive an executor's interest in the
/// request — that is the point).
struct Router {
    queue: ServeQueue<Job>,
    shards: Vec<ShardPort>,
    metrics: Option<Arc<ClusterMetrics>>,
    per_conn_depth: usize,
    stopping: AtomicBool,
    served: AtomicU64,
}

impl Router {
    /// Count one answered request of `shard`'s and its serving latency
    /// (admission → reply ready) — on the shard for an inline answer, on
    /// the completing thread otherwise.
    fn record_served(&self, shard: usize, admitted: Instant) {
        let elapsed = u64::try_from(admitted.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if let Some(metrics) = &self.metrics {
            metrics.record_latency(elapsed);
            metrics.record_shard_served(shard);
        }
        self.served.fetch_add(1, Ordering::Relaxed);
    }

    /// Ask the whole reactor to drain and return: every shard must
    /// notice, not just the one that saw the request.
    fn request_stop(&self) {
        self.stopping.store(true, Ordering::SeqCst);
        for port in &self.shards {
            port.wake();
        }
    }
}

/// The write-side handle for one admitted request: whoever holds it
/// answers the client. Created by the executor loop; either completed
/// inline ([`Dispatch::Sync`]) or carried to another thread by a
/// pipelining [`Service`] and completed from there.
pub struct ReplyToken {
    conn: u64,
    corr: u64,
    admitted: Instant,
    router: Arc<Router>,
    armed: bool,
}

impl ReplyToken {
    /// Deliver the encoded response body for this request (the reactor
    /// adds framing and the v2 correlation header). `shutdown` asks the
    /// whole reactor to drain and return once the reply is flushed.
    pub fn complete(mut self, payload: Vec<u8>, shutdown: bool) {
        self.armed = false;
        let shard = conn_shard(self.conn);
        self.router.record_served(shard, self.admitted);
        if shutdown {
            self.router.stopping.store(true, Ordering::SeqCst);
        }
        self.router.shards[shard]
            .completions
            .lock()
            .push(Completion {
                conn: self.conn,
                corr: self.corr,
                payload,
            });
        self.router.queue.complete(self.conn);
        if shutdown {
            self.router.request_stop();
        } else {
            self.router.shards[shard].wake();
        }
    }
}

impl Drop for ReplyToken {
    fn drop(&mut self) {
        if self.armed {
            // Discarded without an answer (service bug or unwinding):
            // release the pipeline slot so the connection cannot wedge.
            // The client's correlation id simply never resolves.
            self.router.queue.complete(self.conn);
            self.router.shards[conn_shard(self.conn)].wake();
        }
    }
}

/// Executor body: run jobs until the queue shuts down.
fn run_executor<SVC: Service>(service: &SVC, router: &Arc<Router>) {
    while let Some((conn, job)) = router.queue.pop() {
        let token = ReplyToken {
            conn,
            corr: job.corr,
            admitted: job.admitted,
            router: Arc::clone(router),
            armed: true,
        };
        match service.call_pipelined(&job.body, token) {
            Dispatch::Completed => {}
            Dispatch::Sync(token, reply) => token.complete(reply.payload, reply.shutdown),
        }
    }
}

/// Serve clients on `listener` until a request's reply sets `shutdown`.
/// Executor and shard threads are scoped, so `service` only needs
/// `Sync`, not `'static`.
///
/// # Errors
/// Fatal socket-layer failures (listener, poller, or a wake pipe);
/// per-connection errors close that connection only.
pub fn serve<SVC: Service>(
    listener: &TcpListener,
    service: &SVC,
    config: &ReactorConfig,
) -> io::Result<ReactorReport> {
    listener.set_nonblocking(true)?;
    let reactors = effective_reactors(config.reactors);
    let mut wake_rxs = Vec::with_capacity(reactors);
    let mut shards = Vec::with_capacity(reactors);
    for _ in 0..reactors {
        let (rx, tx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        wake_rxs.push(rx);
        shards.push(ShardPort {
            completions: Mutex::new(Vec::new()),
            inbox: Mutex::new(Vec::new()),
            wake_tx: tx,
            conn_count: AtomicUsize::new(0),
        });
    }
    let router = Arc::new(Router {
        queue: ServeQueue::new(config.global_depth),
        shards,
        metrics: config.metrics.clone(),
        per_conn_depth: config.per_conn_depth.max(1),
        stopping: AtomicBool::new(false),
        served: AtomicU64::new(0),
    });
    if let Some(metrics) = &router.metrics {
        metrics.set_reactor_shards(reactors);
    }
    let shed = std::thread::scope(|scope| -> io::Result<u64> {
        for _ in 0..config.executors.max(1) {
            let router = &router;
            scope.spawn(move || run_executor(service, router));
        }
        let mut handles = Vec::new();
        for (shard, wake_rx) in wake_rxs.iter().enumerate().skip(1) {
            let router = &router;
            handles.push(scope.spawn(move || shard_loop(shard, None, wake_rx, router, service)));
        }
        let r0 = shard_loop(0, Some(listener), &wake_rxs[0], &router, service);
        // Shard 0 is back (shutdown or fatal error): stop the others.
        router.request_stop();
        let mut shed = 0u64;
        let mut first_err = None;
        match r0 {
            Ok(n) => shed += n,
            Err(e) => first_err = Some(e),
        }
        for handle in handles {
            // A panicked shard surfaces as an io::Error rather than
            // tearing down the whole process from the serve() caller.
            let joined = handle
                .join()
                .unwrap_or_else(|_| Err(io::Error::other("reactor shard panicked")));
            match joined {
                Ok(n) => shed += n,
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        router.queue.shutdown();
        match first_err {
            Some(e) => Err(e),
            None => Ok(shed),
        }
    })?;
    Ok(ReactorReport {
        served: router.served.load(Ordering::Relaxed),
        shed,
    })
}

struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    writer: WriteQueue,
    /// Interest currently registered with the poller (diffed, not
    /// rebuilt: registration is persistent).
    interest: Interest,
}

/// One shard's event loop. Only the accepting shard gets `listener`.
/// Returns the number of requests this shard shed.
#[allow(clippy::too_many_lines)]
fn shard_loop<SVC: Service>(
    shard: usize,
    listener: Option<&TcpListener>,
    wake_rx: &UnixStream,
    router: &Arc<Router>,
    service: &SVC,
) -> io::Result<u64> {
    let mut poller = Poller::new();
    poller.register(wake_rx.as_raw_fd(), TOKEN_WAKE, Interest::READ)?;
    let mut listener_armed = false;
    if let Some(l) = listener {
        poller.register(l.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        listener_armed = true;
    }
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_seq: u64 = 0;
    let mut shed: u64 = 0;
    let mut scratch = vec![0u8; 64 * 1024];
    let mut events: Vec<Event> = Vec::new();
    // Connections the fairness budget left with admissible buffered
    // frames; re-pumped next iteration without new socket readiness.
    let mut repump: Vec<u64> = Vec::new();
    // Connections touched in one iteration: (id, readable, writable,
    // error).
    let mut touched: Vec<(u64, bool, bool, bool)> = Vec::new();
    let mut drain_deadline: Option<Instant> = None;

    loop {
        let stopping = router.stopping.load(Ordering::SeqCst);
        if stopping && listener_armed {
            if let Some(l) = listener {
                poller.reregister(l.as_raw_fd(), TOKEN_LISTENER, Interest::NONE)?;
            }
            listener_armed = false;
        }
        let timeout = if repump.is_empty() { 50 } else { 0 };
        poller.wait(&mut events, timeout)?;

        // Budget leftovers first, then kernel readiness.
        touched.clear();
        touched.extend(repump.drain(..).map(|id| (id, false, false, false)));
        let mut wake_ready = false;
        let mut accept_ready = false;
        for ev in &events {
            match ev.token {
                TOKEN_WAKE => wake_ready = true,
                TOKEN_LISTENER => accept_ready = true,
                id => touched.push((id, ev.readable, ev.writable, ev.error)),
            }
        }

        if wake_ready {
            // A read that fills the buffer may have left pokes behind.
            while matches!((&*wake_rx).read(&mut scratch), Ok(n) if n == scratch.len()) {}
        }

        // ---- adopt sockets handed off by the accepting shard.
        let handed: Vec<TcpStream> = std::mem::take(&mut *router.shards[shard].inbox.lock());
        for stream in handed {
            adopt(
                &mut poller,
                router,
                &mut conns,
                &mut next_seq,
                shard,
                stream,
                &mut touched,
            );
        }

        // ---- accept new connections, balancing across shards.
        if accept_ready && !stopping {
            if let Some(l) = listener {
                accept_balance(
                    l,
                    shard,
                    router,
                    &mut poller,
                    &mut conns,
                    &mut next_seq,
                    &mut touched,
                )?;
            }
        }

        // ---- deliver finished responses into write queues.
        let finished: Vec<Completion> =
            std::mem::take(&mut *router.shards[shard].completions.lock());
        for completion in finished {
            // A completion for a vanished connection is dropped: its
            // queue slot was already released by the reply token.
            if let Some(conn) = conns.get_mut(&completion.conn) {
                let queued = conn.writer.push_frame(completion.corr, &completion.payload);
                if queued.is_err() {
                    // Response exceeds the frame format: nothing valid
                    // can be sent; drop the connection.
                    close_conn(&mut poller, router, &mut conns, completion.conn);
                } else {
                    // The freed pipeline slot may unblock buffered
                    // frames, and the new payload wants a flush.
                    touched.push((completion.conn, false, false, false));
                }
            }
        }

        // ---- per-connection I/O, merged by id (a connection may appear
        // under several touch sources in one iteration).
        touched.sort_unstable_by_key(|t| t.0);
        let mut i = 0;
        while i < touched.len() {
            let id = touched[i].0;
            let (mut readable, mut writable, mut error) = (false, false, false);
            while i < touched.len() && touched[i].0 == id {
                readable |= touched[i].1;
                writable |= touched[i].2;
                error |= touched[i].3;
                i += 1;
            }
            if !conns.contains_key(&id) {
                continue;
            }
            let mut dead = error && !readable;
            if !dead && readable && !stopping {
                dead = read_ready(&mut conns, id, &mut scratch);
            }
            // Admit whatever is buffered (also after completions freed
            // slots with no new socket readiness).
            let mut leftover = false;
            if !dead && !stopping {
                (dead, leftover) = pump_conn(shard, router, service, &mut conns, id, &mut shed);
            }
            if !dead {
                dead = write_ready(&mut conns, id);
            }
            let _ = writable; // write_ready flushes whenever bytes are pending
            if dead {
                close_conn(&mut poller, router, &mut conns, id);
            } else {
                // Frames held back by a full reply queue wait for the
                // writable event that drains it.
                if leftover && !conns.get(&id).is_some_and(replies_capped) {
                    repump.push(id);
                }
                update_interest(&mut poller, router, &mut conns, id, stopping);
            }
        }

        // ---- shutdown: once requested, wait for in-flight work, then
        // flush every writer before returning.
        if stopping {
            if drain_deadline.is_none() {
                drain_deadline = Some(Instant::now() + std::time::Duration::from_secs(5));
            }
            let idle = router.queue.global_in_flight() == 0;
            let flushed = conns.values().all(|c| c.writer.is_empty())
                && router.shards[shard].completions.lock().is_empty();
            let expired = drain_deadline.is_some_and(|d| Instant::now() >= d);
            if (idle && flushed) || expired {
                return Ok(shed);
            }
        }
    }
}

/// Accept until `WouldBlock`, assigning each socket to the least-loaded
/// shard — locally when that is us, else via the target's inbox + wake.
fn accept_balance(
    listener: &TcpListener,
    shard: usize,
    router: &Arc<Router>,
    poller: &mut Poller,
    conns: &mut HashMap<u64, Conn>,
    next_seq: &mut u64,
    touched: &mut Vec<(u64, bool, bool, bool)>,
) -> io::Result<()> {
    loop {
        match listener.accept() {
            Ok((stream, _addr)) => {
                stream.set_nonblocking(true)?;
                stream.set_nodelay(true).ok();
                let target = router
                    .shards
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, port)| port.conn_count.load(Ordering::Relaxed))
                    .map_or(shard, |(index, _)| index);
                // Count at handoff, not adoption, so a burst of accepts
                // spreads instead of dogpiling the emptiest shard.
                router.shards[target]
                    .conn_count
                    .fetch_add(1, Ordering::Relaxed);
                if target == shard {
                    adopt(poller, router, conns, next_seq, shard, stream, touched);
                } else {
                    router.shards[target].inbox.lock().push(stream);
                    router.shards[target].wake();
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Take ownership of an accepted socket on this shard: register its fd
/// and start reading. A failed registration drops the socket, not the
/// shard.
fn adopt(
    poller: &mut Poller,
    router: &Arc<Router>,
    conns: &mut HashMap<u64, Conn>,
    next_seq: &mut u64,
    shard: usize,
    stream: TcpStream,
    touched: &mut Vec<(u64, bool, bool, bool)>,
) {
    let id = ((shard as u64) << SHARD_SHIFT) | *next_seq;
    *next_seq += 1;
    if stream.set_nonblocking(true).is_err()
        || poller
            .register(stream.as_raw_fd(), id, Interest::READ)
            .is_err()
    {
        router.shards[shard]
            .conn_count
            .fetch_sub(1, Ordering::Relaxed);
        return;
    }
    conns.insert(
        id,
        Conn {
            stream,
            reader: FrameReader::new(),
            writer: WriteQueue::new(),
            interest: Interest::READ,
        },
    );
    // Probe immediately: bytes may have raced ahead of registration.
    touched.push((id, true, false, false));
}

/// Read what the socket holds into the connection's [`FrameReader`]:
/// until a read comes back short (the socket is drained, and the
/// level-triggered poller re-reports anything that arrives later),
/// `WouldBlock`, or a whole frame is buffered. The last bound keeps a
/// client that writes as fast as the shard reads from growing the
/// reader without end: the pump takes the frames, and reading resumes
/// once none is left. Returns `true` when the connection died.
fn read_ready(conns: &mut HashMap<u64, Conn>, conn_id: u64, scratch: &mut [u8]) -> bool {
    let Some(conn) = conns.get_mut(&conn_id) else {
        return false;
    };
    loop {
        match conn.stream.read(scratch) {
            // EOF: the client is gone. Frames it already pipelined are
            // moot — nobody is reading replies — so drop the connection.
            Ok(0) => return true,
            Ok(n) => {
                conn.reader.extend(&scratch[..n]);
                if n < scratch.len() || frame_waiting(conn) {
                    return false;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return false,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return true,
        }
    }
}

/// Is a whole frame (or a corrupt length prefix) buffered for the pump?
fn frame_waiting(conn: &Conn) -> bool {
    !matches!(conn.reader.has_frame(), Ok(false))
}

/// Has the connection queued as many unwritten replies as it may?
fn replies_capped(conn: &Conn) -> bool {
    conn.writer.pending_bytes() >= MAX_QUEUED_REPLY_BYTES
}

/// Parse buffered frames while the connection has pipeline slots, room
/// for replies and fairness budget: answer on this thread what the
/// service takes inline, admit the rest to the executors. Returns
/// `(died, leftover)`: `died` when the stream is corrupt, `leftover`
/// when admissible frames remain after the budget or the reply cap
/// stopped the pump (the caller re-pumps once the cap allows).
fn pump_conn<SVC: Service>(
    shard: usize,
    router: &Arc<Router>,
    service: &SVC,
    conns: &mut HashMap<u64, Conn>,
    conn_id: u64,
    shed: &mut u64,
) -> (bool, bool) {
    let Some(conn) = conns.get_mut(&conn_id) else {
        return (false, false);
    };
    let mut budget = DRAIN_BUDGET;
    loop {
        // Backpressure: leave complete frames buffered while the
        // connection is at its pipeline bound.
        if router.queue.conn_in_flight(conn_id) >= router.per_conn_depth {
            return (false, false);
        }
        if budget == 0 || replies_capped(conn) {
            // Fairness bound or reply cap reached: siblings get the shard
            // before the rest of this pipeline burst is admitted. A
            // buffered error also re-pumps, so the next pass reports it
            // as death.
            return (false, frame_waiting(conn));
        }
        // Borrowed from the read buffer: an inline answer never copies
        // the request, an admitted one copies it once, into its job.
        let payload = match conn.reader.peek_frame() {
            Ok(Some(payload)) => payload,
            Ok(None) => return (false, false),
            // Hostile length prefix — the stream is unrecoverable.
            Err(_) => return (true, false),
        };
        budget -= 1;
        let Ok((corr, body)) = split_frame_v2(payload) else {
            // No v2 header, or a truncated one — desynchronised stream.
            return (true, false);
        };
        let admitted = Instant::now();
        let reply = if let Some(reply) = service.call_inline(body) {
            router.record_served(shard, admitted);
            if reply.shutdown {
                router.request_stop();
            }
            Some(reply.payload)
        } else {
            let job = Job {
                corr,
                body: body.to_vec(),
                admitted,
            };
            match router.queue.push(conn_id, job) {
                Push::Granted => None,
                Push::GlobalFull => {
                    *shed += 1;
                    if let Some(metrics) = &router.metrics {
                        metrics.record_shard_shed(shard);
                    }
                    Some(service.overloaded())
                }
                Push::Closed => return (true, false),
            }
        };
        conn.reader.consume_frame();
        if let Some(reply) = reply {
            if conn.writer.push_frame(corr, &reply).is_err() {
                return (true, false);
            }
        }
    }
}

/// Flush the connection's write queue. Returns `true` when it died.
fn write_ready(conns: &mut HashMap<u64, Conn>, conn_id: u64) -> bool {
    let Some(conn) = conns.get_mut(&conn_id) else {
        return false;
    };
    if conn.writer.is_empty() {
        return false;
    }
    conn.writer.write_to(&mut conn.stream).is_err()
}

/// Reconcile the poller's persistent registration with what the
/// connection now needs: read interest unless backpressured (pipeline
/// bound or reply cap), stopping, or a buffered frame still waits for
/// the pump; write interest while bytes are pending.
fn update_interest(
    poller: &mut Poller,
    router: &Arc<Router>,
    conns: &mut HashMap<u64, Conn>,
    conn_id: u64,
    stopping: bool,
) {
    let Some(conn) = conns.get_mut(&conn_id) else {
        return;
    };
    let desired = Interest {
        readable: !stopping
            && router.queue.conn_in_flight(conn_id) < router.per_conn_depth
            && !replies_capped(conn)
            && !frame_waiting(conn),
        writable: !conn.writer.is_empty(),
    };
    if desired != conn.interest {
        if poller
            .reregister(conn.stream.as_raw_fd(), conn_id, desired)
            .is_err()
        {
            close_conn(poller, router, conns, conn_id);
            return;
        }
        if let Some(conn) = conns.get_mut(&conn_id) {
            conn.interest = desired;
        }
    }
}

fn close_conn(
    poller: &mut Poller,
    router: &Arc<Router>,
    conns: &mut HashMap<u64, Conn>,
    conn_id: u64,
) {
    if let Some(conn) = conns.remove(&conn_id) {
        let _ = poller.deregister(conn.stream.as_raw_fd());
        router.shards[conn_shard(conn_id)]
            .conn_count
            .fetch_sub(1, Ordering::Relaxed);
        router.queue.close_conn(conn_id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_counts_fit_the_metrics_arrays() {
        assert_eq!(
            effective_reactors(MAX_REACTOR_SHARDS + 1),
            MAX_REACTOR_SHARDS
        );
        assert_eq!(effective_reactors(3), 3);
        assert_eq!(effective_reactors(0), 1);
    }
}
