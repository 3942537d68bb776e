//! The coordinator's client-port protocol: [`ClientReq`] and
//! [`ClientResp`] with their wire codec, and the clients that speak it —
//! [`PipelinedClient`], and [`NetClient`] on top of it.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use semtree_cluster::{MAX_REACTOR_SHARDS, READ_RETRY_BUCKETS};
use semtree_net::{
    append_encoded_frame, decode_exact, dial_with_timeout, split_frame_v2, Decode, DecodeError,
    Encode,
};
use semtree_reactor::FrameReader;

use crate::proto::PartitionStats;

/// A request on the coordinator's client port.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientReq {
    /// Insert one point.
    Insert {
        /// Query-space coordinates.
        point: Vec<f64>,
        /// Opaque payload.
        payload: u64,
    },
    /// k-nearest query.
    Knn {
        /// Query point.
        point: Vec<f64>,
        /// Result count.
        k: usize,
    },
    /// Range query (inclusive radius).
    Range {
        /// Query point.
        point: Vec<f64>,
        /// Radius.
        radius: f64,
    },
    /// Per-partition statistics, root first.
    Stats,
    /// Structural invariants + point conservation.
    Verify,
    /// Interconnect metrics (messages, bytes, spawns).
    Metrics,
    /// Tear the whole deployment down.
    Shutdown,
    /// Batched k-nearest query: all of `points` answered in one round
    /// trip, fanned out over the serving partitions' worker pools.
    KnnBatch {
        /// Query points.
        points: Vec<Vec<f64>>,
        /// Result count per query.
        k: usize,
    },
}

/// The coordinator's answer to a [`ClientReq`].
#[derive(Debug, Clone, PartialEq)]
pub enum ClientResp {
    /// Acknowledgement (insert, shutdown).
    Done,
    /// `(distance, payload)` pairs, closest first.
    Neighbors(Vec<(f64, u64)>),
    /// `(partition id, stats)` pairs, root first.
    Stats(Vec<(u32, PartitionStats)>),
    /// Invariant violations (empty = healthy).
    Violations(Vec<String>),
    /// Interconnect counters and serving-latency quantiles (boxed so the
    /// rarely-built metrics reply doesn't inflate every hot `ClientResp`
    /// moved through the serving path).
    Metrics(Box<ClientMetrics>),
    /// The request failed.
    Error(String),
    /// One neighbor list per query of a [`ClientReq::KnnBatch`], in
    /// query order, each closest first.
    NeighborBatches(Vec<Vec<(f64, u64)>>),
    /// The serving fabric's global request queue is full; retry later.
    /// The request was **not** executed.
    Overloaded,
}

/// Wire tag of [`ClientReq::Knn`], the one request the reactor shard
/// looks for before decoding anything.
pub(crate) const KNN_TAG: u8 = 1;

impl Encode for ClientReq {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ClientReq::Insert { point, payload } => {
                out.push(0);
                point.encode(out);
                payload.encode(out);
            }
            ClientReq::Knn { point, k } => {
                out.push(KNN_TAG);
                point.encode(out);
                k.encode(out);
            }
            ClientReq::Range { point, radius } => {
                out.push(2);
                point.encode(out);
                radius.encode(out);
            }
            ClientReq::Stats => out.push(3),
            ClientReq::Verify => out.push(4),
            ClientReq::Metrics => out.push(5),
            ClientReq::Shutdown => out.push(6),
            ClientReq::KnnBatch { points, k } => {
                out.push(7);
                points.encode(out);
                k.encode(out);
            }
        }
    }
}

impl Decode for ClientReq {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        match u8::decode(buf)? {
            0 => Ok(ClientReq::Insert {
                point: Vec::decode(buf)?,
                payload: u64::decode(buf)?,
            }),
            KNN_TAG => Ok(ClientReq::Knn {
                point: Vec::decode(buf)?,
                k: usize::decode(buf)?,
            }),
            2 => Ok(ClientReq::Range {
                point: Vec::decode(buf)?,
                radius: f64::decode(buf)?,
            }),
            3 => Ok(ClientReq::Stats),
            4 => Ok(ClientReq::Verify),
            5 => Ok(ClientReq::Metrics),
            6 => Ok(ClientReq::Shutdown),
            7 => Ok(ClientReq::KnnBatch {
                points: Vec::decode(buf)?,
                k: usize::decode(buf)?,
            }),
            other => Err(DecodeError::new(format!("bad ClientReq tag {other}"))),
        }
    }
}

impl Encode for ClientResp {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ClientResp::Done => out.push(0),
            ClientResp::Neighbors(n) => {
                out.push(1);
                n.encode(out);
            }
            ClientResp::Stats(s) => {
                out.push(2);
                s.encode(out);
            }
            ClientResp::Violations(v) => {
                out.push(3);
                v.encode(out);
            }
            ClientResp::Metrics(m) => {
                out.push(4);
                let head = [
                    m.messages,
                    m.bytes,
                    m.response_bytes,
                    m.spawned_nodes,
                    m.latency_count,
                    m.p50_nanos,
                    m.p99_nanos,
                    m.p999_nanos,
                    m.reads_retried,
                ];
                let counts = head.iter().chain(&m.read_retries);
                let counts = counts.chain([&m.reads_crossed, &m.reactor_shards]);
                for count in counts.chain(&m.shard_served).chain(&m.shard_shed) {
                    count.encode(out);
                }
            }
            ClientResp::Error(msg) => {
                out.push(5);
                msg.encode(out);
            }
            ClientResp::NeighborBatches(b) => {
                out.push(6);
                b.encode(out);
            }
            ClientResp::Overloaded => out.push(7),
        }
    }
}

fn decode_counts<const N: usize>(buf: &mut &[u8]) -> Result<[u64; N], DecodeError> {
    let mut counts = [0u64; N];
    for count in &mut counts {
        *count = u64::decode(buf)?;
    }
    Ok(counts)
}

impl Decode for ClientResp {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        match u8::decode(buf)? {
            0 => Ok(ClientResp::Done),
            1 => Ok(ClientResp::Neighbors(Vec::decode(buf)?)),
            2 => Ok(ClientResp::Stats(Vec::decode(buf)?)),
            3 => Ok(ClientResp::Violations(Vec::decode(buf)?)),
            4 => Ok(ClientResp::Metrics(Box::new(ClientMetrics {
                messages: u64::decode(buf)?,
                bytes: u64::decode(buf)?,
                response_bytes: u64::decode(buf)?,
                spawned_nodes: u64::decode(buf)?,
                latency_count: u64::decode(buf)?,
                p50_nanos: u64::decode(buf)?,
                p99_nanos: u64::decode(buf)?,
                p999_nanos: u64::decode(buf)?,
                reads_retried: u64::decode(buf)?,
                read_retries: decode_counts(buf)?,
                reads_crossed: u64::decode(buf)?,
                reactor_shards: u64::decode(buf)?,
                shard_served: decode_counts(buf)?,
                shard_shed: decode_counts(buf)?,
            }))),
            5 => Ok(ClientResp::Error(String::decode(buf)?)),
            6 => Ok(ClientResp::NeighborBatches(Vec::decode(buf)?)),
            7 => Ok(ClientResp::Overloaded),
            other => Err(DecodeError::new(format!("bad ClientResp tag {other}"))),
        }
    }
}

/// Deployment-wide counters as reported over the client port by
/// [`NetClient::metrics`]: interconnect traffic plus the coordinator's
/// request-latency histogram quantiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClientMetrics {
    /// Requests delivered across the interconnect.
    pub messages: u64,
    /// Bytes carried (exact encoded frame bytes under TCP).
    pub bytes: u64,
    /// Response payload bytes travelling back to callers.
    pub response_bytes: u64,
    /// Compute nodes spawned.
    pub spawned_nodes: u64,
    /// Client requests with recorded end-to-end latency.
    pub latency_count: u64,
    /// Median request latency in nanoseconds (conservative bucket floor).
    pub p50_nanos: u64,
    /// 99th-percentile request latency in nanoseconds.
    pub p99_nanos: u64,
    /// 99.9th-percentile request latency in nanoseconds.
    pub p999_nanos: u64,
    /// Total writer-race retries across optimistic lock-free reads.
    pub reads_retried: u64,
    /// Optimistic reads bucketed by retry count
    /// (see [`semtree_cluster::read_retry_bucket_index`]).
    pub read_retries: [u64; READ_RETRY_BUCKETS],
    /// Partition borders optimistic reads crossed in place, each one
    /// instead of a message to the partition's actor.
    pub reads_crossed: u64,
    /// Reactor shards serving the client port (0 = no reactor).
    pub reactor_shards: u64,
    /// Requests completed, by owning reactor shard (first
    /// `reactor_shards` entries live).
    pub shard_served: [u64; MAX_REACTOR_SHARDS],
    /// Requests shed at admission, by owning reactor shard.
    pub shard_shed: [u64; MAX_REACTOR_SHARDS],
}

/// A blocking client of the coordinator's query port: every method is
/// the [`PipelinedClient`] submission plus [`PendingReply::wait`], one
/// request in flight at a time — so each call is still one `write`,
/// made at its wait.
pub struct NetClient {
    client: PipelinedClient,
}

impl NetClient {
    /// Dial the coordinator's client port, retrying until `timeout`.
    ///
    /// # Errors
    /// Fails when the port never comes up.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> io::Result<Self> {
        Ok(NetClient {
            client: PipelinedClient::connect(addr, timeout)?,
        })
    }

    fn call(&mut self, req: &ClientReq) -> io::Result<ClientResp> {
        self.client.submit(req)?.wait()
    }

    /// Insert one point.
    ///
    /// # Errors
    /// Propagates transport and server-side failures.
    pub fn insert(&mut self, point: &[f64], payload: u64) -> io::Result<()> {
        match self.client.insert(point, payload)?.wait()? {
            ClientResp::Done => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// k-nearest query; `(distance, payload)` pairs closest first.
    ///
    /// # Errors
    /// Propagates transport and server-side failures.
    pub fn knn(&mut self, point: &[f64], k: usize) -> io::Result<Vec<(f64, u64)>> {
        self.client.knn(point, k)?.wait_neighbors()
    }

    /// Batched k-nearest query: the whole batch travels as one frame
    /// and comes back as one frame, so `points.len()` queries cost a
    /// single network round trip. Answers are in query order, each
    /// closest first — identical to issuing [`NetClient::knn`] per
    /// point.
    ///
    /// # Errors
    /// Propagates transport and server-side failures.
    pub fn knn_batch(&mut self, points: &[Vec<f64>], k: usize) -> io::Result<Vec<Vec<(f64, u64)>>> {
        self.client.knn_batch(points, k)?.wait_batches()
    }

    /// Range query; `(distance, payload)` pairs closest first.
    ///
    /// # Errors
    /// Propagates transport and server-side failures.
    pub fn range(&mut self, point: &[f64], radius: f64) -> io::Result<Vec<(f64, u64)>> {
        let range = ClientReq::Range {
            point: point.to_vec(),
            radius,
        };
        self.client.submit(&range)?.wait_neighbors()
    }

    /// Per-partition statistics, root first.
    ///
    /// # Errors
    /// Propagates transport and server-side failures.
    pub fn stats(&mut self) -> io::Result<Vec<(u32, PartitionStats)>> {
        match self.call(&ClientReq::Stats)? {
            ClientResp::Stats(s) => Ok(s),
            other => Err(unexpected(&other)),
        }
    }

    /// Structural verification; empty = healthy.
    ///
    /// # Errors
    /// Propagates transport and server-side failures.
    pub fn verify(&mut self) -> io::Result<Vec<String>> {
        match self.call(&ClientReq::Verify)? {
            ClientResp::Violations(v) => Ok(v),
            other => Err(unexpected(&other)),
        }
    }

    /// Interconnect counters and serving-latency quantiles.
    ///
    /// # Errors
    /// Propagates transport and server-side failures.
    pub fn metrics(&mut self) -> io::Result<ClientMetrics> {
        match self.call(&ClientReq::Metrics)? {
            ClientResp::Metrics(m) => Ok(*m),
            other => Err(unexpected(&other)),
        }
    }

    /// Ask the coordinator to tear the deployment down.
    ///
    /// # Errors
    /// Propagates transport failures.
    pub fn shutdown(mut self) -> io::Result<()> {
        match self.call(&ClientReq::Shutdown)? {
            ClientResp::Done => Ok(()),
            other => Err(unexpected(&other)),
        }
    }
}

fn unexpected(resp: &ClientResp) -> io::Error {
    match resp {
        ClientResp::Error(msg) => io::Error::other(msg.clone()),
        ClientResp::Overloaded => io::Error::new(
            io::ErrorKind::WouldBlock,
            "server shed the request (queue full)",
        ),
        other => io::Error::other(format!("unexpected reply {other:?}")),
    }
}

// ----------------------------------------------------------------------
// Pipelined client
// ----------------------------------------------------------------------

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn dead_conn(reason: &str) -> io::Error {
    io::Error::new(io::ErrorKind::BrokenPipe, reason.to_string())
}

/// The correlation table of one pipelined connection: what was
/// submitted and not answered yet, and the answers nobody has claimed
/// yet.
#[derive(Default)]
struct Replies {
    /// Submitted requests whose reply has not been read off the socket;
    /// `true` once the [`PendingReply`] was dropped, so the reply is
    /// discarded when it arrives.
    waiting: HashMap<u64, bool>,
    /// Replies read by whoever was reading, until their owners claim
    /// them.
    filed: HashMap<u64, io::Result<ClientResp>>,
    /// Why the connection became unusable, once it has.
    dead: Option<String>,
}

impl Replies {
    /// The connection is unusable from here on; the first reason stays.
    fn fail(&mut self, reason: String) {
        self.dead.get_or_insert(reason);
    }

    /// File the reply to request `corr`; one nobody is waiting for
    /// (never submitted, or answered twice) is a protocol violation.
    fn file(&mut self, corr: u64, reply: io::Result<ClientResp>) {
        match self.waiting.remove(&corr) {
            Some(false) => drop(self.filed.insert(corr, reply)),
            Some(true) => {}
            None => self.fail(format!("reply with unknown correlation id {corr}")),
        }
    }

    /// Take request `corr`'s outcome if it is settled: its reply was
    /// filed, or it never will be. `None` while it is in flight.
    fn claim(&mut self, corr: u64) -> Option<io::Result<ClientResp>> {
        if let Some(reply) = self.filed.remove(&corr) {
            return Some(reply);
        }
        if let Some(reason) = &self.dead {
            return Some(Err(dead_conn(reason)));
        }
        if !self.waiting.contains_key(&corr) {
            return Some(Err(io::Error::other("pipelined reply was already taken")));
        }
        None
    }
}

/// The read side of a pipelined connection, used by whichever waiter
/// holds its lock.
struct ReadHalf {
    frames: FrameReader,
    scratch: Box<[u8]>,
    /// The socket's read timeout as last set (set only when it changes).
    timeout: Option<Duration>,
}

impl ReadHalf {
    /// One read off the socket into the re-assembly buffer, blocking up
    /// to `timeout` when there is one; `Ok(0)` means the server closed.
    fn fill(&mut self, mut stream: &TcpStream, timeout: Option<Duration>) -> io::Result<usize> {
        if self.timeout != timeout {
            stream.set_read_timeout(timeout)?;
            self.timeout = timeout;
        }
        let n = stream.read(&mut self.scratch)?;
        self.frames.extend(&self.scratch[..n]);
        Ok(n)
    }
}

/// Queued request bytes at which [`PipelinedClient::submit`] writes the
/// outbox itself: the size of the client's read scratch.
const OUTBOX_CAP: usize = 64 * 1024;

/// What a [`PipelinedClient`] and its [`PendingReply`]s share. There is
/// no reader thread: a reply is read off the socket by whoever waits
/// for one, and a reply read on someone else's behalf is filed in
/// `replies` for its owner. Lock order: `reader`, `outbox`, `replies`;
/// a waiter flushes `outbox` *before* it takes `reader`, never under it.
struct PipelinedConn {
    stream: TcpStream,
    /// Held for the whole of a wait — across its blocking reads — so one
    /// thread at a time re-assembles frames; a second waiter queues here
    /// and usually finds its reply filed when it gets in.
    reader: Mutex<ReadHalf>,
    /// Frames submitted and not yet written, in submission order. Held
    /// across the `write` that flushes them, so frames leave whole and
    /// in order whichever thread flushes.
    outbox: Mutex<Vec<u8>>,
    /// Held briefly, never across I/O: submitters are not kept waiting
    /// by a reader.
    replies: Mutex<Replies>,
}

impl PipelinedConn {
    /// Write every queued frame, in one `write` when the socket takes
    /// it. A failed write kills the connection — a partial frame may be
    /// on the wire, so no later frame would be framed right — and every
    /// pending claim settles as `BrokenPipe`.
    fn flush(&self) -> io::Result<()> {
        self.write_out(&mut lock(&self.outbox))
    }

    /// [`flush`](Self::flush) with the outbox already held.
    fn write_out(&self, outbox: &mut Vec<u8>) -> io::Result<()> {
        if outbox.is_empty() {
            return Ok(());
        }
        let written = (&self.stream).write_all(outbox);
        outbox.clear();
        if let Err(e) = &written {
            lock(&self.replies).fail(format!("pipelined write failed: {e}"));
        }
        written
    }

    /// File every complete reply already buffered — any protocol
    /// violation kills the connection — then claim `corr`'s outcome.
    fn file_buffered(&self, reader: &mut ReadHalf, corr: u64) -> Option<io::Result<ClientResp>> {
        let mut replies = lock(&self.replies);
        while replies.dead.is_none() {
            let frame = match reader.frames.peek_frame() {
                Ok(Some(frame)) => frame,
                Ok(None) => break,
                Err(e) => {
                    replies.fail(format!("malformed pipelined reply: {e}"));
                    break;
                }
            };
            match split_frame_v2(frame) {
                Ok((answered, body)) => {
                    let reply = decode_exact::<ClientResp>(body)
                        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()));
                    replies.file(answered, reply);
                }
                Err(e) => replies.fail(format!("malformed pipelined reply: {e}")),
            }
            reader.frames.consume_frame();
        }
        replies.claim(corr)
    }

    /// One socket read; `false` when nothing arrived within `timeout`.
    /// A closed or failing socket kills the connection, which settles
    /// every claim.
    fn read_more(&self, reader: &mut ReadHalf, timeout: Option<Duration>) -> bool {
        loop {
            let failure = match reader.fill(&self.stream, timeout) {
                Ok(0) => "server closed the pipelined connection".to_string(),
                Ok(_) => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return false
                }
                Err(e) => format!("pipelined read failed: {e}"),
            };
            lock(&self.replies).fail(failure);
            return true;
        }
    }

    /// Read replies until `corr`'s is among them, the connection dies,
    /// or `timeout` passes.
    fn wait_for(&self, corr: u64, timeout: Option<Duration>) -> io::Result<ClientResp> {
        if let Some(settled) = lock(&self.replies).claim(corr) {
            return settled;
        }
        // This wait blocks, so what is queued leaves first — before the
        // reader lock, whose holder may be waiting for a reply the server
        // sends only once it has seen these frames. A failed write has
        // killed the connection, which the claim below reports.
        let _ = self.flush();
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut reader = lock(&self.reader);
        let mut patience = timeout;
        loop {
            if let Some(settled) = self.file_buffered(&mut reader, corr) {
                return settled;
            }
            if patience == Some(Duration::ZERO) || !self.read_more(&mut reader, patience) {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "pipelined reply still in flight",
                ));
            }
            // That read brought other requests' replies only: go on for
            // what is left of the caller's timeout.
            patience = deadline.map(|d| d.saturating_duration_since(Instant::now()));
        }
    }
}

/// One in-flight request submitted on a [`PipelinedClient`]. Dropping
/// it discards the answer.
pub struct PendingReply {
    corr: u64,
    conn: Arc<PipelinedConn>,
}

impl PendingReply {
    /// Block until the response arrives (or the connection dies),
    /// reading it — and filing any other request's reply that comes
    /// first — off the socket on this thread. Unless the reply is filed
    /// already, the connection's queued requests are written first, and
    /// that `write` can block on a full send buffer (see
    /// [`PipelinedClient`]'s send contract).
    ///
    /// # Errors
    /// Transport failures, decode failures, and connection loss all
    /// surface as typed [`io::Error`]s — never a hang.
    pub fn wait(self) -> io::Result<ClientResp> {
        self.conn.wait_for(self.corr, None)
    }

    /// [`wait`](Self::wait) with an upper bound; `TimedOut` when it
    /// elapses with the request still in flight (the connection stays
    /// usable). Even a `Duration::ZERO` poll flushes the queued requests
    /// when the reply is not filed. The bound counts from when this
    /// thread gets to read: the flush's `write` comes first and is not
    /// bounded by `timeout` — a poll included, it blocks while the
    /// socket's send buffer is full — and a second thread waiting on the
    /// same connection first waits for the reading thread to finish its
    /// own wait.
    ///
    /// # Errors
    /// Same as [`wait`](Self::wait), plus [`io::ErrorKind::TimedOut`].
    pub fn wait_timeout(self, timeout: Duration) -> io::Result<ClientResp> {
        self.conn.wait_for(self.corr, Some(timeout))
    }

    /// Wait and unwrap a [`ClientResp::Neighbors`] reply.
    ///
    /// # Errors
    /// Same as [`wait`](Self::wait); a non-`Neighbors` reply (including
    /// [`ClientResp::Overloaded`]) is a typed error.
    pub fn wait_neighbors(self) -> io::Result<Vec<(f64, u64)>> {
        match self.wait()? {
            ClientResp::Neighbors(n) => Ok(n),
            other => Err(unexpected(&other)),
        }
    }

    /// Wait and unwrap a [`ClientResp::NeighborBatches`] reply.
    ///
    /// # Errors
    /// Same as [`wait_neighbors`](Self::wait_neighbors).
    pub fn wait_batches(self) -> io::Result<Vec<Vec<(f64, u64)>>> {
        match self.wait()? {
            ClientResp::NeighborBatches(b) => Ok(b),
            other => Err(unexpected(&other)),
        }
    }
}

impl Drop for PendingReply {
    fn drop(&mut self) {
        let mut replies = lock(&self.conn.replies);
        if replies.filed.remove(&self.corr).is_none() {
            if let Some(abandoned) = replies.waiting.get_mut(&self.corr) {
                *abandoned = true;
            }
        }
    }
}

/// A pipelined client of the coordinator's query port: many requests in
/// flight over **one** connection, each tagged with a v2 correlation id
/// and completed out of order.
///
/// Submitting returns a [`PendingReply`] immediately; the answer is
/// claimed later with [`PendingReply::wait`], which is also when it is
/// read: the client runs no thread of its own, so until someone waits,
/// replies stay in the socket (and, past its buffers, in the server's
/// write queue). [`NetClient`] is this with every reply claimed at once.
///
/// # Send contract
///
/// `submit` encodes its frame into the connection's outbox; queued
/// frames leave together, in submission order, in one `write` per
/// flush. A submitted request is guaranteed to be on the wire:
///
/// - **at a wait that cannot return at once** — a wait on *any*
///   [`PendingReply`] of the connection whose reply is not filed yet,
///   a `wait_timeout(Duration::ZERO)` poll included, flushes before it
///   blocks, on the reader lock or on the socket. A wait that finds its
///   reply filed returns without writing: that is where batches form;
/// - **at [`flush`](Self::flush)**;
/// - **at drop**: dropping the client flushes, then shuts the socket
///   down, so requests still pending fail with `BrokenPipe`;
/// - **once 64 KiB are queued**: the `submit` that fills the outbox to
///   that size writes it.
///
/// A lone request therefore leaves at its own wait, in one `write`. A
/// failed write kills the connection: every pending request settles as
/// `BrokenPipe`, and later submits fail at once. A flush's `write` has
/// no timeout: while the server is not reading and the socket's send
/// buffer is full, whoever flushes — a wait (even a
/// `wait_timeout(Duration::ZERO)` poll), `flush`, the `submit` that
/// reaches 64 KiB, or drop — blocks until the server reads again or the
/// connection dies.
pub struct PipelinedClient {
    conn: Arc<PipelinedConn>,
    next_corr: u64,
}

impl PipelinedClient {
    /// Dial the coordinator's client port, retrying until `timeout`.
    ///
    /// # Errors
    /// Fails when the port never comes up.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> io::Result<Self> {
        let conn = PipelinedConn {
            stream: dial_with_timeout(addr, timeout)?,
            reader: Mutex::new(ReadHalf {
                frames: FrameReader::new(),
                scratch: vec![0; 64 * 1024].into_boxed_slice(),
                timeout: None,
            }),
            outbox: Mutex::default(),
            replies: Mutex::default(),
        };
        Ok(PipelinedClient {
            conn: Arc::new(conn),
            next_corr: 0,
        })
    }

    /// Requests submitted so far (also the next correlation id).
    #[must_use]
    pub fn submitted(&self) -> u64 {
        self.next_corr
    }

    /// Submit one request without waiting for its reply: its frame joins
    /// the outbox, which leaves at the next flush point of the send
    /// contract — here only when it now holds 64 KiB.
    ///
    /// # Errors
    /// Fails fast when the connection is already dead, and fails when
    /// the frame cannot be encoded or the outbox's write fails (which
    /// kills the connection); the returned [`PendingReply`] then never
    /// existed.
    pub fn submit(&mut self, req: &ClientReq) -> io::Result<PendingReply> {
        let corr = self.next_corr;
        {
            let mut replies = lock(&self.conn.replies);
            if let Some(reason) = &replies.dead {
                return Err(dead_conn(reason));
            }
            replies.waiting.insert(corr, false);
        }
        self.next_corr += 1;
        let queued = {
            let mut outbox = lock(&self.conn.outbox);
            append_encoded_frame(&mut outbox, corr, req).and_then(|()| {
                if outbox.len() >= OUTBOX_CAP {
                    self.conn.write_out(&mut outbox)
                } else {
                    Ok(())
                }
            })
        };
        if let Err(e) = queued {
            lock(&self.conn.replies).waiting.remove(&corr);
            return Err(e);
        }
        Ok(PendingReply {
            corr,
            conn: Arc::clone(&self.conn),
        })
    }

    /// Write every queued request now, in one `write`; it blocks while
    /// the socket's send buffer is full.
    ///
    /// # Errors
    /// The write's error; it kills the connection, so every pending
    /// request settles as `BrokenPipe`.
    pub fn flush(&self) -> io::Result<()> {
        self.conn.flush()
    }

    /// Submit a k-nearest query; claim it with
    /// [`PendingReply::wait_neighbors`].
    ///
    /// # Errors
    /// Same as [`submit`](Self::submit).
    pub fn knn(&mut self, point: &[f64], k: usize) -> io::Result<PendingReply> {
        self.submit(&ClientReq::Knn {
            point: point.to_vec(),
            k,
        })
    }

    /// Submit a batched k-nearest query; claim it with
    /// [`PendingReply::wait_batches`].
    ///
    /// # Errors
    /// Same as [`submit`](Self::submit).
    pub fn knn_batch(&mut self, points: &[Vec<f64>], k: usize) -> io::Result<PendingReply> {
        self.submit(&ClientReq::KnnBatch {
            points: points.to_vec(),
            k,
        })
    }

    /// Submit one insert; claim the [`ClientResp::Done`] with
    /// [`PendingReply::wait`].
    ///
    /// # Errors
    /// Same as [`submit`](Self::submit).
    pub fn insert(&mut self, point: &[f64], payload: u64) -> io::Result<PendingReply> {
        self.submit(&ClientReq::Insert {
            point: point.to_vec(),
            payload,
        })
    }
}

impl Drop for PipelinedClient {
    fn drop(&mut self) {
        // What is queued still leaves — blocking while the send buffer
        // is full; then replies still pending see the close as the
        // connection's death.
        let _ = self.conn.flush();
        let _ = self.conn.stream.shutdown(std::net::Shutdown::Both);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_protocol_round_trips() {
        let reqs = [
            ClientReq::Insert {
                point: vec![1.0, 2.0],
                payload: 7,
            },
            ClientReq::Knn {
                point: vec![0.0],
                k: 5,
            },
            ClientReq::Range {
                point: vec![3.0],
                radius: 1.5,
            },
            ClientReq::Stats,
            ClientReq::Verify,
            ClientReq::Metrics,
            ClientReq::Shutdown,
            ClientReq::KnnBatch {
                points: vec![vec![1.0, 2.0], vec![]],
                k: 3,
            },
        ];
        for (corr, req) in (0..).zip(reqs) {
            let back: ClientReq = decode_exact(&req.to_bytes()).unwrap();
            assert_eq!(back, req);
            // What `submit` queues: the frame of the request's bytes.
            let (mut queued, mut framed) = (Vec::new(), Vec::new());
            append_encoded_frame(&mut queued, corr, &req).unwrap();
            semtree_net::append_frame(&mut framed, corr, &req.to_bytes()).unwrap();
            assert_eq!(queued, framed, "{req:?}");
        }
        let mut metrics = ClientMetrics {
            messages: 3,
            bytes: 120,
            response_bytes: 48,
            spawned_nodes: 2,
            latency_count: 17,
            p50_nanos: 2_048,
            p99_nanos: 65_536,
            p999_nanos: 131_072,
            reads_retried: 5,
            read_retries: [10, 3, 1, 0, 1, 0, 0, 0],
            reads_crossed: 21,
            reactor_shards: 2,
            ..ClientMetrics::default()
        };
        metrics.shard_served[..2].copy_from_slice(&[11, 6]);
        metrics.shard_shed[1] = 4;
        let resps = [
            ClientResp::Done,
            ClientResp::Neighbors(vec![(0.5, 9)]),
            ClientResp::Stats(vec![(0, PartitionStats::default())]),
            ClientResp::Violations(vec!["broken".into()]),
            ClientResp::Metrics(Box::new(metrics)),
            ClientResp::Error("nope".into()),
            ClientResp::NeighborBatches(vec![vec![(0.5, 9), (1.0, 2)], vec![]]),
            ClientResp::Overloaded,
        ];
        for resp in resps {
            let back: ClientResp = decode_exact(&resp.to_bytes()).unwrap();
            assert_eq!(back, resp);
        }
    }
}
