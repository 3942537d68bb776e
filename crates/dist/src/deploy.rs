//! Multi-process deployment over `semtree-net`: coordinator/worker
//! bootstrap, the wire form of the shared configuration, and the
//! client-port protocol.
//!
//! A deployment is one **coordinator** process (hosts the root partition
//! and answers clients) plus any number of **worker** processes (host
//! the data partitions spawned by fan-out construction and
//! build-partition). The coordinator ships its [`DistConfig`] to every
//! joining worker inside the membership handshake, so all processes
//! build identical partition state from the same parameters.
//!
//! Partition budgeting across processes is approximate: each process
//! tracks its own count against `max_partitions`, so a deployment of
//! `P` processes can host up to `P × max_partitions` partitions in the
//! worst case. The budget is a resource guard, not a correctness
//! invariant — the paper's resource condition is per-node anyway.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use semtree_cluster::{
    ChannelFabric, ClusterError, ComputeNodeId, CostModel, Transport, MAX_REACTOR_SHARDS,
    READ_RETRY_BUCKETS,
};
use semtree_kdtree::{Neighbor, SplitRule};
use semtree_net::{
    append_encoded_frame, decode_exact, dial_with_timeout, split_frame_v2, Decode, DecodeError,
    Encode, NetFabric,
};
use semtree_reactor::{FrameReader, INLINE_MAX_K};
use semtree_wal::{Wal, WalError, WalOptions};

use crate::actor::PartitionActor;
use crate::proto::{PartitionStats, Req, Resp};
use crate::recovery::{replay_stores, WalHandle};
use crate::store::PartitionStore;
use crate::tree::{
    host_partitions, CapacityPolicy, DistConfig, DistSemTree, Query, QueryOutcome, SharedConfig,
};

/// The [`NetFabric`] instantiated for the SemTree partition protocol.
pub type DistFabric = NetFabric<Req, Resp>;

/// Anything that can go wrong while bootstrapping a deployment.
#[derive(Debug)]
pub enum DeployError {
    /// Socket-level failure.
    Io(io::Error),
    /// The coordinator's config blob did not decode.
    Decode(DecodeError),
    /// The configuration cannot be deployed (e.g. a dynamic capacity
    /// policy, which cannot cross the wire).
    Config(String),
    /// A cluster operation failed.
    Cluster(ClusterError),
    /// The write-ahead log could not be created, appended, or replayed.
    Wal(WalError),
}

impl std::fmt::Display for DeployError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeployError::Io(e) => write!(f, "i/o: {e}"),
            DeployError::Decode(e) => write!(f, "config decode: {e}"),
            DeployError::Config(msg) => write!(f, "config: {msg}"),
            DeployError::Cluster(e) => write!(f, "cluster: {e}"),
            DeployError::Wal(e) => write!(f, "wal: {e}"),
        }
    }
}

impl std::error::Error for DeployError {}

impl From<io::Error> for DeployError {
    fn from(e: io::Error) -> Self {
        DeployError::Io(e)
    }
}
impl From<DecodeError> for DeployError {
    fn from(e: DecodeError) -> Self {
        DeployError::Decode(e)
    }
}
impl From<ClusterError> for DeployError {
    fn from(e: ClusterError) -> Self {
        DeployError::Cluster(e)
    }
}
impl From<WalError> for DeployError {
    fn from(e: WalError) -> Self {
        DeployError::Wal(e)
    }
}

// ----------------------------------------------------------------------
// The deployable subset of DistConfig, and its wire form
// ----------------------------------------------------------------------

/// The subset of [`DistConfig`] that can cross the wire. A
/// [`CapacityPolicy::Dynamic`] closure cannot be serialised, so only
/// `Unlimited` (`max_points: None`) and `MaxPoints` survive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetDeployConfig {
    /// Point dimensionality.
    pub dims: usize,
    /// Leaf bucket capacity `Bs`.
    pub bucket_size: usize,
    /// Per-process cap on partitions.
    pub max_partitions: usize,
    /// Leaf split rule.
    pub split_rule: SplitRule,
    /// Per-partition point cap, `None` = unlimited.
    pub max_points: Option<u64>,
}

impl NetDeployConfig {
    /// Extract the deployable parameters from a [`DistConfig`].
    ///
    /// # Errors
    /// Fails for [`CapacityPolicy::Dynamic`] — closures cannot cross
    /// process boundaries.
    pub fn from_config(config: &DistConfig) -> Result<Self, DeployError> {
        let max_points = match &config.capacity {
            CapacityPolicy::Unlimited => None,
            CapacityPolicy::MaxPoints(n) => Some(*n as u64),
            CapacityPolicy::Dynamic(_) => {
                return Err(DeployError::Config(
                    "a dynamic capacity policy cannot be deployed over the network; \
                     use CapacityPolicy::MaxPoints or Unlimited"
                        .into(),
                ))
            }
        };
        Ok(NetDeployConfig {
            dims: config.dims,
            bucket_size: config.bucket_size,
            max_partitions: config.max_partitions,
            split_rule: config.split_rule,
            max_points,
        })
    }

    /// Rebuild the [`DistConfig`] on the receiving process.
    #[must_use]
    pub fn to_config(&self) -> DistConfig {
        let capacity = match self.max_points {
            None => CapacityPolicy::Unlimited,
            Some(n) => CapacityPolicy::MaxPoints(n as usize),
        };
        DistConfig::new(self.dims)
            .with_bucket_size(self.bucket_size)
            .with_max_partitions(self.max_partitions)
            .with_split_rule(self.split_rule)
            .with_capacity(capacity)
    }
}

pub(crate) fn split_rule_tag(rule: SplitRule) -> u8 {
    match rule {
        SplitRule::Cycle => 0,
        SplitRule::WidestSpread => 1,
        SplitRule::DegenerateMin => 2,
    }
}

pub(crate) fn split_rule_from_tag(tag: u8) -> Result<SplitRule, DecodeError> {
    match tag {
        0 => Ok(SplitRule::Cycle),
        1 => Ok(SplitRule::WidestSpread),
        2 => Ok(SplitRule::DegenerateMin),
        other => Err(DecodeError::new(format!("bad SplitRule tag {other}"))),
    }
}

impl Encode for NetDeployConfig {
    fn encode(&self, out: &mut Vec<u8>) {
        self.dims.encode(out);
        self.bucket_size.encode(out);
        self.max_partitions.encode(out);
        split_rule_tag(self.split_rule).encode(out);
        self.max_points.encode(out);
    }
}

impl Decode for NetDeployConfig {
    /// Refuses a zero `dims`, `bucket_size` or `max_partitions`, which
    /// [`NetDeployConfig::to_config`] would assert on: the blob comes from
    /// another process or from disk.
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        let positive = |field: &str, buf: &mut &[u8]| match usize::decode(buf)? {
            0 => Err(DecodeError::new(format!("{field} must be at least 1"))),
            n => Ok(n),
        };
        Ok(NetDeployConfig {
            dims: positive("dims", buf)?,
            bucket_size: positive("bucket_size", buf)?,
            max_partitions: positive("max_partitions", buf)?,
            split_rule: split_rule_from_tag(u8::decode(buf)?)?,
            max_points: Option::decode(buf)?,
        })
    }
}

// ----------------------------------------------------------------------
// Coordinator / worker bootstrap
// ----------------------------------------------------------------------

/// Start the coordinator's cluster fabric: bind `listen`, embed the
/// deployable form of `config` in the membership handshake, and accept
/// workers.
///
/// # Errors
/// Fails when the config cannot be deployed or the listener cannot bind.
pub fn serve_cluster(
    listen: SocketAddr,
    config: &DistConfig,
    cost: CostModel,
) -> Result<Arc<DistFabric>, DeployError> {
    let blob = NetDeployConfig::from_config(config)?.to_bytes();
    Ok(DistFabric::coordinator(listen, blob, cost)?)
}

/// Build the distributed tree over an established coordinator fabric:
/// the root partition lives on the coordinator, data partitions are
/// placed round-robin on the joined workers.
///
/// With a `wal_dir`, every mutation of the coordinator's partitions is
/// written ahead to a WAL there, and their state is periodically
/// snapshotted. The coordinator owns the routing tree and the cluster
/// membership, so *restarting* it is not supported — `wal_dir` must not
/// already hold a log. (Worker restarts are the supported
/// crash-recovery path; see [`join_cluster`].)
///
/// # Errors
/// Fails when a data partition cannot be spawned or seeded, or — with a
/// `wal_dir` — the config cannot be deployed or the directory already
/// holds a WAL.
pub fn build_tree(
    fabric: &Arc<DistFabric>,
    config: DistConfig,
    partitions: usize,
    sample: &[Vec<f64>],
    wal_dir: Option<&Path>,
) -> Result<DistSemTree, DeployError> {
    let wal = wal_dir
        .map(|dir| create_wal(dir, &config, WalOptions::default()))
        .transpose()?;
    let transport = Arc::clone(fabric) as Arc<dyn Transport<Req, Resp>>;
    Ok(DistSemTree::build_on(
        fabric.local_fabric(),
        transport,
        config,
        partitions,
        sample,
        wal,
    )?)
}

/// Durable [`build_tree`] without the network: the whole deployment
/// runs on the in-process simulated cluster, but every partition
/// mutation still goes through a real WAL under `wal_dir`. This is what
/// the recovery benchmark and offline durability tests drive — the
/// on-disk artifacts are byte-compatible with a networked worker's.
///
/// `options` tunes segment size and snapshot cadence.
///
/// # Errors
/// Fails when the config cannot be deployed, `wal_dir` already holds a
/// WAL, or a data partition cannot be spawned or seeded.
pub fn build_local_durable(
    config: DistConfig,
    cost: CostModel,
    partitions: usize,
    sample: &[Vec<f64>],
    wal_dir: &Path,
    options: WalOptions,
) -> Result<DistSemTree, DeployError> {
    let wal = create_wal(wal_dir, &config, options)?;
    let local = ChannelFabric::new(cost, 0);
    let transport = Arc::clone(&local) as Arc<dyn Transport<Req, Resp>>;
    Ok(DistSemTree::build_on(
        local,
        transport,
        config,
        partitions,
        sample,
        Some(wal),
    )?)
}

/// Start the root process's WAL in a directory that holds none yet.
fn create_wal(
    wal_dir: &Path,
    config: &DistConfig,
    options: WalOptions,
) -> Result<Arc<WalHandle>, DeployError> {
    if Wal::exists(wal_dir) {
        return Err(DeployError::Config(format!(
            "{} already holds a write-ahead log; coordinator restart is not \
             supported — point --wal-dir at a fresh directory",
            wal_dir.display()
        )));
    }
    let blob = NetDeployConfig::from_config(config)?.to_bytes();
    Ok(WalHandle::new(Wal::create(wal_dir, 0, &blob, options)?))
}

/// A joined worker process: hosts partitions on request until the
/// coordinator shuts the deployment down.
pub struct WorkerHandle {
    fabric: Arc<DistFabric>,
    config: DistConfig,
    recovered: Vec<u32>,
}

/// Join a deployment as a worker: dial the coordinator, decode the
/// shipped configuration, and install the partition factory so
/// coordinator-initiated spawns land here.
///
/// With a `wal_dir`, partition mutations are written ahead to a WAL
/// there, and if that directory already holds a log from a previous
/// run, the worker **recovers** — it replays snapshot + tail into the
/// exact partition stores it hosted before the crash, rejoins the
/// coordinator under its old process index, and resumes serving its old
/// routes.
///
/// Recovery re-spawns partitions in ascending local index so every
/// recovered partition keeps its pre-crash [`ComputeNodeId`]; gaps
/// (indices spawned before the crash but never seeded) are filled with
/// empty placeholder partitions. Each recovered partition is then
/// re-snapshotted and the log compacted, so the next restart replays a
/// short tail.
///
/// # Errors
/// Fails when the coordinator is unreachable, its config is corrupt, it
/// refuses the rejoin, or the WAL is corrupt or does not replay cleanly.
pub fn join_cluster(
    coordinator: SocketAddr,
    cost: CostModel,
    timeout: Duration,
    wal_dir: Option<&Path>,
) -> Result<WorkerHandle, DeployError> {
    if let Some(dir) = wal_dir.filter(|dir| Wal::exists(dir)) {
        return recover_and_rejoin(coordinator, cost, timeout, dir);
    }
    // First boot. A durable worker persists the coordinator's config
    // blob in the manifest so recovery can rebuild stores without it.
    let (fabric, blob) = DistFabric::join(coordinator, cost, timeout)?;
    let config = decode_exact::<NetDeployConfig>(&blob)?.to_config();
    let wal = wal_dir
        .map(|dir| Wal::create(dir, fabric.process_index(), &blob, WalOptions::default()))
        .transpose()?
        .map(WalHandle::new);
    host_partitions(&fabric.local_fabric(), &SharedConfig::new(&config, wal));
    Ok(WorkerHandle {
        fabric,
        config,
        recovered: Vec::new(),
    })
}

/// The restart half of [`join_cluster`].
fn recover_and_rejoin(
    coordinator: SocketAddr,
    cost: CostModel,
    timeout: Duration,
    wal_dir: &Path,
) -> Result<WorkerHandle, DeployError> {
    // Replay the log into partition stores *before* touching the
    // network, so a corrupt WAL fails fast without a half-joined worker.
    let (wal, state) = Wal::resume(wal_dir, WalOptions::default())?;
    let config = decode_exact::<NetDeployConfig>(&state.config)?.to_config();
    let mut stores: BTreeMap<u32, PartitionStore> = replay_stores(&state)
        .map_err(DeployError::Config)?
        .into_iter()
        .collect();
    for &partition in stores.keys() {
        let owner = ComputeNodeId(partition).process();
        if owner != state.process_index {
            return Err(DeployError::Config(format!(
                "wal records partition {partition} owned by process {owner}, \
                 but the log belongs to process {}",
                state.process_index
            )));
        }
    }
    let recovered: Vec<u32> = stores.keys().copied().collect();

    let fabric = DistFabric::rejoin(coordinator, cost, timeout, state.process_index, &recovered)?;
    let handle = WalHandle::new(wal);
    let shared = SharedConfig::new(&config, Some(Arc::clone(&handle)));

    // Re-spawn in ascending local index: the local fabric assigns indices
    // sequentially, so this reproduces every pre-crash partition id.
    // Placeholders fill indices the crash left without replayable state.
    let local = fabric.local_fabric();
    let top = stores
        .keys()
        .map(|&p| ComputeNodeId(p).local_index())
        .max()
        .unwrap_or(0);
    let mut images = Vec::new();
    for local_index in 0..=top {
        let expected = ComputeNodeId::from_parts(state.process_index, local_index as u32);
        let actor = match stores.remove(&expected.0) {
            Some(store) => {
                images.push((expected, store.to_image()));
                shared.try_reserve_partition();
                PartitionActor::with_store(store, Arc::clone(&shared))
            }
            None => PartitionActor::fresh(Arc::clone(&shared)),
        };
        let spawned = local.spawn_handler(Box::new(actor))?;
        if spawned != expected {
            return Err(DeployError::Config(format!(
                "recovery re-spawn produced node {} where the log expects {} \
                 — was the fabric already hosting nodes?",
                spawned.0, expected.0
            )));
        }
    }
    host_partitions(&local, &shared);

    // Fold the replayed history into fresh snapshots and drop the
    // segments they supersede: the next restart replays almost nothing.
    for (partition, image) in images {
        handle.snapshot_image(partition, &image)?;
    }
    handle.compact()?;

    Ok(WorkerHandle {
        fabric,
        config,
        recovered,
    })
}

impl WorkerHandle {
    /// This worker's assigned process index (≥ 1).
    #[must_use]
    pub fn process_index(&self) -> u32 {
        self.fabric.process_index()
    }

    /// The address this worker accepts mesh connections on.
    #[must_use]
    pub fn listen_addr(&self) -> SocketAddr {
        self.fabric.listen_addr()
    }

    /// The configuration the coordinator shipped.
    #[must_use]
    pub fn config(&self) -> &DistConfig {
        &self.config
    }

    /// The underlying fabric (metrics, node counts).
    #[must_use]
    pub fn fabric(&self) -> Arc<DistFabric> {
        Arc::clone(&self.fabric)
    }

    /// Raw ids of the partitions crash recovery rebuilt from the WAL
    /// (empty on a fresh join).
    #[must_use]
    pub fn recovered_partitions(&self) -> &[u32] {
        &self.recovered
    }

    /// Block until the coordinator broadcasts shutdown, then stop the
    /// locally hosted partitions.
    pub fn run_until_shutdown(self) {
        self.fabric.wait_for_shutdown();
        self.fabric.shutdown();
    }
}

// ----------------------------------------------------------------------
// Client-port protocol
// ----------------------------------------------------------------------

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
const KNN_TAG: u8 = 1;

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

/// A data-plane outcome as its wire reply — the one mapping behind the
/// blocking and pipelined serving paths, so both produce byte-identical
/// responses by construction.
fn to_resp(outcome: Result<QueryOutcome, ClusterError>) -> ClientResp {
    let pairs = |hits: Vec<Neighbor<u64>>| hits.into_iter().map(|n| (n.dist, n.payload)).collect();
    match outcome {
        Ok(QueryOutcome::Inserted) => ClientResp::Done,
        Ok(QueryOutcome::Neighbors(hits)) => ClientResp::Neighbors(pairs(hits)),
        Ok(QueryOutcome::NeighborBatches(batches)) => {
            ClientResp::NeighborBatches(batches.into_iter().map(pairs).collect())
        }
        Err(e) => ClientResp::Error(e.to_string()),
    }
}

/// Tunables for the reactor-backed client serving loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeOptions {
    /// Executor threads running [`ClientReq`]s against the tree.
    pub executors: usize,
    /// Global in-flight bound; beyond it requests are shed with
    /// [`ClientResp::Overloaded`].
    pub global_depth: usize,
    /// Per-connection pipeline depth; beyond it the reactor stops
    /// reading that socket (backpressure, nothing is shed).
    pub per_conn_depth: usize,
    /// Reactor shard count, one by default; clamped to
    /// `1..=MAX_REACTOR_SHARDS`.
    pub reactors: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        let d = semtree_reactor::ReactorConfig::default();
        ServeOptions {
            executors: d.executors,
            global_depth: d.global_depth,
            per_conn_depth: d.per_conn_depth,
            reactors: d.reactors,
        }
    }
}

impl ServeOptions {
    /// Executor thread count (consuming builder, like the `with_*`
    /// methods on `KdConfig`/`DistConfig`/`WalOptions`).
    #[must_use]
    pub fn with_executors(mut self, executors: usize) -> Self {
        self.executors = executors;
        self
    }

    /// Global in-flight bound before load shedding.
    #[must_use]
    pub fn with_global_depth(mut self, global_depth: usize) -> Self {
        self.global_depth = global_depth;
        self
    }

    /// Per-connection pipeline depth before backpressure.
    #[must_use]
    pub fn with_per_conn_depth(mut self, per_conn_depth: usize) -> Self {
        self.per_conn_depth = per_conn_depth;
        self
    }

    /// Reactor shard count (clamped to `1..=MAX_REACTOR_SHARDS`).
    #[must_use]
    pub fn with_reactors(mut self, reactors: usize) -> Self {
        self.reactors = reactors;
        self
    }
}

/// [`semtree_reactor::Service`] adapter: decodes [`ClientReq`] frames,
/// answers them against the tree, encodes [`ClientResp`] frames.
struct TreeService<'a> {
    tree: &'a DistSemTree,
}

impl TreeService<'_> {
    /// The one request lowering, shared by the blocking and pipelined
    /// serving paths: a data-plane frame becomes its [`Query`] (a remote
    /// client is untrusted input, and [`DistSemTree::query`] /
    /// [`DistSemTree::submit_query`] validate it before any partition
    /// sees it). `Err` is the complete synchronous reply: a malformed
    /// frame, or a control-plane request answered here.
    fn lower(&self, request: &[u8]) -> Result<Query, semtree_reactor::ServiceReply> {
        let reply = |resp: ClientResp, shutdown| {
            Err(semtree_reactor::ServiceReply {
                payload: resp.to_bytes(),
                shutdown,
            })
        };
        let req: ClientReq = match decode_exact(request) {
            Ok(req) => req,
            Err(e) => return reply(ClientResp::Error(format!("bad request: {e}")), false),
        };
        let tree = self.tree;
        match req {
            ClientReq::Insert { point, payload } => Ok(Query::Insert { point, payload }),
            ClientReq::Knn { point, k } => Ok(Query::Knn { point, k }),
            ClientReq::Range { point, radius } => Ok(Query::Range { point, radius }),
            ClientReq::KnnBatch { points, k } => Ok(Query::KnnBatch { points, k }),
            ClientReq::Stats => match tree.try_global_stats() {
                Ok(stats) => reply(ClientResp::Stats(stats.partitions), false),
                Err(e) => reply(ClientResp::Error(e.to_string()), false),
            },
            ClientReq::Verify => reply(ClientResp::Violations(tree.verify()), false),
            ClientReq::Metrics => {
                let m = tree.metrics();
                let metrics = ClientMetrics {
                    messages: m.messages,
                    bytes: m.bytes,
                    response_bytes: m.response_bytes,
                    spawned_nodes: m.spawned_nodes,
                    latency_count: m.latency.count,
                    p50_nanos: m.latency.p50_nanos(),
                    p99_nanos: m.latency.p99_nanos(),
                    p999_nanos: m.latency.p999_nanos(),
                    reads_retried: m.reads_retried,
                    read_retries: m.read_retries,
                    reads_crossed: m.reads_crossed,
                    reactor_shards: m.reactor_shards,
                    shard_served: m.shard_served,
                    shard_shed: m.shard_shed,
                };
                reply(ClientResp::Metrics(Box::new(metrics)), false)
            }
            ClientReq::Shutdown => reply(ClientResp::Done, true),
        }
    }
}

impl semtree_reactor::Service for TreeService<'_> {
    fn call(&self, request: &[u8]) -> semtree_reactor::ServiceReply {
        match self.lower(request) {
            Ok(query) => semtree_reactor::ServiceReply {
                payload: to_resp(self.tree.query(query)).to_bytes(),
                shutdown: false,
            },
            Err(reply) => reply,
        }
    }

    fn overloaded(&self) -> Vec<u8> {
        ClientResp::Overloaded.to_bytes()
    }

    /// The pipelined serving path: data-plane queries are submitted
    /// through [`DistSemTree::submit_query`], and the client's response
    /// is completed via the [`semtree_reactor::ReplyToken`]. An insert
    /// frees the executor at once and completes from whatever thread
    /// finishes it (the receiving actor's, or a `semtree-net` demux
    /// reader's when the partition is remote). A read completes on the
    /// executor, which waits on the replies of any sub-walk it sends to
    /// another process. Control-plane requests and malformed frames
    /// answer synchronously; the response bytes are identical to
    /// [`Service::call`]'s on every path because both go through the same
    /// [`lower`](TreeService::lower) and [`to_resp`].
    fn call_pipelined(
        &self,
        request: &[u8],
        token: semtree_reactor::ReplyToken,
    ) -> semtree_reactor::Dispatch {
        match self.lower(request) {
            Ok(query) => {
                self.tree.submit_query(
                    query,
                    Box::new(move |outcome| token.complete(to_resp(outcome).to_bytes(), false)),
                );
                semtree_reactor::Dispatch::Completed
            }
            Err(reply) => semtree_reactor::Dispatch::Sync(token, reply),
        }
    }

    /// What the shard answers itself is decided by what the request
    /// says: a single-point k-NN with `k` ≤ [`INLINE_MAX_K`], whenever
    /// [`DistSemTree::answer_direct`] settles it — rejected as invalid,
    /// or read lock-free (4 µs of tree against a longer hand-off to an
    /// executor). Anything else is declined on its tag byte; a larger
    /// `k`, or a read that must message another process, costs one
    /// decode more, and the declined read is walked again on an
    /// executor. The reply bytes are the executor path's: the same walk,
    /// the same [`to_resp`].
    fn call_inline(&self, request: &[u8]) -> Option<semtree_reactor::ServiceReply> {
        if request.first() != Some(&KNN_TAG) {
            return None;
        }
        let ClientReq::Knn { point, k } = decode_exact(request).ok()? else {
            return None;
        };
        if k > INLINE_MAX_K {
            return None;
        }
        let outcome = self.tree.answer_direct(&Query::Knn { point, k })?;
        Some(semtree_reactor::ServiceReply {
            payload: to_resp(outcome).to_bytes(),
            shutdown: false,
        })
    }
}

/// Serve client connections on the event-driven reactor until one sends
/// [`ClientReq::Shutdown`] (acknowledged with [`ClientResp::Done`]
/// before returning). The caller then shuts the tree down.
///
/// Connections are multiplexed and every frame is correlated
/// ([`semtree_net::FRAME_V2`]): requests are pipelined and complete out
/// of order. Request latency is recorded into the tree's shared metrics
/// histogram.
///
/// # Errors
/// Fails when the listener itself breaks; per-connection errors just
/// drop that connection.
pub fn serve_clients_with(
    listener: &TcpListener,
    tree: &DistSemTree,
    options: &ServeOptions,
) -> io::Result<()> {
    let config = semtree_reactor::ReactorConfig {
        executors: options.executors,
        global_depth: options.global_depth,
        per_conn_depth: options.per_conn_depth,
        metrics: Some(tree.metrics_handle()),
        reactors: options.reactors,
    };
    let service = TreeService { tree };
    semtree_reactor::serve(listener, &service, &config)?;
    Ok(())
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
    fn deploy_config_round_trips() {
        let config = DistConfig::new(4)
            .with_bucket_size(16)
            .with_max_partitions(9)
            .with_split_rule(SplitRule::DegenerateMin)
            .with_capacity(CapacityPolicy::MaxPoints(500));
        let net = NetDeployConfig::from_config(&config).unwrap();
        let back: NetDeployConfig = decode_exact(&net.to_bytes()).unwrap();
        assert_eq!(back, net);
        let rebuilt = back.to_config();
        assert_eq!(rebuilt.dims(), 4);
        assert_eq!(rebuilt.bucket_size(), 16);
    }

    #[test]
    fn wrong_dimension_requests_are_rejected_not_fatal() {
        use semtree_reactor::Service as _;
        let tree = DistSemTree::single(DistConfig::new(2), semtree_cluster::CostModel::zero());
        let service = TreeService { tree: &tree };
        // The blocking `Service::call` path (the reactor only drives the
        // pipelined one).
        let call = |req: ClientReq| -> ClientResp {
            decode_exact(&service.call(&req.to_bytes()).payload).unwrap()
        };
        let point = |coords: &[f64]| coords.to_vec();
        for req in [
            ClientReq::Insert {
                point: point(&[1.0, 2.0, 3.0]),
                payload: 0,
            },
            ClientReq::Knn {
                point: point(&[1.0]),
                k: 3,
            },
            ClientReq::Range {
                point: point(&[]),
                radius: 1.0,
            },
            ClientReq::KnnBatch {
                points: vec![point(&[1.0, 2.0]), point(&[1.0])],
                k: 3,
            },
        ] {
            let resp = call(req);
            assert!(
                matches!(&resp, ClientResp::Error(msg) if msg.contains("dimensions")),
                "wrong-dimension request must come back as a typed error, got {resp:?}"
            );
        }
        // The tree survived every bad request.
        let (point, payload) = (point(&[1.0, 2.0]), 7);
        assert_eq!(
            call(ClientReq::Insert {
                point: point.clone(),
                payload
            }),
            ClientResp::Done
        );
        assert_eq!(
            call(ClientReq::Knn { point, k: 1 }),
            ClientResp::Neighbors(vec![(0.0, payload)])
        );
        tree.shutdown();
    }

    #[test]
    fn dynamic_capacity_cannot_be_deployed() {
        let config = DistConfig::new(2)
            .with_capacity(CapacityPolicy::Dynamic(Arc::new(|points| points > 10)));
        match NetDeployConfig::from_config(&config) {
            Err(DeployError::Config(msg)) => assert!(msg.contains("dynamic")),
            other => panic!("expected Config error, got {other:?}"),
        }
    }

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

    #[test]
    fn split_rule_tags_are_stable() {
        for rule in [
            SplitRule::Cycle,
            SplitRule::WidestSpread,
            SplitRule::DegenerateMin,
        ] {
            assert_eq!(split_rule_from_tag(split_rule_tag(rule)).unwrap(), rule);
        }
        assert!(split_rule_from_tag(9).is_err());
    }
}
