//! Multi-process deployment over `semtree-net`: coordinator/worker
//! bootstrap and the wire form of the shared configuration.
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

use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use semtree_cluster::{ChannelFabric, ClusterError, ComputeNodeId, CostModel, Transport};
use semtree_kdtree::SplitRule;
use semtree_net::{decode_exact, Decode, DecodeError, Encode, NetFabric};
use semtree_wal::{Wal, WalError, WalOptions};

use crate::actor::PartitionActor;
use crate::config::{CapacityPolicy, DistConfig, SharedConfig};
use crate::proto::{Req, Resp};
use crate::recovery::{replay_stores, WalHandle};
use crate::store::PartitionStore;
use crate::tree::{host_partitions, DistSemTree};

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
/// `options` tunes segment size. Each partition snapshots once the
/// records it logged since its last snapshot reach 256 or the points
/// that snapshot held, whichever is more.
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
    let mut blobs = Vec::new();
    for local_index in 0..=top {
        let expected = ComputeNodeId::from_parts(state.process_index, local_index as u32);
        let actor = match stores.remove(&expected.0) {
            Some(store) => {
                blobs.push((expected, store.snapshot()));
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
    for (partition, blob) in blobs {
        handle.snapshot_image(partition, &blob)?;
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
    fn dynamic_capacity_cannot_be_deployed() {
        let config = DistConfig::new(2)
            .with_capacity(CapacityPolicy::Dynamic(Arc::new(|points| points > 10)));
        match NetDeployConfig::from_config(&config) {
            Err(DeployError::Config(msg)) => assert!(msg.contains("dynamic")),
            other => panic!("expected Config error, got {other:?}"),
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
