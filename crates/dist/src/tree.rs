//! The `DistSemTree` facade: configuration, construction, and the public
//! insert/k-NN/range operations.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

use semtree_cluster::{
    ChannelFabric, ClusterError, ClusterMetrics, CompleteFn, ComputeNodeId, CostModel, Transport,
};
use semtree_kdtree::versioned::{InPlace, StdShim, Tree};
use semtree_kdtree::{KdConfig, Neighbor, SplitRule};
use semtree_par::Pool;

use crate::actor::PartitionActor;
use crate::proto::{PartitionStats, Req, Resp};
use crate::recovery::WalHandle;
use crate::store::{Child, LocalNodeId, PartitionStore};

/// The per-partition *resource condition* of the insertion algorithm: "the
/// condition can be dynamically evaluated at run-time — for example, it may
/// depend on the percentage of the available storage resources of each
/// partition — or statically fixed".
#[derive(Clone)]
pub enum CapacityPolicy {
    /// Never triggers build-partition.
    Unlimited,
    /// Statically fixed: at most this many points per partition.
    MaxPoints(usize),
    /// Dynamically evaluated: the closure receives the partition's current
    /// point count and returns `true` when the partition is over budget.
    Dynamic(Arc<dyn Fn(usize) -> bool + Send + Sync>),
}

impl CapacityPolicy {
    pub(crate) fn exceeded(&self, points: usize) -> bool {
        match self {
            CapacityPolicy::Unlimited => false,
            CapacityPolicy::MaxPoints(max) => points > *max,
            CapacityPolicy::Dynamic(f) => f(points),
        }
    }
}

impl std::fmt::Debug for CapacityPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CapacityPolicy::Unlimited => f.write_str("Unlimited"),
            CapacityPolicy::MaxPoints(n) => write!(f, "MaxPoints({n})"),
            CapacityPolicy::Dynamic(_) => f.write_str("Dynamic(..)"),
        }
    }
}

/// Distributed-tree configuration.
#[derive(Debug, Clone)]
pub struct DistConfig {
    pub(crate) dims: usize,
    pub(crate) bucket_size: usize,
    pub(crate) capacity: CapacityPolicy,
    pub(crate) max_partitions: usize,
    pub(crate) split_rule: SplitRule,
}

impl DistConfig {
    /// Defaults: bucket size 32, unlimited capacity, up to 64 partitions.
    ///
    /// # Panics
    /// Panics if `dims == 0`.
    #[must_use]
    pub fn new(dims: usize) -> Self {
        assert!(dims > 0, "dimensionality must be at least 1");
        DistConfig {
            dims,
            bucket_size: 32,
            capacity: CapacityPolicy::Unlimited,
            max_partitions: 64,
            split_rule: SplitRule::Cycle,
        }
    }

    /// Leaf split rule; [`SplitRule::DegenerateMin`] reproduces the
    /// paper's "totally unbalanced" series.
    #[must_use]
    pub fn with_split_rule(mut self, split_rule: SplitRule) -> Self {
        self.split_rule = split_rule;
        self
    }

    /// Leaf bucket capacity `Bs`.
    ///
    /// # Panics
    /// Panics if `bucket_size == 0`.
    #[must_use]
    pub fn with_bucket_size(mut self, bucket_size: usize) -> Self {
        assert!(bucket_size > 0, "bucket size must be at least 1");
        self.bucket_size = bucket_size;
        self
    }

    /// Per-partition resource condition.
    #[must_use]
    pub fn with_capacity(mut self, capacity: CapacityPolicy) -> Self {
        self.capacity = capacity;
        self
    }

    /// Cap on the number of compute nodes / partitions.
    ///
    /// # Panics
    /// Panics if `max_partitions == 0`.
    #[must_use]
    pub fn with_max_partitions(mut self, max_partitions: usize) -> Self {
        assert!(max_partitions > 0, "at least one partition is required");
        self.max_partitions = max_partitions;
        self
    }

    /// Point dimensionality.
    #[must_use]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Leaf bucket capacity.
    #[must_use]
    pub fn bucket_size(&self) -> usize {
        self.bucket_size
    }

    /// The per-partition tree configuration this implies.
    pub(crate) fn kd(&self) -> KdConfig {
        KdConfig::new(self.dims)
            .with_bucket_size(self.bucket_size)
            .with_split_rule(self.split_rule)
    }
}

/// Planar points (`dims = 2`) with [`DistConfig::new`]'s defaults —
/// mirrors `KdConfig::default()` so the two tree layers start from the
/// same configuration shape.
impl Default for DistConfig {
    fn default() -> Self {
        DistConfig::new(2)
    }
}

/// One slot of [`SharedConfig`]'s read-handle registry.
type ReadSlot = Option<(ComputeNodeId, Arc<Tree>)>;

/// Configuration + partition accounting shared by every actor.
pub(crate) struct SharedConfig {
    /// Dimensions, bucket size and split rule of every partition's tree.
    pub(crate) kd: KdConfig,
    pub(crate) capacity: CapacityPolicy,
    pub(crate) max_partitions: usize,
    /// The process-wide WAL, `None` when running without durability.
    pub(crate) wal: Option<Arc<WalHandle>>,
    partitions: AtomicUsize,
    /// The trees of the partitions this process hosts, registered by
    /// their actors and read lock-free by every other thread: one slot
    /// per local index of the hosting compute node, holding the node's
    /// full id (a lookup checks its process part) and its tree. Leaf lock
    /// (rank 21 in semtree-check's order): nothing is acquired while it
    /// is held, and readers share it.
    read_handles: RwLock<Vec<ReadSlot>>,
    /// Metrics sink for optimistic-read retry accounting; set once the
    /// owning fabric is known, absent in bare unit-test stores.
    pub(crate) metrics: OnceLock<Arc<ClusterMetrics>>,
}

impl SharedConfig {
    pub(crate) fn new(config: &DistConfig, wal: Option<Arc<WalHandle>>) -> Arc<Self> {
        Arc::new(SharedConfig {
            kd: config.kd(),
            capacity: config.capacity.clone(),
            max_partitions: config.max_partitions,
            wal,
            partitions: AtomicUsize::new(0),
            read_handles: RwLock::new(Vec::new()),
            metrics: OnceLock::new(),
        })
    }

    /// Publish (or replace) the tree of the partition hosted on `node`.
    pub(crate) fn register_read_handle(&self, node: ComputeNodeId, tree: &Arc<Tree>) {
        let mut slots = self
            .read_handles
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        let at = node.local_index();
        if slots.len() <= at {
            slots.resize(at + 1, None);
        }
        slots[at] = Some((node, Arc::clone(tree)));
    }

    /// Withdraw `node`'s tree once its actor is gone — a dead partition
    /// must fail reads the way it fails writes, not answer them from a
    /// frozen tree — unless the entry is no longer `tree`.
    pub(crate) fn unregister_read_handle(&self, node: ComputeNodeId, tree: &Arc<Tree>) {
        let mut slots = self
            .read_handles
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(slot) = slots.get_mut(node.local_index()) {
            if slot
                .as_ref()
                .is_some_and(|(id, held)| *id == node && Arc::ptr_eq(held, tree))
            {
                *slot = None;
            }
        }
    }

    /// The tree registered for `node`, if this process hosts it.
    pub(crate) fn read_handle(&self, node: ComputeNodeId) -> Option<Arc<Tree>> {
        let slots = self
            .read_handles
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        let (id, tree) = slots.get(node.local_index())?.as_ref()?;
        (*id == node).then(|| Arc::clone(tree))
    }

    /// Attach the cluster metrics sink (idempotent; first caller wins).
    pub(crate) fn set_metrics(&self, metrics: Arc<ClusterMetrics>) {
        let _ = self.metrics.set(metrics);
    }

    /// Atomically claim a slot for one more partition; `false` when the
    /// cluster is out of compute nodes.
    pub(crate) fn try_reserve_partition(&self) -> bool {
        self.partitions
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |cur| {
                (cur < self.max_partitions).then_some(cur + 1)
            })
            .is_ok()
    }

    /// Return a previously reserved slot (a build-partition transfer
    /// failed after reserving).
    pub(crate) fn release_partition(&self) {
        self.partitions.fetch_sub(1, Ordering::SeqCst);
    }

    fn partition_count(&self) -> usize {
        self.partitions.load(Ordering::SeqCst)
    }
}

/// Whole-tree statistics gathered by walking the partition tree.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GlobalStats {
    /// `(compute node id, stats)` per partition, root first (BFS order).
    pub partitions: Vec<(u32, PartitionStats)>,
}

impl GlobalStats {
    /// Total stored points across partitions.
    #[must_use]
    pub fn total_points(&self) -> usize {
        self.partitions.iter().map(|(_, s)| s.points).sum()
    }

    /// Number of partitions.
    #[must_use]
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// Partitions that only route (store no points) — the paper's "some
    /// partitions are used just for routing and others for storing data".
    #[must_use]
    pub fn routing_only(&self) -> usize {
        self.partitions
            .iter()
            .filter(|(_, s)| s.points == 0 && s.routing > 0)
            .count()
    }

    /// Total routing nodes hosted by the root partition (the paper's
    /// `2·M − 1` claim for a pure-routing root over `M − 1` data
    /// partitions).
    #[must_use]
    pub fn root_routing_nodes(&self) -> usize {
        self.partitions.first().map_or(0, |(_, s)| s.routing)
    }
}

/// One typed request against a [`DistSemTree`] — the input to
/// [`DistSemTree::query`], the unified entry point that replaced the
/// accreted `try_*`/panicking method pairs.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// Store one point with its payload (the distributed insertion
    /// algorithm, starting "from the root node of the root partition").
    Insert {
        /// Point coordinates (must match the configured dimensionality).
        point: Vec<f64>,
        /// Caller-owned identifier carried with the point.
        payload: u64,
    },
    /// The `k` nearest stored points to `point`.
    Knn {
        /// Query point.
        point: Vec<f64>,
        /// Result-set size `K`.
        k: usize,
    },
    /// The `k` nearest stored points to every entry of `points`: one
    /// [`Query::Knn`] read each, fanned out over the caller's cores.
    KnnBatch {
        /// Query points, answered in order.
        points: Vec<Vec<f64>>,
        /// Result-set size `K` per query.
        k: usize,
    },
    /// Every stored point within `radius` of `point` (inclusive).
    Range {
        /// Query point.
        point: Vec<f64>,
        /// Inclusive search radius `D`.
        radius: f64,
    },
}

impl Query {
    /// [`Query::Insert`] from borrowed coordinates.
    #[must_use]
    pub fn insert(point: &[f64], payload: u64) -> Self {
        Query::Insert {
            point: point.to_vec(),
            payload,
        }
    }

    /// [`Query::Knn`] from borrowed coordinates.
    #[must_use]
    pub fn knn(point: &[f64], k: usize) -> Self {
        Query::Knn {
            point: point.to_vec(),
            k,
        }
    }

    /// [`Query::KnnBatch`] from borrowed query points.
    #[must_use]
    pub fn knn_batch(points: &[Vec<f64>], k: usize) -> Self {
        Query::KnnBatch {
            points: points.to_vec(),
            k,
        }
    }

    /// [`Query::Range`] from borrowed coordinates.
    #[must_use]
    pub fn range(point: &[f64], radius: f64) -> Self {
        Query::Range {
            point: point.to_vec(),
            radius,
        }
    }
}

/// The successful result of [`DistSemTree::query`], one variant per
/// [`Query`] shape. The typed accessors convert a shape mismatch into a
/// [`ClusterError`] instead of panicking.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutcome {
    /// An [`Query::Insert`] was applied and acknowledged.
    Inserted,
    /// Hits for [`Query::Knn`] / [`Query::Range`], closest first.
    Neighbors(Vec<Neighbor<u64>>),
    /// Per-query hits for [`Query::KnnBatch`], in input order, each
    /// closest first.
    NeighborBatches(Vec<Vec<Neighbor<u64>>>),
}

impl QueryOutcome {
    fn mismatch(expected: &str, got: &Self) -> ClusterError {
        ClusterError::Remote(format!("expected {expected} outcome, got {got:?}"))
    }

    /// Confirm this outcome acknowledges an insert.
    ///
    /// # Errors
    /// Fails when the outcome is not [`QueryOutcome::Inserted`].
    pub fn inserted(self) -> Result<(), ClusterError> {
        match self {
            QueryOutcome::Inserted => Ok(()),
            other => Err(Self::mismatch("insert", &other)),
        }
    }

    /// The neighbour list of a k-NN or range outcome.
    ///
    /// # Errors
    /// Fails when the outcome is not [`QueryOutcome::Neighbors`].
    pub fn neighbors(self) -> Result<Vec<Neighbor<u64>>, ClusterError> {
        match self {
            QueryOutcome::Neighbors(hits) => Ok(hits),
            other => Err(Self::mismatch("neighbors", &other)),
        }
    }

    /// The per-query neighbour lists of a batched k-NN outcome.
    ///
    /// # Errors
    /// Fails when the outcome is not [`QueryOutcome::NeighborBatches`].
    pub fn neighbor_batches(self) -> Result<Vec<Vec<Neighbor<u64>>>, ClusterError> {
        match self {
            QueryOutcome::NeighborBatches(batches) => Ok(batches),
            other => Err(Self::mismatch("neighbor batches", &other)),
        }
    }
}

fn to_neighbors(candidates: Vec<(f64, u64)>) -> Vec<Neighbor<u64>> {
    candidates
        .into_iter()
        .map(|(dist, payload)| Neighbor { dist, payload })
        .collect()
}

/// The error for a reply that is not the shape the request calls for: the
/// actor's own failure report, or a protocol mismatch.
pub(crate) fn unexpected(expected: &str, resp: Resp) -> ClusterError {
    match resp {
        Resp::Error(msg) => ClusterError::Remote(msg),
        other => ClusterError::Remote(format!("expected {expected}, got {other:?}")),
    }
}

/// An insert's outcome from its partition's reply, counted by the
/// facade's insert counter when acknowledged.
fn acknowledged(
    inserted: &AtomicU64,
    reply: Result<Resp, ClusterError>,
) -> Result<QueryOutcome, ClusterError> {
    match reply? {
        Resp::Done => {
            inserted.fetch_add(1, Ordering::Relaxed);
            Ok(QueryOutcome::Inserted)
        }
        other => Err(unexpected("an insert acknowledgement", other)),
    }
}

/// The distributed SemTree: a cluster of partition actors behind a
/// synchronous client API.
pub struct DistSemTree {
    /// Hosts this process's partitions and owns the shared metrics.
    local: Arc<ChannelFabric<Req, Resp>>,
    /// Routes the deployment: `local` itself in process, the TCP fabric
    /// under `semtree-net`. Inserts and read sub-walks go through it.
    transport: Arc<dyn Transport<Req, Resp>>,
    /// The cores a [`Query::KnnBatch`] is fanned out over.
    pool: Pool,
    root: ComputeNodeId,
    shared: Arc<SharedConfig>,
    /// Shared (not inline) so pipelined completion callbacks can bump it
    /// from whatever thread finishes an insert.
    inserted: Arc<AtomicU64>,
}

impl DistSemTree {
    /// Single-partition tree (the sequential baseline, "1 partition").
    #[must_use]
    pub fn single(config: DistConfig, cost: CostModel) -> Self {
        DistSemTree::in_process(cost, config, 1, &[])
    }

    /// `partitions`-partition tree: one pure-routing root partition whose
    /// routing tree splits the space into `partitions − 1` regions (by
    /// medians of `sample`), each hosted by its own data partition. This is
    /// how the experiments pin the paper's "3 / 5 / 9 partitions" series.
    ///
    /// # Panics
    /// Panics if `partitions == 0`, or if `partitions > 1` with an empty
    /// sample or a `max_partitions` smaller than `partitions`.
    #[must_use]
    pub fn with_fanout(
        config: DistConfig,
        cost: CostModel,
        partitions: usize,
        sample: &[Vec<f64>],
    ) -> Self {
        DistSemTree::in_process(cost, config, partitions, sample)
    }

    /// [`build_on`](DistSemTree::build_on) over a fresh standalone
    /// channel fabric, which is both the host and the transport.
    fn in_process(
        cost: CostModel,
        config: DistConfig,
        partitions: usize,
        sample: &[Vec<f64>],
    ) -> Self {
        let local = ChannelFabric::new(cost, 0);
        let transport = Arc::clone(&local) as Arc<dyn Transport<Req, Resp>>;
        DistSemTree::build_on(local, transport, config, partitions, sample, None)
            .expect("in-process construction cannot fail")
    }

    /// Shared construction path: install the member factory, then spawn
    /// the root on the `local` fabric and the data partitions through
    /// `transport`, which *places* them: under `semtree-net` they land
    /// on worker processes, round-robin. With a `wal`, the locally hosted
    /// partitions (at least the root) log every mutation and snapshot
    /// their initial state.
    ///
    /// # Errors
    /// Fails when a data partition cannot be spawned or seeded — e.g. no
    /// worker process is reachable.
    ///
    /// # Panics
    /// Panics on the same configuration errors as
    /// [`with_fanout`](DistSemTree::with_fanout).
    pub(crate) fn build_on(
        local: Arc<ChannelFabric<Req, Resp>>,
        transport: Arc<dyn Transport<Req, Resp>>,
        config: DistConfig,
        partitions: usize,
        sample: &[Vec<f64>],
        wal: Option<Arc<WalHandle>>,
    ) -> Result<Self, ClusterError> {
        assert!(partitions > 0, "at least one partition is required");
        let shared = SharedConfig::new(&config, wal);
        host_partitions(&local, &shared);

        let store = if partitions == 1 {
            PartitionStore::raw_leaf(shared.kd, &[], 0)
        } else {
            assert!(
                partitions >= 3,
                "a routing root needs at least two data partitions (use 1, or ≥ 3)"
            );
            assert!(
                config.max_partitions >= partitions,
                "max_partitions ({}) below requested partitions ({partitions})",
                config.max_partitions
            );
            assert!(
                !sample.is_empty(),
                "a non-empty sample is required to choose the fan-out splits"
            );
            for p in sample {
                assert_eq!(p.len(), config.dims, "sample dimensionality mismatch");
            }

            // Data partitions are spawned as the recursion reaches its
            // leaves; the root's routing tree is assembled in a local store
            // whose first pushed node (the routing root) becomes node 0. It
            // never holds a point, so its images keep recording the default
            // split rule.
            let routing_only = KdConfig::new(config.dims).with_bucket_size(config.bucket_size);
            let mut store = PartitionStore::empty_arena(routing_only);
            let mut sample: Vec<&[f64]> = sample.iter().map(Vec::as_slice).collect();
            let root_child = build_fanout(
                transport.as_ref(),
                &shared,
                &mut store,
                &mut sample,
                partitions - 1,
                (0, None),
            )?;
            debug_assert_eq!(root_child, Child::Local(0), "≥ 2 leaves root locally");
            store
        };

        // The root partition itself. Its initial image is snapshotted once
        // the spawn has assigned the partition id, and its tree is
        // readable from here on, not only from its actor's first message.
        assert!(shared.try_reserve_partition());
        let image = shared.wal.as_ref().map(|_| store.to_image());
        let tree = Arc::clone(store.tree());
        let root = local.spawn_handler(Box::new(PartitionActor::with_store(
            store,
            Arc::clone(&shared),
        )))?;
        shared.register_read_handle(root, &tree);
        if let (Some(wal), Some(image)) = (shared.wal.as_ref(), image) {
            wal.snapshot_image(root, &image)
                .map_err(|e| ClusterError::Remote(format!("wal snapshot failed: {e}")))?;
        }
        Ok(DistSemTree {
            local,
            transport,
            pool: Pool::new(),
            root,
            shared,
            inserted: Arc::new(AtomicU64::new(0)),
        })
    }

    /// Execute one typed [`Query`] — the single entry point for every
    /// data operation.
    ///
    /// A read is walked on the calling thread from the root partition's
    /// root: lock-free over the seqlock arena each partition's actor
    /// writes, retrying only when racing an in-flight insert. At a
    /// partition border it follows the one crossing rule (§III-B.3): a
    /// partition this process hosts is entered in place, on its own tree
    /// and validated against its own version; any other is sent the
    /// sub-walk — the query plus the current worst distance — and this
    /// thread waits for the reply. The answer is byte-identical whichever
    /// way each border was crossed, and makes one promise: every
    /// acknowledged write, no snapshot across partitions. Retries and
    /// in-place crossings land in the cluster metrics (`reads_retried`,
    /// `reads_crossed`). A [`Query::KnnBatch`] is one such read per
    /// point, fanned out over this machine's cores.
    ///
    /// A write is routed the same way: the routing nodes are walked in
    /// place, and only the partition that stores the point receives a
    /// message, where it is written ahead to the WAL and applied by that
    /// partition's actor.
    ///
    /// # Errors
    /// [`ClusterError::InvalidRequest`] when the query is malformed — a
    /// point without exactly `dims` finite coordinates, or a radius that
    /// is not finite and non-negative — and nothing was sent; otherwise
    /// the transport's error for a partition the operation had to message
    /// and could not reach (dead node, network fault), or the failure
    /// that partition reported.
    pub fn query(&self, query: Query) -> Result<QueryOutcome, ClusterError> {
        self.validate(&query)?;
        match query {
            Query::Insert { point, payload } => {
                let (to, req) = self.insert_message(point, payload);
                acknowledged(&self.inserted, self.transport.send(to, req).wait())
            }
            read => self.read(&read, Some(&*self.transport)),
        }
    }

    /// Pipelined form of [`query`](DistSemTree::query): `complete` runs
    /// exactly once with the identical outcome the blocking path would
    /// have produced. A valid insert is dispatched and this returns at
    /// once; `complete` then runs on whatever thread finishes it — the
    /// receiving actor's thread in-process, a network demux reader under
    /// `semtree-net` — so one serving executor can keep many inserts in
    /// flight. Everything else is [`query`](DistSemTree::query), completed
    /// on this thread before this returns: a read that must cross into
    /// another process blocks it on those replies.
    pub fn submit_query(&self, query: Query, complete: CompleteFn<QueryOutcome>) {
        let valid_insert = matches!(query, Query::Insert { .. }) && self.validate(&query).is_ok();
        match query {
            Query::Insert { point, payload } if valid_insert => {
                let (to, req) = self.insert_message(point, payload);
                let inserted = Arc::clone(&self.inserted);
                self.transport.submit(
                    to,
                    req,
                    Box::new(move |reply| complete(acknowledged(&inserted, reply))),
                );
            }
            other => complete(self.query(other)),
        }
    }

    /// A validated insert as the message for the partition
    /// [`route`](DistSemTree::route) names.
    fn insert_message(&self, point: Vec<f64>, payload: u64) -> (ComputeNodeId, Req) {
        let (to, node) = self.route(&point);
        let req = Req::Insert {
            node,
            point,
            payload,
        };
        (to, req)
    }

    /// Where an insert of `point` goes: a partition and the node it is
    /// entered at. The insert's own descent (§III-B.1), run lock-free on
    /// this thread: from the root partition's root it follows the routing
    /// nodes and every remote edge into a partition whose tree is
    /// registered here, each partition under its own validated read, as
    /// a read crosses. It stops at a local leaf — the partition it is in
    /// stores the point — or at an edge into a partition it cannot read
    /// (another process hosts it, or it has not registered), which then
    /// gets the insert and navigates on from its entry node.
    ///
    /// The destination is the one the root's relay would pick at any
    /// later time: a published remote edge is never rewritten, since
    /// build-partition only turns a *local leaf* into a link, and never
    /// a partition's root. A leaf that splits or migrates before the
    /// message lands is navigated again by the actor that receives it.
    /// One partition has no remote edge, so the walk is skipped.
    fn route(&self, point: &[f64]) -> (ComputeNodeId, LocalNodeId) {
        let mut at = (self.root.0, 0);
        if self.partition_count() > 1 {
            let reader = InPlace::<StdShim, _>::new(|p| self.shared.read_handle(ComputeNodeId(p)));
            let from = |node: u32| move |tree: &Tree| tree.navigate(node, point).map(Ok::<_, ()>);
            while let Ok(Ok(Child::Remote { partition, node })) =
                reader.enter(at, point, from(at.1))
            {
                at = (partition, node);
            }
        }
        (ComputeNodeId(at.0), LocalNodeId(at.1))
    }

    /// The answer for a caller that must not wait (a reactor shard
    /// answering on its own thread): everything about `query` that can be
    /// settled here and now without a message — its rejection as
    /// malformed, or a read whose every border leads into a partition
    /// this process hosts. `None` means the query needs a message (a
    /// write, or a read that must cross into another process): hand it
    /// to [`query`](DistSemTree::query) or
    /// [`submit_query`](DistSemTree::submit_query).
    pub fn answer_direct(&self, query: &Query) -> Option<Result<QueryOutcome, ClusterError>> {
        if let Err(rejected) = self.validate(query) {
            return Some(Err(rejected));
        }
        // With no transport, the one way a read fails is a crossing that
        // needed one.
        self.read(query, None).ok().map(Ok)
    }

    /// The input contract of every data operation, checked once here —
    /// before the read path and before any actor — for in-process and
    /// served callers alike: every point has exactly `dims` finite
    /// coordinates, and a range radius is finite and non-negative.
    /// (`PartitionStore` re-checks dimensionality on its side of the
    /// wire and answers a mismatch with an error reply.)
    fn validate(&self, query: &Query) -> Result<(), ClusterError> {
        let dims = self.shared.kd.dims();
        let check = |point: &Vec<f64>| {
            if point.len() != dims {
                return Err(ClusterError::InvalidRequest(format!(
                    "point has {} dimensions, the index expects {dims}",
                    point.len()
                )));
            }
            if !point.iter().all(|c| c.is_finite()) {
                return Err(ClusterError::InvalidRequest(
                    "point has a non-finite coordinate".into(),
                ));
            }
            Ok(())
        };
        match query {
            Query::Insert { point, .. } | Query::Knn { point, .. } => check(point),
            Query::KnnBatch { points, .. } => points.iter().try_for_each(check),
            Query::Range { point, radius } => {
                check(point)?;
                if radius.is_finite() && *radius >= 0.0 {
                    Ok(())
                } else {
                    Err(ClusterError::InvalidRequest(format!(
                        "radius {radius} is not a finite non-negative number"
                    )))
                }
            }
        }
    }

    /// A k-NN, range or batch read, walked on this thread from the root
    /// partition's root, crossing every border by the
    /// [`Borders`](crate::border::Borders) rule. Without a `transport`, a
    /// read that must cross into a partition another process hosts
    /// fails; so does an insert, which is no read.
    fn read(
        &self,
        query: &Query,
        transport: Option<&dyn Transport<Req, Resp>>,
    ) -> Result<QueryOutcome, ClusterError> {
        Ok(match query {
            Query::Knn { point, k } => {
                QueryOutcome::Neighbors(to_neighbors(self.knn(point, *k, transport)?))
            }
            Query::Range { point, radius } => {
                let borders = self.shared.borders(transport);
                let walk = |tree: &Tree| tree.range(0, point, *radius, &borders);
                // Range hits come back in walk order; the facade sorts them.
                let mut hits = to_neighbors(borders.read(self.root.0, point, walk)?);
                hits.sort_by(|a, b| a.dist.total_cmp(&b.dist));
                QueryOutcome::Neighbors(hits)
            }
            Query::KnnBatch { points, k } => {
                let answer = |i: usize| self.knn(&points[i], *k, transport).map(to_neighbors);
                let batches = self.pool.map(points.len(), &answer);
                QueryOutcome::NeighborBatches(batches.into_iter().collect::<Result<_, _>>()?)
            }
            Query::Insert { .. } => return Err(ClusterError::InvalidRequest("not a read".into())),
        })
    }

    /// One k-NN of [`read`](Self::read), accounted in the metrics.
    fn knn(
        &self,
        point: &[f64],
        k: usize,
        transport: Option<&dyn Transport<Req, Resp>>,
    ) -> Result<Vec<(f64, u64)>, ClusterError> {
        let borders = self.shared.borders(transport);
        let walk = |tree: &Tree| tree.knn(0, point, k, None, &borders);
        borders.read(self.root.0, point, walk)
    }

    /// Number of points inserted through this facade.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inserted.load(Ordering::Relaxed) as usize
    }

    /// Whether no points were inserted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Live partition count.
    #[must_use]
    pub fn partition_count(&self) -> usize {
        self.shared.partition_count()
    }

    /// The point dimensionality this tree was configured with.
    #[must_use]
    pub fn dims(&self) -> usize {
        self.shared.kd.dims()
    }

    /// Interconnect metrics (messages, bytes, spawns, simulated delay).
    #[must_use]
    pub fn metrics(&self) -> semtree_cluster::MetricsSnapshot {
        self.transport.metrics()
    }

    /// The live metrics sink, shared with serving fabrics so request
    /// latency lands in the same snapshot as interconnect counters.
    #[must_use]
    pub fn metrics_handle(&self) -> Arc<semtree_cluster::ClusterMetrics> {
        self.local.metrics_handle()
    }

    /// Reset interconnect metrics between experiment phases.
    pub fn reset_metrics(&self) {
        self.transport.reset_metrics();
    }

    /// Walk the partition tree and gather per-partition statistics.
    ///
    /// # Errors
    /// Fails when any partition in the walk is unreachable.
    pub fn try_global_stats(&self) -> Result<GlobalStats, ClusterError> {
        let mut out = GlobalStats::default();
        let mut queue = std::collections::VecDeque::from([self.root]);
        let mut seen = std::collections::HashSet::new();
        while let Some(pid) = queue.pop_front() {
            if !seen.insert(pid) {
                continue;
            }
            match self.transport.send(pid, Req::Stats).wait()? {
                Resp::Stats(stats) => {
                    queue.extend(stats.remote_children_ids());
                    out.partitions.push((pid.0, stats));
                }
                other => return Err(unexpected("stats", other)),
            }
        }
        Ok(out)
    }

    /// Check every partition's structural invariants plus cross-partition
    /// point conservation; returns human-readable violations
    /// (empty = healthy). Intended for tests and post-migration audits.
    #[must_use]
    pub fn verify(&self) -> Vec<String> {
        let mut violations = Vec::new();
        let stats = match self.try_global_stats() {
            Ok(stats) => stats,
            Err(e) => return vec![format!("partition walk failed: {e}")],
        };
        for &(pid, _) in &stats.partitions {
            match self.transport.send(ComputeNodeId(pid), Req::Verify).wait() {
                Ok(Resp::Violations(v)) => {
                    violations.extend(v.into_iter().map(|m| format!("partition {pid}: {m}")))
                }
                Ok(other) => {
                    violations.push(format!("partition {pid}: bad verify reply {other:?}"))
                }
                Err(e) => violations.push(format!("partition {pid}: unreachable: {e}")),
            }
        }
        let total = stats.total_points();
        if total != self.len() {
            violations.push(format!(
                "{} points inserted but {total} reachable across partitions",
                self.len()
            ));
        }
        violations
    }

    /// Stop every partition's compute node.
    pub fn shutdown(self) {
        self.transport.shutdown();
    }
}

/// Make `local` host partitions on request: `shared` takes the fabric's
/// metrics, and every member spawned here is a fresh partition actor
/// sharing `shared`.
pub(crate) fn host_partitions(local: &ChannelFabric<Req, Resp>, shared: &Arc<SharedConfig>) {
    shared.set_metrics(local.metrics_handle());
    let shared = Arc::clone(shared);
    local.set_node_factory(Box::new(move || {
        Box::new(PartitionActor::fresh(Arc::clone(&shared)))
    }));
}

/// Recursive fan-out construction: a routing tree over `target_leaves`
/// regions; each region leaf becomes a freshly spawned data partition,
/// placed by the transport (a remote process under `semtree-net`).
/// `at` is the global depth and the parent edge of the node to build.
fn build_fanout(
    transport: &dyn Transport<Req, Resp>,
    shared: &Arc<SharedConfig>,
    store: &mut PartitionStore,
    sample: &mut [&[f64]],
    target_leaves: usize,
    (depth, parent): (u32, Option<(u32, bool)>),
) -> Result<Child, ClusterError> {
    if target_leaves <= 1 {
        assert!(shared.try_reserve_partition(), "partition budget exhausted");
        let pid = match transport.spawn_member() {
            Ok(pid) => pid,
            Err(e) => {
                shared.release_partition();
                return Err(e);
            }
        };
        let adopt = Req::AdoptLeaf {
            bucket: Vec::new(),
            depth,
        };
        match transport.send(pid, adopt).wait()? {
            Resp::Done => {}
            other => return Err(unexpected("an AdoptLeaf acknowledgement", other)),
        }
        return Ok(Child::Remote {
            partition: pid.0,
            node: 0,
        });
    }
    let dim = depth as usize % shared.kd.dims();
    sample.sort_by(|a, b| a[dim].total_cmp(&b[dim]));
    let split_val = sample[sample.len() / 2][dim];
    // Left region gets the larger half of the leaf budget.
    let left_target = target_leaves.div_ceil(2);
    let right_target = target_leaves - left_target;
    // Split the sample at the value boundary so both sides stay non-empty
    // where possible.
    let boundary = sample.partition_point(|p| p[dim] <= split_val);
    let boundary = boundary.clamp(1, sample.len().saturating_sub(1).max(1));
    // Parents are pushed before their children (so the root is node 0)
    // and patched once each side exists; node 0 is no one's child, which
    // makes it the placeholder.
    let arena_full = || ClusterError::Remote("fan-out exhausted the node arena".into());
    let unset = [Child::Local(0); 2];
    let node = store
        .push_routing(depth, parent, dim, split_val, unset)
        .ok_or_else(arena_full)?;
    let (left_sample, right_sample) = sample.split_at_mut(boundary);
    let sides = [(left_sample, left_target), (right_sample, right_target)];
    for (is_left, (sample, target)) in [true, false].into_iter().zip(sides) {
        let at = (depth + 1, Some((node.0, is_left)));
        let child = build_fanout(transport, shared, store, sample, target, at)?;
        if !store.set_child(node, is_left, child) {
            return Err(arena_full());
        }
    }
    Ok(Child::Local(node.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use semtree_par::metric::euclidean;

    fn grid(n: usize) -> Vec<(Vec<f64>, u64)> {
        (0..n)
            .map(|i| (vec![(i % 17) as f64, (i / 17) as f64], i as u64))
            .collect()
    }

    fn brute_knn(points: &[(Vec<f64>, u64)], q: &[f64], k: usize) -> Vec<(f64, u64)> {
        let mut all: Vec<(f64, u64)> = points.iter().map(|(c, p)| (euclidean(c, q), *p)).collect();
        all.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        all.truncate(k);
        all
    }

    /// `m`-partition tree with room for 16 (no capacity policy, so none
    /// beyond `m` is ever built) and leaf buckets of `bucket`.
    fn fanout(dims: usize, bucket: usize, m: usize, sample: &[Vec<f64>]) -> DistSemTree {
        let config = DistConfig::new(dims)
            .with_bucket_size(bucket)
            .with_max_partitions(16);
        DistSemTree::with_fanout(config, CostModel::zero(), m, sample)
    }

    fn ins(tree: &DistSemTree, point: &[f64], payload: u64) {
        tree.query(Query::insert(point, payload))
            .and_then(QueryOutcome::inserted)
            .expect("insert failed");
    }

    fn knn_q(tree: &DistSemTree, point: &[f64], k: usize) -> Vec<Neighbor<u64>> {
        tree.query(Query::knn(point, k))
            .and_then(QueryOutcome::neighbors)
            .expect("knn failed")
    }

    fn range_q(tree: &DistSemTree, point: &[f64], radius: f64) -> Vec<Neighbor<u64>> {
        tree.query(Query::range(point, radius))
            .and_then(QueryOutcome::neighbors)
            .expect("range failed")
    }

    #[test]
    fn single_partition_knn_and_range_match_brute_force() {
        let points = grid(300);
        let tree = DistSemTree::single(DistConfig::new(2).with_bucket_size(8), CostModel::zero());
        for (c, p) in &points {
            ins(&tree, c, *p);
        }
        assert_eq!(tree.len(), 300);
        assert_eq!(tree.partition_count(), 1);

        let q = [4.3, 7.8];
        let got = knn_q(&tree, &q, 5);
        let want = brute_knn(&points, &q, 5);
        for (g, w) in got.iter().zip(&want) {
            assert!((g.dist - w.0).abs() < 1e-9);
        }

        let got = range_q(&tree, &q, 3.0);
        let want = points
            .iter()
            .filter(|(c, _)| euclidean(c, &q) <= 3.0)
            .count();
        assert_eq!(got.len(), want);
        tree.shutdown();
    }

    #[test]
    fn fanout_trees_match_brute_force_for_all_paper_partition_counts() {
        let points = grid(400);
        let sample: Vec<Vec<f64>> = points.iter().map(|(c, _)| c.clone()).take(100).collect();
        for m in [1usize, 3, 5, 9] {
            let tree = fanout(2, 8, m, &sample);
            for (c, p) in &points {
                ins(&tree, c, *p);
            }
            assert_eq!(tree.partition_count(), m, "partition count for M={m}");

            let q = [8.0, 11.0];
            let got = knn_q(&tree, &q, 7);
            let want = brute_knn(&points, &q, 7);
            assert_eq!(got.len(), 7, "M={m}");
            for (g, w) in got.iter().zip(&want) {
                assert!((g.dist - w.0).abs() < 1e-9, "M={m}: {} vs {}", g.dist, w.0);
            }

            let got_range = range_q(&tree, &q, 4.0);
            let want_range = points
                .iter()
                .filter(|(c, _)| euclidean(c, &q) <= 4.0)
                .count();
            assert_eq!(got_range.len(), want_range, "M={m}");
            tree.shutdown();
        }
    }

    #[test]
    fn knn_batch_matches_per_query_knn_on_single_and_partitioned_trees() {
        let points = grid(400);
        let queries: Vec<Vec<f64>> = (0..25)
            .map(|i| vec![f64::from(i), f64::from(i % 9)])
            .collect();
        let sample: Vec<Vec<f64>> = points.iter().map(|(c, _)| c.clone()).take(100).collect();
        for m in [1usize, 5] {
            let tree = fanout(2, 8, m, &sample);
            for (c, p) in &points {
                ins(&tree, c, *p);
            }
            // One read per query on this machine's cores, each crossing
            // in place: a batch sends no message.
            let before = tree.metrics().messages;
            let batches = tree
                .query(Query::knn_batch(&queries, 6))
                .and_then(QueryOutcome::neighbor_batches)
                .expect("batch succeeds");
            assert_eq!(tree.metrics().messages, before, "M={m}");
            assert_eq!(batches.len(), queries.len());
            for (q, batch) in queries.iter().zip(&batches) {
                let single = knn_q(&tree, q, 6);
                assert_eq!(batch.len(), single.len(), "M={m}");
                for (b, s) in batch.iter().zip(&single) {
                    assert_eq!(b.dist.to_bits(), s.dist.to_bits(), "M={m}");
                    assert_eq!(b.payload, s.payload, "M={m}");
                }
            }
            // Empty batch round-trips cleanly.
            assert!(tree
                .query(Query::knn_batch(&[], 3))
                .and_then(QueryOutcome::neighbor_batches)
                .expect("empty batch")
                .is_empty());
            tree.shutdown();
        }
    }

    /// Every malformed query, for a `dims`-dimensional tree.
    fn hostile_queries() -> Vec<Query> {
        vec![
            Query::insert(&[1.0, 2.0, 3.0], 0),
            Query::insert(&[f64::NAN, 2.0], 0),
            Query::knn(&[1.0, 2.0, 3.0], 3),
            Query::knn(&[1.0, f64::NEG_INFINITY], 3),
            Query::knn_batch(&[vec![1.0, 2.0], vec![1.0]], 3),
            Query::range(&[], 1.0),
            Query::range(&[1.0, 2.0], -1.0),
            Query::range(&[1.0, 2.0], f64::NAN),
            Query::range(&[1.0, 2.0], f64::INFINITY),
        ]
    }

    #[test]
    fn hostile_queries_are_rejected_before_any_partition_and_the_tree_survives() {
        let sample: Vec<Vec<f64>> = (0..32).map(|i| vec![f64::from(i), 0.0]).collect();
        for m in [1usize, 3] {
            let tree = fanout(2, 4, m, &sample);
            for i in 0..20u64 {
                ins(&tree, &[(i % 32) as f64, (i / 32) as f64], i);
            }
            for (i, bad) in hostile_queries().into_iter().enumerate() {
                // Blocking and pipelined entry points reject identically,
                // and the pipelined one completes inline.
                let blocking = tree.query(bad.clone());
                assert!(
                    matches!(blocking, Err(ClusterError::InvalidRequest(_))),
                    "M={m}: {bad:?} → {blocking:?}"
                );
                let (tx, rx) = std::sync::mpsc::channel();
                tree.submit_query(
                    bad.clone(),
                    Box::new(move |outcome| tx.send(outcome).expect("receiver alive")),
                );
                assert_eq!(rx.try_recv().expect("completed inline"), blocking);

                // Nothing reached an actor: the same tree keeps taking
                // writes and reads, and stays structurally sound.
                let probe = [(i % 32) as f64, 50.0];
                ins(&tree, &probe, 100 + i as u64);
                assert_eq!(knn_q(&tree, &probe, 1)[0].payload, 100 + i as u64);
                assert_eq!(tree.verify(), Vec::<String>::new(), "M={m}: {bad:?}");
            }
            tree.shutdown();
        }
    }

    #[test]
    fn fanout_root_is_routing_only_and_counts_match_formula() {
        let sample: Vec<Vec<f64>> = (0..64).map(|i| vec![f64::from(i), 0.0]).collect();
        for m in [3usize, 5, 9] {
            let tree = fanout(2, 8, m, &sample);
            for i in 0..200u64 {
                ins(&tree, &[(i % 64) as f64, (i / 64) as f64], i);
            }
            let stats = tree.try_global_stats().expect("stats");
            assert_eq!(stats.partition_count(), m);
            // Root partition stores nothing: pure routing.
            assert_eq!(stats.partitions[0].1.points, 0, "M={m}");
            assert!(stats.routing_only() >= 1);
            // A binary routing tree over M−1 remote leaves has M−2 routing
            // nodes hosted in the root partition.
            assert_eq!(stats.root_routing_nodes(), m - 2, "M={m}");
            assert_eq!(stats.total_points(), 200);
            tree.shutdown();
        }
    }

    /// The paper's insert (§III-B.1): it enters at the root partition's
    /// root, whose actor relays it over the fabric to the partition that
    /// stores it. It bypasses the facade's insert counter.
    fn relay(tree: &DistSemTree, point: &[f64], payload: u64) {
        let req = Req::Insert {
            node: LocalNodeId(0),
            point: point.to_vec(),
            payload,
        };
        assert_eq!(tree.transport.send(tree.root, req).wait(), Ok(Resp::Done));
    }

    #[test]
    fn messages_grow_with_partition_count() {
        // Routed in place, an insert is one round trip to the partition
        // that stores it at every M. The relay pays one more per insert
        // once the root partition only routes: the paper's curve.
        let sample: Vec<Vec<f64>> = (0..64).map(|i| vec![f64::from(i)]).collect();
        let mut relayed = Vec::new();
        for m in [1usize, 3, 5] {
            let tree = fanout(1, 8, m, &sample);
            tree.reset_metrics();
            for i in 0..100u64 {
                ins(&tree, &[(i % 64) as f64], i);
            }
            assert_eq!(tree.metrics().messages, 200, "M={m}: routed");
            tree.reset_metrics();
            for i in 0..100u64 {
                relay(&tree, &[(i % 64) as f64], i);
            }
            relayed.push(tree.metrics().messages);
            tree.shutdown();
        }
        assert_eq!(relayed, [200, 400, 400], "relayed");
    }

    /// One partition capped at 40 points, holding none yet.
    fn capped_at_40() -> DistSemTree {
        DistSemTree::single(
            DistConfig::new(1)
                .with_bucket_size(16)
                .with_capacity(CapacityPolicy::MaxPoints(40))
                .with_max_partitions(64),
            CostModel::zero(),
        )
    }

    /// 300 points on a line: they overflow [`capped_at_40`] several times.
    fn line() -> Vec<(Vec<f64>, u64)> {
        (0..300u32)
            .map(|i| (vec![f64::from(i)], u64::from(i)))
            .collect()
    }

    /// [`line`] inserted into [`capped_at_40`]: the insert stream forces
    /// build-partition several times over.
    fn overflowed_tree() -> (DistSemTree, Vec<(Vec<f64>, u64)>) {
        let (tree, points) = (capped_at_40(), line());
        for (c, p) in &points {
            ins(&tree, c, *p);
        }
        (tree, points)
    }

    #[test]
    fn routed_inserts_build_the_trees_the_relay_builds() {
        // Routing in place changes which mailbox an insert enters, not
        // where it lands: filled both ways, every partition reports the
        // same stats and every read the same bytes.
        fn twins(build: &dyn Fn() -> DistSemTree, points: &[(Vec<f64>, u64)]) {
            let (routed, relayed) = (build(), build());
            for (c, p) in points {
                ins(&routed, c, *p);
                relay(&relayed, c, *p);
            }
            let stats = routed.try_global_stats().expect("stats");
            assert_eq!(stats, relayed.try_global_stats().expect("stats"));
            assert_eq!(stats.total_points(), points.len());
            let bytes = |hits: Vec<Neighbor<u64>>| -> Vec<(u64, u64)> {
                hits.iter().map(|n| (n.dist.to_bits(), n.payload)).collect()
            };
            for (c, _) in points.iter().step_by(7) {
                let q: Vec<f64> = c.iter().map(|x| x + 0.3).collect();
                for k in [1, 6, 45] {
                    let (a, b) = (knn_q(&routed, &q, k), knn_q(&relayed, &q, k));
                    assert_eq!(bytes(a), bytes(b), "{k}-nn at {q:?}");
                }
                let (a, b) = (range_q(&routed, &q, 3.5), range_q(&relayed, &q, 3.5));
                assert_eq!(bytes(a), bytes(b), "range at {q:?}");
            }
            routed.shutdown();
            relayed.shutdown();
        }
        let points = grid(400);
        let sample: Vec<Vec<f64>> = points.iter().map(|(c, _)| c.clone()).take(100).collect();
        for m in [3usize, 5, 9] {
            twins(&|| fanout(2, 8, m, &sample), &points);
        }
        twins(&capped_at_40, &line());
    }

    #[test]
    fn the_root_partition_is_readable_as_soon_as_it_is_built() {
        // The first read takes no mailbox, and the first insert goes
        // straight to the partition that stores it. A k-NN addressed to
        // the root's actor costs that round trip only: short of `k`
        // hits, it enters every data partition, in place.
        let sample: Vec<Vec<f64>> = (0..64).map(|i| vec![f64::from(i)]).collect();
        for m in [1usize, 3] {
            let tree = fanout(1, 8, m, &sample);
            let before = tree.metrics().messages;
            assert!(knn_q(&tree, &[3.0], 2).is_empty());
            assert_eq!(tree.metrics().messages, before, "M={m}: first read");
            ins(&tree, &[3.0], 3);
            assert_eq!(tree.metrics().messages, before + 2, "M={m}: first insert");
            let knn = Req::Knn {
                node: LocalNodeId(0),
                point: vec![40.0],
                k: 2,
                worst: None,
            };
            let hits = tree.transport.send(tree.root, knn).wait();
            assert_eq!(hits, Ok(Resp::Candidates(vec![(37.0, 3)])), "M={m}");
            assert_eq!(tree.metrics().messages, before + 4, "M={m}: root actor");
            tree.shutdown();
        }
    }

    #[test]
    fn capacity_policy_triggers_build_partition() {
        let (tree, points) = overflowed_tree();
        assert!(
            tree.partition_count() > 1,
            "over-capacity partition must have spawned others"
        );
        let stats = tree.try_global_stats().expect("stats");
        assert_eq!(stats.total_points(), 300);
        for (_, p) in &stats.partitions {
            assert!(p.points <= 40, "partition holds {} > capacity", p.points);
        }
        // Searches stay exact after build-partition.
        let q = [150.2];
        let got = knn_q(&tree, &q, 5);
        let want = brute_knn(&points, &q, 5);
        for (g, w) in got.iter().zip(&want) {
            assert!((g.dist - w.0).abs() < 1e-9);
        }
        tree.shutdown();
    }

    #[test]
    fn reads_far_from_every_border_stay_lock_free_after_build_partition() {
        let (tree, points) = overflowed_tree();
        let stats = tree.try_global_stats().expect("stats");
        let root = &stats.partitions[0].1;
        assert!(root.edge_nodes > 0 && root.points > 0, "root: {root:?}");
        // One query beside every stored point (off-grid, so no distance
        // ties), small and wide. Far from every border or across several
        // of them, the walk runs on this thread and sends no message:
        // this process hosts every partition.
        let before = tree.metrics();
        for (c, _) in &points {
            let q = [c[0] + 0.25];
            for k in [3, 90] {
                let pairs: Vec<(f64, u64)> = knn_q(&tree, &q, k)
                    .iter()
                    .map(|n| (n.dist, n.payload))
                    .collect();
                assert_eq!(pairs, brute_knn(&points, &q, k), "{k}-nn at {q:?}");
            }
            assert_eq!(range_q(&tree, &q, 0.5).len(), 1, "range at {q:?}");
            let wide = points.iter().filter(|(p, _)| (p[0] - q[0]).abs() <= 60.0);
            assert_eq!(
                range_q(&tree, &q, 60.0).len(),
                wide.count(),
                "range at {q:?}"
            );
        }
        let after = tree.metrics();
        assert_eq!(after.messages, before.messages, "no read took a mailbox");
        assert!(after.reads_crossed > 0, "borders are crossed in place");
        assert_eq!(after.reads_retried, 0, "and nothing was writing");
        tree.shutdown();
    }

    #[test]
    fn reads_into_a_dead_partition_fail_with_its_typed_error() {
        use std::sync::atomic::AtomicBool;
        // The capacity condition is evaluated by whichever actor stored
        // the point, so arming it kills exactly that partition: its
        // thread panics with the point already in its tree.
        let armed = Arc::new(AtomicBool::new(false));
        let trip = Arc::clone(&armed);
        let fault = CapacityPolicy::Dynamic(Arc::new(move |_| {
            assert!(!trip.load(Ordering::SeqCst), "injected fault");
            false
        }));
        let config = DistConfig::new(1)
            .with_bucket_size(8)
            .with_max_partitions(16)
            .with_capacity(fault);
        let sample: Vec<Vec<f64>> = (0..64).map(|i| vec![f64::from(i)]).collect();
        let tree = DistSemTree::with_fanout(config, CostModel::zero(), 3, &sample);
        for i in 0..64u32 {
            ins(&tree, &[f64::from(i)], u64::from(i));
        }
        assert_eq!(knn_q(&tree, &[62.8], 1)[0].payload, 63);
        // The insert is routed straight to the partition that stores it,
        // so its caller sees that partition die, not the root's report.
        armed.store(true, Ordering::SeqCst);
        let died = tree.query(Query::insert(&[63.0], 99));
        armed.store(false, Ordering::SeqCst);
        assert!(died.is_err(), "{died:?}");

        let (dead, _) = tree.route(&[63.0]);
        let typed = |outcome: &Result<QueryOutcome, ClusterError>| match outcome {
            Err(ClusterError::NodeDied(id) | ClusterError::UnknownNode(id)) => *id == dead,
            _ => false,
        };

        // The dead partition's tree is withdrawn as its actor unwinds
        // (just after the failed insert was answered). From then on a
        // read that must enter it sends it the sub-walk, and fails with
        // the transport's error for that node — it is not answered from
        // the frozen tree, which holds payload 99.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        let knn = loop {
            let outcome = tree.query(Query::knn(&[62.8], 1));
            if outcome.is_err() || std::time::Instant::now() > deadline {
                break outcome;
            }
            std::thread::yield_now();
        };
        assert!(typed(&knn), "{knn:?}");
        let range = tree.query(Query::range(&[62.8], 1.0));
        assert!(typed(&range), "{range:?}");
        // The pipelined entry point fails identically.
        for (read, blocking) in [
            (Query::knn(&[62.8], 1), knn),
            (Query::range(&[62.8], 1.0), range),
        ] {
            let (tx, rx) = std::sync::mpsc::channel();
            tree.submit_query(
                read,
                Box::new(move |outcome| tx.send(outcome).expect("receiver alive")),
            );
            assert_eq!(rx.try_recv().expect("completed before returning"), blocking);
        }
        // A read that stays inside the live partitions is still answered,
        // in place.
        let before = tree.metrics().messages;
        assert_eq!(knn_q(&tree, &[3.2], 1)[0].payload, 3);
        assert_eq!(tree.metrics().messages, before);
        tree.shutdown();
    }

    #[test]
    fn widest_spread_rule_reaches_the_partition_tree() {
        // Two x values, 200 y values: cycling wastes every even level on
        // x, the widest-spread rule never does.
        let points: Vec<(Vec<f64>, u64)> = (0..200u32)
            .map(|i| {
                (
                    vec![f64::from(i % 2), f64::from(i * 37 % 200)],
                    u64::from(i),
                )
            })
            .collect();
        let shape = |rule| {
            let tree = DistSemTree::single(
                DistConfig::new(2).with_bucket_size(4).with_split_rule(rule),
                CostModel::zero(),
            );
            // The reference: one tree grown by the same inserts, alone.
            let config = KdConfig::new(2).with_bucket_size(4).with_split_rule(rule);
            let mut alone: semtree_kdtree::VersionedKdTree =
                semtree_kdtree::VersionedKdTree::new(config);
            for (c, p) in &points {
                ins(&tree, c, *p);
                alone.insert(c, *p);
            }
            let stats = tree
                .try_global_stats()
                .expect("stats")
                .partitions
                .remove(0)
                .1;
            let reference = semtree_kdtree::TreeShape::of(&alone);
            assert_eq!(
                (stats.leaves, stats.routing),
                (reference.leaves, reference.routing),
                "{rule:?}"
            );
            for q in [[0.2, 17.5], [0.9, 120.3], [0.5, 199.0]] {
                let got: Vec<(u64, u64)> = knn_q(&tree, &q, 6)
                    .iter()
                    .map(|n| (n.dist.to_bits(), n.payload))
                    .collect();
                // Brute force: the same distances, each payload at its own.
                let oracle: Vec<u64> = brute_knn(&points, &q, 6)
                    .iter()
                    .map(|(d, _)| d.to_bits())
                    .collect();
                let dists: Vec<u64> = got.iter().map(|&(d, _)| d).collect();
                assert_eq!(dists, oracle, "{rule:?} at {q:?}");
                for &(d, p) in &got {
                    let own = euclidean(&points[p as usize].0, &q);
                    assert_eq!(own.to_bits(), d, "{rule:?} at {q:?}: payload {p}");
                }
                let want: Vec<(u64, u64)> = alone
                    .knn(&q, 6)
                    .iter()
                    .map(|n| (n.dist.to_bits(), n.payload))
                    .collect();
                assert_eq!(got, want, "{rule:?} at {q:?}");
            }
            tree.shutdown();
            (stats.leaves, stats.routing)
        };
        assert_ne!(shape(SplitRule::WidestSpread), shape(SplitRule::Cycle));
    }

    #[test]
    fn dynamic_capacity_policy_works() {
        let tree = DistSemTree::single(
            DistConfig::new(1)
                .with_bucket_size(4)
                .with_capacity(CapacityPolicy::Dynamic(Arc::new(|points| points > 25)))
                .with_max_partitions(16),
            CostModel::zero(),
        );
        for i in 0..100u64 {
            ins(&tree, &[i as f64], i);
        }
        assert!(tree.partition_count() > 1);
        assert_eq!(tree.try_global_stats().expect("stats").total_points(), 100);
        tree.shutdown();
    }

    #[test]
    fn max_partitions_bounds_build_partition() {
        let tree = DistSemTree::single(
            DistConfig::new(1)
                .with_bucket_size(4)
                .with_capacity(CapacityPolicy::MaxPoints(10))
                .with_max_partitions(3),
            CostModel::zero(),
        );
        for i in 0..200u64 {
            ins(&tree, &[i as f64], i);
        }
        assert_eq!(tree.partition_count(), 3, "cap respected");
        assert_eq!(tree.try_global_stats().expect("stats").total_points(), 200);
        tree.shutdown();
    }

    #[test]
    fn empty_tree_queries() {
        let tree = DistSemTree::single(DistConfig::new(2), CostModel::zero());
        assert!(tree.is_empty());
        assert!(knn_q(&tree, &[0.0, 0.0], 3).is_empty());
        assert!(range_q(&tree, &[0.0, 0.0], 10.0).is_empty());
        tree.shutdown();
    }

    #[test]
    fn knn_k_larger_than_population() {
        let tree = DistSemTree::single(DistConfig::new(1).with_bucket_size(2), CostModel::zero());
        for i in 0..5u64 {
            ins(&tree, &[i as f64], i);
        }
        assert_eq!(knn_q(&tree, &[2.0], 50).len(), 5);
        tree.shutdown();
    }

    #[test]
    #[should_panic(expected = "non-empty sample")]
    fn fanout_without_sample_panics() {
        let _ = DistSemTree::with_fanout(DistConfig::new(1), CostModel::zero(), 3, &[]);
    }

    #[test]
    fn concurrent_clients_share_the_tree() {
        // The facade is Sync: many client threads can insert and query the
        // same distributed tree concurrently ("using M−1 data partitions,
        // we can perform … parallel operations maximizing our throughput").
        let sample: Vec<Vec<f64>> = (0..128).map(|i| vec![f64::from(i)]).collect();
        let tree = Arc::new(fanout(1, 8, 5, &sample));
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let tree = Arc::clone(&tree);
                std::thread::spawn(move || {
                    for i in 0..100u64 {
                        let v = (t * 100 + i) % 128;
                        ins(&tree, &[v as f64], t * 1000 + i);
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        assert_eq!(tree.len(), 400);
        assert_eq!(tree.try_global_stats().expect("stats").total_points(), 400);

        // Concurrent queries agree with a sequential pass.
        let expected = knn_q(&tree, &[64.2], 5);
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let tree = Arc::clone(&tree);
                std::thread::spawn(move || knn_q(&tree, &[64.2], 5))
            })
            .collect();
        for th in threads {
            let got = th.join().unwrap();
            for (g, e) in got.iter().zip(&expected) {
                assert!((g.dist - e.dist).abs() < 1e-12);
            }
        }
        Arc::try_unwrap(tree).ok().expect("sole owner").shutdown();
    }

    #[test]
    fn verify_reports_healthy_trees_clean() {
        let sample: Vec<Vec<f64>> = (0..64).map(|i| vec![f64::from(i)]).collect();
        for m in [1usize, 3, 5] {
            let tree = fanout(1, 8, m, &sample);
            for i in 0..150u64 {
                ins(&tree, &[(i % 64) as f64], i);
            }
            assert_eq!(tree.verify(), Vec::<String>::new(), "M={m}");
            tree.shutdown();
        }
    }

    #[test]
    fn verify_stays_clean_after_build_partition() {
        let tree = DistSemTree::single(
            DistConfig::new(1)
                .with_bucket_size(8)
                .with_capacity(CapacityPolicy::MaxPoints(25))
                .with_max_partitions(32),
            CostModel::zero(),
        );
        for i in 0..200u64 {
            ins(&tree, &[i as f64], i);
        }
        assert!(tree.partition_count() > 1);
        assert_eq!(tree.verify(), Vec::<String>::new());
        tree.shutdown();
    }

    #[test]
    fn capacity_policy_debug_formats() {
        assert_eq!(format!("{:?}", CapacityPolicy::Unlimited), "Unlimited");
        assert_eq!(
            format!("{:?}", CapacityPolicy::MaxPoints(5)),
            "MaxPoints(5)"
        );
        let d = CapacityPolicy::Dynamic(Arc::new(|_| false));
        assert_eq!(format!("{d:?}"), "Dynamic(..)");
    }
}
