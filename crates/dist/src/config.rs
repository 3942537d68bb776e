//! Configuration of a distributed tree and its process-wide accounting:
//! [`DistConfig`] with its per-partition resource condition, and the
//! `SharedConfig` every partition actor of one process shares — the
//! partition budget and the registry of partition trees that reads
//! enter lock-free.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

use semtree_cluster::{ClusterMetrics, ComputeNodeId};
use semtree_kdtree::versioned::Tree;
use semtree_kdtree::{KdConfig, SplitRule};

use crate::recovery::WalHandle;

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

    pub(crate) fn partition_count(&self) -> usize {
        self.partitions.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
