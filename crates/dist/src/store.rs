//! Partition-local tree fragment: nodes, buckets and remote links.

use semtree_cluster::{ClusterError, ComputeNodeId};
use semtree_kdtree::SplitRule;
use semtree_net::Encode;
use semtree_par::metric::euclidean;

use crate::deploy::{split_rule_from_tag, split_rule_tag};
use crate::proto::PartitionStats;

/// Identifier of a node inside one partition's arena; each partition's
/// sub-tree root is node 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LocalNodeId(pub u32);

impl LocalNodeId {
    /// The arena index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A child pointer: on this partition (`Cp = Childp`) or the root of a
/// sub-tree hosted by another partition (`Cp ≠ Childp` — a *direct link*
/// between partitions).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Child {
    Local(LocalNodeId),
    Remote {
        partition: ComputeNodeId,
        node: LocalNodeId,
    },
}

/// A leaf's stored points: `(coordinates, payload)` pairs.
pub(crate) type Bucket = Vec<(Box<[f64]>, u64)>;

/// One leaf split, in the exact form the WAL logs it: the leaf that
/// became a routing node, the chosen plane, and the arena ids handed to
/// the two children. Replay re-applies the event verbatim instead of
/// re-deriving the split, so a recovered arena is id-for-id identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SplitEvent {
    pub(crate) leaf: LocalNodeId,
    pub(crate) split_dim: usize,
    pub(crate) split_val: f64,
    pub(crate) left: LocalNodeId,
    pub(crate) right: LocalNodeId,
}

#[derive(Debug, Clone)]
pub(crate) enum PNodeKind {
    Routing {
        split_dim: usize,
        split_val: f64,
        left: Child,
        right: Child,
    },
    Leaf {
        bucket: Vec<(Box<[f64]>, u64)>,
    },
}

#[derive(Debug, Clone)]
pub(crate) struct PNode {
    pub(crate) kind: PNodeKind,
    /// *Global* depth (root partition's root = 0), so the split-dimension
    /// cycle stays aligned across partitions.
    pub(crate) depth: u32,
    parent: Option<(LocalNodeId, bool)>, // (parent, is_left_child)
}

/// Every remote operation a partition-local traversal may need; the actor
/// implements it with real messages, tests with mocks. Each operation can
/// fail — the far partition may be gone, or the network may drop the
/// connection — and the failure propagates back up the traversal.
pub(crate) trait RemoteOps {
    fn insert(
        &self,
        partition: ComputeNodeId,
        node: LocalNodeId,
        point: &[f64],
        payload: u64,
    ) -> Result<(), ClusterError>;
    fn knn(
        &self,
        partition: ComputeNodeId,
        node: LocalNodeId,
        point: &[f64],
        k: usize,
        worst: Option<f64>,
    ) -> Result<Vec<(f64, u64)>, ClusterError>;
    fn range(
        &self,
        partition: ComputeNodeId,
        node: LocalNodeId,
        point: &[f64],
        radius: f64,
    ) -> Result<Vec<(f64, u64)>, ClusterError>;
    /// Parallel variant for border nodes whose two children are both
    /// remote (§III-B.4: "the navigation is performed in a parallel way").
    fn range_parallel(
        &self,
        targets: [(ComputeNodeId, LocalNodeId); 2],
        point: &[f64],
        radius: f64,
    ) -> Result<[Vec<(f64, u64)>; 2], ClusterError>;
}

/// Result-set state for a k-nearest traversal: bounded max-heap plus the
/// caller's pruning hint (the paper's `D`, "the distance between the
/// interested point and the most distant one in the result-set").
pub(crate) struct KnnState {
    k: usize,
    hint: Option<f64>,
    /// (dist, payload), kept as a max-heap by distance.
    heap: std::collections::BinaryHeap<Candidate>,
}

struct Candidate {
    dist: f64,
    payload: u64,
}
impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.dist == other.dist
    }
}
impl Eq for Candidate {}
impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.dist
            .partial_cmp(&other.dist)
            .expect("distances are finite")
    }
}

impl KnnState {
    pub(crate) fn new(k: usize, hint: Option<f64>) -> Self {
        KnnState {
            k,
            hint,
            heap: std::collections::BinaryHeap::new(),
        }
    }

    /// Offer a candidate; ignored when it cannot improve the global result.
    pub(crate) fn offer(&mut self, dist: f64, payload: u64) {
        if self.hint.is_some_and(|h| dist >= h) {
            return;
        }
        if self.heap.len() < self.k {
            self.heap.push(Candidate { dist, payload });
        } else if let Some(top) = self.heap.peek() {
            if dist < top.dist {
                self.heap.pop();
                self.heap.push(Candidate { dist, payload });
            }
        }
    }

    /// Upper bound on a useful candidate distance, `None` when any point
    /// could still qualify (`|Rs| < K` with no hint).
    pub(crate) fn bound(&self) -> Option<f64> {
        let own = (self.heap.len() >= self.k)
            .then(|| self.heap.peek().map(|c| c.dist))
            .flatten();
        match (own, self.hint) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (Some(a), None) => Some(a),
            (None, h) => h,
        }
    }

    /// The paper's descend condition: result set not full, or the
    /// splitting hyperplane closer than the current worst.
    pub(crate) fn must_descend(&self, plane_dist: f64) -> bool {
        match self.bound() {
            None => true,
            Some(b) => plane_dist < b,
        }
    }

    /// Drain into ascending-distance candidates.
    pub(crate) fn into_candidates(self) -> Vec<(f64, u64)> {
        let mut v: Vec<(f64, u64)> = self.heap.into_iter().map(|c| (c.dist, c.payload)).collect();
        v.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("distances are finite"));
        v
    }
}

/// One partition's fragment of the global KD-tree.
#[derive(Debug, Clone)]
pub(crate) struct PartitionStore {
    dims: usize,
    bucket_size: usize,
    split_rule: SplitRule,
    pub(crate) nodes: Vec<PNode>,
    points: usize,
}

impl PartitionStore {
    /// A fresh partition: a single (possibly pre-filled) leaf at global
    /// depth `depth`, splitting under the given rule (the degenerate rule
    /// reproduces the paper's unbalanced series).
    pub(crate) fn new_leaf_with_rule(
        dims: usize,
        bucket_size: usize,
        split_rule: SplitRule,
        bucket: Bucket,
        depth: u32,
    ) -> Self {
        Self::new_leaf_logged(
            dims,
            bucket_size,
            split_rule,
            bucket,
            depth,
            &mut Vec::new(),
        )
    }

    /// [`new_leaf_with_rule`](PartitionStore::new_leaf_with_rule) that
    /// also reports the splits the adopted bucket triggered, so the
    /// actor can write them to the WAL.
    pub(crate) fn new_leaf_logged(
        dims: usize,
        bucket_size: usize,
        split_rule: SplitRule,
        bucket: Bucket,
        depth: u32,
        splits: &mut Vec<SplitEvent>,
    ) -> Self {
        let mut store = Self::raw_leaf(dims, bucket_size, split_rule, bucket, depth);
        // An adopted bucket may already exceed the bucket size.
        store.maybe_split(LocalNodeId(0), splits);
        store
    }

    /// A single-leaf store with **no** capacity check — the replay base:
    /// splits are applied from the log, never derived.
    pub(crate) fn raw_leaf(
        dims: usize,
        bucket_size: usize,
        split_rule: SplitRule,
        bucket: Bucket,
        depth: u32,
    ) -> Self {
        let points = bucket.len();
        PartitionStore {
            dims,
            bucket_size,
            split_rule,
            nodes: vec![PNode {
                kind: PNodeKind::Leaf { bucket },
                depth,
                parent: None,
            }],
            points,
        }
    }

    /// An arena with no nodes yet: the fan-out builder pushes the routing
    /// root as node 0 itself.
    pub(crate) fn empty_arena(dims: usize, bucket_size: usize) -> Self {
        PartitionStore {
            dims,
            bucket_size,
            split_rule: SplitRule::Cycle,
            nodes: Vec::new(),
            points: 0,
        }
    }

    /// Arena access used by the fan-out builder in `tree.rs`.
    pub(crate) fn push_node(&mut self, kind: PNodeKind, depth: u32) -> LocalNodeId {
        let id = LocalNodeId(self.nodes.len() as u32);
        self.nodes.push(PNode {
            kind,
            depth,
            parent: None,
        });
        id
    }

    pub(crate) fn set_parent(&mut self, child: LocalNodeId, parent: LocalNodeId, is_left: bool) {
        self.nodes[child.index()].parent = Some((parent, is_left));
    }

    /// Replace a routing node's child pointers (fan-out construction
    /// allocates parents before children and patches afterwards).
    pub(crate) fn patch_routing_children(&mut self, node: LocalNodeId, left: Child, right: Child) {
        match &mut self.nodes[node.index()].kind {
            PNodeKind::Routing {
                left: l, right: r, ..
            } => {
                *l = left;
                *r = right;
            }
            PNodeKind::Leaf { .. } => panic!("patch_routing_children on a leaf"),
        }
    }

    pub(crate) fn points(&self) -> usize {
        self.points
    }

    // ------------------------------------------------------------------
    // Insertion (§III-B.1)
    // ------------------------------------------------------------------

    /// Insert starting at `start`; returns `Ok(true)` when the point landed
    /// in this partition, `Ok(false)` when it was forwarded to another.
    /// Convenience for tests — production inserts go through
    /// [`insert_logged`](PartitionStore::insert_logged) so splits reach
    /// the WAL.
    #[cfg(test)]
    pub(crate) fn insert(
        &mut self,
        start: LocalNodeId,
        point: &[f64],
        payload: u64,
        remote: &dyn RemoteOps,
    ) -> Result<bool, ClusterError> {
        self.insert_logged(start, point, payload, remote, &mut Vec::new())
    }

    /// [`insert`](PartitionStore::insert) that also reports any splits
    /// it triggered, so the actor can write them to the WAL.
    pub(crate) fn insert_logged(
        &mut self,
        start: LocalNodeId,
        point: &[f64],
        payload: u64,
        remote: &dyn RemoteOps,
        splits: &mut Vec<SplitEvent>,
    ) -> Result<bool, ClusterError> {
        assert_eq!(point.len(), self.dims, "dimensionality mismatch");
        let node = match self.navigate(start, point) {
            Ok(leaf) => leaf,
            Err((partition, node)) => {
                remote.insert(partition, node, point, payload)?;
                return Ok(false);
            }
        };
        if let PNodeKind::Leaf { bucket } = &mut self.nodes[node.index()].kind {
            bucket.push((point.into(), payload));
        }
        self.points += 1;
        self.maybe_split(node, splits);
        Ok(true)
    }

    /// Walk from `start` to the leaf that owns `point`, or to the remote
    /// child the point must be forwarded to.
    fn navigate(
        &self,
        start: LocalNodeId,
        point: &[f64],
    ) -> Result<LocalNodeId, (ComputeNodeId, LocalNodeId)> {
        let mut node = start;
        loop {
            match &self.nodes[node.index()].kind {
                PNodeKind::Leaf { .. } => return Ok(node),
                PNodeKind::Routing {
                    split_dim,
                    split_val,
                    left,
                    right,
                } => {
                    let child = if point[*split_dim] <= *split_val {
                        *left
                    } else {
                        *right
                    };
                    match child {
                        Child::Local(next) => node = next,
                        Child::Remote { partition, node } => return Err((partition, node)),
                    }
                }
            }
        }
    }

    /// Re-apply a logged [`PointInsert`](semtree_wal::WalRecord): same
    /// navigation, same bucket push, but **no** split — splits replay
    /// from their own records. Returns `false` (a no-op) when navigation
    /// reaches a remote child: the live insert was forwarded and logged
    /// by the partition that actually stored it.
    pub(crate) fn replay_insert(
        &mut self,
        start: LocalNodeId,
        point: &[f64],
        payload: u64,
    ) -> bool {
        if point.len() != self.dims {
            return false;
        }
        let Ok(leaf) = self.navigate(start, point) else {
            return false;
        };
        if let PNodeKind::Leaf { bucket } = &mut self.nodes[leaf.index()].kind {
            bucket.push((point.into(), payload));
        }
        self.points += 1;
        true
    }

    /// Re-apply a logged [`SplitEvent`] verbatim. Fails when the log and
    /// the store disagree — a corrupt or out-of-order WAL.
    pub(crate) fn apply_split(&mut self, event: &SplitEvent) -> Result<(), String> {
        let leaf = event.leaf;
        if leaf.index() >= self.nodes.len() {
            return Err(format!("split of unknown node {}", leaf.0));
        }
        let depth = self.nodes[leaf.index()].depth;
        let PNodeKind::Leaf { bucket } = std::mem::replace(
            &mut self.nodes[leaf.index()].kind,
            PNodeKind::Leaf { bucket: Vec::new() },
        ) else {
            return Err(format!("split of routing node {}", leaf.0));
        };
        let (lb, rb): (Vec<_>, Vec<_>) = bucket
            .into_iter()
            .partition(|(c, _)| c[event.split_dim] <= event.split_val);
        let left = self.push_node(PNodeKind::Leaf { bucket: lb }, depth + 1);
        let right = self.push_node(PNodeKind::Leaf { bucket: rb }, depth + 1);
        if left != event.left || right != event.right {
            return Err(format!(
                "split of node {} allocated children {}/{}, log says {}/{}",
                leaf.0, left.0, right.0, event.left.0, event.right.0
            ));
        }
        self.set_parent(left, leaf, true);
        self.set_parent(right, leaf, false);
        self.nodes[leaf.index()].kind = PNodeKind::Routing {
            split_dim: event.split_dim,
            split_val: event.split_val,
            left: Child::Local(left),
            right: Child::Local(right),
        };
        Ok(())
    }

    /// Re-apply a logged leaf migration: drop the evicted leaf's bucket
    /// and point its parent at the partition that adopted it.
    pub(crate) fn apply_migration(
        &mut self,
        evicted: LocalNodeId,
        partition: ComputeNodeId,
        remote_node: LocalNodeId,
    ) -> Result<(), String> {
        if evicted.index() >= self.nodes.len() {
            return Err(format!("migration of unknown node {}", evicted.0));
        }
        let PNodeKind::Leaf { bucket } = std::mem::replace(
            &mut self.nodes[evicted.index()].kind,
            PNodeKind::Leaf { bucket: Vec::new() },
        ) else {
            return Err(format!("migration of routing node {}", evicted.0));
        };
        if self.nodes[evicted.index()].parent.is_none() {
            self.nodes[evicted.index()].kind = PNodeKind::Leaf { bucket };
            return Err("migration of the partition root".to_string());
        }
        self.points -= bucket.len();
        self.relink_to_partition(evicted, partition, remote_node);
        Ok(())
    }

    fn maybe_split(&mut self, leaf: LocalNodeId, splits: &mut Vec<SplitEvent>) {
        let depth = self.nodes[leaf.index()].depth;
        let over = match &self.nodes[leaf.index()].kind {
            PNodeKind::Leaf { bucket } => bucket.len() > self.bucket_size,
            PNodeKind::Routing { .. } => false,
        };
        if !over {
            return;
        }
        let PNodeKind::Leaf { bucket } = std::mem::replace(
            &mut self.nodes[leaf.index()].kind,
            PNodeKind::Leaf { bucket: Vec::new() },
        ) else {
            return;
        };
        let Some((split_dim, split_val)) = choose_split(&bucket, self.dims, depth, self.split_rule)
        else {
            self.nodes[leaf.index()].kind = PNodeKind::Leaf { bucket };
            return;
        };
        let (lb, rb): (Vec<_>, Vec<_>) = bucket
            .into_iter()
            .partition(|(c, _)| c[split_dim] <= split_val);
        let left = self.push_node(PNodeKind::Leaf { bucket: lb }, depth + 1);
        let right = self.push_node(PNodeKind::Leaf { bucket: rb }, depth + 1);
        self.set_parent(left, leaf, true);
        self.set_parent(right, leaf, false);
        self.nodes[leaf.index()].kind = PNodeKind::Routing {
            split_dim,
            split_val,
            left: Child::Local(left),
            right: Child::Local(right),
        };
        splits.push(SplitEvent {
            leaf,
            split_dim,
            split_val,
            left,
            right,
        });
        self.maybe_split(left, splits);
        self.maybe_split(right, splits);
    }

    // ------------------------------------------------------------------
    // k-nearest (§III-B.3)
    // ------------------------------------------------------------------

    pub(crate) fn knn(
        &self,
        start: LocalNodeId,
        point: &[f64],
        state: &mut KnnState,
        remote: &dyn RemoteOps,
    ) -> Result<(), ClusterError> {
        assert_eq!(point.len(), self.dims, "dimensionality mismatch");
        // Explicit stack: the far-side descend condition is evaluated only
        // after the near side finished (classic backtracking), and deep
        // chain partitions cannot overflow the call stack.
        enum Task {
            Visit(Child),
            CheckFar { far: Child, plane_dist: f64 },
        }
        let mut stack = vec![Task::Visit(Child::Local(start))];
        while let Some(task) = stack.pop() {
            let child = match task {
                Task::CheckFar { far, plane_dist } => {
                    if state.must_descend(plane_dist) {
                        far
                    } else {
                        continue;
                    }
                }
                Task::Visit(child) => child,
            };
            match child {
                Child::Remote { partition, node } => {
                    // Cross the border: ship the query and the current
                    // worst distance, merge the partial result set back.
                    let hits = remote.knn(partition, node, point, state.k, state.bound())?;
                    for (d, p) in hits {
                        state.offer(d, p);
                    }
                }
                Child::Local(id) => match &self.nodes[id.index()].kind {
                    PNodeKind::Leaf { bucket } => {
                        for (coords, payload) in bucket {
                            state.offer(euclidean(coords, point), *payload);
                        }
                    }
                    PNodeKind::Routing {
                        split_dim,
                        split_val,
                        left,
                        right,
                    } => {
                        let delta = point[*split_dim] - *split_val;
                        let (near, far) = if delta <= 0.0 {
                            (*left, *right)
                        } else {
                            (*right, *left)
                        };
                        stack.push(Task::CheckFar {
                            far,
                            plane_dist: delta.abs(),
                        });
                        stack.push(Task::Visit(near));
                    }
                },
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Range search (§III-B.4)
    // ------------------------------------------------------------------

    pub(crate) fn range(
        &self,
        start: LocalNodeId,
        point: &[f64],
        radius: f64,
        out: &mut Vec<(f64, u64)>,
        remote: &dyn RemoteOps,
    ) -> Result<(), ClusterError> {
        assert_eq!(point.len(), self.dims, "dimensionality mismatch");
        assert!(radius >= 0.0, "radius must be non-negative");
        let mut stack = vec![Child::Local(start)];
        while let Some(child) = stack.pop() {
            match child {
                Child::Remote { partition, node } => {
                    out.extend(remote.range(partition, node, point, radius)?);
                }
                Child::Local(id) => match &self.nodes[id.index()].kind {
                    PNodeKind::Leaf { bucket } => {
                        for (coords, payload) in bucket {
                            let d = euclidean(coords, point);
                            if d <= radius {
                                out.push((d, *payload));
                            }
                        }
                    }
                    PNodeKind::Routing {
                        split_dim,
                        split_val,
                        left,
                        right,
                    } => {
                        let delta = point[*split_dim] - *split_val;
                        if delta.abs() <= radius {
                            // Border case with both children remote: search
                            // the two partitions in parallel and merge.
                            if let (
                                Child::Remote {
                                    partition: lp,
                                    node: ln,
                                },
                                Child::Remote {
                                    partition: rp,
                                    node: rn,
                                },
                            ) = (*left, *right)
                            {
                                let [l, r] =
                                    remote.range_parallel([(lp, ln), (rp, rn)], point, radius)?;
                                out.extend(l);
                                out.extend(r);
                            } else {
                                stack.push(*left);
                                stack.push(*right);
                            }
                        } else if delta <= 0.0 {
                            stack.push(*left);
                        } else {
                            stack.push(*right);
                        }
                    }
                },
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Build partition (§III-B.2)
    // ------------------------------------------------------------------

    /// The largest leaf that is not the partition root (the "leaf node
    /// candidate `Lc`" of Figure 2), if any.
    /// Whether any routing node links to a remote partition. A partition
    /// with no remote links can answer whole traversals without touching
    /// the message fabric — which is what lets a batched k-NN fan out
    /// over worker threads.
    pub(crate) fn has_remote_children(&self) -> bool {
        self.nodes.iter().any(|n| match &n.kind {
            PNodeKind::Routing { left, right, .. } => {
                matches!(left, Child::Remote { .. }) || matches!(right, Child::Remote { .. })
            }
            PNodeKind::Leaf { .. } => false,
        })
    }

    pub(crate) fn eviction_candidate(&self) -> Option<LocalNodeId> {
        self.reachable_nodes()
            .into_iter()
            .filter(|id| id.index() != 0)
            .filter_map(|id| match &self.nodes[id.index()].kind {
                PNodeKind::Leaf { bucket } if !bucket.is_empty() => Some((id, bucket.len())),
                _ => None,
            })
            .max_by_key(|&(id, len)| (len, std::cmp::Reverse(id.0)))
            .map(|(id, _)| id)
    }

    /// Detach a leaf's bucket for transfer; the node keeps its place in the
    /// arena (unreachable once relinked).
    pub(crate) fn detach_leaf(&mut self, id: LocalNodeId) -> (Bucket, u32) {
        let depth = self.nodes[id.index()].depth;
        let PNodeKind::Leaf { bucket } = std::mem::replace(
            &mut self.nodes[id.index()].kind,
            PNodeKind::Leaf { bucket: Vec::new() },
        ) else {
            panic!("detach_leaf called on a routing node");
        };
        self.points -= bucket.len();
        (bucket, depth)
    }

    /// Undo a [`detach_leaf`](PartitionStore::detach_leaf): put the bucket
    /// back when the transfer to the new partition failed, so no points
    /// are lost.
    pub(crate) fn restore_leaf(&mut self, id: LocalNodeId, bucket: Bucket) {
        self.points += bucket.len();
        self.nodes[id.index()].kind = PNodeKind::Leaf { bucket };
    }

    /// Point the evicted leaf's parent at the new partition ("a link
    /// between the two partitions is then created").
    pub(crate) fn relink_to_partition(
        &mut self,
        evicted: LocalNodeId,
        partition: ComputeNodeId,
        remote_node: LocalNodeId,
    ) {
        let Some((parent, is_left)) = self.nodes[evicted.index()].parent else {
            panic!("partition root cannot be relinked");
        };
        if let PNodeKind::Routing { left, right, .. } = &mut self.nodes[parent.index()].kind {
            let slot = if is_left { left } else { right };
            *slot = Child::Remote {
                partition,
                node: remote_node,
            };
        } else {
            unreachable!("parent of a leaf is a routing node");
        }
    }

    // ------------------------------------------------------------------
    // Statistics
    // ------------------------------------------------------------------

    fn reachable_nodes(&self) -> Vec<LocalNodeId> {
        let mut out = Vec::new();
        if self.nodes.is_empty() {
            return out;
        }
        let mut stack = vec![LocalNodeId(0)];
        while let Some(id) = stack.pop() {
            out.push(id);
            if let PNodeKind::Routing { left, right, .. } = &self.nodes[id.index()].kind {
                for child in [left, right] {
                    if let Child::Local(next) = child {
                        stack.push(*next);
                    }
                }
            }
        }
        out
    }

    /// Every point stored in this partition's reachable local leaves.
    pub(crate) fn export_points(&self) -> Vec<(Vec<f64>, u64)> {
        let mut out = Vec::with_capacity(self.points);
        for id in self.reachable_nodes() {
            if let PNodeKind::Leaf { bucket } = &self.nodes[id.index()].kind {
                out.extend(bucket.iter().map(|(c, p)| (c.to_vec(), *p)));
            }
        }
        out
    }

    /// Check this partition's structural invariants; returns a list of
    /// human-readable violations (empty = healthy). Used by
    /// `DistSemTree::verify` and the test-suite.
    pub(crate) fn verify(&self) -> Vec<String> {
        let mut violations = Vec::new();
        if self.nodes.is_empty() {
            violations.push("partition has no root node".to_string());
            return violations;
        }
        let reachable = self.reachable_nodes();
        let mut counted_points = 0usize;
        for &id in &reachable {
            match &self.nodes[id.index()].kind {
                PNodeKind::Leaf { bucket } => {
                    counted_points += bucket.len();
                    for (coords, _) in bucket {
                        if coords.len() != self.dims {
                            violations.push(format!(
                                "leaf {id:?} holds a {}-dim point in a {}-dim tree",
                                coords.len(),
                                self.dims
                            ));
                        }
                    }
                }
                PNodeKind::Routing {
                    left,
                    right,
                    split_dim,
                    split_val,
                } => {
                    if *split_dim >= self.dims {
                        violations.push(format!(
                            "routing {id:?} splits on dimension {split_dim} >= {}",
                            self.dims
                        ));
                    }
                    if !split_val.is_finite() {
                        violations.push(format!("routing {id:?} has non-finite Sv"));
                    }
                    for (child, is_left) in [(left, true), (right, false)] {
                        if let Child::Local(c) = child {
                            let node = &self.nodes[c.index()];
                            if node.depth != self.nodes[id.index()].depth + 1 {
                                violations.push(format!(
                                    "child {c:?} depth {} != parent {id:?} depth {} + 1",
                                    node.depth,
                                    self.nodes[id.index()].depth
                                ));
                            }
                            if node.parent != Some((id, is_left)) {
                                violations.push(format!(
                                    "child {c:?} parent backlink {:?} != ({id:?}, {is_left})",
                                    node.parent
                                ));
                            }
                        }
                    }
                }
            }
        }
        if counted_points != self.points {
            violations.push(format!(
                "point counter {} != {} points reachable in leaves",
                self.points, counted_points
            ));
        }
        violations
    }

    pub(crate) fn stats(&self) -> PartitionStats {
        let mut s = PartitionStats::default();
        for id in self.reachable_nodes() {
            match &self.nodes[id.index()].kind {
                PNodeKind::Leaf { bucket } => {
                    s.leaves += 1;
                    s.points += bucket.len();
                }
                PNodeKind::Routing { left, right, .. } => {
                    s.routing += 1;
                    let mut edge = false;
                    for child in [left, right] {
                        if let Child::Remote { partition, .. } = child {
                            edge = true;
                            s.remote_children.push(partition.0);
                        }
                    }
                    if edge {
                        s.edge_nodes += 1;
                    }
                }
            }
        }
        s.remote_children.sort_unstable();
        s
    }

    // ------------------------------------------------------------------
    // Snapshot images (semtree-wal)
    // ------------------------------------------------------------------

    /// Serialize the whole store — arena order, parents, remote links,
    /// point counter — into the codec-friendly [`StoreImage`] the WAL
    /// stores as a per-partition snapshot blob.
    pub(crate) fn to_image(&self) -> StoreImage {
        StoreImage {
            dims: self.dims,
            bucket_size: self.bucket_size,
            split_rule: split_rule_tag(self.split_rule),
            points: self.points,
            nodes: self
                .nodes
                .iter()
                .map(|node| NodeImage {
                    depth: node.depth,
                    parent: node.parent.map(|(p, is_left)| (p.0, is_left)),
                    kind: match &node.kind {
                        PNodeKind::Leaf { bucket } => NodeKindImage::Leaf {
                            bucket: bucket.iter().map(|(c, p)| (c.to_vec(), *p)).collect(),
                        },
                        PNodeKind::Routing {
                            split_dim,
                            split_val,
                            left,
                            right,
                        } => NodeKindImage::Routing {
                            split_dim: *split_dim,
                            split_val: *split_val,
                            left: ChildImage::from_child(*left),
                            right: ChildImage::from_child(*right),
                        },
                    },
                })
                .collect(),
        }
    }

    /// Rebuild a store from a snapshot image — the exact inverse of
    /// [`to_image`](PartitionStore::to_image).
    pub(crate) fn from_image(image: &StoreImage) -> Result<Self, String> {
        let split_rule =
            split_rule_from_tag(image.split_rule).map_err(|e| format!("snapshot image: {e}"))?;
        let nodes = image
            .nodes
            .iter()
            .map(|node| PNode {
                depth: node.depth,
                parent: node.parent.map(|(p, is_left)| (LocalNodeId(p), is_left)),
                kind: match &node.kind {
                    NodeKindImage::Leaf { bucket } => PNodeKind::Leaf {
                        bucket: bucket
                            .iter()
                            .map(|(c, p)| (c.clone().into_boxed_slice(), *p))
                            .collect(),
                    },
                    NodeKindImage::Routing {
                        split_dim,
                        split_val,
                        left,
                        right,
                    } => PNodeKind::Routing {
                        split_dim: *split_dim,
                        split_val: *split_val,
                        left: left.to_child(),
                        right: right.to_child(),
                    },
                },
            })
            .collect();
        Ok(PartitionStore {
            dims: image.dims,
            bucket_size: image.bucket_size,
            split_rule,
            nodes,
            points: image.points,
        })
    }
}

/// Structural twin of a [`PartitionStore`]: what `colimage` encodes into
/// a WAL snapshot blob, and what the structural recovery tests compare
/// (`PartialEq` covers arena order, depths, parent backlinks, remote
/// links and the point counter — not just query answers). Its row-wise
/// [`Encode`] is never stored; it is the size baseline compression
/// ratios are reported against.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct StoreImage {
    pub(crate) dims: usize,
    pub(crate) bucket_size: usize,
    /// Wire tag of the split rule (see `deploy::split_rule_tag`).
    pub(crate) split_rule: u8,
    pub(crate) points: usize,
    pub(crate) nodes: Vec<NodeImage>,
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct NodeImage {
    pub(crate) kind: NodeKindImage,
    pub(crate) depth: u32,
    pub(crate) parent: Option<(u32, bool)>,
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) enum NodeKindImage {
    Routing {
        split_dim: usize,
        split_val: f64,
        left: ChildImage,
        right: ChildImage,
    },
    Leaf {
        bucket: Vec<(Vec<f64>, u64)>,
    },
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum ChildImage {
    Local(u32),
    Remote { partition: u32, node: u32 },
}

impl ChildImage {
    fn from_child(child: Child) -> Self {
        match child {
            Child::Local(id) => ChildImage::Local(id.0),
            Child::Remote { partition, node } => ChildImage::Remote {
                partition: partition.0,
                node: node.0,
            },
        }
    }

    fn to_child(self) -> Child {
        match self {
            ChildImage::Local(id) => Child::Local(LocalNodeId(id)),
            ChildImage::Remote { partition, node } => Child::Remote {
                partition: ComputeNodeId(partition),
                node: LocalNodeId(node),
            },
        }
    }
}

impl Encode for StoreImage {
    fn encode(&self, out: &mut Vec<u8>) {
        self.dims.encode(out);
        self.bucket_size.encode(out);
        self.split_rule.encode(out);
        self.points.encode(out);
        self.nodes.encode(out);
    }
}

impl Encode for NodeImage {
    fn encode(&self, out: &mut Vec<u8>) {
        self.kind.encode(out);
        self.depth.encode(out);
        self.parent.encode(out);
    }
}

impl Encode for NodeKindImage {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            NodeKindImage::Routing {
                split_dim,
                split_val,
                left,
                right,
            } => {
                out.push(0);
                split_dim.encode(out);
                split_val.encode(out);
                left.encode(out);
                right.encode(out);
            }
            NodeKindImage::Leaf { bucket } => {
                out.push(1);
                bucket.encode(out);
            }
        }
    }
}

impl Encode for ChildImage {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ChildImage::Local(id) => {
                out.push(0);
                id.encode(out);
            }
            ChildImage::Remote { partition, node } => {
                out.push(1);
                partition.encode(out);
                node.encode(out);
            }
        }
    }
}

/// Split-dimension/value selection shared with the sequential tree's
/// semantics: cycle by depth, step to another dimension when degenerate,
/// median value adjusted so both sides are non-empty.
pub(crate) fn choose_split(
    bucket: &[(Box<[f64]>, u64)],
    dims: usize,
    depth: u32,
    rule: SplitRule,
) -> Option<(usize, f64)> {
    let preferred = depth as usize % dims;
    for offset in 0..dims {
        let dim = (preferred + offset) % dims;
        let mut values: Vec<f64> = bucket.iter().map(|(c, _)| c[dim]).collect();
        values.sort_by(|a, b| a.partial_cmp(b).expect("coordinates are finite"));
        let (min, max) = (values[0], *values.last()?);
        if max == min {
            continue;
        }
        if rule == SplitRule::DegenerateMin {
            // Worst-case rule: peel only the minimum-valued points left.
            return Some((dim, min));
        }
        let mid = values[values.len() / 2];
        let val = if mid < max {
            mid
        } else {
            values.iter().rev().find(|&&v| v < max).copied()?
        };
        return Some((dim, val));
    }
    None
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// A remote stub that panics: for tests whose partitions are
    /// self-contained.
    pub(crate) struct NoRemote;

    impl RemoteOps for NoRemote {
        fn insert(
            &self,
            _: ComputeNodeId,
            _: LocalNodeId,
            _: &[f64],
            _: u64,
        ) -> Result<(), ClusterError> {
            panic!("unexpected remote insert");
        }
        fn knn(
            &self,
            _: ComputeNodeId,
            _: LocalNodeId,
            _: &[f64],
            _: usize,
            _: Option<f64>,
        ) -> Result<Vec<(f64, u64)>, ClusterError> {
            panic!("unexpected remote knn");
        }
        fn range(
            &self,
            _: ComputeNodeId,
            _: LocalNodeId,
            _: &[f64],
            _: f64,
        ) -> Result<Vec<(f64, u64)>, ClusterError> {
            panic!("unexpected remote range");
        }
        fn range_parallel(
            &self,
            _: [(ComputeNodeId, LocalNodeId); 2],
            _: &[f64],
            _: f64,
        ) -> Result<[Vec<(f64, u64)>; 2], ClusterError> {
            panic!("unexpected remote range_parallel");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::NoRemote;
    use super::*;

    fn store(bucket_size: usize) -> PartitionStore {
        PartitionStore::new_leaf_with_rule(2, bucket_size, SplitRule::Cycle, Vec::new(), 0)
    }

    fn fill_grid(s: &mut PartitionStore, n: usize) {
        for i in 0..n {
            let p = [(i % 10) as f64, (i / 10) as f64];
            assert!(s.insert(LocalNodeId(0), &p, i as u64, &NoRemote).unwrap());
        }
    }

    #[test]
    fn local_insert_and_split() {
        let mut s = store(4);
        fill_grid(&mut s, 50);
        assert_eq!(s.points(), 50);
        let stats = s.stats();
        assert_eq!(stats.points, 50);
        assert!(stats.leaves > 1);
        assert_eq!(stats.edge_nodes, 0);
        assert!(stats.remote_children.is_empty());
    }

    #[test]
    fn knn_exact_vs_brute_force() {
        let mut s = store(4);
        fill_grid(&mut s, 100);
        let q = [3.2, 4.9];
        let mut state = KnnState::new(5, None);
        s.knn(LocalNodeId(0), &q, &mut state, &NoRemote).unwrap();
        let got = state.into_candidates();

        let mut brute: Vec<(f64, u64)> = (0..100u64)
            .map(|i| {
                let p = [(i % 10) as f64, (i / 10) as f64];
                (euclidean(&p, &q), i)
            })
            .collect();
        brute.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for (g, b) in got.iter().zip(brute.iter().take(5)) {
            assert!((g.0 - b.0).abs() < 1e-9);
        }
        assert_eq!(got.len(), 5);
    }

    #[test]
    fn range_exact_vs_brute_force() {
        let mut s = store(4);
        fill_grid(&mut s, 100);
        let q = [5.0, 5.0];
        let mut out = Vec::new();
        s.range(LocalNodeId(0), &q, 2.5, &mut out, &NoRemote)
            .unwrap();
        let brute = (0..100u64)
            .filter(|&i| {
                let p = [(i % 10) as f64, (i / 10) as f64];
                euclidean(&p, &q) <= 2.5
            })
            .count();
        assert_eq!(out.len(), brute);
    }

    #[test]
    fn knn_state_hint_prunes() {
        let mut st = KnnState::new(3, Some(1.0));
        st.offer(2.0, 1); // beyond the hint: dropped
        st.offer(0.5, 2);
        let c = st.into_candidates();
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].1, 2);
    }

    #[test]
    fn knn_state_bound_combines_heap_and_hint() {
        let mut st = KnnState::new(2, Some(5.0));
        assert_eq!(st.bound(), Some(5.0)); // hint only
        st.offer(1.0, 1);
        st.offer(3.0, 2);
        assert_eq!(st.bound(), Some(3.0)); // full heap beats hint
        assert!(st.must_descend(2.9));
        assert!(!st.must_descend(3.0));
    }

    #[test]
    fn eviction_candidate_prefers_largest_nonroot_leaf() {
        let mut s = store(4);
        assert_eq!(s.eviction_candidate(), None); // root leaf only
        fill_grid(&mut s, 60);
        let cand = s.eviction_candidate().expect("leaves exist after splits");
        assert_ne!(cand.index(), 0);
        let before = s.points();
        let (bucket, depth) = s.detach_leaf(cand);
        assert!(!bucket.is_empty());
        assert!(depth > 0);
        assert_eq!(s.points(), before - bucket.len());
    }

    #[test]
    fn relink_makes_parent_an_edge_node() {
        let mut s = store(4);
        fill_grid(&mut s, 60);
        let cand = s.eviction_candidate().unwrap();
        let (bucket, _) = s.detach_leaf(cand);
        s.relink_to_partition(cand, ComputeNodeId(7), LocalNodeId(0));
        let stats = s.stats();
        assert_eq!(stats.edge_nodes, 1);
        assert_eq!(stats.remote_children, vec![7]);
        // The evicted points are gone from this partition.
        assert_eq!(stats.points, 60 - bucket.len());
    }

    #[test]
    fn restore_leaf_undoes_a_detach() {
        let mut s = store(4);
        fill_grid(&mut s, 60);
        let cand = s.eviction_candidate().unwrap();
        let before = s.points();
        let (bucket, _) = s.detach_leaf(cand);
        s.restore_leaf(cand, bucket);
        assert_eq!(s.points(), before);
        assert_eq!(s.verify(), Vec::<String>::new());
    }

    #[test]
    fn adopted_oversized_bucket_splits_on_arrival() {
        let bucket: Vec<(Box<[f64]>, u64)> = (0..20)
            .map(|i| (vec![i as f64, 0.0].into_boxed_slice(), i as u64))
            .collect();
        let s = PartitionStore::new_leaf_with_rule(2, 4, SplitRule::Cycle, bucket, 3);
        let stats = s.stats();
        assert_eq!(stats.points, 20);
        assert!(stats.leaves > 1, "adopted bucket must split");
    }

    #[test]
    fn remote_child_receives_forwarded_insert() {
        use std::cell::RefCell;
        struct Recorder(RefCell<Vec<u64>>);
        impl RemoteOps for Recorder {
            fn insert(
                &self,
                _: ComputeNodeId,
                _: LocalNodeId,
                _: &[f64],
                payload: u64,
            ) -> Result<(), ClusterError> {
                self.0.borrow_mut().push(payload);
                Ok(())
            }
            fn knn(
                &self,
                _: ComputeNodeId,
                _: LocalNodeId,
                _: &[f64],
                _: usize,
                _: Option<f64>,
            ) -> Result<Vec<(f64, u64)>, ClusterError> {
                Ok(vec![])
            }
            fn range(
                &self,
                _: ComputeNodeId,
                _: LocalNodeId,
                _: &[f64],
                _: f64,
            ) -> Result<Vec<(f64, u64)>, ClusterError> {
                Ok(vec![])
            }
            fn range_parallel(
                &self,
                _: [(ComputeNodeId, LocalNodeId); 2],
                _: &[f64],
                _: f64,
            ) -> Result<[Vec<(f64, u64)>; 2], ClusterError> {
                Ok([vec![], vec![]])
            }
        }

        // Hand-build: routing root, left local leaf, right remote.
        let mut s = store(4);
        let left = s.push_node(PNodeKind::Leaf { bucket: Vec::new() }, 1);
        s.nodes[0].kind = PNodeKind::Routing {
            split_dim: 0,
            split_val: 5.0,
            left: Child::Local(left),
            right: Child::Remote {
                partition: ComputeNodeId(3),
                node: LocalNodeId(0),
            },
        };
        s.set_parent(left, LocalNodeId(0), true);

        let rec = Recorder(RefCell::new(Vec::new()));
        assert!(s.insert(LocalNodeId(0), &[1.0, 0.0], 10, &rec).unwrap()); // local side
        assert!(!s.insert(LocalNodeId(0), &[9.0, 0.0], 11, &rec).unwrap()); // forwarded
        assert_eq!(*rec.0.borrow(), vec![11]);
        assert_eq!(s.points(), 1);
    }

    #[test]
    fn detach_root_panics_via_relink() {
        let mut s = store(4);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.relink_to_partition(LocalNodeId(0), ComputeNodeId(1), LocalNodeId(0));
        }));
        assert!(result.is_err());
    }
}
