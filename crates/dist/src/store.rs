//! Partition-local tree fragment: one seqlock arena tree
//! (`semtree_kdtree::versioned`) that the partition actor writes and
//! every reader reads, plus the partition's own bookkeeping — point
//! counter, eviction, statistics. Its WAL snapshot blob is written and
//! read in `colimage`.

use std::fmt::Display;
use std::sync::Arc;

use semtree_cluster::ComputeNodeId;
use semtree_kdtree::versioned::{RemoteOps, SplitEvent, Tree, TreeWriter};
use semtree_kdtree::KdConfig;

use crate::proto::PartitionStats;

/// A child pointer: on this partition (`Cp = Childp`) or the root of a
/// sub-tree hosted by another partition (`Cp ≠ Childp` — a *direct link*
/// between partitions).
pub(crate) use semtree_kdtree::versioned::Child;

/// Identifier of a node inside one partition's arena; each partition's
/// sub-tree root is node 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LocalNodeId(pub u32);

/// A leaf's stored points in wire form: `(coordinates, payload)` pairs.
pub(crate) type Bucket = Vec<(Vec<f64>, u64)>;

/// One partition's fragment of the global KD-tree.
pub(crate) struct PartitionStore {
    writer: TreeWriter,
    points: usize,
}

impl PartitionStore {
    /// A fresh partition: a single (possibly pre-filled) leaf at global
    /// depth `depth`, split while over capacity; the splits are reported
    /// so the actor can write them to the WAL.
    pub(crate) fn new_leaf_logged(
        config: KdConfig,
        bucket: &[(Vec<f64>, u64)],
        depth: u32,
        splits: &mut Vec<SplitEvent>,
    ) -> Self {
        let mut store = Self::raw_leaf(config, bucket, depth);
        store.writer.split(0, splits);
        store
    }

    /// A single-leaf store with **no** capacity check — the replay base:
    /// splits are applied from the log, never derived.
    pub(crate) fn raw_leaf(config: KdConfig, bucket: &[(Vec<f64>, u64)], depth: u32) -> Self {
        let mut store = Self::empty_arena(config);
        let root = store.push_leaf(depth, None, bucket);
        debug_assert_eq!(
            root,
            Some(LocalNodeId(0)),
            "the first push cannot exhaust the arena"
        );
        store
    }

    /// An arena with no nodes yet: the fan-out builder pushes the routing
    /// root as node 0 itself.
    pub(crate) fn empty_arena(config: KdConfig) -> Self {
        PartitionStore {
            writer: TreeWriter::new(config),
            points: 0,
        }
    }

    /// The tree: this actor's own view, and the handle threads other
    /// than the actor read lock-free — validated, through
    /// [`InPlace`](semtree_kdtree::versioned::InPlace) — once the actor
    /// has registered it.
    pub(crate) fn tree(&self) -> &Arc<Tree> {
        self.writer.tree()
    }

    /// Push a routing node (the fan-out builder allocates parents before
    /// children and patches the edges afterwards).
    pub(crate) fn push_routing(
        &mut self,
        depth: u32,
        parent: Option<(u32, bool)>,
        split_dim: usize,
        split_val: f64,
        children: [Child; 2],
    ) -> Option<LocalNodeId> {
        self.writer
            .push_routing(depth, parent, split_dim, split_val, children)
            .map(LocalNodeId)
    }

    /// Push a leaf holding `bucket`, with no capacity check; its points
    /// count as this partition's.
    pub(crate) fn push_leaf(
        &mut self,
        depth: u32,
        parent: Option<(u32, bool)>,
        bucket: &[(Vec<f64>, u64)],
    ) -> Option<LocalNodeId> {
        let id = self.writer.push_leaf(depth, parent, bucket)?;
        self.points += bucket.len();
        Some(LocalNodeId(id))
    }

    /// Point one edge of routing node `parent` at `child`; `false` when
    /// `parent` is not a routing node.
    pub(crate) fn set_child(&mut self, parent: LocalNodeId, left_side: bool, child: Child) -> bool {
        self.writer.set_child(parent.0, left_side, child)
    }

    pub(crate) fn points(&self) -> usize {
        self.points
    }

    /// The input contract, re-checked on the actor's side of the wire;
    /// errors are messages because the actor's replies carry them as such.
    fn check(&self, start: LocalNodeId, point: &[f64]) -> Result<(), String> {
        let dims = self.tree().config().dims();
        if point.len() != dims {
            return Err(format!(
                "invalid request: point has {} dimensions, the index expects {dims}",
                point.len()
            ));
        }
        if !point.iter().all(|c| c.is_finite()) {
            return Err("invalid request: point has a non-finite coordinate".to_string());
        }
        if start.0 >= self.tree().nodes() {
            return Err(format!(
                "invalid request: partition has no node {}",
                start.0
            ));
        }
        Ok(())
    }

    /// The actor's view of a walk's outcome: it is the tree's only
    /// writer, so a walk from a checked start cannot come up short.
    fn whole<T>(walked: Option<T>) -> Result<T, String> {
        walked.ok_or_else(|| "partition arena is inconsistent".to_string())
    }

    /// [`whole`](Self::whole), with a failed crossing as its message.
    fn settled<T, E: Display>(walked: Option<Result<T, E>>) -> Result<T, String> {
        Self::whole(walked)?.map_err(|e| e.to_string())
    }

    // ------------------------------------------------------------------
    // Insertion (§III-B.1)
    // ------------------------------------------------------------------

    /// Insert starting at `start`; returns `Ok(true)` when the point landed
    /// in this partition, `Ok(false)` when it was forwarded to another.
    /// Splits the insert triggered are appended to `splits`, so the actor
    /// can write them to the WAL.
    pub(crate) fn insert_logged<R: RemoteOps<Error: Display>>(
        &mut self,
        start: LocalNodeId,
        point: &[f64],
        payload: u64,
        remote: &R,
        splits: &mut Vec<SplitEvent>,
    ) -> Result<bool, String> {
        self.check(start, point)?;
        let stored = Self::settled(self.writer.insert(start.0, point, payload, remote, splits))?;
        self.points += usize::from(stored);
        Ok(stored)
    }

    /// Re-apply a logged [`PointInsert`](semtree_wal::WalRecord): same
    /// navigation, same bucket append, but **no** split — splits replay
    /// from their own records. Returns `false` (a no-op) when navigation
    /// reaches a remote child: the live insert was forwarded and logged
    /// by the partition that actually stored it.
    pub(crate) fn replay_insert(
        &mut self,
        start: LocalNodeId,
        point: &[f64],
        payload: u64,
    ) -> bool {
        let stored = self.check(start, point).is_ok()
            && self.writer.append(start.0, point, payload) == Some(true);
        self.points += usize::from(stored);
        stored
    }

    /// Re-apply a logged [`SplitEvent`] verbatim. Fails when the log and
    /// the store disagree — a corrupt or out-of-order WAL.
    pub(crate) fn apply_split(&mut self, event: &SplitEvent) -> Result<(), String> {
        self.writer.apply_split(event)
    }

    // ------------------------------------------------------------------
    // k-nearest (§III-B.3) and range search (§III-B.4), as the actor
    // runs them: over its own tree, unvalidated, crossing borders
    // through `remote`.
    // ------------------------------------------------------------------

    pub(crate) fn knn<R: RemoteOps<Error: Display>>(
        &self,
        start: LocalNodeId,
        point: &[f64],
        k: usize,
        worst: Option<f64>,
        remote: &R,
    ) -> Result<Vec<(f64, u64)>, String> {
        self.check(start, point)?;
        Self::settled(self.tree().knn(start.0, point, k, worst, remote))
    }

    pub(crate) fn range<R: RemoteOps<Error: Display>>(
        &self,
        start: LocalNodeId,
        point: &[f64],
        radius: f64,
        remote: &R,
    ) -> Result<Vec<(f64, u64)>, String> {
        self.check(start, point)?;
        Self::settled(self.tree().range(start.0, point, radius, remote))
    }

    // ------------------------------------------------------------------
    // Build partition (§III-B.2)
    // ------------------------------------------------------------------

    /// The largest leaf that is not the partition root (the "leaf node
    /// candidate `Lc`" of Figure 2), if any.
    pub(crate) fn eviction_candidate(&self) -> Option<LocalNodeId> {
        self.tree()
            .reachable()
            .into_iter()
            .filter(|&(id, node)| id != 0 && node.point_count() > 0)
            .max_by_key(|&(id, node)| (node.point_count(), std::cmp::Reverse(id)))
            .map(|(id, _)| LocalNodeId(id))
    }

    /// Copy a leaf's bucket (and its global depth) out for transfer. The
    /// leaf keeps its points — readers go on seeing them — until
    /// [`relink_to_partition`](PartitionStore::relink_to_partition), so a
    /// failed transfer needs no undo. `None` when `id` is not a leaf.
    pub(crate) fn detach_leaf(&self, id: LocalNodeId) -> Option<(Bucket, u32)> {
        let node = self.tree().node(id.0)?;
        node.routing()
            .is_none()
            .then(|| (node.bucket(), node.depth()))
    }

    /// Point the evicted leaf's parent at the new partition ("a link
    /// between the two partitions is then created") and drop its points
    /// from this one; the node keeps its place in the arena,
    /// unreachable. Also the replay of a logged leaf migration.
    pub(crate) fn relink_to_partition(
        &mut self,
        evicted: LocalNodeId,
        partition: ComputeNodeId,
        remote_node: LocalNodeId,
    ) -> Result<(), String> {
        let to = Child::Remote {
            partition: partition.0,
            node: remote_node.0,
        };
        self.points -= self.writer.relink(evicted.0, to)?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Statistics
    // ------------------------------------------------------------------

    /// Check this partition's structural invariants; returns a list of
    /// human-readable violations (empty = healthy). Used by
    /// `DistSemTree::verify` and the test-suite.
    pub(crate) fn verify(&self) -> Vec<String> {
        let mut violations = Vec::new();
        let dims = self.tree().config().dims();
        let reachable = self.tree().reachable();
        if reachable.is_empty() {
            violations.push("partition has no root node".to_string());
            return violations;
        }
        let mut counted_points = 0usize;
        for &(id, node) in &reachable {
            let Some(r) = node.routing() else {
                counted_points += node.point_count();
                continue;
            };
            if r.split_dim >= dims {
                violations.push(format!(
                    "routing {id} splits on dimension {} >= {dims}",
                    r.split_dim
                ));
            }
            if !r.split_val.is_finite() {
                violations.push(format!("routing {id} has non-finite Sv"));
            }
            for (child, is_left) in [(r.left, true), (r.right, false)] {
                let Child::Local(c) = child else { continue };
                let Some(below) = self.tree().node(c) else {
                    violations.push(format!("routing {id} links to unknown node {c}"));
                    continue;
                };
                if below.depth() != node.depth() + 1 {
                    violations.push(format!(
                        "child {c} depth {} != parent {id} depth {} + 1",
                        below.depth(),
                        node.depth()
                    ));
                }
                if below.parent() != Some((id, is_left)) {
                    violations.push(format!(
                        "child {c} parent backlink {:?} != ({id}, {is_left})",
                        below.parent()
                    ));
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
        for (_, node) in self.tree().reachable() {
            let Some(r) = node.routing() else {
                s.leaves += 1;
                s.points += node.point_count();
                continue;
            };
            s.routing += 1;
            let linked = s.remote_children.len();
            for child in [r.left, r.right] {
                if let Child::Remote { partition, .. } = child {
                    s.remote_children.push(partition);
                }
            }
            s.edge_nodes += usize::from(s.remote_children.len() > linked);
        }
        s.remote_children.sort_unstable();
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semtree_cluster::ClusterError;
    use semtree_kdtree::versioned::{InPlace, StdShim};
    use semtree_par::metric::euclidean;
    use std::cell::RefCell;

    /// Records what crosses the border: forwarded inserts' payloads and
    /// the `worst` hint of every remote k-NN. Searches are answered by
    /// the actor walk of the partition `behind` the border, if any.
    #[derive(Default)]
    struct Recorder<'a> {
        inserts: RefCell<Vec<u64>>,
        worsts: RefCell<Vec<Option<f64>>>,
        behind: Option<&'a PartitionStore>,
    }

    impl RemoteOps for Recorder<'_> {
        type Error = ClusterError;
        fn insert(&self, _: u32, _: u32, _: &[f64], payload: u64) -> Result<(), ClusterError> {
            self.inserts.borrow_mut().push(payload);
            Ok(())
        }
        fn knn(
            &self,
            _: u32,
            node: u32,
            point: &[f64],
            k: usize,
            worst: Option<f64>,
        ) -> Result<Vec<(f64, u64)>, ClusterError> {
            self.worsts.borrow_mut().push(worst);
            let walk = |t: &PartitionStore| t.knn(LocalNodeId(node), point, k, worst, self);
            self.behind
                .map_or(Ok(vec![]), walk)
                .map_err(ClusterError::Remote)
        }
        fn range(
            &self,
            _: u32,
            node: u32,
            point: &[f64],
            radius: f64,
        ) -> Result<Vec<(f64, u64)>, ClusterError> {
            let walk = |t: &PartitionStore| t.range(LocalNodeId(node), point, radius, self);
            self.behind
                .map_or(Ok(vec![]), walk)
                .map_err(ClusterError::Remote)
        }
    }

    /// Search hits in wire form: `(distance, payload)` pairs.
    type Hits = Vec<(f64, u64)>;

    /// The partitions a lock-free read can reach, by id; it starts at the
    /// first one's root.
    type Hosted<'a> = [(u32, &'a PartitionStore)];

    fn reader<'a>(
        hosted: &'a Hosted<'a>,
    ) -> InPlace<StdShim, impl Fn(u32) -> Option<Arc<Tree>> + 'a> {
        let lookup = |p| hosted.iter().find(|(id, _)| *id == p);
        InPlace::new(move |p| lookup(p).map(|(_, s)| Arc::clone(s.tree())))
    }

    /// A client thread's lock-free k-NN: `(hits, retries, borders
    /// crossed)`, or `None` when it needs the mailbox.
    fn read_knn(hosted: &Hosted, q: &[f64], k: usize) -> Option<(Hits, u64, u64)> {
        let reader = reader(hosted);
        let walk = |t: &Tree| t.knn(0, q, k, None, &reader);
        let hits = reader.enter((hosted[0].0, 0), q, walk).ok()?.ok()?;
        Some((hits, reader.retries(), reader.crossed()))
    }

    /// [`read_knn`] for a range search: `(hits, retries)`.
    fn read_range(hosted: &Hosted, q: &[f64], radius: f64) -> Option<(Hits, u64)> {
        let reader = reader(hosted);
        let walk = |t: &Tree| t.range(0, q, radius, &reader);
        let hits = reader.enter((hosted[0].0, 0), q, walk).ok()?.ok()?;
        Some((hits, reader.retries()))
    }

    fn store(bucket_size: usize) -> PartitionStore {
        let config = KdConfig::new(2).with_bucket_size(bucket_size);
        PartitionStore::raw_leaf(config, &[], 0)
    }

    fn insert(s: &mut PartitionStore, point: &[f64], payload: u64, remote: &Recorder) -> bool {
        s.insert_logged(LocalNodeId(0), point, payload, remote, &mut Vec::new())
            .expect("insert")
    }

    fn grid(i: usize) -> [f64; 2] {
        [(i % 10) as f64, (i / 10) as f64]
    }

    fn fill_grid(s: &mut PartitionStore, n: usize) {
        for i in 0..n {
            assert!(insert(s, &grid(i), i as u64, &Recorder::default()));
        }
    }

    /// Evict `s`'s candidate leaf to partition 7; returns its bucket.
    fn evict(s: &mut PartitionStore) -> Bucket {
        let cand = s.eviction_candidate().expect("leaves exist after splits");
        let (bucket, depth) = s.detach_leaf(cand).expect("candidate is a leaf");
        assert!(depth > 0 && !bucket.is_empty());
        s.relink_to_partition(cand, ComputeNodeId(7), LocalNodeId(0))
            .expect("relink");
        bucket
    }

    /// Routing root over a local left leaf and a remote right child.
    fn border_store() -> PartitionStore {
        let mut s = PartitionStore::empty_arena(KdConfig::new(2).with_bucket_size(4));
        let remote = Child::Remote {
            partition: 3,
            node: 0,
        };
        let root = s.push_routing(0, None, 0, 5.0, [Child::Local(1), remote]);
        assert_eq!(root, Some(LocalNodeId(0)));
        assert_eq!(s.push_leaf(1, Some((0, true)), &[]), Some(LocalNodeId(1)));
        s
    }

    #[test]
    fn a_non_finite_point_is_refused_live_and_on_replay() {
        let mut s = store(4);
        fill_grid(&mut s, 20);
        let before = s.snapshot();
        for bad in [[f64::NAN, 0.0], [1.0, f64::INFINITY]] {
            let refused = s.insert_logged(
                LocalNodeId(0),
                &bad,
                99,
                &Recorder::default(),
                &mut Vec::new(),
            );
            assert_eq!(
                refused,
                Err("invalid request: point has a non-finite coordinate".to_string())
            );
            assert!(!s.replay_insert(LocalNodeId(0), &bad, 99));
        }
        assert_eq!(s.snapshot(), before);
        assert_eq!(s.verify(), Vec::<String>::new());
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
        assert_eq!(s.verify(), Vec::<String>::new());
    }

    #[test]
    fn knn_exact_vs_brute_force() {
        let mut s = store(4);
        fill_grid(&mut s, 100);
        let q = [3.2, 4.9];
        let got = s
            .knn(LocalNodeId(0), &q, 5, None, &Recorder::default())
            .unwrap();
        let mut brute: Vec<(f64, u64)> = (0..100)
            .map(|i| (euclidean(&grid(i), &q), i as u64))
            .collect();
        brute.sort_by(|a, b| a.0.total_cmp(&b.0));
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
        let out = s
            .range(LocalNodeId(0), &q, 2.5, &Recorder::default())
            .unwrap();
        let brute = (0..100).filter(|&i| euclidean(&grid(i), &q) <= 2.5).count();
        assert_eq!(out.len(), brute);
    }

    #[test]
    fn knn_state_hint_prunes() {
        let mut s = store(4);
        insert(&mut s, &[2.0, 0.0], 1, &Recorder::default()); // beyond the hint: dropped
        insert(&mut s, &[0.5, 0.0], 2, &Recorder::default());
        let c = s
            .knn(
                LocalNodeId(0),
                &[0.0, 0.0],
                3,
                Some(1.0),
                &Recorder::default(),
            )
            .unwrap();
        assert_eq!(c, vec![(0.5, 2)]);
    }

    #[test]
    fn knn_state_bound_combines_heap_and_hint() {
        let mut s = border_store();
        let rec = Recorder::default();
        let knn = |s: &PartitionStore, q: [f64; 2], k| {
            s.knn(LocalNodeId(0), &q, k, Some(5.0), &rec).unwrap();
            rec.worsts.borrow_mut().pop()
        };
        // Hint only: the far (remote) side is entered with the hint.
        assert_eq!(knn(&s, [4.0, 0.0], 2), Some(Some(5.0)));
        insert(&mut s, &[3.0, 0.0], 1, &rec); // 1.0 from the query
        insert(&mut s, &[1.0, 0.0], 2, &rec); // 3.0 from the query
                                              // A full heap beats the hint: plane at 1.0 < worst 3.0 descends…
        assert_eq!(knn(&s, [4.0, 0.0], 2), Some(Some(3.0)));
        // …and a plane exactly at the worst distance does not.
        assert_eq!(knn(&s, [4.0, 0.0], 1), None);
    }

    #[test]
    fn eviction_candidate_prefers_largest_nonroot_leaf() {
        let mut s = store(4);
        assert_eq!(s.eviction_candidate(), None); // root leaf only
        fill_grid(&mut s, 60);
        let cand = s.eviction_candidate().expect("leaves exist after splits");
        assert_ne!(cand.0, 0);
        let largest = s
            .tree()
            .reachable()
            .iter()
            .map(|(_, n)| n.point_count())
            .max();
        assert_eq!(s.tree().node(cand.0).map(|n| n.point_count()), largest);
    }

    #[test]
    fn relink_makes_parent_an_edge_node() {
        let mut s = store(4);
        fill_grid(&mut s, 60);
        let bucket = evict(&mut s);
        let stats = s.stats();
        assert_eq!(stats.edge_nodes, 1);
        assert_eq!(stats.remote_children, vec![7]);
        // The evicted points are gone from this partition.
        assert_eq!(stats.points, 60 - bucket.len());
        assert_eq!(s.points(), 60 - bucket.len());
        assert_eq!(s.verify(), Vec::<String>::new());
    }

    #[test]
    fn detach_without_relink_leaves_the_store_intact() {
        let mut s = store(4);
        fill_grid(&mut s, 60);
        let before = s.snapshot();
        let cand = s.eviction_candidate().unwrap();
        assert!(s.detach_leaf(cand).is_some());
        assert_eq!(s.detach_leaf(LocalNodeId(0)), None, "the root is routing");
        assert_eq!(s.snapshot(), before, "a failed transfer needs no undo");
        assert_eq!(s.verify(), Vec::<String>::new());
    }

    #[test]
    fn adopted_oversized_bucket_splits_on_arrival() {
        let bucket: Bucket = (0..20).map(|i| (vec![i as f64, 0.0], i as u64)).collect();
        let config = KdConfig::new(2).with_bucket_size(4);
        let mut splits = Vec::new();
        let s = PartitionStore::new_leaf_logged(config, &bucket, 3, &mut splits);
        let stats = s.stats();
        assert_eq!(stats.points, 20);
        assert!(stats.leaves > 1, "adopted bucket must split");
        assert_eq!(splits.len(), stats.routing);
        assert_eq!(s.verify(), Vec::<String>::new());
    }

    #[test]
    fn remote_child_receives_forwarded_insert() {
        let mut s = border_store();
        let rec = Recorder::default();
        assert!(insert(&mut s, &[1.0, 0.0], 10, &rec)); // local side
        assert!(!insert(&mut s, &[9.0, 0.0], 11, &rec)); // forwarded
        assert_eq!(*rec.inserts.borrow(), vec![11]);
        assert_eq!(s.points(), 1);
    }

    #[test]
    fn relinking_the_root_is_refused() {
        let mut s = store(4);
        let root = s.relink_to_partition(LocalNodeId(0), ComputeNodeId(1), LocalNodeId(0));
        assert_eq!(root, Err("migration of the partition root".to_string()));
        fill_grid(&mut s, 20);
        assert!(s
            .relink_to_partition(LocalNodeId(0), ComputeNodeId(1), LocalNodeId(0))
            .is_err());
        assert!(s.stats().remote_children.is_empty());
    }

    #[test]
    fn read_handle_knn_matches_actor_walk_byte_for_byte() {
        let mut s = store(4);
        fill_grid(&mut s, 60);
        let queries = [[3.1, 4.2], [0.0, 0.0], [9.5, 5.5], [4.0, 4.0]];
        let rec = Recorder::default();
        for q in queries {
            for k in [1, 3, 8] {
                let expect = s.knn(LocalNodeId(0), &q, k, None, &rec).unwrap();
                assert_eq!(
                    read_knn(&[(0, &s)], &q, k),
                    Some((expect, 0, 0)),
                    "q={q:?} k={k}"
                );
            }
            let expect = s.range(LocalNodeId(0), &q, 2.0, &rec).unwrap();
            assert_eq!(
                read_range(&[(0, &s)], &q, 2.0),
                Some((expect, 0)),
                "q={q:?}"
            );
        }
        // After an eviction a reader with nothing behind the link still
        // answers walks that stay local, and refuses — rather than
        // truncates — the ones that would have to cross into partition 7.
        let cand = s.eviction_candidate().expect("leaves exist after splits");
        let (bucket, depth) = s.detach_leaf(cand).expect("candidate is a leaf");
        s.relink_to_partition(cand, ComputeNodeId(7), LocalNodeId(0))
            .expect("relink");
        let (gone, _) = &bucket[0];
        assert_eq!(read_knn(&[(0, &s)], gone, 1), None, "needs the mailbox");
        assert_eq!(read_range(&[(0, &s)], gone, 0.5), None, "needs the mailbox");
        let local = queries
            .iter()
            .filter_map(|q| read_knn(&[(0, &s)], q, 1))
            .count();
        assert!(local > 0, "reads far from the border stay lock-free");
        for q in queries {
            if let Some((hits, _, crossed)) = read_knn(&[(0, &s)], &q, 3) {
                assert_eq!(hits, s.knn(LocalNodeId(0), &q, 3, None, &rec).unwrap());
                assert_eq!(crossed, 0);
                assert!(
                    rec.worsts.borrow().is_empty(),
                    "the actor walk stayed local too"
                );
            }
        }
        // With partition 7's tree readable too, the same reads cross the
        // border in place: the walk the two actors would run between
        // them, crossing as often and shipping the same `worst`, so the
        // candidates and their order are the same, ties included.
        let config = *s.tree().config();
        let t = PartitionStore::new_leaf_logged(config, &bucket, depth, &mut Vec::new());
        let hosted = [(0, &s), (7, &t)];
        let points = queries.iter().map(|q| q.to_vec());
        for q in points.chain(bucket.iter().map(|(c, _)| c.clone())) {
            for k in [1, 3, 8, 70] {
                let actors = Recorder {
                    behind: Some(&t),
                    ..Recorder::default()
                };
                let expect = s.knn(LocalNodeId(0), &q, k, None, &actors).unwrap();
                let crossings = actors.worsts.borrow().len() as u64;
                assert_eq!(
                    read_knn(&hosted, &q, k),
                    Some((expect, 0, crossings)),
                    "q={q:?} k={k}"
                );
            }
            let actors = Recorder {
                behind: Some(&t),
                ..Recorder::default()
            };
            let expect = s.range(LocalNodeId(0), &q, 2.0, &actors).unwrap();
            assert_eq!(read_range(&hosted, &q, 2.0), Some((expect, 0)), "q={q:?}");
        }
        assert_eq!(read_knn(&hosted, gone, 70).map(|r| r.0.len()), Some(60));
    }

    #[test]
    fn dimension_mismatch_is_rejected_not_panicking() {
        let mut s = store(4);
        fill_grid(&mut s, 10);
        assert!(read_knn(&[(0, &s)], &[1.0, 2.0, 3.0], 2).is_none());
        assert!(read_range(&[(0, &s)], &[1.0], 1.0).is_none());
        // The actor's side of the wire rejects the same, plus unknown nodes.
        let rec = Recorder::default();
        let invalid =
            |r: Result<Vec<(f64, u64)>, String>| r.is_err_and(|e| e.starts_with("invalid request"));
        assert!(invalid(s.knn(LocalNodeId(0), &[1.0], 2, None, &rec)));
        assert!(invalid(s.range(
            LocalNodeId(0),
            &[1.0, 2.0, 3.0],
            1.0,
            &rec
        )));
        assert!(invalid(s.knn(LocalNodeId(99), &[1.0, 2.0], 2, None, &rec)));
        assert!(s
            .insert_logged(LocalNodeId(99), &[1.0, 2.0], 0, &rec, &mut Vec::new())
            .is_err());
        assert!(!s.replay_insert(LocalNodeId(0), &[1.0], 0));
    }

    /// `n` deterministic pseudo-random 3-d points inserted one by one;
    /// the store and the splits it logged.
    fn random_store(bucket_size: usize, n: u64) -> (PartitionStore, Vec<SplitEvent>) {
        let config = KdConfig::new(3).with_bucket_size(bucket_size);
        let (mut s, mut splits) = (PartitionStore::raw_leaf(config, &[], 0), Vec::new());
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..n {
            let mut p = [0.0f64; 3];
            for c in &mut p {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                *c = f64::from((x >> 40) as u32 % 1000) / 8.0;
            }
            s.insert_logged(LocalNodeId(0), &p, i, &Recorder::default(), &mut splits)
                .unwrap();
        }
        (s, splits)
    }

    #[test]
    fn arena_holds_one_node_per_leaf_and_routing_node() {
        // The memory contract: an insert that does not split allocates no
        // node, so after any number of inserts the arena is exactly the
        // live tree; build-partition adds only the leaves it evicted.
        let (mut s, splits) = random_store(8, 10_000);
        let stats = s.stats();
        assert_eq!(stats.points, 10_000);
        assert_eq!(s.tree().nodes() as usize, stats.leaves + stats.routing);
        assert_eq!(splits.len(), stats.routing);
        for _ in 0..3 {
            evict(&mut s);
        }
        let stats = s.stats();
        assert_eq!(s.tree().nodes() as usize, stats.leaves + stats.routing + 3);
        assert_eq!(s.verify(), Vec::<String>::new());
    }

    #[test]
    fn golden_image_and_split_events() {
        // Arena order, ids, parents, buckets and the logged splits of a
        // fixed 500-insert + one-migration history, hashed (FNV-1a); the
        // constant was recorded at the last commit of the two-tree layout.
        fn fnv(bytes: &[u8], mut h: u64) -> u64 {
            for b in bytes {
                h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
            h
        }
        let (mut s, splits) = random_store(4, 500);
        evict(&mut s);
        let image = s.snapshot();
        let mut h = fnv(&image, 0xcbf2_9ce4_8422_2325);
        for e in &splits {
            for word in [
                u64::from(e.leaf),
                e.split_dim as u64,
                e.split_val.to_bits(),
                u64::from(e.left),
                u64::from(e.right),
            ] {
                h = fnv(&word.to_le_bytes(), h);
            }
        }
        assert_eq!(splits.len(), 172);
        assert_eq!(h, 0xd3c9_2a54_921f_a819);
        // And the image restores into a store with the same arena.
        let rebuilt = PartitionStore::restore(&image).expect("restore");
        assert_eq!(rebuilt.snapshot(), image);
    }

    /// `restore(snapshot(s))` snapshots to the same bytes, and answers
    /// exactly as `s` does — same hits in the same order, ties included —
    /// and as brute force over the points `s` holds. The restored boxes
    /// are rebuilt from the stored points, so they can be tighter than
    /// the live ones; the answers cannot differ.
    fn assert_restores(s: &PartitionStore, q: &[f64], k: usize, radius: f64) {
        let blob = s.snapshot();
        let back = PartitionStore::restore(&blob).expect("restore");
        assert_eq!(back.snapshot(), blob);
        assert_eq!(back.verify(), Vec::<String>::new());
        let rec = Recorder::default();
        let mut brute: Hits = (s.tree().reachable().iter())
            .flat_map(|(_, node)| node.bucket())
            .map(|(p, payload)| (euclidean(&p, q), payload))
            .collect();
        brute.sort_by(|a, b| a.0.total_cmp(&b.0));
        let knn = s.knn(LocalNodeId(0), q, k, None, &rec).unwrap();
        assert_eq!(back.knn(LocalNodeId(0), q, k, None, &rec).unwrap(), knn);
        let dists = |hits: &[(f64, u64)]| hits.iter().map(|h| h.0).collect::<Vec<_>>();
        assert_eq!(dists(&knn), dists(&brute[..k.min(brute.len())]));
        let range = s.range(LocalNodeId(0), q, radius, &rec).unwrap();
        assert_eq!(back.range(LocalNodeId(0), q, radius, &rec).unwrap(), range);
        let mut ball: Hits = brute.into_iter().filter(|h| h.0 <= radius).collect();
        let mut got = range;
        for hits in [&mut got, &mut ball] {
            hits.sort_by_key(|h| h.1);
        }
        assert_eq!(got, ball);
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// Random insert + split + evict histories, and a root with a
        /// remote edge, restore from their snapshots. Coordinates are
        /// multiples of 1/64 below 2^10, so every squared distance is
        /// exact and brute force compares bit for bit.
        #[test]
        fn snapshots_restore_to_the_same_bytes_and_answers(
            bucket in 1usize..9,
            n in 0u64..400,
            evictions in 0usize..4,
            q in (0u32..1000, 0u32..1000, 0u32..1000),
            k in 1usize..20,
            r in 0u32..400,
        ) {
            let (mut s, _) = random_store(bucket, n);
            for _ in 0..evictions {
                if s.eviction_candidate().is_some() {
                    evict(&mut s);
                }
            }
            let coord = |c: u32| f64::from(c) / 8.0;
            let radius = f64::from(r) / 8.0;
            assert_restores(&s, &[coord(q.0), coord(q.1), coord(q.2)], k, radius);

            // Half the grid lands behind the remote edge and is forwarded.
            let mut b = border_store();
            for i in 0..n as usize {
                insert(&mut b, &grid(i % 100), i as u64, &Recorder::default());
            }
            if evictions > 0 && b.eviction_candidate().is_some() {
                evict(&mut b);
            }
            let q = [f64::from(q.0) / 64.0, f64::from(q.1) / 64.0];
            assert_restores(&b, &q, k, radius / 8.0);
        }
    }
}
