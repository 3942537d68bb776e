//! Lock-free read mirror of a partition store.
//!
//! The partition actor owns a [`Mirror`]: a seqlock-versioned copy
//! (`semtree_kdtree::versioned`) of its [`PartitionStore`] maintained in
//! semantic lockstep — same navigation, same split rule, same global
//! depths — so the two trees are always shape-identical. Reads through
//! the mirror's [`ReadHandle`] are optimistic and lock-free: they run on
//! any thread (the coordinator's, or a batch worker's) without touching
//! the actor mailbox, retrying only when they race the actor mid-insert.
//!
//! The mirror exists only while the partition is **fully local**. The
//! first relink to a remote partition clears the `fully_local` flag and
//! maintenance stops for good — remote links never disappear, so there
//! is no way (and no need) to come back. Readers re-check the flag
//! *after* validating a read: the actor clears it (release) before
//! acknowledging any insert that the frozen mirror would miss, so a
//! validated read that still sees the flag set reflects every
//! acknowledged write.
//!
//! Traversal order here deliberately clones [`PartitionStore::knn`] and
//! [`PartitionStore::range`] — same stack discipline, same [`KnnState`],
//! same leaf iteration order — so a mirror answer is byte-identical to
//! the sequential store answer, ties included.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use semtree_kdtree::versioned::{ReadGuard, StdShim, TreeReader, TreeWriter, Txn, VersionedTree};
use semtree_kdtree::{ReadStats, SplitRule};
use semtree_par::metric::euclidean;

use crate::store::{choose_split, Bucket, Child, KnnState, LocalNodeId, PNodeKind, PartitionStore};

/// Shared, lock-free read side of a [`Mirror`]. Clone the [`Arc`]
/// freely; reads are valid only while the partition stays fully local.
pub(crate) struct ReadHandle {
    reader: TreeReader<Bucket>,
    /// `true` while the mirror tracks the store. Cleared (release) by
    /// the actor before it acknowledges any write the mirror misses.
    fully_local: AtomicBool,
    dims: usize,
}

impl ReadHandle {
    pub(crate) fn is_active(&self) -> bool {
        self.fully_local.load(Ordering::Acquire)
    }

    /// Optimistic k-NN identical to the store path, or `None` when the
    /// mirror is (or became) inactive. Returns `(candidates, retries)`.
    pub(crate) fn knn(
        &self,
        point: &[f64],
        k: usize,
        hint: Option<f64>,
    ) -> Option<(Vec<(f64, u64)>, u64)> {
        if point.len() != self.dims || !self.is_active() {
            return None;
        }
        let (hits, stats): (Vec<(f64, u64)>, ReadStats) =
            self.reader.read(|guard| knn_attempt(guard, point, k, hint));
        // Re-check after validation: a relink (or a maintenance failure)
        // may have frozen the mirror while this read was in flight, in
        // which case acknowledged writes could be missing from it.
        if !self.is_active() {
            return None;
        }
        Some((hits, stats.retries))
    }

    /// Optimistic range search identical to the store path, or `None`
    /// when the mirror is inactive.
    pub(crate) fn range(&self, point: &[f64], radius: f64) -> Option<(Vec<(f64, u64)>, u64)> {
        if point.len() != self.dims || radius < 0.0 || !self.is_active() {
            return None;
        }
        let (hits, stats): (Vec<(f64, u64)>, ReadStats) = self
            .reader
            .read(|guard| range_attempt(guard, point, radius));
        if !self.is_active() {
            return None;
        }
        Some((hits, stats.retries))
    }
}

/// Actor-owned write side: one writer per partition, mutated only from
/// the actor's (single-threaded) message loop.
pub(crate) struct Mirror {
    writer: TreeWriter<Bucket>,
    handle: Arc<ReadHandle>,
    dims: usize,
    bucket_size: usize,
    split_rule: SplitRule,
}

impl Mirror {
    /// Build a mirror of `store` (inactive if the store already has
    /// remote links).
    pub(crate) fn from_store(
        store: &PartitionStore,
        dims: usize,
        bucket_size: usize,
        split_rule: SplitRule,
    ) -> Self {
        let (writer, reader) = VersionedTree::channel(Vec::new());
        let mut mirror = Mirror {
            writer,
            handle: Arc::new(ReadHandle {
                reader,
                fully_local: AtomicBool::new(false),
                dims,
            }),
            dims,
            bucket_size,
            split_rule,
        };
        mirror.rebuild(store);
        mirror
    }

    pub(crate) fn handle(&self) -> Arc<ReadHandle> {
        Arc::clone(&self.handle)
    }

    /// Freeze the mirror: reads fall back to the actor path forever.
    /// Called on the first remote relink, or if maintenance ever fails.
    pub(crate) fn deactivate(&self) {
        self.handle.fully_local.store(false, Ordering::Release);
    }

    /// Re-copy the whole store into a fresh mirror snapshot (one writer
    /// transaction). Used after bulk store replacement ([`Req::AdoptLeaf`],
    /// recovery) — inserts are maintained incrementally instead.
    ///
    /// [`Req::AdoptLeaf`]: crate::proto::Req::AdoptLeaf
    pub(crate) fn rebuild(&mut self, store: &PartitionStore) {
        if store.nodes.is_empty() || store.has_remote_children() {
            self.deactivate();
            return;
        }
        let built = {
            let mut txn = self.writer.begin();
            match copy_subtree(&mut txn, store, LocalNodeId(0)) {
                Some(root) => {
                    txn.set_root(root);
                    true
                }
                None => false,
            }
        };
        self.handle.fully_local.store(built, Ordering::Release);
    }

    /// Mirror one point insertion that the store resolved locally:
    /// navigate with the store's rule, re-bucket, split with the
    /// store's `choose_split` at the same global depths. Shape-identity
    /// with the store is preserved by construction. No-op when frozen;
    /// freezes the mirror (and returns `false`) if the arena is
    /// exhausted.
    pub(crate) fn insert(&mut self, point: &[f64], payload: u64) -> bool {
        if !self.handle.is_active() {
            return true;
        }
        if self.insert_inner(point, payload) {
            true
        } else {
            self.deactivate();
            false
        }
    }

    fn insert_inner(&mut self, point: &[f64], payload: u64) -> bool {
        if point.len() != self.dims {
            return false;
        }
        let (dims, bucket_size, split_rule) = (self.dims, self.bucket_size, self.split_rule);
        let mut txn = self.writer.begin();
        // Navigate to the owning leaf, remembering the parent edge.
        let mut idx = txn.root();
        let mut parent: Option<(u32, bool)> = None;
        let (depth, mut bucket) = loop {
            let Some(node) = txn.node(idx) else {
                return false;
            };
            if let Some(r) = node.as_routing() {
                let left_side = point[r.split_dim] <= r.split_val;
                parent = Some((idx, left_side));
                idx = if left_side { r.left } else { r.right };
            } else {
                let Some(bucket) = node.as_leaf() else {
                    return false;
                };
                break (node.depth(), bucket.clone());
            }
        };
        bucket.push((point.into(), payload));
        let Some(new_idx) = build_bucket(&mut txn, dims, bucket_size, split_rule, bucket, depth)
        else {
            return false;
        };
        match parent {
            Some((p, left_side)) => txn.set_child(p, left_side, new_idx),
            None => {
                txn.set_root(new_idx);
                true
            }
        }
    }
}

/// Publish `bucket` as a subtree rooted at global depth `depth`,
/// splitting exactly like [`PartitionStore::maybe_split`]: split while
/// over `bucket_size` and `choose_split` finds a plane, `<=` goes left,
/// children one global level deeper.
fn build_bucket(
    txn: &mut Txn<'_, Bucket>,
    dims: usize,
    bucket_size: usize,
    split_rule: SplitRule,
    bucket: Bucket,
    depth: u32,
) -> Option<u32> {
    if bucket.len() <= bucket_size {
        return txn.alloc_leaf(depth, bucket);
    }
    let Some((split_dim, split_val)) = choose_split(&bucket, dims, depth, split_rule) else {
        // Degenerate bucket the store also leaves over-full.
        return txn.alloc_leaf(depth, bucket);
    };
    let (lb, rb): (Bucket, Bucket) = bucket
        .into_iter()
        .partition(|(c, _)| c[split_dim] <= split_val);
    let left = build_bucket(txn, dims, bucket_size, split_rule, lb, depth + 1)?;
    let right = build_bucket(txn, dims, bucket_size, split_rule, rb, depth + 1)?;
    txn.alloc_routing(depth, split_dim, split_val, left, right)
}

/// Copy the store subtree under `node` into the mirror arena. `None`
/// when a remote link is found or the arena is exhausted.
fn copy_subtree(
    txn: &mut Txn<'_, Bucket>,
    store: &PartitionStore,
    node: LocalNodeId,
) -> Option<u32> {
    let pnode = store.nodes.get(node.index())?;
    match &pnode.kind {
        PNodeKind::Leaf { bucket } => txn.alloc_leaf(pnode.depth, bucket.clone()),
        PNodeKind::Routing {
            split_dim,
            split_val,
            left,
            right,
        } => {
            let (Child::Local(l), Child::Local(r)) = (left, right) else {
                return None;
            };
            let li = copy_subtree(txn, store, *l)?;
            let ri = copy_subtree(txn, store, *r)?;
            txn.alloc_routing(pnode.depth, *split_dim, *split_val, li, ri)
        }
    }
}

/// One optimistic k-NN attempt — [`PartitionStore::knn`] verbatim, with
/// mirror indices for [`Child::Local`] and no remote arm. `None` on any
/// unpublished slot (writer race).
fn knn_attempt(
    guard: &ReadGuard<'_, Bucket, StdShim>,
    point: &[f64],
    k: usize,
    hint: Option<f64>,
) -> Option<Vec<(f64, u64)>> {
    enum Task {
        Visit(u32),
        CheckFar { far: u32, plane_dist: f64 },
    }
    let mut state = KnnState::new(k, hint);
    let mut stack = vec![Task::Visit(guard.root())];
    while let Some(task) = stack.pop() {
        let idx = match task {
            Task::CheckFar { far, plane_dist } => {
                if state.must_descend(plane_dist) {
                    far
                } else {
                    continue;
                }
            }
            Task::Visit(idx) => idx,
        };
        let node = guard.node(idx)?;
        if let Some(r) = node.as_routing() {
            let delta = point[r.split_dim] - r.split_val;
            let (near, far) = if delta <= 0.0 {
                (r.left, r.right)
            } else {
                (r.right, r.left)
            };
            stack.push(Task::CheckFar {
                far,
                plane_dist: delta.abs(),
            });
            stack.push(Task::Visit(near));
        } else {
            let bucket = node.as_leaf()?;
            for (coords, payload) in bucket {
                state.offer(euclidean(coords, point), *payload);
            }
        }
    }
    Some(state.into_candidates())
}

/// One optimistic range attempt — [`PartitionStore::range`] verbatim
/// (left pushed before right under the overlap rule, preserving the
/// store's emission order). `None` on any unpublished slot.
fn range_attempt(
    guard: &ReadGuard<'_, Bucket, StdShim>,
    point: &[f64],
    radius: f64,
) -> Option<Vec<(f64, u64)>> {
    let mut out = Vec::new();
    let mut stack = vec![guard.root()];
    while let Some(idx) = stack.pop() {
        let node = guard.node(idx)?;
        if let Some(r) = node.as_routing() {
            let delta = point[r.split_dim] - r.split_val;
            if delta.abs() <= radius {
                stack.push(r.left);
                stack.push(r.right);
            } else if delta <= 0.0 {
                stack.push(r.left);
            } else {
                stack.push(r.right);
            }
        } else {
            let bucket = node.as_leaf()?;
            for (coords, payload) in bucket {
                let d = euclidean(coords, point);
                if d <= radius {
                    out.push((d, *payload));
                }
            }
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::testutil::NoRemote;

    fn grid_store(points: u32) -> PartitionStore {
        let mut store = PartitionStore::new_leaf_with_rule(2, 4, SplitRule::Cycle, Vec::new(), 0);
        for i in 0..points {
            let p = [f64::from(i % 10), f64::from(i / 10)];
            store
                .insert(LocalNodeId(0), &p, u64::from(i), &NoRemote)
                .expect("local insert");
        }
        store
    }

    #[test]
    fn mirror_knn_matches_store_byte_for_byte() {
        let store = grid_store(60);
        let mirror = Mirror::from_store(&store, 2, 4, SplitRule::Cycle);
        let handle = mirror.handle();
        assert!(handle.is_active());
        for q in [[3.1, 4.2], [0.0, 0.0], [9.5, 5.5], [4.0, 4.0]] {
            for k in [1, 3, 8] {
                let mut state = KnnState::new(k, None);
                store
                    .knn(LocalNodeId(0), &q, &mut state, &NoRemote)
                    .expect("store knn");
                let expect = state.into_candidates();
                let (got, _) = handle.knn(&q, k, None).expect("mirror active");
                assert_eq!(got, expect, "q={q:?} k={k}");
            }
        }
    }

    #[test]
    fn incremental_insert_tracks_the_store() {
        let mut store = PartitionStore::new_leaf_with_rule(2, 4, SplitRule::Cycle, Vec::new(), 0);
        let mut mirror = Mirror::from_store(&store, 2, 4, SplitRule::Cycle);
        for i in 0..80u32 {
            let p = [f64::from(i % 9), f64::from(i / 9)];
            store
                .insert(LocalNodeId(0), &p, u64::from(i), &NoRemote)
                .expect("local insert");
            assert!(mirror.insert(&p, u64::from(i)));
        }
        let handle = mirror.handle();
        for q in [[2.5, 3.5], [8.0, 8.0], [0.1, 7.9]] {
            let mut state = KnnState::new(5, None);
            store
                .knn(LocalNodeId(0), &q, &mut state, &NoRemote)
                .expect("store knn");
            assert_eq!(
                handle.knn(&q, 5, None).expect("mirror active").0,
                state.into_candidates()
            );
            let mut expect = Vec::new();
            store
                .range(LocalNodeId(0), &q, 2.0, &mut expect, &NoRemote)
                .expect("store range");
            assert_eq!(handle.range(&q, 2.0).expect("mirror active").0, expect);
        }
    }

    #[test]
    fn deactivation_is_permanent_and_visible() {
        let store = grid_store(20);
        let mut mirror = Mirror::from_store(&store, 2, 4, SplitRule::Cycle);
        let handle = mirror.handle();
        assert!(handle.knn(&[1.0, 1.0], 2, None).is_some());
        mirror.deactivate();
        assert!(handle.knn(&[1.0, 1.0], 2, None).is_none());
        assert!(handle.range(&[1.0, 1.0], 3.0).is_none());
        // Maintenance becomes a no-op but does not report failure.
        assert!(mirror.insert(&[5.0, 5.0], 99));
    }

    #[test]
    fn dimension_mismatch_is_rejected_not_panicking() {
        let store = grid_store(10);
        let mirror = Mirror::from_store(&store, 2, 4, SplitRule::Cycle);
        assert!(mirror.handle().knn(&[1.0, 2.0, 3.0], 2, None).is_none());
        assert!(mirror.handle().range(&[1.0], 1.0).is_none());
    }
}
