//! The partition actor: one compute node hosting one partition.

use std::sync::Arc;

use semtree_cluster::{ClusterError, ComputeNodeId, Handler, NodeCtx};
use semtree_kdtree::versioned::{NeedsMailbox, RemoteOps};
use semtree_par::Pool;

use crate::proto::{Req, Resp};
use crate::store::{LocalNodeId, PartitionStore};
use crate::tree::{unexpected, SharedConfig};

/// Hosts one partition of the SemTree and speaks the [`Req`]/[`Resp`]
/// protocol. Single-threaded per partition, like one MPJ rank, and the
/// only writer of its store's tree — so it reads that tree directly,
/// without validation. Other threads read the same tree lock-free once
/// it is registered with [`SharedConfig`]: client threads, whose reads
/// start at the root partition and cross into this one in place, and
/// whose inserts walk its routing nodes in place to find the partition
/// that stores the point; and the `pool` workers of whichever actor fans
/// a [`Req::KnnBatch`] out.
pub(crate) struct PartitionActor {
    store: PartitionStore,
    shared: Arc<SharedConfig>,
    pool: Pool,
    /// The hosting node, once this actor has registered the tree under
    /// it (on its first message; `DistSemTree::build_on` registers the
    /// root's earlier, and the actor's own registration repeats it).
    registered: Option<ComputeNodeId>,
}

impl Drop for PartitionActor {
    /// The actor is gone — shut down, or its thread panicked — and
    /// writes fail from here on, so reads must too: withdraw the tree.
    fn drop(&mut self) {
        if let Some(node) = self.registered {
            self.shared.unregister_read_handle(node, self.store.tree());
        }
    }
}

impl PartitionActor {
    /// An empty partition (fresh leaf at depth 0; an [`Req::AdoptLeaf`]
    /// normally follows immediately and resets the depth).
    pub(crate) fn fresh(shared: Arc<SharedConfig>) -> Self {
        Self::with_store(PartitionStore::raw_leaf(shared.kd, &[], 0), shared)
    }

    /// A partition with a pre-built store (the fan-out root, or a
    /// WAL-recovered partition).
    pub(crate) fn with_store(store: PartitionStore, shared: Arc<SharedConfig>) -> Self {
        PartitionActor {
            store,
            shared,
            pool: Pool::new(),
            registered: None,
        }
    }

    /// Publish the current store's tree; lock-free readers use it to
    /// serve k-NN and range queries without entering this mailbox.
    fn register(&mut self, ctx: &NodeCtx<Req, Resp>) {
        self.shared
            .register_read_handle(ctx.node_id(), self.store.tree());
        self.registered = Some(ctx.node_id());
    }

    /// The build-partition algorithm (§III-B.2): while the resource
    /// condition fires and compute nodes remain, move the biggest leaf to a
    /// newly created partition and link it. The new partition is placed by
    /// the transport — on another OS process under `semtree-net`. The leaf
    /// keeps its points until the relink, so a failed transfer loses
    /// nothing and needs no undo.
    fn enforce_capacity(&mut self, ctx: &NodeCtx<Req, Resp>) -> Result<(), ClusterError> {
        while self.shared.capacity.exceeded(self.store.points()) {
            let Some(candidate) = self.store.eviction_candidate() else {
                break; // nothing evictable (root leaf only)
            };
            if !self.shared.try_reserve_partition() {
                break; // no compute node available to host a new partition
            }
            let new_partition = match self.transfer_leaf(ctx, candidate) {
                Ok(id) => id,
                Err(e) => {
                    self.shared.release_partition();
                    return Err(e);
                }
            };
            // Write-ahead of the relink: the relink runs as the apply
            // half of the flushed migration record, so a crash between
            // the two replays the migration from the log and the remote
            // link survives. (The adoption itself is durable in the
            // *target* process's WAL via its PartitionCreate record.)
            let store = &mut self.store;
            let root = LocalNodeId(0);
            let relinked = match &self.shared.wal {
                Some(wal) => {
                    wal.apply_migration(ctx.node_id(), candidate, new_partition, root, || {
                        store.relink_to_partition(candidate, new_partition, root)
                    })
                    .map_err(|e| ClusterError::Remote(format!("wal append failed: {e}")))?
                    .1
                }
                None => store.relink_to_partition(candidate, new_partition, root),
            };
            relinked.map_err(ClusterError::Remote)?;
        }
        Ok(())
    }

    /// Copy `candidate`'s bucket into a freshly spawned partition.
    fn transfer_leaf(
        &self,
        ctx: &NodeCtx<Req, Resp>,
        candidate: LocalNodeId,
    ) -> Result<ComputeNodeId, ClusterError> {
        let (bucket, depth) = self.store.detach_leaf(candidate).ok_or_else(|| {
            ClusterError::Remote(format!("eviction candidate {} is not a leaf", candidate.0))
        })?;
        let new_partition = ctx.spawn_member()?;
        match ctx.call(new_partition, Req::AdoptLeaf { bucket, depth })? {
            Resp::Done => Ok(new_partition),
            other => Err(unexpected("an AdoptLeaf acknowledgement", other)),
        }
    }

    /// [`Req::Insert`]. Write-ahead: `apply_insert` flushes the record
    /// before running the store mutation, so the mutation can never
    /// outrun its log entry. A client routes each insert in place to the
    /// partition that stores it, so navigation here forwards only when
    /// the leaf the client found migrated before the message landed (or
    /// the sender addressed an upstream partition): then this partition
    /// relays the point, and its record stays behind as a no-op on
    /// replay (the receiving partition logs its own copy on arrival).
    fn insert(
        &mut self,
        ctx: &NodeCtx<Req, Resp>,
        node: LocalNodeId,
        point: &[f64],
        payload: u64,
    ) -> Result<(), String> {
        let remote = FabricRemote { ctx };
        let store = &mut self.store;
        let mut splits = Vec::new();
        let mut apply = || store.insert_logged(node, point, payload, &remote, &mut splits);
        let (mut due, stored_here) = match &self.shared.wal {
            Some(wal) => wal
                .apply_insert(ctx.node_id(), node, point, payload, apply)
                .map_err(wal_failed)?,
            None => (false, apply()),
        };
        let stored_here = stored_here?;
        if let Some(wal) = &self.shared.wal {
            due |= wal.log_splits(ctx.node_id(), &splits).map_err(wal_failed)?;
        }
        self.maybe_snapshot(ctx, due).map_err(|e| e.to_string())?;
        if stored_here {
            // On failure the point is stored and the tree intact, but the
            // client should know capacity could not be enforced.
            self.enforce_capacity(ctx)
                .map_err(|e| format!("build-partition failed: {e}"))?;
        }
        Ok(())
    }

    /// [`Req::AdoptLeaf`]. Write-ahead of this partition's birth: the
    /// store is built only after the PartitionCreate record is flushed.
    /// The splits the adopted bucket triggers are logged right after, so
    /// the replayed arena is id-for-id identical.
    fn adopt(
        &mut self,
        ctx: &NodeCtx<Req, Resp>,
        bucket: &[(Vec<f64>, u64)],
        depth: u32,
    ) -> Result<(), String> {
        let kd = self.shared.kd;
        let mut splits = Vec::new();
        let mut build = || PartitionStore::new_leaf_logged(kd, bucket, depth, &mut splits);
        if let Some(wal) = &self.shared.wal {
            let created = wal.apply_create(ctx.node_id(), depth, bucket, build);
            self.store = created.map_err(wal_failed)?.1;
            let due = wal.log_splits(ctx.node_id(), &splits).map_err(wal_failed)?;
            self.maybe_snapshot(ctx, due).map_err(|e| e.to_string())?;
        } else {
            self.store = build();
        }
        // A new tree: readers of the old one must find this one.
        self.register(ctx);
        Ok(())
    }

    /// Snapshot this partition's store when the WAL says enough history
    /// piled up; log failures surface as actor errors.
    fn maybe_snapshot(
        &self,
        ctx: &NodeCtx<Req, Resp>,
        snapshot_due: bool,
    ) -> Result<(), ClusterError> {
        if !snapshot_due {
            return Ok(());
        }
        if let Some(wal) = &self.shared.wal {
            wal.snapshot_image(ctx.node_id(), &self.store.to_image())
                .map_err(|e| ClusterError::Remote(format!("wal snapshot failed: {e}")))?;
        }
        Ok(())
    }
}

/// [`RemoteOps`] over the live message fabric.
struct FabricRemote<'a> {
    ctx: &'a NodeCtx<Req, Resp>,
}

impl FabricRemote<'_> {
    fn expect_candidates(resp: Resp) -> Result<Vec<(f64, u64)>, ClusterError> {
        match resp {
            Resp::Candidates(c) => Ok(c),
            other => Err(unexpected("candidates", other)),
        }
    }
}

impl RemoteOps for FabricRemote<'_> {
    type Error = ClusterError;

    fn insert(
        &self,
        partition: u32,
        node: u32,
        point: &[f64],
        payload: u64,
    ) -> Result<(), ClusterError> {
        match self.ctx.call(
            ComputeNodeId(partition),
            Req::Insert {
                node: LocalNodeId(node),
                point: point.to_vec(),
                payload,
            },
        )? {
            Resp::Done => Ok(()),
            other => Err(unexpected("done", other)),
        }
    }

    fn knn(
        &self,
        partition: u32,
        node: u32,
        point: &[f64],
        k: usize,
        worst: Option<f64>,
    ) -> Result<Vec<(f64, u64)>, ClusterError> {
        Self::expect_candidates(self.ctx.call(
            ComputeNodeId(partition),
            Req::Knn {
                node: LocalNodeId(node),
                point: point.to_vec(),
                k,
                worst,
            },
        )?)
    }

    fn range(
        &self,
        partition: u32,
        node: u32,
        point: &[f64],
        radius: f64,
    ) -> Result<Vec<(f64, u64)>, ClusterError> {
        Self::expect_candidates(self.ctx.call(
            ComputeNodeId(partition),
            Req::Range {
                node: LocalNodeId(node),
                point: point.to_vec(),
                radius,
            },
        )?)
    }

    fn range_parallel(
        &self,
        targets: [(u32, u32); 2],
        point: &[f64],
        radius: f64,
    ) -> Result<[Vec<(f64, u64)>; 2], ClusterError> {
        let range = |(partition, node)| {
            let req = Req::Range {
                node: LocalNodeId(node),
                point: point.to_vec(),
                radius,
            };
            (ComputeNodeId(partition), req)
        };
        let resps = self.ctx.call_many(targets.map(range).to_vec())?;
        match <[Resp; 2]>::try_from(resps) {
            Ok([a, b]) => Ok([Self::expect_candidates(a)?, Self::expect_candidates(b)?]),
            Err(resps) => Err(ClusterError::Remote(format!(
                "scatter of two requests gathered {} replies",
                resps.len()
            ))),
        }
    }
}

/// An operation's outcome as the reply that carries it.
fn reply<T>(outcome: Result<T, String>, ok: impl FnOnce(T) -> Resp) -> Resp {
    outcome.map_or_else(Resp::Error, ok)
}

fn wal_failed(e: semtree_wal::WalError) -> String {
    format!("wal append failed: {e}")
}

impl Handler for PartitionActor {
    type Req = Req;
    type Resp = Resp;

    fn handle(&mut self, ctx: &NodeCtx<Req, Resp>, req: Req) -> Resp {
        if self.registered.is_none() {
            // The hosting node is only known once the first message
            // arrives.
            self.register(ctx);
        }
        let remote = FabricRemote { ctx };
        match req {
            Req::Insert {
                node,
                point,
                payload,
            } => reply(self.insert(ctx, node, &point, payload), |()| Resp::Done),
            Req::Knn {
                node,
                point,
                k,
                worst,
            } => reply(
                self.store.knn(node, &point, k, worst, &remote),
                Resp::Candidates,
            ),
            Req::Range {
                node,
                point,
                radius,
            } => reply(
                self.store.range(node, &point, radius, &remote),
                Resp::Candidates,
            ),
            Req::AdoptLeaf { bucket, depth } => {
                reply(self.adopt(ctx, &bucket, depth), |()| Resp::Done)
            }
            Req::KnnBatch { node, points, k } => {
                // Fan the queries out over the worker pool, each worker
                // walking this partition's tree and crossing in place
                // into the partitions this process hosts. The fabric
                // context is single-threaded, so a query that must enter
                // a partition on another process is re-run here, one
                // after the other, over the fabric.
                let (store, shared) = (&self.store, &self.shared);
                let in_place = |i: usize| {
                    let reader = shared.reader();
                    let answer = store.try_knn(node, &points[i], k, None, &reader);
                    // This tree is the actor's own: only what the walk
                    // read across a border was read optimistically.
                    if reader.crossed() > 0 {
                        shared.record_read(&reader);
                    }
                    answer
                };
                let answers = self.pool.map(points.len(), &in_place);
                let over_fabric = |(answer, point): (_, &Vec<f64>)| match answer? {
                    Ok(hits) => Ok(hits),
                    Err(NeedsMailbox) => store.knn(node, point, k, None, &remote),
                };
                let batches = answers.into_iter().zip(&points).map(over_fabric);
                reply(batches.collect(), Resp::CandidateBatches)
            }
            Req::Stats => Resp::Stats(self.store.stats()),
            Req::Verify => Resp::Violations(self.store.verify()),
        }
    }
}
