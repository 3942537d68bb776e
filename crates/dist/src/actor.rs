//! The partition actor: one compute node hosting one partition.

use std::sync::Arc;

use semtree_cluster::{ClusterError, ComputeNodeId, Handler, NodeCtx};

use crate::config::SharedConfig;
use crate::proto::{Req, Resp};
use crate::store::{LocalNodeId, PartitionStore};
use crate::tree::unexpected;

/// The least number of records a partition logs between two snapshots.
const SNAPSHOT_FLOOR: usize = 256;

/// Hosts one partition of the SemTree and speaks the [`Req`]/[`Resp`]
/// protocol. One request at a time per partition, like one MPJ rank:
/// on its node's thread, or on the thread of a caller that found the
/// node idle (`Transport::call`). It is the only writer of its store's
/// tree, so it reads that tree directly, without validation. At a
/// border its walks follow the one crossing rule (`Borders`): into a
/// partition its own process hosts in place, into any other by message.
/// Other threads read the same tree lock-free once it is registered
/// with [`SharedConfig`]: client, executor and other actors' threads,
/// whose reads cross into this partition in place, and whose inserts
/// walk its routing nodes in place to find the partition that stores
/// the point.
pub(crate) struct PartitionActor {
    store: PartitionStore,
    shared: Arc<SharedConfig>,
    /// The hosting node, once this actor has registered the tree under
    /// it (on its first message; `DistSemTree::build_on` registers the
    /// root's earlier, and the actor's own registration repeats it).
    registered: Option<ComputeNodeId>,
    /// Records logged for this partition since its last snapshot.
    logged: usize,
    /// Points that snapshot held.
    covered: usize,
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
    /// WAL-recovered partition). A durable caller snapshots `store` at
    /// once, so the snapshot cadence starts covered at its point count.
    pub(crate) fn with_store(store: PartitionStore, shared: Arc<SharedConfig>) -> Self {
        PartitionActor {
            covered: store.points(),
            store,
            shared,
            registered: None,
            logged: 0,
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
                    self.logged += 1;
                    wal.apply_migration(ctx.node_id(), candidate, new_partition, root, || {
                        store.relink_to_partition(candidate, new_partition, root)
                    })
                    .map_err(|e| ClusterError::Remote(wal_failed(e)))?
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
        let mut splits = Vec::new();
        let stored_here = {
            let route = ctx.transport();
            let borders = self.shared.borders(route.as_deref().ok());
            let store = &mut self.store;
            let mut apply = || store.insert_logged(node, point, payload, &borders, &mut splits);
            match &self.shared.wal {
                Some(wal) => wal
                    .apply_insert(ctx.node_id(), node, point, payload, apply)
                    .map_err(wal_failed)?,
                None => apply(),
            }
        };
        let stored_here = stored_here?;
        if let Some(wal) = &self.shared.wal {
            wal.log_splits(ctx.node_id(), &splits).map_err(wal_failed)?;
            self.logged += 1 + splits.len();
        }
        self.maybe_snapshot(ctx).map_err(|e| e.to_string())?;
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
        match &self.shared.wal {
            Some(wal) => {
                self.store = wal
                    .apply_create(ctx.node_id(), depth, bucket, build)
                    .map_err(wal_failed)?;
                wal.log_splits(ctx.node_id(), &splits).map_err(wal_failed)?;
                self.logged += 1 + splits.len();
            }
            None => self.store = build(),
        }
        self.maybe_snapshot(ctx).map_err(|e| e.to_string())?;
        // A new tree: readers of the old one must find this one.
        self.register(ctx);
        Ok(())
    }

    /// Snapshot this partition's store once the records it logged since
    /// its last snapshot reach [`SNAPSHOT_FLOOR`] or the points that
    /// snapshot held, whichever is more. A snapshot then holds at most
    /// the points of the one before plus one per insert since, so about
    /// two points are encoded per record logged however large the
    /// partition grows, and replay reads at most one partition's worth
    /// of records past its snapshot. Log failures surface as actor
    /// errors.
    fn maybe_snapshot(&mut self, ctx: &NodeCtx<Req, Resp>) -> Result<(), ClusterError> {
        let Some(wal) = &self.shared.wal else {
            return Ok(());
        };
        if self.logged < SNAPSHOT_FLOOR.max(self.covered) {
            return Ok(());
        }
        wal.snapshot_image(ctx.node_id(), &self.store.snapshot())
            .map_err(|e| ClusterError::Remote(format!("wal snapshot failed: {e}")))?;
        self.logged = 0;
        self.covered = self.store.points();
        Ok(())
    }
}

/// An operation's outcome as the reply that carries it.
fn reply<T>(outcome: Result<T, String>, ok: impl FnOnce(T) -> Resp) -> Resp {
    outcome.map_or_else(Resp::Error, ok)
}

fn wal_failed(e: semtree_wal::WalError) -> String {
    format!("wal append failed: {e}")
}

impl Handler<Req, Resp> for PartitionActor {
    fn handle(&mut self, ctx: &NodeCtx<Req, Resp>, req: Req) -> Resp {
        if self.registered.is_none() {
            // The hosting node is only known once the first message
            // arrives.
            self.register(ctx);
        }
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
            } => {
                let route = ctx.transport();
                let borders = self.shared.borders(route.as_deref().ok());
                let hits = self.store.knn(node, &point, k, worst, &borders);
                borders.record();
                reply(hits, Resp::Candidates)
            }
            Req::Range {
                node,
                point,
                radius,
            } => {
                let route = ctx.transport();
                let borders = self.shared.borders(route.as_deref().ok());
                let hits = self.store.range(node, &point, radius, &borders);
                borders.record();
                reply(hits, Resp::Candidates)
            }
            Req::AdoptLeaf { bucket, depth } => {
                reply(self.adopt(ctx, &bucket, depth), |()| Resp::Done)
            }
            Req::Stats => Resp::Stats(self.store.stats()),
            Req::Verify => Resp::Violations(self.store.verify()),
        }
    }
}
