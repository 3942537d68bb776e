//! Crash recovery: the WAL handle partition actors log through, the
//! replay that turns a [`WalState`] back into live partition stores,
//! and the offline inspection behind `semtree recover`.
//!
//! Replay is **log-driven**: splits are applied from their own records
//! rather than re-derived from inserts, so the recovered arena assigns
//! exactly the node ids the live store had — which is what keeps
//! cross-partition `Remote` links (and therefore the coordinator's
//! routing tree) valid across a worker restart.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use semtree_cluster::ComputeNodeId;
use semtree_kdtree::versioned::SplitEvent;
use semtree_net::decode_exact;
use semtree_wal::{
    SequencedLog, Wal, WalError, WalRecord, WalReport, WalState, SNAPSHOT_FORMAT_COLUMNAR,
};

use crate::deploy::NetDeployConfig;
use crate::proto::PartitionStats;
use crate::store::{LocalNodeId, PartitionStore};

/// Shared write side of the WAL: every partition actor of a process logs
/// through one of these. Appends are serialized by the wrapping
/// [`SequencedLog`], which flushes each record before the paired state
/// mutation is allowed to run (`apply_*` below) — so a `SIGKILL` can
/// lose at most the record being written (which recovery tolerates as a
/// torn tail), and can never lose a record whose mutation was applied.
pub(crate) struct WalHandle {
    log: SequencedLog<Wal>,
}

impl WalHandle {
    pub(crate) fn new(wal: Wal) -> Arc<Self> {
        Arc::new(WalHandle {
            log: SequencedLog::new(wal),
        })
    }

    /// Log a point landing in (or being routed through) `partition`,
    /// then — only after the record is flushed — run `apply` (the store
    /// mutation). Returns whether the partition is due for a snapshot,
    /// plus `apply`'s result.
    pub(crate) fn apply_insert<T>(
        &self,
        partition: ComputeNodeId,
        node: LocalNodeId,
        point: &[f64],
        payload: u64,
        apply: impl FnOnce() -> T,
    ) -> Result<(bool, T), WalError> {
        let (appended, out) = self.log.apply_after_flush(
            &WalRecord::PointInsert {
                partition: partition.0,
                node: node.0,
                point: point.to_vec(),
                payload,
            },
            |_| apply(),
        )?;
        Ok((appended.snapshot_due, out))
    }

    /// Log the splits an insert or adoption triggered, in order. (The
    /// splits are *produced by* an already-applied mutation, so there is
    /// no apply half here; replay derives the arena ids from these.)
    pub(crate) fn log_splits(
        &self,
        partition: ComputeNodeId,
        splits: &[SplitEvent],
    ) -> Result<bool, WalError> {
        let mut due = false;
        for s in splits {
            let appended = self.log.append(&WalRecord::LeafSplit {
                partition: partition.0,
                leaf: s.leaf,
                split_dim: s.split_dim,
                split_val: s.split_val,
                left: s.left,
                right: s.right,
            })?;
            due |= appended.snapshot_due;
        }
        Ok(due)
    }

    /// Log a partition coming into existence with an adopted bucket,
    /// then — only after the record is flushed — run `apply` (building
    /// the store).
    pub(crate) fn apply_create<T>(
        &self,
        partition: ComputeNodeId,
        depth: u32,
        bucket: &[(Vec<f64>, u64)],
        apply: impl FnOnce() -> T,
    ) -> Result<(bool, T), WalError> {
        let (appended, out) = self.log.apply_after_flush(
            &WalRecord::PartitionCreate {
                partition: partition.0,
                depth: depth as usize,
                bucket: bucket.to_vec(),
            },
            |_| apply(),
        )?;
        Ok((appended.snapshot_due, out))
    }

    /// Log a leaf being evicted to a freshly built partition, then —
    /// only after the record is flushed — run `apply` (the relink).
    pub(crate) fn apply_migration<T>(
        &self,
        partition: ComputeNodeId,
        evicted: LocalNodeId,
        target_partition: ComputeNodeId,
        target_node: LocalNodeId,
        apply: impl FnOnce() -> T,
    ) -> Result<(bool, T), WalError> {
        let (appended, out) = self.log.apply_after_flush(
            &WalRecord::LeafMigration {
                partition: partition.0,
                evicted: evicted.0,
                target_partition: target_partition.0,
                target_node: target_node.0,
            },
            |_| apply(),
        )?;
        Ok((appended.snapshot_due, out))
    }

    /// Store one partition's snapshot blob
    /// ([`PartitionStore::snapshot`]), superseding its log records.
    pub(crate) fn snapshot_image(
        &self,
        partition: ComputeNodeId,
        blob: &[u8],
    ) -> Result<(), WalError> {
        self.log
            .with_sink(|wal| wal.snapshot(partition.0, SNAPSHOT_FORMAT_COLUMNAR, blob))?;
        Ok(())
    }

    /// Delete sealed segments fully covered by snapshots.
    pub(crate) fn compact(&self) -> Result<usize, WalError> {
        self.log.with_sink(|wal| wal.compact())
    }
}

/// Reconstruct every partition store recorded in `state`: seed each
/// partition from its snapshot blob (or its `partition-create` record),
/// then re-apply the live tail in LSN order.
pub(crate) fn replay_stores(state: &WalState) -> Result<Vec<(u32, PartitionStore)>, String> {
    let config: NetDeployConfig =
        decode_exact(&state.config).map_err(|e| format!("wal config blob: {e}"))?;
    let kd = config.to_config().kd();

    let mut stores: BTreeMap<u32, PartitionStore> = BTreeMap::new();
    for (&partition, snap) in &state.snapshots {
        let store = PartitionStore::restore(&snap.blob)
            .map_err(|e| format!("partition {partition} snapshot: {e}"))?;
        stores.insert(partition, store);
    }

    for (lsn, record) in state.live_tail() {
        match record {
            WalRecord::PartitionCreate {
                partition,
                depth,
                bucket,
            } => {
                stores.insert(
                    *partition,
                    PartitionStore::raw_leaf(kd, bucket, *depth as u32),
                );
            }
            WalRecord::PointInsert {
                partition,
                node,
                point,
                payload,
            } => {
                // A record for a partition with no create/snapshot is a
                // WAL inconsistency; a forwarded insert (navigation hits
                // a remote link) is a logged-but-not-stored no-op.
                let store = missing(stores.get_mut(partition), *partition, *lsn)?;
                store.replay_insert(LocalNodeId(*node), point, *payload);
            }
            WalRecord::LeafSplit {
                partition,
                leaf,
                split_dim,
                split_val,
                left,
                right,
            } => {
                let store = missing(stores.get_mut(partition), *partition, *lsn)?;
                store
                    .apply_split(&SplitEvent {
                        leaf: *leaf,
                        split_dim: *split_dim,
                        split_val: *split_val,
                        left: *left,
                        right: *right,
                    })
                    .map_err(|e| format!("lsn {lsn}: {e}"))?;
            }
            WalRecord::LeafMigration {
                partition,
                evicted,
                target_partition,
                target_node,
            } => {
                let store = missing(stores.get_mut(partition), *partition, *lsn)?;
                store
                    .relink_to_partition(
                        LocalNodeId(*evicted),
                        ComputeNodeId(*target_partition),
                        LocalNodeId(*target_node),
                    )
                    .map_err(|e| format!("lsn {lsn}: {e}"))?;
            }
        }
    }
    Ok(stores.into_iter().collect())
}

fn missing(
    store: Option<&mut PartitionStore>,
    partition: u32,
    lsn: u64,
) -> Result<&mut PartitionStore, String> {
    store.ok_or_else(|| format!("lsn {lsn}: record for unknown partition {partition}"))
}

/// One partition's snapshot compression footprint: what its blob costs
/// on disk versus its points uncompressed, `points × 8 × (dims + 1)`
/// bytes (coordinates and payload as 8-byte words).
#[derive(Debug, Clone, Copy)]
pub struct SnapshotCompression {
    /// Compute-node id of the partition.
    pub partition: u32,
    /// Payload format of the stored blob (`SNAPSHOT_FORMAT_*`).
    pub format: u8,
    /// Bytes of the blob as stored in the snapshot file.
    pub stored_bytes: usize,
    /// Bytes of the blob's points uncompressed (the baseline).
    pub raw_bytes: usize,
}

impl SnapshotCompression {
    /// Baseline-to-stored compression ratio; `None` when either side is
    /// 0 bytes, as for a routing-only partition, whose blob holds no points.
    #[must_use]
    pub fn ratio(&self) -> Option<f64> {
        (self.raw_bytes > 0 && self.stored_bytes > 0)
            .then(|| self.raw_bytes as f64 / self.stored_bytes as f64)
    }
}

/// What `semtree recover` reports: the raw WAL summary plus the
/// statistics of every partition store an online recovery would rebuild.
#[derive(Debug)]
pub struct WalInspection {
    /// Per-file WAL summary (segments, records, torn tail, …).
    pub report: WalReport,
    /// `(partition id, stats)` of each replayed store, ascending id.
    pub partitions: Vec<(u32, PartitionStats)>,
    /// Per-partition snapshot compression, ascending partition id.
    pub compression: Vec<SnapshotCompression>,
}

/// Offline inspect-and-replay of a WAL directory: verifies every
/// checksum, replays the full history, and reports what a restarted
/// worker would recover — without touching the files.
///
/// # Errors
/// Fails on unreadable or corrupt WAL contents, or a history that does
/// not replay cleanly.
pub fn inspect_wal(dir: &Path) -> Result<WalInspection, String> {
    let state = Wal::load(dir).map_err(|e| e.to_string())?;
    let report = WalReport::from_state(dir, &state).map_err(|e| e.to_string())?;
    let mut compression = Vec::with_capacity(state.snapshots.len());
    for (&partition, snap) in &state.snapshots {
        compression.push(SnapshotCompression {
            partition,
            format: snap.format,
            stored_bytes: snap.blob.len(),
            raw_bytes: crate::colimage::raw_point_bytes(&snap.blob)
                .map_err(|e| format!("partition {partition} snapshot: {e}"))?,
        });
    }
    let stores = replay_stores(&state)?;
    let partitions = stores
        .into_iter()
        .map(|(partition, store)| (partition, store.stats()))
        .collect();
    Ok(WalInspection {
        report,
        partitions,
        compression,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    use semtree_cluster::CostModel;
    use semtree_wal::WalOptions;

    use crate::tree::{CapacityPolicy, DistConfig, DistSemTree, Query, QueryOutcome};

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("semtree-recovery-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Replay the on-disk history exactly as a restarted worker would.
    fn replayed(dir: &Path) -> Vec<(u32, PartitionStore)> {
        replay_stores(&Wal::load(dir).expect("load wal")).expect("replay")
    }

    /// Every store's snapshot blob: equal blobs are equal arenas, node
    /// for node.
    fn images(stores: &[(u32, PartitionStore)]) -> Vec<(u32, Vec<u8>)> {
        stores.iter().map(|(p, s)| (*p, s.snapshot())).collect()
    }

    fn durable_tree(dir: &Path, config: &DistConfig, options: WalOptions) -> DistSemTree {
        crate::deploy::build_local_durable(config.clone(), CostModel::zero(), 1, &[], dir, options)
            .expect("build durable tree")
    }

    #[test]
    fn replay_after_snapshot_and_compaction_is_structurally_identical() {
        let dir = scratch_dir("compaction");
        let config = DistConfig::new(2)
            .with_bucket_size(4)
            .with_max_partitions(8)
            .with_capacity(CapacityPolicy::MaxPoints(40));
        // Tiny segments and a cadence the workload will cross several
        // times, so sealing, live snapshots and compaction all happen
        // organically mid-run.
        let options = WalOptions::default()
            .with_segment_bytes(4096)
            .with_snapshot_every(64);
        let tree = durable_tree(&dir, &config, options);
        for i in 0..150u64 {
            tree.query(Query::insert(&[(i % 13) as f64, (i / 13) as f64], i))
                .and_then(QueryOutcome::inserted)
                .expect("insert");
        }
        let live_points = tree.len();
        let live_partitions = tree.partition_count();
        tree.shutdown();

        let stores = replayed(&dir);
        assert_eq!(stores.len(), live_partitions);
        assert_eq!(
            stores.iter().map(|(_, s)| s.points()).sum::<usize>(),
            live_points,
            "replay must account for every live point"
        );
        // The capacity policy forced build-partition, so the replayed
        // root must hold real cross-partition links.
        let remote_links: usize = stores.iter().map(|(_, s)| s.stats().edge_nodes).sum();
        assert!(remote_links > 0, "workload must have migrated leaves");
        let before = images(&stores);

        // Snapshot every partition, compact away the covered segments,
        // and replay again: the rebuilt stores must be *identical* — same
        // arena order, node ids, parents, buckets and remote links — not
        // merely equivalent under queries.
        let segment_files = |dir: &Path| {
            std::fs::read_dir(dir.join("segments"))
                .map(|entries| entries.count())
                .unwrap_or(0)
        };
        let segments_before = segment_files(&dir);
        assert!(segments_before > 1, "workload must span several segments");
        let (wal, _state) = Wal::resume(&dir, WalOptions::default()).expect("resume");
        let handle = WalHandle::new(wal);
        for (partition, blob) in &before {
            handle
                .snapshot_image(ComputeNodeId(*partition), blob)
                .expect("snapshot");
        }
        handle.compact().expect("compact");
        drop(handle);
        assert!(
            segment_files(&dir) < segments_before,
            "snapshots must have made old segments reclaimable"
        );

        let after = images(&replayed(&dir));
        assert_eq!(
            before, after,
            "snapshot + compaction changed the replayed structure"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn inspect_reports_columnar_snapshot_compression() {
        let dir = scratch_dir("inspect-compression");
        let config = DistConfig::new(2).with_bucket_size(8);
        let tree = durable_tree(&dir, &config, WalOptions::default());
        // Points drawn from a small palette — the occurrence-heavy shape
        // the columnar codec is built for.
        for i in 0..400u64 {
            tree.query(Query::insert(
                &[(i % 5) as f64 * 0.25, (i % 7) as f64 * 0.5],
                i,
            ))
            .and_then(QueryOutcome::inserted)
            .expect("insert");
        }
        tree.shutdown();
        let (wal, _) = Wal::resume(&dir, WalOptions::default()).expect("resume");
        let handle = WalHandle::new(wal);
        for (partition, blob) in images(&replayed(&dir)) {
            handle
                .snapshot_image(ComputeNodeId(partition), &blob)
                .expect("snapshot");
        }
        drop(handle);

        let inspection = inspect_wal(&dir).expect("inspect");
        assert!(!inspection.compression.is_empty());
        for c in &inspection.compression {
            assert_eq!(c.format, semtree_wal::SNAPSHOT_FORMAT_COLUMNAR);
            assert!(
                c.ratio().is_some_and(|r| r > 5.0),
                "partition {}: ratio {:?} ({} stored / {} raw)",
                c.partition,
                c.ratio(),
                c.stored_bytes,
                c.raw_bytes
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_reconstructs_points_written_after_the_last_snapshot() {
        let dir = scratch_dir("tail");
        let config = DistConfig::new(2).with_bucket_size(4);
        // A cadence the workload never reaches: everything after the
        // initial snapshot lives only in the tail.
        let options = WalOptions::default()
            .with_segment_bytes(1 << 20)
            .with_snapshot_every(1_000_000);
        let tree = durable_tree(&dir, &config, options);
        for i in 0..60u64 {
            tree.query(Query::insert(
                &[f64::from(i as u32 % 7), f64::from(i as u32 / 7)],
                i,
            ))
            .and_then(QueryOutcome::inserted)
            .expect("insert");
        }
        tree.shutdown();

        let stores = replayed(&dir);
        assert_eq!(stores.len(), 1);
        assert_eq!(stores[0].1.points(), 60, "tail-only replay lost points");
        std::fs::remove_dir_all(&dir).ok();
    }
}
