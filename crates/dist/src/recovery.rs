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
use semtree_wal::{Wal, WalError, WalRecord, WalReport, WalState, SNAPSHOT_FORMAT_COLUMNAR};

use crate::deploy::NetDeployConfig;
use crate::proto::PartitionStats;
use crate::store::{LocalNodeId, PartitionStore};

/// Shared write side of the WAL: every partition actor of a process logs
/// through one of these. `Wal::append` flushes each record under the
/// log's one lock before it returns, and each `apply_*` below runs the
/// paired state mutation only after that — so a `SIGKILL` can lose at
/// most the record being written (which recovery tolerates as a torn
/// tail), and can never lose a record whose mutation was applied.
pub(crate) struct WalHandle {
    wal: Wal,
}

impl WalHandle {
    pub(crate) fn new(wal: Wal) -> Arc<Self> {
        Arc::new(WalHandle { wal })
    }

    /// Log a point landing in (or being routed through) `partition`,
    /// then — only after the record is flushed — run `apply` (the store
    /// mutation).
    pub(crate) fn apply_insert<T>(
        &self,
        partition: ComputeNodeId,
        node: LocalNodeId,
        point: &[f64],
        payload: u64,
        apply: impl FnOnce() -> T,
    ) -> Result<T, WalError> {
        self.wal.append(&WalRecord::PointInsert {
            partition: partition.0,
            node: node.0,
            point: point.to_vec(),
            payload,
        })?;
        Ok(apply())
    }

    /// Log the splits an insert or adoption triggered, in order. (The
    /// splits are *produced by* an already-applied mutation, so there is
    /// no apply half here; replay derives the arena ids from these.)
    pub(crate) fn log_splits(
        &self,
        partition: ComputeNodeId,
        splits: &[SplitEvent],
    ) -> Result<(), WalError> {
        for s in splits {
            self.wal.append(&WalRecord::LeafSplit {
                partition: partition.0,
                leaf: s.leaf,
                split_dim: s.split_dim,
                split_val: s.split_val,
                left: s.left,
                right: s.right,
            })?;
        }
        Ok(())
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
    ) -> Result<T, WalError> {
        self.wal.append(&WalRecord::PartitionCreate {
            partition: partition.0,
            depth: depth as usize,
            bucket: bucket.to_vec(),
        })?;
        Ok(apply())
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
    ) -> Result<T, WalError> {
        self.wal.append(&WalRecord::LeafMigration {
            partition: partition.0,
            evicted: evicted.0,
            target_partition: target_partition.0,
            target_node: target_node.0,
        })?;
        Ok(apply())
    }

    /// Store one partition's snapshot blob
    /// ([`PartitionStore::snapshot`]), superseding its log records.
    pub(crate) fn snapshot_image(
        &self,
        partition: ComputeNodeId,
        blob: &[u8],
    ) -> Result<(), WalError> {
        self.wal
            .snapshot(partition.0, SNAPSHOT_FORMAT_COLUMNAR, blob)?;
        Ok(())
    }

    /// Delete sealed segments fully covered by snapshots.
    pub(crate) fn compact(&self) -> Result<usize, WalError> {
        self.wal.compact()
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
    use semtree_kdtree::versioned::RemoteOps;
    use semtree_net::Encode;
    use semtree_wal::WalOptions;

    use crate::config::{CapacityPolicy, DistConfig};
    use crate::query::{Query, QueryOutcome};
    use crate::tree::DistSemTree;

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
        // Tiny segments, and enough points that partitions log past the
        // snapshot floor once all eight are built, so sealing, live
        // snapshots and compaction all happen organically mid-run.
        let options = WalOptions::default().with_segment_bytes(4096);
        let tree = durable_tree(&dir, &config, options);
        for i in 0..800u64 {
            tree.query(Query::insert(&[(i % 13) as f64, (i / 13) as f64], i))
                .and_then(QueryOutcome::inserted)
                .expect("insert");
        }
        let live_points = tree.len();
        let live_partitions = tree.partition_count();
        tree.shutdown();
        // The build snapshots the root before anything is logged (LSN 0).
        let live = Wal::load(&dir).expect("load wal").snapshots;
        assert!(
            live.values().any(|snap| snap.lsn > 0),
            "the cadence must have fired mid-run"
        );

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

    /// A partition with no links below it: a walk never crosses.
    struct NoLinks;

    impl RemoteOps for NoLinks {
        type Error = String;
        fn insert(&self, partition: u32, _: u32, _: &[f64], _: u64) -> Result<(), String> {
            Err(format!("no link to partition {partition}"))
        }
        fn knn(
            &self,
            partition: u32,
            _: u32,
            _: &[f64],
            _: usize,
            _: Option<f64>,
        ) -> Result<Vec<(f64, u64)>, String> {
            Err(format!("no link to partition {partition}"))
        }
        fn range(
            &self,
            partition: u32,
            _: u32,
            _: &[f64],
            _: f64,
        ) -> Result<Vec<(f64, u64)>, String> {
            Err(format!("no link to partition {partition}"))
        }
    }

    /// The duplicate-heavy twin of the test above, on one partition
    /// written the way its actor writes it (log the insert, apply it,
    /// log its splits): most inserts repeat one of three points, so
    /// leaves go over-full with copies no plane divides, and later
    /// distinct points land in those leaves and split them, overflow
    /// blocks included. The live store's image must equal the image of
    /// its replay, before and after a mid-run snapshot and compaction.
    #[test]
    fn duplicate_heavy_replay_is_structurally_identical() {
        let dir = scratch_dir("duplicates");
        let config = DistConfig::new(2).with_bucket_size(4);
        let blob = NetDeployConfig::from_config(&config)
            .expect("config")
            .to_bytes();
        let options = WalOptions::default().with_segment_bytes(4096);
        let handle = WalHandle::new(Wal::create(&dir, 0, &blob, options).expect("create"));
        let p = ComputeNodeId(0);
        let build = || PartitionStore::raw_leaf(config.kd(), &[], 0);
        let mut store = handle.apply_create(p, 0, &[], build).expect("create");
        let copies = [[1.0, 1.0], [1.0, -0.0], [4.0, 1.0]];
        let mut splits = Vec::new();
        for i in 0..600u64 {
            let point = if i < 400 || i % 3 == 0 {
                copies[(i % 7 % 3) as usize]
            } else {
                // Distinct points next to the copies, in their leaves.
                copies[(i % 3) as usize].map(|c| c + (i % 11) as f64 / 16.0)
            };
            splits.clear();
            let apply = || store.insert_logged(LocalNodeId(0), &point, i, &NoLinks, &mut splits);
            let stored = handle.apply_insert(p, LocalNodeId(0), &point, i, apply);
            assert_eq!(stored.expect("append"), Ok(true));
            handle.log_splits(p, &splits).expect("log splits");
            if i == 450 {
                handle
                    .snapshot_image(p, &store.snapshot())
                    .expect("snapshot");
            }
        }
        assert!(
            store.stats().leaves > 3,
            "the distinct points must have split the over-full leaves"
        );
        let live = vec![(0, store.snapshot())];
        assert_eq!(
            images(&replayed(&dir)),
            live,
            "replay changed the structure"
        );

        handle
            .snapshot_image(p, &store.snapshot())
            .expect("snapshot");
        handle.compact().expect("compact");
        drop(handle);
        assert_eq!(
            images(&replayed(&dir)),
            live,
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
        // 60 inserts stay under the snapshot floor: everything after the
        // initial snapshot lives only in the tail.
        let options = WalOptions::default().with_segment_bytes(1 << 20);
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

        let state = Wal::load(&dir).expect("load wal");
        assert_eq!(state.snapshots[&0].lsn, 0, "only the build's snapshot");
        let stores = replayed(&dir);
        assert_eq!(stores.len(), 1);
        assert_eq!(stores[0].1.points(), 60, "tail-only replay lost points");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Flush before apply: inside each `apply_*` closure, another reader
    /// of the directory already loads the record, the writer still open.
    #[test]
    fn apply_runs_only_once_the_record_is_durable() {
        let dir = scratch_dir("apply-order");
        let wal = Wal::create(&dir, 0, b"", WalOptions::default()).expect("create");
        let handle = WalHandle::new(wal);
        let last = || Wal::load(&dir).expect("load").tail.pop().map(|(_, r)| r);
        let (p, node) = (ComputeNodeId(7), LocalNodeId(0));
        let bucket = vec![(vec![1.0], 5)];
        let seen = handle.apply_create(p, 1, &bucket, last).expect("create");
        let create = WalRecord::PartitionCreate {
            partition: 7,
            depth: 1,
            bucket,
        };
        assert_eq!(seen, Some(create));
        let seen = handle
            .apply_insert(p, node, &[2.0], 6, last)
            .expect("insert");
        let insert = WalRecord::PointInsert {
            partition: 7,
            node: 0,
            point: vec![2.0],
            payload: 6,
        };
        assert_eq!(seen, Some(insert));
        drop(handle);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The snapshot cadence is proportional to the partition: 64k uniform
    /// points into one partition encode about two points per insert in
    /// snapshots (a fixed cadence of 256 records encodes ~125), and the
    /// live tail stays under one partition's worth of records.
    #[test]
    fn snapshots_encode_a_bounded_number_of_points_per_insert() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};

        const INSERTS: u64 = 65_536;
        let dir = scratch_dir("cadence");
        let config = DistConfig::new(6).with_bucket_size(32);
        let tree = durable_tree(&dir, &config, WalOptions::default());
        let snap = dir.join("snapshots").join("part-0.snap");
        // A snapshot file's covered LSN: bytes 12..20, after its magic,
        // version and partition words.
        let covered_lsn = || {
            let mut header = [0u8; 20];
            let mut file = std::fs::File::open(&snap).expect("snapshot file");
            std::io::Read::read_exact(&mut file, &mut header).expect("header");
            u64::from_le_bytes(header[12..].try_into().expect("8 bytes"))
        };
        let mut rng = StdRng::seed_from_u64(64);
        let (mut lsn, mut snapshots, mut encoded) = (covered_lsn(), 0, 0);
        for i in 0..INSERTS {
            let point: Vec<f64> = (0..6).map(|_| rng.random_range(0.0..1.0)).collect();
            tree.query(Query::insert(&point, i))
                .and_then(QueryOutcome::inserted)
                .expect("insert");
            if covered_lsn() != lsn {
                lsn = covered_lsn();
                snapshots += 1;
                encoded += i + 1;
            }
        }
        tree.shutdown();
        assert!(snapshots > 0, "the cadence never fired");
        assert!(
            encoded <= 3 * INSERTS,
            "{snapshots} snapshots encoded {:.2} points per insert",
            encoded as f64 / INSERTS as f64
        );

        let state = Wal::load(&dir).expect("load wal");
        let last = PartitionStore::restore(&state.snapshots[&0].blob).expect("restore");
        let tail = state.live_tail().count();
        assert!(tail <= 256 + last.points(), "{tail} live records");
        std::fs::remove_dir_all(&dir).ok();
    }
}
