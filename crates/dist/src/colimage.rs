//! Columnar snapshot blob of a [`PartitionStore`]: the store's arena,
//! read straight off the tree and written column by column.
//!
//! Written row by row, a snapshot would repeat point coordinates and
//! node framing for every entry. Here the arena is regrouped into
//! `semtree-colz` columns — node kinds and parent slots run-length
//! encode, depths delta-encode, coordinates go through the adaptive point
//! codec — which is what makes per-partition snapshots (the dominant
//! on-disk bytes of a quiescent WAL) compress. The WAL tags blobs
//! written this way `SNAPSHOT_FORMAT_COLUMNAR` — the only snapshot
//! payload format it writes or reads.
//!
//! Blob layout (all columns in order; every count cross-checked on
//! decode):
//!
//! ```text
//! header       UIntColumn    dims · bucket_size · split_rule · points · n_nodes
//! kinds        RleColumn     0 routing · 1 leaf, per node
//! depths       DeltaColumn   per-node global depth
//! parent_tags  RleColumn     0 root · 1 left child · 2 right child
//! parents      UIntColumn    parent id per non-root node
//! split_dims   UIntColumn    per routing node
//! split_vals   F64Column     per routing node
//! child_tags   RleColumn     0 local · 1 remote; left then right per routing node
//! child_ids    UIntColumn    local node id, or remote partition id
//! remote_nodes UIntColumn    remote node id per remote child
//! bucket_lens  UIntColumn    per leaf node
//! payloads     UIntColumn    all bucket payloads, leaf-major
//! points       PointsColumn  all bucket points, leaf-major
//! ```

use semtree_colz::{ColumnCodec, DeltaColumn, F64Column, PointsColumn, RleColumn, UIntColumn};
use semtree_kdtree::KdConfig;

use crate::deploy::{split_rule_from_tag, split_rule_tag};
use crate::store::{Child, LocalNodeId, PartitionStore};

const KIND_ROUTING: u64 = 0;
const KIND_LEAF: u64 = 1;
const PARENT_NONE: u64 = 0;
const PARENT_LEFT: u64 = 1;
const PARENT_RIGHT: u64 = 2;
const CHILD_LOCAL: u64 = 0;
const CHILD_REMOTE: u64 = 1;

fn fail(context: &str) -> String {
    format!("columnar snapshot: {context}")
}

fn to_u32(value: u64, context: &str) -> Result<u32, String> {
    u32::try_from(value).map_err(|_| fail(context))
}

fn to_usize(value: u64, context: &str) -> Result<usize, String> {
    usize::try_from(value).map_err(|_| fail(context))
}

fn colz(e: semtree_colz::ColzError) -> String {
    fail(&e.to_string())
}

/// The header column: dims, bucket size, split rule, points, nodes.
fn header(buf: &mut &[u8]) -> Result<[u64; 5], String> {
    let header = UIntColumn::decode(buf).map_err(colz)?;
    header
        .try_into()
        .map_err(|_| fail("header must hold exactly five values"))
}

fn take<T>(column: &mut impl Iterator<Item = T>, name: &str) -> Result<T, String> {
    column
        .next()
        .ok_or_else(|| fail(&format!("{name} column underflow")))
}

impl PartitionStore {
    /// The whole store — arena order, parents, remote links, buckets,
    /// point counter — as the columnar blob the WAL stores as this
    /// partition's snapshot.
    pub(crate) fn snapshot(&self) -> Vec<u8> {
        let tree = self.tree();
        let config = tree.config();
        let nodes = tree.nodes() as usize;
        let mut kinds = Vec::with_capacity(nodes);
        let mut depths = Vec::with_capacity(nodes);
        let mut parent_tags = Vec::with_capacity(nodes);
        let mut parents = Vec::new();
        let mut split_dims = Vec::new();
        let mut split_vals = Vec::new();
        let mut child_tags = Vec::new();
        let mut child_ids = Vec::new();
        let mut remote_nodes = Vec::new();
        let mut bucket_lens = Vec::new();
        let mut payloads = Vec::with_capacity(self.points());
        let mut points = Vec::with_capacity(self.points());

        for node in (0..tree.nodes()).filter_map(|id| tree.node(id)) {
            depths.push(u64::from(node.depth()));
            match node.parent() {
                None => parent_tags.push(PARENT_NONE),
                Some((p, is_left)) => {
                    parent_tags.push(if is_left { PARENT_LEFT } else { PARENT_RIGHT });
                    parents.push(u64::from(p));
                }
            }
            let Some(r) = node.routing() else {
                kinds.push(KIND_LEAF);
                let bucket = node.bucket();
                bucket_lens.push(bucket.len() as u64);
                for (point, payload) in bucket {
                    payloads.push(payload);
                    points.push(point);
                }
                continue;
            };
            kinds.push(KIND_ROUTING);
            split_dims.push(r.split_dim as u64);
            split_vals.push(r.split_val);
            for child in [r.left, r.right] {
                match child {
                    Child::Local(id) => {
                        child_tags.push(CHILD_LOCAL);
                        child_ids.push(u64::from(id));
                    }
                    Child::Remote { partition, node } => {
                        child_tags.push(CHILD_REMOTE);
                        child_ids.push(u64::from(partition));
                        remote_nodes.push(u64::from(node));
                    }
                }
            }
        }

        let header = [
            config.dims() as u64,
            config.bucket_size() as u64,
            u64::from(split_rule_tag(config.split_rule())),
            self.points() as u64,
            kinds.len() as u64,
        ];
        let mut out = Vec::new();
        UIntColumn::encode(&header, &mut out);
        RleColumn::encode(&kinds, &mut out);
        DeltaColumn::encode(&depths, &mut out);
        RleColumn::encode(&parent_tags, &mut out);
        UIntColumn::encode(&parents, &mut out);
        UIntColumn::encode(&split_dims, &mut out);
        F64Column::encode(&split_vals, &mut out);
        RleColumn::encode(&child_tags, &mut out);
        UIntColumn::encode(&child_ids, &mut out);
        UIntColumn::encode(&remote_nodes, &mut out);
        UIntColumn::encode(&bucket_lens, &mut out);
        UIntColumn::encode(&payloads, &mut out);
        PointsColumn::encode(&points, &mut out);
        out
    }

    /// Rebuild a store from a [`snapshot`](PartitionStore::snapshot)
    /// blob: the same arena, node for node, so it snapshots to the same
    /// bytes.
    pub(crate) fn restore(bytes: &[u8]) -> Result<Self, String> {
        let mut buf = bytes;
        let [dims, bucket_size, split_rule, points_total, n_nodes] = header(&mut buf)?;
        let kinds = RleColumn::decode(&mut buf).map_err(colz)?;
        let depths = DeltaColumn::decode(&mut buf).map_err(colz)?;
        let parent_tags = RleColumn::decode(&mut buf).map_err(colz)?;
        let parents = UIntColumn::decode(&mut buf).map_err(colz)?;
        let split_dims = UIntColumn::decode(&mut buf).map_err(colz)?;
        let split_vals = F64Column::decode(&mut buf).map_err(colz)?;
        let child_tags = RleColumn::decode(&mut buf).map_err(colz)?;
        let child_ids = UIntColumn::decode(&mut buf).map_err(colz)?;
        let remote_nodes = UIntColumn::decode(&mut buf).map_err(colz)?;
        let bucket_lens = UIntColumn::decode(&mut buf).map_err(colz)?;
        let payloads = UIntColumn::decode(&mut buf).map_err(colz)?;
        let points = PointsColumn::decode(&mut buf).map_err(colz)?;
        if !buf.is_empty() {
            return Err(fail("trailing bytes after columns"));
        }

        let n_nodes = to_usize(n_nodes, "node count exceeds usize")?;
        if kinds.len() != n_nodes || depths.len() != n_nodes || parent_tags.len() != n_nodes {
            return Err(fail("per-node columns disagree with the header"));
        }
        // Each column is read through until the kinds say otherwise; one
        // that runs short fails on the spot, one with entries left over
        // fails below, and paired columns must pair up.
        if split_dims.len() != split_vals.len()
            || child_tags.len() != child_ids.len()
            || payloads.len() != points.len()
        {
            return Err(fail("paired columns disagree in length"));
        }

        let split_rule = u8::try_from(split_rule)
            .map_err(|_| fail("split rule tag exceeds u8"))
            .and_then(|tag| split_rule_from_tag(tag).map_err(|e| fail(&e.to_string())))?;
        let dims = to_usize(dims, "dims exceeds usize")?;
        let bucket_size = to_usize(bucket_size, "bucket size exceeds usize")?;
        if dims == 0 || bucket_size == 0 || n_nodes == 0 {
            return Err(fail("no dimensions, bucket size or root node"));
        }
        let config = KdConfig::new(dims)
            .with_bucket_size(bucket_size)
            .with_split_rule(split_rule);
        let mut store = Self::empty_arena(config);

        let mut parents = parents.into_iter();
        let mut routing = split_dims.into_iter().zip(split_vals);
        let mut children = child_tags.into_iter().zip(child_ids);
        let mut remote_nodes = remote_nodes.into_iter();
        let mut bucket_lens = bucket_lens.into_iter();
        let mut entries = points.into_iter().zip(payloads);
        for (id, &kind) in kinds.iter().enumerate() {
            let depth = to_u32(depths[id], "depth exceeds u32")?;
            let parent = match parent_tags[id] {
                PARENT_NONE => None,
                tag @ (PARENT_LEFT | PARENT_RIGHT) => {
                    let p = to_u32(take(&mut parents, "parent")?, "parent id exceeds u32")?;
                    Some((p, tag == PARENT_LEFT))
                }
                _ => return Err(fail("unknown parent tag")),
            };
            let pushed = match kind {
                KIND_ROUTING => {
                    let (split_dim, split_val) = take(&mut routing, "routing")?;
                    let mut edges = [Child::Local(0); 2];
                    for edge in &mut edges {
                        *edge = match take(&mut children, "child")? {
                            (CHILD_LOCAL, child) => {
                                Child::Local(to_u32(child, "child id exceeds u32")?)
                            }
                            (CHILD_REMOTE, partition) => Child::Remote {
                                partition: to_u32(partition, "partition id exceeds u32")?,
                                node: to_u32(
                                    take(&mut remote_nodes, "remote node")?,
                                    "remote node id exceeds u32",
                                )?,
                            },
                            _ => return Err(fail("unknown child tag")),
                        };
                    }
                    let split_dim = to_usize(split_dim, "split dim exceeds usize")?;
                    store.push_routing(depth, parent, split_dim, split_val, edges)
                }
                KIND_LEAF => {
                    let len = take(&mut bucket_lens, "bucket length")?;
                    let len = to_usize(len, "bucket length exceeds usize")?;
                    let bucket: Vec<_> = entries.by_ref().take(len).collect();
                    if bucket.len() != len {
                        return Err(fail("leaf bucket overruns its columns"));
                    }
                    store.push_leaf(depth, parent, &bucket)
                }
                _ => return Err(fail("unknown node kind")),
            };
            if pushed != u32::try_from(id).ok().map(LocalNodeId) {
                return Err(fail(&format!("node {id} cannot be stored")));
            }
        }
        let leftover = parents.next().is_some()
            || routing.next().is_some()
            || children.next().is_some()
            || remote_nodes.next().is_some()
            || bucket_lens.next().is_some()
            || entries.next().is_some();
        if leftover {
            return Err(fail("per-kind columns not fully consumed"));
        }
        if store.points() as u64 != points_total {
            return Err(fail("point count disagrees with the buckets"));
        }
        Ok(store)
    }
}

/// A blob's points uncompressed — `points × 8 × (dims + 1)` bytes, each
/// point's coordinates and payload as 8-byte words — read from its
/// header column alone: the baseline `semtree recover --stats` reports
/// the stored blob against.
pub(crate) fn raw_point_bytes(blob: &[u8]) -> Result<usize, String> {
    let [dims, _, _, points, _] = header(&mut &blob[..])?;
    let raw = dims
        .saturating_add(1)
        .saturating_mul(8)
        .saturating_mul(points);
    to_usize(raw, "raw point bytes exceed usize")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_store() -> PartitionStore {
        // A small arena with every feature: routing root, a remote right
        // child, parent backlinks, and leaf buckets drawn from a small
        // point palette (the occurrence-heavy shape real corpora have).
        let palette: Vec<Vec<f64>> = (0..6)
            .map(|i| (0..4).map(|d| f64::from(i * 4 + d) * 0.125).collect())
            .collect();
        let bucket = |seed: usize, n: usize| -> Vec<(Vec<f64>, u64)> {
            (0..n)
                .map(|j| (palette[(seed + j) % 6].clone(), (seed * 100 + j) as u64))
                .collect()
        };
        let mut s = PartitionStore::empty_arena(KdConfig::new(4).with_bucket_size(8));
        let remote = Child::Remote {
            partition: 0x0002_0001,
            node: 0,
        };
        let pushed = [
            s.push_routing(0, None, 2, 0.375, [Child::Local(1), remote]),
            s.push_routing(
                1,
                Some((0, true)),
                3,
                -1.5,
                [Child::Local(2), Child::Local(3)],
            ),
            s.push_leaf(2, Some((1, true)), &bucket(1, 150)),
            s.push_leaf(2, Some((1, false)), &bucket(2, 149)),
        ];
        assert_eq!(pushed, [0, 1, 2, 3].map(|id| Some(LocalNodeId(id))));
        s
    }

    #[test]
    fn images_round_trip_exactly() {
        let blob = sample_store().snapshot();
        let back = PartitionStore::restore(&blob).expect("round trip");
        assert_eq!(back.points(), 299);
        assert_eq!(back.snapshot(), blob);
        // A store with no root node has no image to restore.
        let empty = PartitionStore::empty_arena(KdConfig::new(2)).snapshot();
        assert!(PartitionStore::restore(&empty).is_err());
    }

    #[test]
    fn columnar_blobs_beat_verbatim_by_5x_on_repetitive_buckets() {
        let blob = sample_store().snapshot();
        let verbatim = raw_point_bytes(&blob).expect("header");
        assert_eq!(verbatim, 299 * 8 * (4 + 1));
        assert!(
            blob.len() * 5 < verbatim,
            "columnar {} vs verbatim {}",
            blob.len(),
            verbatim
        );
    }

    #[test]
    fn truncation_and_trailing_bytes_are_rejected() {
        let blob = sample_store().snapshot();
        for cut in [0, 1, blob.len() / 3, blob.len() - 1] {
            assert!(
                PartitionStore::restore(&blob[..cut]).is_err(),
                "cut at {cut}"
            );
        }
        let mut extended = blob.clone();
        extended.push(0);
        assert!(PartitionStore::restore(&extended).is_err());
    }

    #[test]
    fn header_and_schedule_mismatches_are_rejected() {
        // One empty root leaf, column by column, with the header's node
        // count, the parent ids and the bucket lengths as given.
        let blob = |n_nodes: u64, parents: &[u64], bucket_lens: &[u64]| {
            let mut out = Vec::new();
            UIntColumn::encode(&[2, 4, 0, 0, n_nodes], &mut out);
            RleColumn::encode(&[KIND_LEAF], &mut out);
            DeltaColumn::encode(&[0], &mut out);
            RleColumn::encode(&[PARENT_NONE], &mut out);
            UIntColumn::encode(parents, &mut out);
            UIntColumn::encode(&[], &mut out);
            F64Column::encode(&[], &mut out);
            RleColumn::encode(&[], &mut out);
            for column in [&[][..], &[], bucket_lens, &[]] {
                UIntColumn::encode(column, &mut out);
            }
            PointsColumn::encode(&[], &mut out);
            out
        };
        assert!(PartitionStore::restore(&blob(1, &[], &[0])).is_ok());
        // The header claims two nodes; a parent id is left over; the
        // leaf's bucket length is missing.
        for bad in [blob(2, &[], &[0]), blob(1, &[5], &[0]), blob(1, &[], &[])] {
            assert!(PartitionStore::restore(&bad).is_err());
        }
    }
}
