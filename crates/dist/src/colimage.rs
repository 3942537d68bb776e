//! Columnar snapshot-blob codec for [`StoreImage`].
//!
//! A row-wise store image serializes every node one after the other,
//! repeating point coordinates and node framing for each entry. This module
//! regroups the image into `semtree-colz` columns — node kinds and
//! parent slots run-length encode, depths delta-encode, coordinates go
//! through the adaptive point codec — which is what makes per-partition
//! snapshots (the dominant on-disk bytes of a quiescent WAL) compress.
//! The WAL tags blobs written this way `SNAPSHOT_FORMAT_COLUMNAR` — the
//! only snapshot payload format it writes or reads.
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

use crate::store::{Child as ChildImage, NodeImage, NodeKindImage, StoreImage};

const KIND_ROUTING: u64 = 0;
const KIND_LEAF: u64 = 1;
const PARENT_NONE: u64 = 0;
const PARENT_LEFT: u64 = 1;
const PARENT_RIGHT: u64 = 2;
const CHILD_LOCAL: u64 = 0;
const CHILD_REMOTE: u64 = 1;

/// Encode a store image as a columnar snapshot blob.
pub(crate) fn encode_image(image: &StoreImage) -> Vec<u8> {
    let header = [
        image.dims as u64,
        image.bucket_size as u64,
        u64::from(image.split_rule),
        image.points as u64,
        image.nodes.len() as u64,
    ];
    let mut kinds = Vec::with_capacity(image.nodes.len());
    let mut depths = Vec::with_capacity(image.nodes.len());
    let mut parent_tags = Vec::with_capacity(image.nodes.len());
    let mut parents = Vec::new();
    let mut split_dims = Vec::new();
    let mut split_vals = Vec::new();
    let mut child_tags = Vec::new();
    let mut child_ids = Vec::new();
    let mut remote_nodes = Vec::new();
    let mut bucket_lens = Vec::new();
    let mut payloads = Vec::new();
    let mut points = Vec::new();

    for node in &image.nodes {
        depths.push(u64::from(node.depth));
        match node.parent {
            None => parent_tags.push(PARENT_NONE),
            Some((p, is_left)) => {
                parent_tags.push(if is_left { PARENT_LEFT } else { PARENT_RIGHT });
                parents.push(u64::from(p));
            }
        }
        match &node.kind {
            NodeKindImage::Routing {
                split_dim,
                split_val,
                left,
                right,
            } => {
                kinds.push(KIND_ROUTING);
                split_dims.push(*split_dim as u64);
                split_vals.push(*split_val);
                for child in [left, right] {
                    match child {
                        ChildImage::Local(id) => {
                            child_tags.push(CHILD_LOCAL);
                            child_ids.push(u64::from(*id));
                        }
                        ChildImage::Remote { partition, node } => {
                            child_tags.push(CHILD_REMOTE);
                            child_ids.push(u64::from(*partition));
                            remote_nodes.push(u64::from(*node));
                        }
                    }
                }
            }
            NodeKindImage::Leaf { bucket } => {
                kinds.push(KIND_LEAF);
                bucket_lens.push(bucket.len() as u64);
                for (point, payload) in bucket {
                    payloads.push(*payload);
                    points.push(point.clone());
                }
            }
        }
    }

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

fn to_u32(value: u64, context: &str) -> Result<u32, String> {
    u32::try_from(value).map_err(|_| format!("columnar snapshot: {context}"))
}

fn to_usize(value: u64, context: &str) -> Result<usize, String> {
    usize::try_from(value).map_err(|_| format!("columnar snapshot: {context}"))
}

/// Decode a columnar snapshot blob back into the exact store image.
pub(crate) fn decode_image(bytes: &[u8]) -> Result<StoreImage, String> {
    let fail = |context: &str| format!("columnar snapshot: {context}");
    let colz = |e: semtree_colz::ColzError| format!("columnar snapshot: {e}");

    let mut buf = bytes;
    let header = UIntColumn::decode(&mut buf).map_err(colz)?;
    let [dims, bucket_size, split_rule, points_total, n_nodes] = header[..] else {
        return Err(fail("header must hold exactly five values"));
    };
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
    let routing = kinds.iter().filter(|&&k| k == KIND_ROUTING).count();
    if split_dims.len() != routing || split_vals.len() != routing {
        return Err(fail("routing columns disagree with the kind column"));
    }
    if child_tags.len() != 2 * routing || child_ids.len() != 2 * routing {
        return Err(fail("child columns disagree with the routing count"));
    }
    let remote = child_tags.iter().filter(|&&t| t == CHILD_REMOTE).count();
    if remote_nodes.len() != remote {
        return Err(fail("remote node column disagrees with the child tags"));
    }
    let leaves = kinds.len() - routing;
    if bucket_lens.len() != leaves {
        return Err(fail("bucket length column disagrees with the kind column"));
    }

    let mut nodes = Vec::with_capacity(n_nodes);
    let mut next_parent = 0usize;
    let mut next_routing = 0usize;
    let mut next_child = 0usize;
    let mut next_remote = 0usize;
    let mut next_leaf = 0usize;
    let mut point_cursor = 0usize;
    for (i, &kind) in kinds.iter().enumerate() {
        let parent = match parent_tags[i] {
            PARENT_NONE => None,
            tag @ (PARENT_LEFT | PARENT_RIGHT) => {
                let p = *parents
                    .get(next_parent)
                    .ok_or_else(|| fail("parent column underflow"))?;
                next_parent += 1;
                Some((to_u32(p, "parent id exceeds u32")?, tag == PARENT_LEFT))
            }
            _ => return Err(fail("unknown parent tag")),
        };
        let kind = match kind {
            KIND_ROUTING => {
                let j = next_routing;
                next_routing += 1;
                let mut children = [ChildImage::Local(0); 2];
                for slot in &mut children {
                    let tag = child_tags[next_child];
                    let id = child_ids[next_child];
                    next_child += 1;
                    *slot = match tag {
                        CHILD_LOCAL => ChildImage::Local(to_u32(id, "child id exceeds u32")?),
                        CHILD_REMOTE => {
                            let node = *remote_nodes
                                .get(next_remote)
                                .ok_or_else(|| fail("remote node column underflow"))?;
                            next_remote += 1;
                            ChildImage::Remote {
                                partition: to_u32(id, "partition id exceeds u32")?,
                                node: to_u32(node, "remote node id exceeds u32")?,
                            }
                        }
                        _ => return Err(fail("unknown child tag")),
                    };
                }
                NodeKindImage::Routing {
                    split_dim: to_usize(split_dims[j], "split dim exceeds usize")?,
                    split_val: split_vals[j],
                    left: children[0],
                    right: children[1],
                }
            }
            KIND_LEAF => {
                let len = to_usize(bucket_lens[next_leaf], "bucket length exceeds usize")?;
                next_leaf += 1;
                let end = point_cursor
                    .checked_add(len)
                    .filter(|&end| end <= points.len() && end <= payloads.len())
                    .ok_or_else(|| fail("leaf bucket overruns its columns"))?;
                let bucket = (point_cursor..end)
                    .map(|j| (points[j].clone(), payloads[j]))
                    .collect();
                point_cursor = end;
                NodeKindImage::Leaf { bucket }
            }
            _ => return Err(fail("unknown node kind")),
        };
        nodes.push(NodeImage {
            kind,
            depth: to_u32(depths[i], "depth exceeds u32")?,
            parent,
        });
    }
    if next_parent != parents.len()
        || point_cursor != points.len()
        || point_cursor != payloads.len()
    {
        return Err(fail("per-kind columns not fully consumed"));
    }

    Ok(StoreImage {
        dims: to_usize(dims, "dims exceeds usize")?,
        bucket_size: to_usize(bucket_size, "bucket size exceeds usize")?,
        split_rule: u8::try_from(split_rule).map_err(|_| fail("split rule tag exceeds u8"))?,
        points: to_usize(points_total, "point count exceeds usize")?,
        nodes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use semtree_net::Encode as _;

    fn sample_image() -> StoreImage {
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
        StoreImage {
            dims: 4,
            bucket_size: 8,
            split_rule: 0,
            points: 150 + 149,
            nodes: vec![
                NodeImage {
                    kind: NodeKindImage::Routing {
                        split_dim: 2,
                        split_val: 0.375,
                        left: ChildImage::Local(1),
                        right: ChildImage::Remote {
                            partition: 0x0002_0001,
                            node: 0,
                        },
                    },
                    depth: 0,
                    parent: None,
                },
                NodeImage {
                    kind: NodeKindImage::Routing {
                        split_dim: 3,
                        split_val: -1.5,
                        left: ChildImage::Local(2),
                        right: ChildImage::Local(3),
                    },
                    depth: 1,
                    parent: Some((0, true)),
                },
                NodeImage {
                    kind: NodeKindImage::Leaf {
                        bucket: bucket(1, 150),
                    },
                    depth: 2,
                    parent: Some((1, true)),
                },
                NodeImage {
                    kind: NodeKindImage::Leaf {
                        bucket: bucket(2, 149),
                    },
                    depth: 2,
                    parent: Some((1, false)),
                },
            ],
        }
    }

    #[test]
    fn images_round_trip_exactly() {
        for image in [
            StoreImage {
                dims: 2,
                bucket_size: 4,
                split_rule: 1,
                points: 0,
                nodes: Vec::new(),
            },
            sample_image(),
        ] {
            let blob = encode_image(&image);
            let back = decode_image(&blob).expect("round trip");
            assert_eq!(back, image);
        }
    }

    #[test]
    fn columnar_blobs_beat_verbatim_by_5x_on_repetitive_buckets() {
        let image = sample_image();
        let verbatim = image.to_bytes();
        let blob = encode_image(&image);
        assert!(
            blob.len() * 5 < verbatim.len(),
            "columnar {} vs verbatim {}",
            blob.len(),
            verbatim.len()
        );
    }

    #[test]
    fn truncation_and_trailing_bytes_are_rejected() {
        let blob = encode_image(&sample_image());
        for cut in [0, 1, blob.len() / 3, blob.len() - 1] {
            assert!(decode_image(&blob[..cut]).is_err(), "cut at {cut}");
        }
        let mut extended = blob.clone();
        extended.push(0);
        assert!(decode_image(&extended).is_err());
    }

    #[test]
    fn header_and_schedule_mismatches_are_rejected() {
        // Header claims two nodes, but the per-node columns hold none.
        let mut bad = Vec::new();
        UIntColumn::encode(&[2, 4, 0, 0, 2], &mut bad);
        RleColumn::encode(&[], &mut bad);
        DeltaColumn::encode(&[], &mut bad);
        RleColumn::encode(&[], &mut bad);
        for _ in 0..5 {
            UIntColumn::encode(&[], &mut bad);
        }
        // Remaining columns: child_tags (RLE), child_ids, remote_nodes,
        // bucket_lens, payloads, points — the early disagreement must
        // already reject the blob.
        RleColumn::encode(&[], &mut bad);
        for _ in 0..4 {
            UIntColumn::encode(&[], &mut bad);
        }
        PointsColumn::encode(&[], &mut bad);
        assert!(decode_image(&bad).is_err());
    }
}
