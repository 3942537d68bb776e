//! The inter-partition message protocol (the paper's MPJ layer).
//!
//! [`Req`] and [`Resp`] implement both [`Wire`] (simulated byte
//! accounting) and `semtree-net`'s [`Encode`]/[`Decode`] (the real
//! binary codec). The two agree exactly: `wire_size()` returns the
//! precise number of bytes `encode()` produces, so the in-process
//! channel fabric and the TCP fabric report identical `bytes` metrics
//! for identical traffic.

use semtree_cluster::{ComputeNodeId, Wire};
use semtree_net::{Decode, DecodeError, Encode};

use crate::store::LocalNodeId;

/// Requests exchanged between partitions.
#[derive(Debug, Clone, PartialEq)]
pub enum Req {
    /// Insert a point into the sub-tree rooted at `node` of the receiving
    /// partition ("a message containing the point to be added has to be
    /// sent to the correct partition").
    Insert {
        /// Root of the receiving sub-tree.
        node: LocalNodeId,
        /// Query-space coordinates.
        point: Vec<f64>,
        /// Opaque payload (a triple id).
        payload: u64,
    },
    /// k-nearest search in the sub-tree rooted at `node`.
    Knn {
        /// Root of the receiving sub-tree.
        node: LocalNodeId,
        /// Query point `P`.
        point: Vec<f64>,
        /// Number of points `K`.
        k: usize,
        /// Current worst distance in the caller's result set, as a pruning
        /// hint (`None` while `|Rs| < K`).
        worst: Option<f64>,
    },
    /// Range search in the sub-tree rooted at `node`.
    Range {
        /// Root of the receiving sub-tree.
        node: LocalNodeId,
        /// Query point `P`.
        point: Vec<f64>,
        /// Range distance `D`.
        radius: f64,
    },
    /// Build-partition transfer: the receiving (new) partition adopts a
    /// whole leaf bucket as its root.
    AdoptLeaf {
        /// The evicted bucket.
        bucket: Vec<(Vec<f64>, u64)>,
        /// Global depth of the adopted leaf (keeps split-dimension cycling
        /// consistent across partitions).
        depth: u32,
    },
    /// Request the partition's local statistics.
    Stats,
    /// Check the partition's structural invariants.
    Verify,
}

/// Responses.
#[derive(Debug, Clone, PartialEq)]
pub enum Resp {
    /// Acknowledgement (insert, adopt).
    Done,
    /// Search candidates: `(distance, payload)` pairs.
    Candidates(Vec<(f64, u64)>),
    /// Partition statistics.
    Stats(PartitionStats),
    /// Invariant violations found by [`Req::Verify`] (empty = healthy).
    Violations(Vec<String>),
    /// The request failed inside the serving partition (e.g. a traversal
    /// hit a dead downstream partition). Carries a human-readable cause
    /// so failures propagate across process boundaries instead of
    /// panicking the server.
    Error(String),
}

/// Per-partition statistics, including the outgoing partition links so a
/// client can walk the whole partition tree.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PartitionStats {
    /// Points stored in this partition's leaves.
    pub points: usize,
    /// Leaf nodes.
    pub leaves: usize,
    /// Routing nodes (internal + edge).
    pub routing: usize,
    /// Edge nodes: routing nodes with at least one remote child.
    pub edge_nodes: usize,
    /// Partitions directly linked below this one.
    pub remote_children: Vec<u32>,
}

impl PartitionStats {
    /// The linked child partitions as compute-node ids.
    #[must_use]
    pub fn remote_children_ids(&self) -> Vec<ComputeNodeId> {
        self.remote_children
            .iter()
            .map(|&p| ComputeNodeId(p))
            .collect()
    }
}

// ----------------------------------------------------------------------
// Binary codec (semtree-net)
// ----------------------------------------------------------------------

impl Encode for LocalNodeId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
}

impl Decode for LocalNodeId {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(LocalNodeId(u32::decode(buf)?))
    }
}

impl Encode for PartitionStats {
    fn encode(&self, out: &mut Vec<u8>) {
        self.points.encode(out);
        self.leaves.encode(out);
        self.routing.encode(out);
        self.edge_nodes.encode(out);
        self.remote_children.encode(out);
    }
}

impl Decode for PartitionStats {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(PartitionStats {
            points: usize::decode(buf)?,
            leaves: usize::decode(buf)?,
            routing: usize::decode(buf)?,
            edge_nodes: usize::decode(buf)?,
            remote_children: Vec::decode(buf)?,
        })
    }
}

impl Encode for Req {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Req::Insert {
                node,
                point,
                payload,
            } => {
                out.push(0);
                node.encode(out);
                point.encode(out);
                payload.encode(out);
            }
            Req::Knn {
                node,
                point,
                k,
                worst,
            } => {
                out.push(1);
                node.encode(out);
                point.encode(out);
                k.encode(out);
                worst.encode(out);
            }
            Req::Range {
                node,
                point,
                radius,
            } => {
                out.push(2);
                node.encode(out);
                point.encode(out);
                radius.encode(out);
            }
            Req::AdoptLeaf { bucket, depth } => {
                out.push(3);
                bucket.encode(out);
                depth.encode(out);
            }
            Req::Stats => out.push(4),
            Req::Verify => out.push(5),
        }
    }
}

impl Decode for Req {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        match u8::decode(buf)? {
            0 => Ok(Req::Insert {
                node: LocalNodeId::decode(buf)?,
                point: Vec::decode(buf)?,
                payload: u64::decode(buf)?,
            }),
            1 => Ok(Req::Knn {
                node: LocalNodeId::decode(buf)?,
                point: Vec::decode(buf)?,
                k: usize::decode(buf)?,
                worst: Option::decode(buf)?,
            }),
            2 => Ok(Req::Range {
                node: LocalNodeId::decode(buf)?,
                point: Vec::decode(buf)?,
                radius: f64::decode(buf)?,
            }),
            3 => Ok(Req::AdoptLeaf {
                bucket: Vec::decode(buf)?,
                depth: u32::decode(buf)?,
            }),
            4 => Ok(Req::Stats),
            5 => Ok(Req::Verify),
            other => Err(DecodeError::new(format!("bad Req tag {other}"))),
        }
    }
}

impl Encode for Resp {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Resp::Done => out.push(0),
            Resp::Candidates(c) => {
                out.push(1);
                c.encode(out);
            }
            Resp::Stats(s) => {
                out.push(2);
                s.encode(out);
            }
            Resp::Violations(v) => {
                out.push(3);
                v.encode(out);
            }
            Resp::Error(msg) => {
                out.push(5);
                msg.encode(out);
            }
        }
    }
}

impl Decode for Resp {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        match u8::decode(buf)? {
            0 => Ok(Resp::Done),
            1 => Ok(Resp::Candidates(Vec::decode(buf)?)),
            2 => Ok(Resp::Stats(PartitionStats::decode(buf)?)),
            3 => Ok(Resp::Violations(Vec::decode(buf)?)),
            5 => Ok(Resp::Error(String::decode(buf)?)),
            other => Err(DecodeError::new(format!("bad Resp tag {other}"))),
        }
    }
}

// ----------------------------------------------------------------------
// Simulated byte accounting — exact codec sizes, computed arithmetically
// ----------------------------------------------------------------------

impl Wire for Req {
    fn wire_size(&self) -> usize {
        // Tag byte + fields: LocalNodeId = 4, usize/u64/f64 = 8,
        // Vec<f64> = 8 + 8·len, Option<f64> = 1 or 9.
        match self {
            Req::Insert { point, .. } => 1 + 4 + (8 + 8 * point.len()) + 8,
            Req::Knn { point, worst, .. } => {
                1 + 4 + (8 + 8 * point.len()) + 8 + if worst.is_some() { 9 } else { 1 }
            }
            Req::Range { point, .. } => 1 + 4 + (8 + 8 * point.len()) + 8,
            Req::AdoptLeaf { bucket, .. } => {
                1 + 8 + bucket.iter().map(|(p, _)| 16 + 8 * p.len()).sum::<usize>() + 4
            }
            Req::Stats | Req::Verify => 1,
        }
    }
}

impl Wire for Resp {
    fn wire_size(&self) -> usize {
        match self {
            Resp::Done => 1,
            Resp::Candidates(c) => 1 + 8 + 16 * c.len(),
            Resp::Stats(s) => 1 + 4 * 8 + 8 + 4 * s.remote_children.len(),
            Resp::Violations(v) => 1 + 8 + v.iter().map(|m| 8 + m.len()).sum::<usize>(),
            Resp::Error(msg) => 1 + 8 + msg.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semtree_net::decode_exact;

    fn representative_reqs() -> Vec<Req> {
        vec![
            Req::Insert {
                node: LocalNodeId(3),
                point: vec![1.5, -2.25, 0.0],
                payload: 42,
            },
            Req::Knn {
                node: LocalNodeId(0),
                point: vec![0.5; 7],
                k: 10,
                worst: None,
            },
            Req::Knn {
                node: LocalNodeId(9),
                point: vec![],
                k: 1,
                worst: Some(3.75),
            },
            Req::Range {
                node: LocalNodeId(1),
                point: vec![9.0, 8.0],
                radius: 2.5,
            },
            Req::AdoptLeaf {
                bucket: vec![
                    (vec![1.0, 2.0], 7),
                    (vec![3.0, 4.0], 8),
                    (vec![5.0, 6.0], 9),
                ],
                depth: 5,
            },
            Req::AdoptLeaf {
                bucket: vec![],
                depth: 0,
            },
            Req::Stats,
            Req::Verify,
        ]
    }

    fn representative_resps() -> Vec<Resp> {
        vec![
            Resp::Done,
            Resp::Candidates(vec![]),
            Resp::Candidates(vec![(0.5, 1), (1.5, 2)]),
            Resp::Stats(PartitionStats {
                points: 100,
                leaves: 9,
                routing: 8,
                edge_nodes: 2,
                remote_children: vec![3, 5, 7],
            }),
            Resp::Stats(PartitionStats::default()),
            Resp::Violations(vec![]),
            Resp::Violations(vec!["bad depth".into(), "".into()]),
            Resp::Error("partition 131072 unreachable".into()),
            Resp::Error(String::new()),
        ]
    }

    /// Satellite 1's acceptance: the simulated size **is** the encoded
    /// size, for every message shape the protocol can produce.
    #[test]
    fn wire_size_equals_encoded_length() {
        for req in representative_reqs() {
            assert_eq!(
                req.wire_size(),
                req.to_bytes().len(),
                "Req size mismatch: {req:?}"
            );
        }
        for resp in representative_resps() {
            assert_eq!(
                resp.wire_size(),
                resp.to_bytes().len(),
                "Resp size mismatch: {resp:?}"
            );
        }
    }

    #[test]
    fn protocol_messages_round_trip_through_the_codec() {
        for req in representative_reqs() {
            let back: Req = decode_exact(&req.to_bytes()).expect("req decodes");
            assert_eq!(back, req);
        }
        for resp in representative_resps() {
            let back: Resp = decode_exact(&resp.to_bytes()).expect("resp decodes");
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn corrupt_tags_are_rejected() {
        assert!(decode_exact::<Req>(&[200]).is_err());
        assert!(decode_exact::<Resp>(&[200]).is_err());
        // Tags 6 (`Req`) and 4 (`Resp`) carried the removed point export,
        // tags 7 (`Req`) and 6 (`Resp`) the removed partition-side batch;
        // all stay unassigned, and the variants around them keep their
        // bytes.
        for tag in [6, 7] {
            let err = decode_exact::<Req>(&[tag, 0, 0, 0, 0, 0, 0, 0, 0]).expect_err("retired tag");
            assert!(
                err.to_string().contains(&format!("bad Req tag {tag}")),
                "{err}"
            );
        }
        for tag in [4, 6] {
            let err =
                decode_exact::<Resp>(&[tag, 0, 0, 0, 0, 0, 0, 0, 0]).expect_err("retired tag");
            assert!(
                err.to_string().contains(&format!("bad Resp tag {tag}")),
                "{err}"
            );
        }
        assert_eq!(Req::Verify.to_bytes(), [5]);
        assert_eq!(Resp::Error(String::new()).to_bytes()[0], 5);
        // Trailing garbage is rejected too.
        let mut bytes = Req::Stats.to_bytes();
        bytes.push(0);
        assert!(decode_exact::<Req>(&bytes).is_err());
    }

    #[test]
    fn wire_sizes_scale_with_content() {
        let small = Req::Knn {
            node: LocalNodeId(0),
            point: vec![0.0; 2],
            k: 3,
            worst: None,
        };
        let large = Req::Knn {
            node: LocalNodeId(0),
            point: vec![0.0; 16],
            k: 3,
            worst: None,
        };
        assert!(large.wire_size() > small.wire_size());

        let empty = Resp::Candidates(vec![]);
        let full = Resp::Candidates(vec![(1.0, 2); 10]);
        assert!(full.wire_size() > empty.wire_size());
        assert!(Resp::Done.wire_size() > 0);
        assert!(Req::Stats.wire_size() > 0);
    }

    #[test]
    fn adopt_leaf_size_counts_points() {
        let a = Req::AdoptLeaf {
            bucket: vec![(vec![0.0; 4], 1)],
            depth: 0,
        };
        let b = Req::AdoptLeaf {
            bucket: vec![(vec![0.0; 4], 1); 10],
            depth: 0,
        };
        assert!(b.wire_size() > 5 * a.wire_size());
    }

    #[test]
    fn stats_children_roundtrip() {
        let s = PartitionStats {
            remote_children: vec![3, 5],
            ..Default::default()
        };
        assert_eq!(
            s.remote_children_ids(),
            vec![ComputeNodeId(3), ComputeNodeId(5)]
        );
    }
}
