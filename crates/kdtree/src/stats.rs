//! Tree-shape statistics (used by the experiments to verify balance).

use crate::versioned::{Shim, VersionedKdTree};

/// Structural statistics of a KD-tree: its arena, walked from the root
/// over the same edges a partition's statistics walk.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TreeShape {
    /// Total nodes (routing + leaves).
    pub nodes: usize,
    /// Routing (internal) nodes.
    pub routing: usize,
    /// Leaf nodes.
    pub leaves: usize,
    /// Stored points.
    pub entries: usize,
    /// Deepest node depth (root = 0).
    pub max_depth: u32,
    /// Mean leaf depth.
    pub mean_leaf_depth: f64,
    /// Largest leaf bucket occupancy.
    pub max_leaf_occupancy: usize,
}

impl TreeShape {
    /// Measure a tree.
    #[must_use]
    pub fn of<S: Shim>(tree: &VersionedKdTree<S>) -> Self {
        let nodes = tree.arena().reachable();
        let mut shape = TreeShape {
            nodes: nodes.len(),
            ..TreeShape::default()
        };
        let mut leaf_depth_sum = 0u64;
        for (_, node) in nodes {
            shape.max_depth = shape.max_depth.max(node.depth());
            if node.routing().is_some() {
                shape.routing += 1;
                continue;
            }
            shape.leaves += 1;
            shape.entries += node.point_count();
            shape.max_leaf_occupancy = shape.max_leaf_occupancy.max(node.point_count());
            leaf_depth_sum += u64::from(node.depth());
        }
        if shape.leaves > 0 {
            shape.mean_leaf_depth = leaf_depth_sum as f64 / shape.leaves as f64;
        }
        shape
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{line, Tree};
    use crate::KdConfig;

    #[test]
    fn shape_counts_are_consistent() {
        let s = TreeShape::of(&Tree::bulk_load(
            KdConfig::new(1).with_bucket_size(4),
            line(100),
        ));
        assert_eq!(s.entries, 100);
        assert_eq!(s.nodes, s.routing + s.leaves);
        assert_eq!(s.leaves, s.routing + 1, "binary tree: L = R + 1");
        assert!(s.max_leaf_occupancy <= 4);
    }

    #[test]
    fn chain_tree_balance_factor_large() {
        let s = TreeShape::of(&Tree::chain_load(
            KdConfig::new(1).with_bucket_size(4),
            line(256),
        ));
        // At least 3× the depth of a perfectly balanced tree over as many
        // leaves.
        let factor = f64::from(s.max_depth) / (s.leaves as f64).log2().ceil();
        assert!(factor >= 3.0, "factor {factor}");
    }

    #[test]
    fn empty_tree_shape() {
        let s = TreeShape::of(&Tree::new(KdConfig::new(2)));
        assert_eq!((s.entries, s.leaves, s.routing, s.max_depth), (0, 1, 0, 0));
    }
}
