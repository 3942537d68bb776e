//! Tree-shape statistics (used by the experiments to verify balance).

use crate::tree::{KdTree, NodeKind};

/// Structural statistics of a KD-tree.
#[derive(Debug, Clone, Copy, PartialEq)]
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
    pub fn of<P: Clone>(tree: &KdTree<P>) -> Self {
        let mut routing = 0usize;
        let mut leaves = 0usize;
        let mut entries = 0usize;
        let mut max_depth = 0u32;
        let mut leaf_depth_sum = 0u64;
        let mut max_leaf_occupancy = 0usize;
        for node in &tree.nodes {
            max_depth = max_depth.max(node.depth);
            match &node.kind {
                NodeKind::Routing { .. } => routing += 1,
                NodeKind::Leaf { bucket } => {
                    leaves += 1;
                    entries += bucket.len();
                    leaf_depth_sum += u64::from(node.depth);
                    max_leaf_occupancy = max_leaf_occupancy.max(bucket.len());
                }
            }
        }
        TreeShape {
            nodes: routing + leaves,
            routing,
            leaves,
            entries,
            max_depth,
            mean_leaf_depth: if leaves == 0 {
                0.0
            } else {
                leaf_depth_sum as f64 / leaves as f64
            },
            max_leaf_occupancy,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::tree::{KdConfig, KdTree};

    use super::*;

    fn line(n: usize) -> Vec<(Vec<f64>, u32)> {
        (0..n).map(|i| (vec![i as f64], i as u32)).collect()
    }

    #[test]
    fn shape_counts_are_consistent() {
        let t = KdTree::bulk_load(KdConfig::new(1).with_bucket_size(4), line(100));
        let s = TreeShape::of(&t);
        assert_eq!(s.entries, 100);
        assert_eq!(s.nodes, s.routing + s.leaves);
        assert_eq!(s.leaves, s.routing + 1, "binary tree: L = R + 1");
        assert!(s.max_leaf_occupancy <= 4);
    }

    #[test]
    fn chain_tree_balance_factor_large() {
        let t = KdTree::chain_load(KdConfig::new(1).with_bucket_size(4), line(256));
        let s = TreeShape::of(&t);
        // At least 3× the depth of a perfectly balanced tree over as many
        // leaves.
        let ideal = (s.leaves as f64).log2().ceil();
        let factor = f64::from(s.max_depth) / ideal;
        assert!(factor >= 3.0, "factor {factor}");
    }

    #[test]
    fn node_count_matches_paper_formula_on_balanced_tree() {
        // §III-C: with K points and bucket Bs, N = 2K/Bs nodes when leaves
        // sit half-full on average after median splits. Check the right
        // order of magnitude (exact equality needs perfectly full leaves).
        let k_points = 1024;
        let bs = 8;
        let t = KdTree::bulk_load(KdConfig::new(1).with_bucket_size(bs), line(k_points));
        let s = TreeShape::of(&t);
        let formula = 2 * k_points / bs;
        assert!(
            s.nodes >= formula / 4 && s.nodes <= formula * 4,
            "nodes {} vs formula {formula}",
            s.nodes
        );
    }

    #[test]
    fn empty_tree_shape() {
        let t: KdTree<u32> = KdTree::new(KdConfig::new(2));
        let s = TreeShape::of(&t);
        assert_eq!(s.entries, 0);
        assert_eq!(s.leaves, 1);
        assert_eq!(s.routing, 0);
        assert_eq!(s.max_depth, 0);
    }
}
