//! What a search returns and what it visited.

/// One search hit.
#[derive(Debug, Clone, PartialEq)]
pub struct Neighbor<P> {
    /// Euclidean distance from the query point.
    pub dist: f64,
    /// The stored payload.
    pub payload: P,
}

/// What one k-NN or range walk visited, counted by the walk itself
/// (`versioned::Tree::knn` / `Tree::range`); the complexity-shape tests
/// and the figures read it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Nodes (routing + leaf) the walk entered.
    pub nodes_visited: usize,
    /// Points the walk scanned: one distance evaluation each.
    pub distance_evals: usize,
    /// Leaves the walk entered but did not scan: their bounding box was
    /// no nearer than the cut.
    pub leaves_skipped: usize,
    /// Routing nodes the walk entered but did not descend: the box of
    /// the points below them was no nearer than the cut.
    pub subtrees_skipped: usize,
}

impl SearchStats {
    /// Count a node the walk skipped on its box.
    pub(crate) fn skipped(&mut self, routing: bool) {
        if routing {
            self.subtrees_skipped += 1;
        } else {
            self.leaves_skipped += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::testing::{assert_knn_exact, brute, grown, pairs, random_points, Tree};
    use crate::KdConfig;

    #[test]
    fn knn_matches_brute_force() {
        let points = random_points(500, 3, 42);
        let tree = Tree::bulk_load(KdConfig::new(3).with_bucket_size(8), points.clone());
        for (q, _) in random_points(50, 3, 7) {
            assert_knn_exact(&points, &q, 5, &tree.knn(&q, 5));
        }
    }

    #[test]
    fn knn_matches_brute_force_on_dynamic_tree() {
        let points = random_points(300, 2, 3);
        let tree = grown(KdConfig::new(2).with_bucket_size(4), &points);
        assert_knn_exact(&points, &[50.0, 50.0], 10, &tree.knn(&[50.0, 50.0], 10));
    }

    #[test]
    fn knn_matches_brute_force_on_chain_tree() {
        let points = random_points(200, 2, 9);
        let tree = Tree::chain_load(KdConfig::new(2).with_bucket_size(4), points.clone());
        assert_knn_exact(&points, &[33.0, 66.0], 7, &tree.knn(&[33.0, 66.0], 7));
    }

    #[test]
    fn knn_results_sorted_ascending() {
        let tree = Tree::bulk_load(KdConfig::new(2), random_points(100, 2, 5));
        let hits = tree.knn(&[10.0, 10.0], 10);
        assert!(hits.windows(2).all(|w| w[0].dist <= w[1].dist));
    }

    #[test]
    fn knn_with_k_larger_than_tree() {
        let tree = Tree::bulk_load(KdConfig::new(2), random_points(5, 2, 1));
        assert_eq!(tree.knn(&[0.0, 0.0], 50).len(), 5);
    }

    #[test]
    fn knn_zero_k_and_empty_tree() {
        assert!(Tree::new(KdConfig::new(2)).knn(&[0.0, 0.0], 3).is_empty());
        let tree = Tree::bulk_load(KdConfig::new(2), random_points(10, 2, 2));
        assert!(tree.knn(&[0.0, 0.0], 0).is_empty());
    }

    #[test]
    fn range_matches_brute_force() {
        let points = random_points(400, 3, 11);
        let tree = Tree::bulk_load(KdConfig::new(3).with_bucket_size(8), points.clone());
        let q = [50.0; 3];
        for radius in [0.0, 5.0, 20.0, 75.0] {
            let mut ball = brute(&points, &q);
            ball.retain(|&(d, _)| d <= radius);
            assert_eq!(pairs(&tree.range(&q, radius)), ball, "radius {radius}");
        }
    }

    #[test]
    fn range_radius_zero_finds_exact_point() {
        let tree = grown(
            KdConfig::new(2).with_bucket_size(2),
            &[(vec![1.0, 2.0], 1), (vec![3.0, 4.0], 2)],
        );
        assert_eq!(pairs(&tree.range(&[1.0, 2.0], 0.0)), [(0.0, 1)]);
    }

    #[test]
    fn range_sorted_ascending() {
        let tree = Tree::bulk_load(KdConfig::new(2), random_points(200, 2, 13));
        let hits = tree.range(&[50.0, 50.0], 40.0);
        assert!(hits.len() > 2);
        assert!(hits.windows(2).all(|w| w[0].dist <= w[1].dist));
    }

    #[test]
    fn larger_radius_visits_more_nodes() {
        let tree = Tree::bulk_load(
            KdConfig::new(2).with_bucket_size(8),
            random_points(1000, 2, 23),
        );
        let (_, small) = tree.range_with_stats(&[50.0, 50.0], 1.0);
        let (_, large) = tree.range_with_stats(&[50.0, 50.0], 50.0);
        assert!(large.nodes_visited > small.nodes_visited);
        assert!(large.distance_evals > small.distance_evals);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_radius_panics() {
        let _ = Tree::new(KdConfig::new(1)).range(&[0.0], -1.0);
    }

    #[test]
    fn duplicate_points_all_returned_in_range() {
        let copies: Vec<_> = (0..6).map(|i| (vec![1.0, 1.0], i)).collect();
        let tree = grown(KdConfig::new(2).with_bucket_size(2), &copies);
        assert_eq!(tree.range(&[1.0, 1.0], 0.5).len(), 6);
    }
}
