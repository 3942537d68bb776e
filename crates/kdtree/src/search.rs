//! k-nearest and range search with backtracking.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use semtree_par::metric::euclidean_sq;
// The single shared Euclidean implementation; this crate's former
// private copy is gone.
pub(crate) use semtree_par::metric::euclidean;

use crate::tree::{KdTree, NodeId, NodeKind};

/// One search hit.
#[derive(Debug, Clone, PartialEq)]
pub struct Neighbor<P> {
    /// Euclidean distance from the query point.
    pub dist: f64,
    /// The stored payload.
    pub payload: P,
}

/// Instrumentation of one search, used by the complexity-shape tests and
/// the distributed layer's cost accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Nodes (routing + leaf) touched by the visit.
    pub nodes_visited: usize,
    /// Point-to-point distance evaluations.
    pub distance_evals: usize,
}

/// Max-heap item so the `BinaryHeap` evicts the *farthest* candidate.
/// Ordered by **squared** distance — monotone in the true distance, so
/// no `sqrt` runs inside the search loop; the root is taken once per
/// result at materialization.
struct HeapItem<P> {
    dist_sq: f64,
    payload: P,
}

impl<P> PartialEq for HeapItem<P> {
    fn eq(&self, other: &Self) -> bool {
        self.dist_sq == other.dist_sq
    }
}
impl<P> Eq for HeapItem<P> {}
impl<P> PartialOrd for HeapItem<P> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<P> Ord for HeapItem<P> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.dist_sq.total_cmp(&other.dist_sq)
    }
}

impl<P: Clone> KdTree<P> {
    /// The `k` nearest stored points to `query`, closest first.
    ///
    /// Backtracking follows §III-B.3: after reaching a leaf, a sibling
    /// sub-tree is descended iff the result set is not full yet
    /// (`|Rs| < K`) **or** the splitting hyperplane is closer than the
    /// current worst result — the distance-comparison disjunct of the
    /// paper's condition, stated on the full distance rather than one
    /// coordinate so the search stays exact.
    #[must_use]
    pub fn knn(&self, query: &[f64], k: usize) -> Vec<Neighbor<P>> {
        self.knn_with_stats(query, k).0
    }

    /// [`KdTree::knn`] plus visit instrumentation.
    #[must_use]
    pub fn knn_with_stats(&self, query: &[f64], k: usize) -> (Vec<Neighbor<P>>, SearchStats) {
        assert_eq!(query.len(), self.config().dims(), "dimensionality mismatch");
        let mut stats = SearchStats::default();
        let mut heap: BinaryHeap<HeapItem<P>> = BinaryHeap::new();
        if k > 0 && !self.is_empty() {
            self.knn_iterative(query, k, &mut heap, &mut stats);
        }
        let mut out: Vec<Neighbor<P>> = heap
            .into_sorted_vec()
            .into_iter()
            .map(|h| Neighbor {
                dist: h.dist_sq.sqrt(),
                payload: h.payload,
            })
            .collect();
        // `into_sorted_vec` is ascending by our Ord — already closest-first.
        out.truncate(k);
        (out, stats)
    }

    /// Depth-first k-NN with an explicit stack: the far-side check is
    /// deferred until after the near sub-tree completes (classic
    /// backtracking), and arbitrarily deep (chain) trees cannot overflow
    /// the call stack.
    fn knn_iterative(
        &self,
        query: &[f64],
        k: usize,
        heap: &mut BinaryHeap<HeapItem<P>>,
        stats: &mut SearchStats,
    ) {
        enum Task {
            Visit(NodeId),
            /// Evaluate the paper's descend condition for the far child
            /// *after* the near side has been searched.
            CheckFar {
                far: NodeId,
                plane_dist_sq: f64,
            },
        }
        let mut stack = vec![Task::Visit(NodeId(0))];
        while let Some(task) = stack.pop() {
            match task {
                Task::CheckFar { far, plane_dist_sq } => {
                    // The paper's disjunction: Rs not full, or the
                    // hyperplane distance |P[SI] − Sv| beats the worst
                    // (compared in squared space, which preserves order).
                    let must = heap.len() < k
                        || heap
                            .peek()
                            .is_some_and(|worst| plane_dist_sq < worst.dist_sq);
                    if must {
                        stack.push(Task::Visit(far));
                    }
                }
                Task::Visit(node) => {
                    stats.nodes_visited += 1;
                    match &self.nodes[node.index()].kind {
                        NodeKind::Leaf { bucket } => {
                            for e in bucket {
                                stats.distance_evals += 1;
                                let d_sq = euclidean_sq(&e.coords, query);
                                if heap.len() < k {
                                    heap.push(HeapItem {
                                        dist_sq: d_sq,
                                        payload: e.payload.clone(),
                                    });
                                } else if let Some(top) = heap.peek() {
                                    if d_sq < top.dist_sq {
                                        heap.pop();
                                        heap.push(HeapItem {
                                            dist_sq: d_sq,
                                            payload: e.payload.clone(),
                                        });
                                    }
                                }
                            }
                        }
                        NodeKind::Routing {
                            split_dim,
                            split_val,
                            left,
                            right,
                        } => {
                            let delta = query[*split_dim] - *split_val;
                            let (near, far) = if delta <= 0.0 {
                                (*left, *right)
                            } else {
                                (*right, *left)
                            };
                            stack.push(Task::CheckFar {
                                far,
                                plane_dist_sq: delta * delta,
                            });
                            stack.push(Task::Visit(near));
                        }
                    }
                }
            }
        }
    }

    /// All stored points within `radius` of `query` (inclusive), closest
    /// first. Descends *both* children of a routing node whenever
    /// `|P[SI] − Sv| ≤ D`, per §III-B.4.
    #[must_use]
    pub fn range(&self, query: &[f64], radius: f64) -> Vec<Neighbor<P>> {
        self.range_with_stats(query, radius).0
    }

    /// [`KdTree::range`] plus visit instrumentation.
    #[must_use]
    pub fn range_with_stats(&self, query: &[f64], radius: f64) -> (Vec<Neighbor<P>>, SearchStats) {
        assert_eq!(query.len(), self.config().dims(), "dimensionality mismatch");
        assert!(radius >= 0.0, "radius must be non-negative");
        let mut stats = SearchStats::default();
        let mut out = Vec::new();
        if !self.is_empty() {
            self.range_visit(NodeId(0), query, radius, &mut out, &mut stats);
        }
        out.sort_by(|a, b| a.dist.total_cmp(&b.dist));
        (out, stats)
    }

    fn range_visit(
        &self,
        start: NodeId,
        query: &[f64],
        radius: f64,
        out: &mut Vec<Neighbor<P>>,
        stats: &mut SearchStats,
    ) {
        let mut stack = vec![start];
        while let Some(node) = stack.pop() {
            stats.nodes_visited += 1;
            match &self.nodes[node.index()].kind {
                NodeKind::Leaf { bucket } => {
                    for e in bucket {
                        stats.distance_evals += 1;
                        let d = euclidean(&e.coords, query);
                        if d <= radius {
                            out.push(Neighbor {
                                dist: d,
                                payload: e.payload.clone(),
                            });
                        }
                    }
                }
                NodeKind::Routing {
                    split_dim,
                    split_val,
                    left,
                    right,
                } => {
                    let delta = query[*split_dim] - *split_val;
                    if delta.abs() <= radius {
                        // |P[SI] − Sv| < D → "navigate across the two
                        // children".
                        stack.push(*left);
                        stack.push(*right);
                    } else if delta <= 0.0 {
                        stack.push(*left);
                    } else {
                        stack.push(*right);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    use crate::tree::{KdConfig, KdTree};

    use super::*;

    fn random_points(n: usize, dims: usize, seed: u64) -> Vec<(Vec<f64>, u32)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                (
                    (0..dims).map(|_| rng.random_range(0.0..100.0)).collect(),
                    i as u32,
                )
            })
            .collect()
    }

    fn brute_knn(points: &[(Vec<f64>, u32)], query: &[f64], k: usize) -> Vec<(f64, u32)> {
        let mut all: Vec<(f64, u32)> = points
            .iter()
            .map(|(c, p)| (euclidean(c, query), *p))
            .collect();
        all.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        all.truncate(k);
        all
    }

    #[test]
    fn knn_matches_brute_force() {
        let points = random_points(500, 3, 42);
        let tree = KdTree::bulk_load(KdConfig::new(3).with_bucket_size(8), points.clone());
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let q: Vec<f64> = (0..3).map(|_| rng.random_range(0.0..100.0)).collect();
            let got = tree.knn(&q, 5);
            let want = brute_knn(&points, &q, 5);
            assert_eq!(got.len(), 5);
            for (g, w) in got.iter().zip(&want) {
                assert!(
                    (g.dist - w.0).abs() < 1e-9,
                    "dist mismatch {} vs {}",
                    g.dist,
                    w.0
                );
            }
        }
    }

    #[test]
    fn knn_matches_brute_force_on_dynamic_tree() {
        let points = random_points(300, 2, 3);
        let mut tree = KdTree::new(KdConfig::new(2).with_bucket_size(4));
        for (c, p) in &points {
            tree.insert(c, *p);
        }
        let q = vec![50.0, 50.0];
        let got = tree.knn(&q, 10);
        let want = brute_knn(&points, &q, 10);
        for (g, w) in got.iter().zip(&want) {
            assert!((g.dist - w.0).abs() < 1e-9);
        }
    }

    #[test]
    fn knn_matches_brute_force_on_chain_tree() {
        let points = random_points(200, 2, 9);
        let tree = KdTree::chain_load(KdConfig::new(2).with_bucket_size(4), points.clone());
        let q = vec![33.0, 66.0];
        let got = tree.knn(&q, 7);
        let want = brute_knn(&points, &q, 7);
        for (g, w) in got.iter().zip(&want) {
            assert!((g.dist - w.0).abs() < 1e-9);
        }
    }

    #[test]
    fn knn_results_sorted_ascending() {
        let points = random_points(100, 2, 5);
        let tree = KdTree::bulk_load(KdConfig::new(2), points);
        let hits = tree.knn(&[10.0, 10.0], 10);
        for w in hits.windows(2) {
            assert!(w[0].dist <= w[1].dist);
        }
    }

    #[test]
    fn knn_with_k_larger_than_tree() {
        let points = random_points(5, 2, 1);
        let tree = KdTree::bulk_load(KdConfig::new(2), points);
        assert_eq!(tree.knn(&[0.0, 0.0], 50).len(), 5);
    }

    #[test]
    fn knn_zero_k_and_empty_tree() {
        let tree: KdTree<u32> = KdTree::new(KdConfig::new(2));
        assert!(tree.knn(&[0.0, 0.0], 3).is_empty());
        let tree = KdTree::bulk_load(KdConfig::new(2), random_points(10, 2, 2));
        assert!(tree.knn(&[0.0, 0.0], 0).is_empty());
    }

    #[test]
    fn range_matches_brute_force() {
        let points = random_points(400, 3, 11);
        let tree = KdTree::bulk_load(KdConfig::new(3).with_bucket_size(8), points.clone());
        let q = vec![50.0, 50.0, 50.0];
        for radius in [0.0, 5.0, 20.0, 75.0] {
            let got = tree.range(&q, radius);
            let want: Vec<u32> = points
                .iter()
                .filter(|(c, _)| euclidean(c, &q) <= radius)
                .map(|(_, p)| *p)
                .collect();
            assert_eq!(got.len(), want.len(), "radius {radius}");
            for hit in &got {
                assert!(hit.dist <= radius);
                assert!(want.contains(&hit.payload));
            }
        }
    }

    #[test]
    fn range_radius_zero_finds_exact_point() {
        let mut tree = KdTree::new(KdConfig::new(2).with_bucket_size(2));
        tree.insert(&[1.0, 2.0], 1u32);
        tree.insert(&[3.0, 4.0], 2u32);
        let hits = tree.range(&[1.0, 2.0], 0.0);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].payload, 1);
    }

    #[test]
    fn range_sorted_ascending() {
        let points = random_points(200, 2, 13);
        let tree = KdTree::bulk_load(KdConfig::new(2), points);
        let hits = tree.range(&[50.0, 50.0], 40.0);
        assert!(hits.len() > 2);
        for w in hits.windows(2) {
            assert!(w[0].dist <= w[1].dist);
        }
    }

    #[test]
    fn balanced_tree_visits_fewer_nodes_than_chain() {
        // The complexity shape behind Figure 4: a balanced tree answers
        // k-NN in ~log N node visits, the chain in ~N.
        let points: Vec<(Vec<f64>, u32)> = (0..1024).map(|i| (vec![i as f64], i as u32)).collect();
        let balanced = KdTree::bulk_load(KdConfig::new(1).with_bucket_size(8), points.clone());
        let chain = KdTree::chain_load(KdConfig::new(1).with_bucket_size(8), points);
        let q = vec![512.3];
        let (_, bal) = balanced.knn_with_stats(&q, 3);
        let (_, ch) = chain.knn_with_stats(&q, 3);
        assert!(
            ch.nodes_visited > 4 * bal.nodes_visited,
            "chain {} vs balanced {}",
            ch.nodes_visited,
            bal.nodes_visited
        );
    }

    #[test]
    fn larger_radius_visits_more_nodes() {
        let points = random_points(1000, 2, 23);
        let tree = KdTree::bulk_load(KdConfig::new(2).with_bucket_size(8), points);
        let q = vec![50.0, 50.0];
        let (_, small) = tree.range_with_stats(&q, 1.0);
        let (_, large) = tree.range_with_stats(&q, 50.0);
        assert!(large.nodes_visited > small.nodes_visited);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_radius_panics() {
        let tree: KdTree<u32> = KdTree::new(KdConfig::new(1));
        let _ = tree.range(&[0.0], -1.0);
    }

    #[test]
    fn duplicate_points_all_returned_in_range() {
        let mut tree = KdTree::new(KdConfig::new(2).with_bucket_size(2));
        for i in 0..6u32 {
            tree.insert(&[1.0, 1.0], i);
        }
        let hits = tree.range(&[1.0, 1.0], 0.5);
        assert_eq!(hits.len(), 6);
    }
}
