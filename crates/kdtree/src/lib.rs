//! The bucketed KD-tree — the data structure SemTree distributes.
//!
//! The paper (§III-B) assumes a KD-tree in which "data can be stored only
//! into the leaf nodes": every leaf holds a *bucket* of up to `Bs` points,
//! and internal (*routing*) nodes carry a split index `Sr` and split value
//! `Sv`. This crate holds one such tree, [`versioned`]'s seqlock arena.
//! Every `semtree-dist` partition is one (one writer publishing in place,
//! lock-free readers, [`versioned::RemoteOps`] for the links between
//! partitions); [`VersionedKdTree`] is the same tree with no links. It
//! grows by inserts whose leaves split when they "saturate the bucket",
//! is bulk-loaded balanced ("Kd-trees are more efficient in bulk-loading
//! situations") or chain-loaded totally unbalanced (the worst case of
//! Figs. 3, 4 and 6), answers exact k-nearest (§III-B.3) and range
//! (§III-B.4) queries, counts what a search visits ([`SearchStats`]), and
//! is measured by [`TreeShape`]. Every split, inserted or bulk-loaded,
//! picks `Sr` and `Sv` through one [`SplitRule`]. [`KdTree`] is the same
//! tree under the name the benchmark's probes use.
//!
//! # Example
//!
//! ```
//! use semtree_kdtree::{KdConfig, VersionedKdTree};
//!
//! let mut tree: VersionedKdTree = VersionedKdTree::new(KdConfig::new(2).with_bucket_size(4));
//! for i in 0..100u32 {
//!     tree.insert(&[f64::from(i % 10), f64::from(i / 10)], u64::from(i));
//! }
//! let hits = tree.knn(&[3.2, 4.9], 3);
//! assert_eq!(hits.len(), 3);
//! assert_eq!(hits[0].payload, 53); // (3, 5) is the closest grid point
//! ```

mod search;
mod stats;
mod tree;
pub mod versioned;

pub use search::{Neighbor, SearchStats};
pub use stats::TreeShape;
pub use tree::{KdConfig, SplitRule};
pub use versioned::{ReadStats, VersionedKdReader, VersionedKdTree};

use versioned::StdShim;

/// The tree under the name `perfbench`'s layer probes call it by. Only
/// the benchmark needs it; the benchmark re-base (ROADMAP item 1) drops
/// it.
pub type KdTree = VersionedKdTree<StdShim>;

/// Inputs and the brute-force oracle the unit tests share.
#[cfg(test)]
mod testing {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use semtree_par::metric::euclidean;

    use crate::{KdConfig, Neighbor, VersionedKdTree};

    pub(crate) type Tree = VersionedKdTree;
    /// Coordinates and payload; every input below numbers its points.
    pub(crate) type Point = (Vec<f64>, u64);

    /// `n` points uniform in `[0, 100)^dims`.
    pub(crate) fn random_points(n: usize, dims: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut point = || (0..dims).map(|_| rng.random_range(0.0..100.0)).collect();
        (0..n as u64).map(|i| (point(), i)).collect()
    }

    /// The grid `(i % 10, i / 10)`.
    pub(crate) fn grid(n: usize) -> Vec<Point> {
        let at = |i: u64| vec![(i % 10) as f64, (i / 10) as f64];
        (0..n as u64).map(|i| (at(i), i)).collect()
    }

    /// The 1-d line `0, 1, …, n - 1`.
    pub(crate) fn line(n: usize) -> Vec<Point> {
        (0..n as u64).map(|i| (vec![i as f64], i)).collect()
    }

    /// A tree grown by inserting `points` in order.
    pub(crate) fn grown(config: KdConfig, points: &[Point]) -> Tree {
        let mut tree = Tree::new(config);
        for (coords, payload) in points {
            assert!(tree.insert(coords, *payload));
        }
        tree
    }

    /// Brute force: every point's `(distance, payload)`, sorted as the
    /// facade sorts, by distance, then payload.
    pub(crate) fn brute(points: &[Point], q: &[f64]) -> Vec<(f64, u64)> {
        let mut all: Vec<(f64, u64)> = points.iter().map(|(c, p)| (euclidean(c, q), *p)).collect();
        all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        all
    }

    pub(crate) fn pairs(hits: &[Neighbor<u64>]) -> Vec<(f64, u64)> {
        hits.iter().map(|h| (h.dist, h.payload)).collect()
    }

    /// `hits` are brute force's `k` nearest: the same distances bit for
    /// bit, each payload once at its own distance (which copies fill a
    /// tie at the k-th distance is the tree's choice).
    pub(crate) fn assert_knn_exact(points: &[Point], q: &[f64], k: usize, hits: &[Neighbor<u64>]) {
        let want: Vec<u64> = brute(points, q)
            .iter()
            .take(k)
            .map(|p| p.0.to_bits())
            .collect();
        let got: Vec<u64> = hits.iter().map(|h| h.dist.to_bits()).collect();
        assert_eq!(got, want, "at {q:?}");
        let mut seen = std::collections::HashSet::new();
        for h in hits {
            let own = euclidean(&points[h.payload as usize].0, q);
            assert_eq!(own.to_bits(), h.dist.to_bits(), "payload {}", h.payload);
            assert!(seen.insert(h.payload), "payload {} twice", h.payload);
        }
    }
}
