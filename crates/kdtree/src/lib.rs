//! Bucketed KD-trees — the data structure SemTree distributes.
//!
//! The paper (§III-B) assumes a KD-tree in which "data can be stored only
//! into the leaf nodes": every leaf holds a *bucket* of up to `Bs` points,
//! and internal (*routing*) nodes carry a split index `Sr` and split value
//! `Sv`. This crate holds two such trees, and both pick `Sr` and `Sv`
//! through one function, so a [`SplitRule`] builds the same shape in
//! either:
//!
//! - [`KdTree`], the sequential tree: the independent reference the
//!   parity suites compare against, and the tree of the paper's Figs. 3,
//!   4 and 6. It offers
//!   - dynamic insertion with leaf splits ([`KdTree::insert`]) — when a
//!     leaf "saturates the bucket, two new child nodes are instantiated
//!     … the related points are moved into the new child nodes";
//!   - balanced bulk-loading ([`KdTree::bulk_load`]) — "Kd-trees are
//!     more efficient in bulk-loading situations (as required by our
//!     approach)";
//!   - a *totally unbalanced* chain builder ([`KdTree::chain_load`])
//!     reproducing the worst-case series of Figures 3, 4 and 6;
//!   - exact k-nearest search ([`KdTree::knn`]) with the standard
//!     backtracking condition of §III-B.3;
//!   - range search ([`KdTree::range`]) descending both children
//!     whenever `|P[SI] − Sv| < D` (§III-B.4);
//!   - instrumented variants returning [`SearchStats`] (nodes visited,
//!     distance evaluations) and [`TreeShape`], which the
//!     complexity-shape tests assert on.
//! - [`versioned`], the seqlock arena tree every `semtree-dist`
//!   partition is: one writer publishing in place, lock-free readers,
//!   and [`versioned::RemoteOps`] for the links between partitions.
//!
//! # Example
//!
//! ```
//! use semtree_kdtree::{KdConfig, KdTree};
//!
//! let mut tree = KdTree::new(KdConfig::new(2).with_bucket_size(4));
//! for i in 0..100u32 {
//!     tree.insert(&[f64::from(i % 10), f64::from(i / 10)], i);
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
pub use tree::{KdConfig, KdTree, SplitRule};
pub use versioned::{ReadStats, VersionedKdReader, VersionedKdTree};
