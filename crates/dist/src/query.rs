//! The typed request and its outcome: [`Query`], [`QueryOutcome`], and
//! the input contract every query meets before it reaches a partition.

use semtree_cluster::ClusterError;
use semtree_kdtree::Neighbor;

use crate::tree::DistSemTree;

/// One typed request against a [`DistSemTree`] — the input to
/// [`DistSemTree::query`], the unified entry point that replaced the
/// accreted `try_*`/panicking method pairs.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// Store one point with its payload (the distributed insertion
    /// algorithm, starting "from the root node of the root partition").
    Insert {
        /// Point coordinates (must match the configured dimensionality).
        point: Vec<f64>,
        /// Caller-owned identifier carried with the point.
        payload: u64,
    },
    /// The `k` nearest stored points to `point`.
    Knn {
        /// Query point.
        point: Vec<f64>,
        /// Result-set size `K`.
        k: usize,
    },
    /// The `k` nearest stored points to every entry of `points`: one
    /// [`Query::Knn`] read each, fanned out over the caller's cores.
    KnnBatch {
        /// Query points, answered in order.
        points: Vec<Vec<f64>>,
        /// Result-set size `K` per query.
        k: usize,
    },
    /// Every stored point within `radius` of `point` (inclusive).
    Range {
        /// Query point.
        point: Vec<f64>,
        /// Inclusive search radius `D`.
        radius: f64,
    },
}

impl Query {
    /// [`Query::Insert`] from borrowed coordinates.
    #[must_use]
    pub fn insert(point: &[f64], payload: u64) -> Self {
        Query::Insert {
            point: point.to_vec(),
            payload,
        }
    }

    /// [`Query::Knn`] from borrowed coordinates.
    #[must_use]
    pub fn knn(point: &[f64], k: usize) -> Self {
        Query::Knn {
            point: point.to_vec(),
            k,
        }
    }

    /// [`Query::KnnBatch`] from borrowed query points.
    #[must_use]
    pub fn knn_batch(points: &[Vec<f64>], k: usize) -> Self {
        Query::KnnBatch {
            points: points.to_vec(),
            k,
        }
    }

    /// [`Query::Range`] from borrowed coordinates.
    #[must_use]
    pub fn range(point: &[f64], radius: f64) -> Self {
        Query::Range {
            point: point.to_vec(),
            radius,
        }
    }
}

/// The successful result of [`DistSemTree::query`], one variant per
/// [`Query`] shape. The typed accessors convert a shape mismatch into a
/// [`ClusterError`] instead of panicking.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutcome {
    /// An [`Query::Insert`] was applied and acknowledged.
    Inserted,
    /// Hits for [`Query::Knn`] / [`Query::Range`], closest first.
    Neighbors(Vec<Neighbor<u64>>),
    /// Per-query hits for [`Query::KnnBatch`], in input order, each
    /// closest first.
    NeighborBatches(Vec<Vec<Neighbor<u64>>>),
}

impl QueryOutcome {
    fn mismatch(expected: &str, got: &Self) -> ClusterError {
        ClusterError::Remote(format!("expected {expected} outcome, got {got:?}"))
    }

    /// Confirm this outcome acknowledges an insert.
    ///
    /// # Errors
    /// Fails when the outcome is not [`QueryOutcome::Inserted`].
    pub fn inserted(self) -> Result<(), ClusterError> {
        match self {
            QueryOutcome::Inserted => Ok(()),
            other => Err(Self::mismatch("insert", &other)),
        }
    }

    /// The neighbour list of a k-NN or range outcome.
    ///
    /// # Errors
    /// Fails when the outcome is not [`QueryOutcome::Neighbors`].
    pub fn neighbors(self) -> Result<Vec<Neighbor<u64>>, ClusterError> {
        match self {
            QueryOutcome::Neighbors(hits) => Ok(hits),
            other => Err(Self::mismatch("neighbors", &other)),
        }
    }

    /// The per-query neighbour lists of a batched k-NN outcome.
    ///
    /// # Errors
    /// Fails when the outcome is not [`QueryOutcome::NeighborBatches`].
    pub fn neighbor_batches(self) -> Result<Vec<Vec<Neighbor<u64>>>, ClusterError> {
        match self {
            QueryOutcome::NeighborBatches(batches) => Ok(batches),
            other => Err(Self::mismatch("neighbor batches", &other)),
        }
    }
}

impl DistSemTree {
    /// The input contract of every data operation, checked once here —
    /// before the read path and before any actor — for in-process and
    /// served callers alike: every point has exactly `dims` finite
    /// coordinates, and a range radius is finite and non-negative.
    /// (`PartitionStore` re-checks dimensionality on its side of the
    /// wire and answers a mismatch with an error reply.)
    pub(crate) fn validate(&self, query: &Query) -> Result<(), ClusterError> {
        let dims = self.shared.kd.dims();
        let check = |point: &Vec<f64>| {
            if point.len() != dims {
                return Err(ClusterError::InvalidRequest(format!(
                    "point has {} dimensions, the index expects {dims}",
                    point.len()
                )));
            }
            if !point.iter().all(|c| c.is_finite()) {
                return Err(ClusterError::InvalidRequest(
                    "point has a non-finite coordinate".into(),
                ));
            }
            Ok(())
        };
        match query {
            Query::Insert { point, .. } | Query::Knn { point, .. } => check(point),
            Query::KnnBatch { points, .. } => points.iter().try_for_each(check),
            Query::Range { point, radius } => {
                check(point)?;
                if radius.is_finite() && *radius >= 0.0 {
                    Ok(())
                } else {
                    Err(ClusterError::InvalidRequest(format!(
                        "radius {radius} is not a finite non-negative number"
                    )))
                }
            }
        }
    }
}
