//! Condensed pairwise distance matrices.

use semtree_model::Triple;

use crate::triple_distance::TripleDistance;

/// A symmetric pairwise distance matrix stored in condensed (upper-triangle)
/// form: `n·(n−1)/2` entries for `n` objects. Used by the experiments to
/// pick range-query radii from distance quantiles and to measure embedding
/// stress.
#[derive(Debug, Clone)]
pub struct DistanceMatrix {
    n: usize,
    data: Vec<f64>,
}

impl DistanceMatrix {
    /// Compute the full matrix for a set of triples.
    #[must_use]
    pub fn compute(dist: &TripleDistance, triples: &[Triple]) -> Self {
        let n = triples.len();
        let mut data = Vec::with_capacity(n * n.saturating_sub(1) / 2);
        for i in 0..n {
            for j in (i + 1)..n {
                data.push(dist.distance(&triples[i], &triples[j]));
            }
        }
        DistanceMatrix { n, data }
    }

    /// Build from a generic pairwise function over indices.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(n * n.saturating_sub(1) / 2);
        for i in 0..n {
            for j in (i + 1)..n {
                data.push(f(i, j));
            }
        }
        DistanceMatrix { n, data }
    }

    /// Number of objects.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the matrix covers fewer than two objects.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n < 2
    }

    /// Distance between objects `i` and `j` (0 on the diagonal).
    ///
    /// # Panics
    /// Panics if `i` or `j` is out of range.
    #[must_use]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "index out of range");
        if i == j {
            return 0.0;
        }
        let (lo, hi) = if i < j { (i, j) } else { (j, i) };
        // Condensed index of (lo, hi): entries for rows < lo, then offset.
        let idx = lo * self.n - lo * (lo + 1) / 2 + (hi - lo - 1);
        self.data[idx]
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) of the off-diagonal distances, by the
    /// nearest-rank method. Returns `None` for fewer than two objects.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.data.is_empty() {
            return None;
        }
        let mut sorted = self.data.clone();
        sorted.sort_by(f64::total_cmp);
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        Some(sorted[rank - 1])
    }

    /// Mean off-diagonal distance (`None` for fewer than two objects).
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        if self.data.is_empty() {
            None
        } else {
            Some(self.data.iter().sum::<f64>() / self.data.len() as f64)
        }
    }

    /// Largest off-diagonal distance (`None` for fewer than two objects).
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        self.data.iter().copied().reduce(f64::max)
    }

    /// Iterate `(i, j, d)` over the upper triangle.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        let n = self.n;
        (0..n)
            .flat_map(move |i| ((i + 1)..n).map(move |j| (i, j)))
            .zip(self.data.iter().copied())
            .map(|((i, j), d)| (i, j, d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_points(points: &[f64]) -> DistanceMatrix {
        DistanceMatrix::from_fn(points.len(), |i, j| (points[i] - points[j]).abs())
    }

    #[test]
    fn get_matches_source_function() {
        let pts = [0.0, 1.0, 3.0, 7.0];
        let m = from_points(&pts);
        assert_eq!(m.len(), 4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(m.get(i, j), (pts[i] - pts[j]).abs(), "({i},{j})");
            }
        }
    }

    #[test]
    fn diagonal_is_zero_and_symmetric() {
        let m = from_points(&[2.0, 5.0, 9.0]);
        for i in 0..3 {
            assert_eq!(m.get(i, i), 0.0);
            for j in 0..3 {
                assert_eq!(m.get(i, j), m.get(j, i));
            }
        }
    }

    #[test]
    fn quantile_nearest_rank() {
        let m = from_points(&[0.0, 1.0, 2.0]); // distances 1, 2, 1
        assert_eq!(m.quantile(0.0), Some(1.0));
        assert_eq!(m.quantile(0.5), Some(1.0));
        assert_eq!(m.quantile(1.0), Some(2.0));
    }

    #[test]
    fn mean_and_max() {
        let m = from_points(&[0.0, 1.0, 2.0]);
        assert!((m.mean().unwrap() - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(m.max(), Some(2.0));
    }

    #[test]
    fn empty_and_singleton() {
        let m = from_points(&[]);
        assert!(m.is_empty());
        assert_eq!(m.quantile(0.5), None);
        assert_eq!(m.mean(), None);
        let m1 = from_points(&[4.0]);
        assert!(m1.is_empty());
        assert_eq!(m1.get(0, 0), 0.0);
    }

    #[test]
    fn iter_covers_upper_triangle() {
        let m = from_points(&[0.0, 1.0, 3.0]);
        let got: Vec<_> = m.iter().collect();
        assert_eq!(got, vec![(0, 1, 1.0), (0, 2, 3.0), (1, 2, 2.0)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let _ = from_points(&[0.0, 1.0]).get(0, 5);
    }
}
