//! Shared Euclidean kernels for the parallel distance paths.
//!
//! One implementation replaces the private copies that had grown in
//! `semtree-kdtree` and `semtree-fastmap`. The squared form is the
//! workhorse: k-NN pruning and neighbor-heap ordering are monotone in
//! the squared distance, so the `sqrt` is deferred to result
//! materialization and never runs in an inner loop.

/// Squared Euclidean distance between two equal-length vectors.
#[inline]
#[must_use]
pub fn euclidean_sq(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Euclidean distance between two equal-length vectors.
#[inline]
#[must_use]
pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    euclidean_sq(a, b).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_distances() {
        assert_eq!(euclidean(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(euclidean_sq(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(euclidean(&[1.5], &[1.5]), 0.0);
        assert_eq!(euclidean(&[], &[]), 0.0);
    }

    #[test]
    fn sq_is_the_square() {
        let a = [0.3, -1.7, 2.2, 9.0];
        let b = [4.1, 0.0, -2.5, 8.5];
        let d = euclidean(&a, &b);
        assert!((d * d - euclidean_sq(&a, &b)).abs() < 1e-12);
    }
}
