//! Percentile-bootstrap confidence intervals.
//!
//! The paper reports *average* Precision/Recall over 100 queries with no
//! variance estimate; the bootstrap quantifies how stable those averages
//! are (resample the 100 per-query values with replacement, recompute the
//! mean, take the percentile interval).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A two-sided confidence interval around a sample mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// The plain sample mean.
    pub mean: f64,
    /// Lower percentile bound.
    pub lo: f64,
    /// Upper percentile bound.
    pub hi: f64,
}

impl ConfidenceInterval {
    /// Half-width of the interval.
    #[must_use]
    pub fn half_width(&self) -> f64 {
        (self.hi - self.lo) / 2.0
    }
}

/// Percentile bootstrap CI for the mean of `samples`.
///
/// `confidence` is the two-sided level (e.g. 0.95); `iterations` resamples
/// are drawn deterministically from `seed`. Returns a degenerate interval
/// for fewer than two samples.
///
/// # Panics
/// Panics if `iterations == 0` or `confidence` is outside `(0, 1)`.
#[must_use]
pub fn bootstrap_mean_ci(
    samples: &[f64],
    iterations: usize,
    confidence: f64,
    seed: u64,
) -> ConfidenceInterval {
    assert!(iterations > 0, "at least one bootstrap iteration");
    assert!(
        confidence > 0.0 && confidence < 1.0,
        "confidence must be in (0, 1)"
    );
    if samples.is_empty() {
        return ConfidenceInterval {
            mean: 0.0,
            lo: 0.0,
            hi: 0.0,
        };
    }
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    if samples.len() < 2 {
        return ConfidenceInterval {
            mean,
            lo: mean,
            hi: mean,
        };
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut means = Vec::with_capacity(iterations);
    for _ in 0..iterations {
        let sum: f64 = (0..samples.len())
            .map(|_| samples[rng.random_range(0..samples.len())])
            .sum();
        means.push(sum / samples.len() as f64);
    }
    means.sort_by(f64::total_cmp);
    let alpha = (1.0 - confidence) / 2.0;
    let idx = |q: f64| -> usize {
        ((q * (means.len() - 1) as f64).round() as usize).min(means.len() - 1)
    };
    ConfidenceInterval {
        mean,
        lo: means[idx(alpha)],
        hi: means[idx(1.0 - alpha)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_brackets_the_mean() {
        let samples: Vec<f64> = (0..100).map(|i| f64::from(i % 10)).collect();
        let ci = bootstrap_mean_ci(&samples, 500, 0.95, 7);
        assert!(ci.lo <= ci.mean && ci.mean <= ci.hi);
        assert!((ci.mean - 4.5).abs() < 1e-12);
        assert!(ci.half_width() > 0.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let samples: Vec<f64> = (0..50).map(f64::from).collect();
        let a = bootstrap_mean_ci(&samples, 200, 0.9, 3);
        let b = bootstrap_mean_ci(&samples, 200, 0.9, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn tighter_with_more_samples() {
        let narrow: Vec<f64> = (0..400).map(|i| f64::from(i % 10)).collect();
        let wide: Vec<f64> = (0..20).map(|i| f64::from(i % 10)).collect();
        let ci_n = bootstrap_mean_ci(&narrow, 500, 0.95, 11);
        let ci_w = bootstrap_mean_ci(&wide, 500, 0.95, 11);
        assert!(ci_n.half_width() < ci_w.half_width());
    }

    #[test]
    fn constant_samples_collapse() {
        let ci = bootstrap_mean_ci(&[0.5; 30], 100, 0.95, 1);
        assert_eq!(ci.lo, 0.5);
        assert_eq!(ci.hi, 0.5);
    }

    #[test]
    fn degenerate_inputs() {
        let ci = bootstrap_mean_ci(&[], 10, 0.95, 0);
        assert_eq!(ci.mean, 0.0);
        let ci = bootstrap_mean_ci(&[3.0], 10, 0.95, 0);
        assert_eq!(
            ci,
            ConfidenceInterval {
                mean: 3.0,
                lo: 3.0,
                hi: 3.0
            }
        );
    }

    #[test]
    #[should_panic(expected = "confidence")]
    fn bad_confidence_panics() {
        let _ = bootstrap_mean_ci(&[1.0, 2.0], 10, 1.5, 0);
    }
}
