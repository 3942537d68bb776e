//! Precision and Recall over retrieved/relevant sets.

use std::collections::HashSet;
use std::hash::Hash;

/// `P = |T ∩ T*| / |T|` — the paper's Precision, where `T` is the set
/// returned by the k-NN query and `T*` the expected (ground-truth) set.
/// Defined as 1 when nothing was retrieved and nothing was expected,
/// 0 when something was retrieved against an empty truth.
#[must_use]
pub fn precision<T: Eq + Hash>(retrieved: &[T], relevant: &[T]) -> f64 {
    if retrieved.is_empty() {
        return if relevant.is_empty() { 1.0 } else { 0.0 };
    }
    let rel: HashSet<&T> = relevant.iter().collect();
    let hit = retrieved.iter().filter(|t| rel.contains(t)).count();
    hit as f64 / retrieved.len() as f64
}

/// `R = |T ∩ T*| / |T*|` — the paper's Recall. Defined as 1 when the
/// ground-truth set is empty.
#[must_use]
pub fn recall<T: Eq + Hash>(retrieved: &[T], relevant: &[T]) -> f64 {
    if relevant.is_empty() {
        return 1.0;
    }
    let ret: HashSet<&T> = retrieved.iter().collect();
    let hit = relevant.iter().filter(|t| ret.contains(t)).count();
    hit as f64 / relevant.len() as f64
}

/// One averaged effectiveness point: the paper's Figure 8 plots these as a
/// function of `K`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrPoint {
    /// The `K` of the k-NN queries.
    pub k: usize,
    /// Precision averaged over the query set.
    pub precision: f64,
    /// Recall averaged over the query set.
    pub recall: f64,
}

/// Average per-query `(retrieved, relevant)` pairs into one [`PrPoint`]
/// ("Figure 8 shows the *average* Precision and Recall values for the 100
/// query cases").
#[must_use]
pub fn average_pr<T: Eq + Hash>(k: usize, cases: &[(Vec<T>, Vec<T>)]) -> PrPoint {
    if cases.is_empty() {
        return PrPoint {
            k,
            precision: 0.0,
            recall: 0.0,
        };
    }
    let mut p_sum = 0.0;
    let mut r_sum = 0.0;
    for (retrieved, relevant) in cases {
        p_sum += precision(retrieved, relevant);
        r_sum += recall(retrieved, relevant);
    }
    let n = cases.len() as f64;
    PrPoint {
        k,
        precision: p_sum / n,
        recall: r_sum / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precision_basic() {
        assert_eq!(precision(&[1, 2, 3, 4], &[2, 4, 9]), 0.5);
        assert_eq!(precision(&[1, 2], &[1, 2]), 1.0);
        assert_eq!(precision(&[1, 2], &[9]), 0.0);
    }

    #[test]
    fn recall_basic() {
        assert_eq!(recall(&[1, 2, 3, 4], &[2, 4, 9, 10]), 0.5);
        assert_eq!(recall(&[1], &[1]), 1.0);
        assert_eq!(recall::<u32>(&[], &[1, 2]), 0.0);
    }

    #[test]
    fn empty_set_conventions() {
        assert_eq!(precision::<u32>(&[], &[]), 1.0);
        assert_eq!(precision::<u32>(&[], &[1]), 0.0);
        assert_eq!(recall::<u32>(&[], &[]), 1.0);
        assert_eq!(recall::<u32>(&[1], &[]), 1.0);
    }

    #[test]
    fn k_grows_precision_falls_recall_rises() {
        // The Figure 8 shape in miniature: truth = {1,2}; retrieved grows
        // with K.
        let truth = vec![1, 2];
        let at = |k: usize| {
            let retrieved: Vec<u32> = (1..=k as u32).collect();
            (precision(&retrieved, &truth), recall(&retrieved, &truth))
        };
        let (p1, r1) = at(1);
        let (p4, r4) = at(4);
        assert!(p1 > p4, "precision falls: {p1} vs {p4}");
        assert!(r4 > r1, "recall rises: {r4} vs {r1}");
    }

    #[test]
    fn average_pr_over_cases() {
        let cases = vec![
            (vec![1, 2], vec![1]), // P=0.5, R=1
            (vec![3], vec![3, 4]), // P=1,   R=0.5
        ];
        let pt = average_pr(2, &cases);
        assert!((pt.precision - 0.75).abs() < 1e-12);
        assert!((pt.recall - 0.75).abs() < 1e-12);
        assert_eq!(pt.k, 2);
    }

    #[test]
    fn average_pr_empty() {
        let pt = average_pr::<u32>(3, &[]);
        assert_eq!(pt.precision, 0.0);
        assert_eq!(pt.recall, 0.0);
    }
}
