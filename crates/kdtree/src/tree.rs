//! The tree's configuration and its split rule.

/// How a leaf picks its split dimension (`Sr`) when it overflows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SplitRule {
    /// Cycle through the dimensions by depth (`depth mod k`) — "as in the
    /// standard Kd-Tree" the paper navigates by.
    #[default]
    Cycle,
    /// Split on the dimension with the widest coordinate spread in the
    /// bucket (adapts "to different densities in various regions of the
    /// space", the KD-tree property the paper calls out).
    WidestSpread,
    /// Degenerate rule: split at the *smallest* coordinate value, so the
    /// left child receives only the minimum-valued points. Combined with
    /// sorted insertion this reproduces the classic one-point-per-node
    /// unbalanced KD-tree — the paper's "totally unbalanced (chain)"
    /// series. Never use this in production; it exists for the worst-case
    /// experiments.
    DegenerateMin,
}

/// The one split rule (`Sr`, `Sv`) of the tree, for a leaf split and a
/// bulk load alike, over a bucket given as its points' coordinate
/// `rows`. The rule's preferred dimension comes first — `depth mod k`,
/// or the lowest dimension of the widest spread — then the next ones in
/// turn while a dimension is constant. `Sv` is the median (the middle
/// value in [`f64::total_cmp`] order), stepped down to the largest value
/// below the maximum when the median is the maximum, so `<= Sv` leaves
/// both sides non-empty; under [`SplitRule::DegenerateMin`] it is the
/// minimum. `None` when every dimension is constant under `==`.
///
/// The median is selected, not sorted for: `select_nth_unstable_by`
/// puts the same bits at the middle index that a sort by the same
/// total order would, and the step down is one pass.
pub(crate) fn choose_split<'a>(
    config: &KdConfig,
    rows: impl Iterator<Item = &'a [f64]> + Clone,
    depth: u32,
) -> Option<(usize, f64)> {
    let dims = config.dims;
    let values = |dim: usize| rows.clone().map(move |row| row[dim]);
    let span = |dim: usize| {
        let fold = |(lo, hi): (f64, f64), v: f64| (lo.min(v), hi.max(v));
        values(dim).fold((f64::INFINITY, f64::NEG_INFINITY), fold)
    };
    let preferred = match config.split_rule {
        SplitRule::Cycle | SplitRule::DegenerateMin => depth as usize % dims,
        SplitRule::WidestSpread => {
            let (mut best, mut best_spread) = (0, f64::NEG_INFINITY);
            for dim in 0..dims {
                let (lo, hi) = span(dim);
                if hi - lo > best_spread {
                    (best, best_spread) = (dim, hi - lo);
                }
            }
            best
        }
    };
    let mut column = Vec::new();
    (0..dims)
        .map(|offset| (preferred + offset) % dims)
        .find_map(|dim| {
            let (min, max) = span(dim);
            if min >= max {
                return None;
            }
            if config.split_rule == SplitRule::DegenerateMin {
                return Some((dim, min));
            }
            column.clear();
            column.extend(values(dim));
            let half = column.len() / 2;
            let mid = *column.select_nth_unstable_by(half, f64::total_cmp).1;
            let val = if mid < max {
                mid
            } else {
                values(dim).filter(|&v| v < max).max_by(f64::total_cmp)?
            };
            Some((dim, val))
        })
}

/// Tree configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KdConfig {
    dims: usize,
    bucket_size: usize,
    split_rule: SplitRule,
}

impl KdConfig {
    /// Configuration for `dims`-dimensional points with the default bucket
    /// size (32) and split rule.
    ///
    /// # Panics
    /// Panics if `dims == 0`.
    #[must_use]
    pub fn new(dims: usize) -> Self {
        assert!(dims > 0, "dimensionality must be at least 1");
        KdConfig {
            dims,
            bucket_size: 32,
            split_rule: SplitRule::default(),
        }
    }

    /// Set the leaf bucket capacity `Bs` (≥ 1).
    ///
    /// # Panics
    /// Panics if `bucket_size == 0`.
    #[must_use]
    pub fn with_bucket_size(mut self, bucket_size: usize) -> Self {
        assert!(bucket_size > 0, "bucket size must be at least 1");
        self.bucket_size = bucket_size;
        self
    }

    /// Set the split rule.
    #[must_use]
    pub fn with_split_rule(mut self, rule: SplitRule) -> Self {
        self.split_rule = rule;
        self
    }

    /// Point dimensionality.
    #[must_use]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Leaf bucket capacity `Bs`.
    #[must_use]
    pub fn bucket_size(&self) -> usize {
        self.bucket_size
    }

    /// The split rule.
    #[must_use]
    pub fn split_rule(&self) -> SplitRule {
        self.split_rule
    }
}

/// Planar points (`dims = 2`) with the default bucket size and split
/// rule — the smallest configuration every example in this workspace
/// starts from; call [`KdConfig::new`] for other dimensionalities.
impl Default for KdConfig {
    fn default() -> Self {
        KdConfig::new(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{grid, grown, line, Tree};
    use crate::versioned::Child;
    use crate::TreeShape;
    use proptest::prelude::*;

    #[test]
    fn empty_tree() {
        let t = Tree::new(KdConfig::new(2));
        assert!(t.is_empty());
        assert_eq!((t.len(), TreeShape::of(&t).nodes), (0, 1));
    }

    #[test]
    fn insert_grows_len_and_splits() {
        let t = grown(KdConfig::new(2).with_bucket_size(4), &grid(50));
        assert_eq!(t.len(), 50);
        assert!(
            TreeShape::of(&t).nodes > 1,
            "bucket overflow must have split"
        );
        assert_eq!(TreeShape::of(&t).entries, 50);
    }

    #[test]
    fn all_leaves_within_capacity_after_splits() {
        let t = grown(KdConfig::new(2).with_bucket_size(4), &grid(200));
        let occupancy = TreeShape::of(&t).max_leaf_occupancy;
        assert!(occupancy <= 4, "leaf holds {occupancy}");
    }

    #[test]
    fn identical_points_do_not_split_forever() {
        let copies: Vec<_> = (0..20).map(|i| (vec![1.0, 1.0], i)).collect();
        let t = grown(KdConfig::new(2).with_bucket_size(2), &copies);
        // A single (oversized) leaf: no split possible.
        assert_eq!((t.len(), TreeShape::of(&t).nodes), (20, 1));
    }

    #[test]
    fn duplicate_heavy_data_splits_on_another_dim() {
        let config = KdConfig::new(2).with_bucket_size(2);
        // Constant on dim 0 (the Cycle rule's first choice), varying dim 1.
        let points: Vec<_> = (0..10).map(|i| (vec![5.0, i as f64], i)).collect();
        let s = TreeShape::of(&grown(config.with_split_rule(SplitRule::Cycle), &points));
        assert!(s.nodes > 1);
        assert_eq!(s.entries, 10);
    }

    #[test]
    fn locate_leaf_is_consistent_with_insert() {
        let t = grown(KdConfig::new(2).with_bucket_size(2), &grid(40));
        // Every stored point is in the leaf its descent ends at.
        for (coords, payload) in grid(40) {
            let leaf = match t.arena().navigate(0, &coords) {
                Some(Child::Local(leaf)) => t.arena().node(leaf),
                _ => None,
            };
            let bucket = leaf.map(|n| n.bucket()).unwrap_or_default();
            assert!(bucket.iter().any(|(_, p)| *p == payload));
        }
    }

    #[test]
    fn bulk_load_is_balanced() {
        let t = Tree::bulk_load(KdConfig::new(2).with_bucket_size(4), grid(256));
        assert_eq!(t.len(), 256);
        // 256 points / bucket 4 = 64 leaves → ideal depth 6; allow slack
        // for uneven medians.
        let depth = TreeShape::of(&t).max_depth;
        assert!(depth <= 9, "depth {depth} too large for balanced build");
    }

    #[test]
    fn chain_load_degenerates() {
        let config = KdConfig::new(1).with_bucket_size(4);
        let chain = Tree::chain_load(config, line(64));
        let chain_depth = TreeShape::of(&chain).max_depth;
        let bal_depth = TreeShape::of(&Tree::bulk_load(config, line(64))).max_depth;
        assert!(
            chain_depth >= 2 * bal_depth,
            "chain depth {chain_depth} vs balanced {bal_depth}"
        );
        assert_eq!(chain.len(), 64);
    }

    #[test]
    fn bulk_load_empty_and_small() {
        assert!(Tree::bulk_load(KdConfig::new(3), vec![]).is_empty());
        let t = Tree::bulk_load(KdConfig::new(1), vec![(vec![1.0], 7)]);
        assert_eq!((t.len(), TreeShape::of(&t).nodes), (1, 1));
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn wrong_dimensionality_panics() {
        Tree::new(KdConfig::new(2)).insert(&[1.0], 0);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_dims_rejected() {
        let _ = KdConfig::new(0);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_bucket_rejected() {
        let _ = KdConfig::new(2).with_bucket_size(0);
    }

    #[test]
    fn widest_spread_rule_builds_valid_tree() {
        let config = KdConfig::new(2).with_bucket_size(4);
        let t = grown(config.with_split_rule(SplitRule::WidestSpread), &grid(100));
        assert_eq!(TreeShape::of(&t).entries, 100);
    }

    #[test]
    fn split_rule_table() {
        use SplitRule::{Cycle, DegenerateMin, WidestSpread};
        // (rule, depth, bucket, expected `(Sr, Sv)`) on hand-built buckets.
        type Case = (SplitRule, u32, &'static [[f64; 2]], Option<(usize, f64)>);
        #[rustfmt::skip]
        let cases: [Case; 9] = [
            // An all-equal bucket has no plane under any rule.
            (Cycle, 0, &[[3.0, 3.0]; 4], None),
            (WidestSpread, 0, &[[3.0, 3.0]; 4], None),
            (DegenerateMin, 0, &[[3.0, 3.0]; 4], None),
            // The median (index 2) below the max is the split value...
            (Cycle, 0, &[[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [2.0, 0.0]], Some((0, 1.0))),
            // ...and a median equal to the max steps down below it.
            (Cycle, 0, &[[1.0, 0.0], [2.0, 0.0], [2.0, 0.0], [2.0, 0.0]], Some((0, 1.0))),
            // A widest-spread tie goes to the lowest dimension.
            (WidestSpread, 1, &[[0.0, 0.0], [4.0, 4.0], [2.0, 1.0]], Some((0, 2.0))),
            // The degenerate rule splits at the minimum.
            (DegenerateMin, 0, &[[5.0, 0.0], [1.0, 0.0], [3.0, 0.0]], Some((0, 1.0))),
            // A constant preferred dimension (depth 1 → dim 1) falls through.
            (Cycle, 1, &[[0.0, 7.0], [1.0, 7.0], [2.0, 7.0]], Some((0, 1.0))),
            (DegenerateMin, 1, &[[2.0, 7.0], [0.0, 7.0], [1.0, 7.0]], Some((0, 0.0))),
        ];
        for (rule, depth, bucket, want) in cases {
            let config = KdConfig::new(2).with_split_rule(rule);
            let got = choose_split(&config, bucket.iter().map(|p| &p[..]), depth);
            assert_eq!(got, want, "{rule:?} at depth {depth} on {bucket:?}");
        }
    }

    /// The rule as a sort over each dimension's values, which
    /// [`choose_split`]'s selection replaced: the oracle of the property
    /// below.
    fn sorted_split(config: &KdConfig, bucket: &[Vec<f64>], depth: u32) -> Option<(usize, f64)> {
        let dims = config.dims;
        let values = |dim: usize| bucket.iter().map(move |p| p[dim]);
        let span = |dim: usize| {
            let fold = |(lo, hi): (f64, f64), v: f64| (lo.min(v), hi.max(v));
            values(dim).fold((f64::INFINITY, f64::NEG_INFINITY), fold)
        };
        let preferred = match config.split_rule {
            SplitRule::Cycle | SplitRule::DegenerateMin => depth as usize % dims,
            SplitRule::WidestSpread => {
                let (mut best, mut best_spread) = (0, f64::NEG_INFINITY);
                for dim in 0..dims {
                    let (lo, hi) = span(dim);
                    if hi - lo > best_spread {
                        (best, best_spread) = (dim, hi - lo);
                    }
                }
                best
            }
        };
        (0..dims)
            .map(|offset| (preferred + offset) % dims)
            .find_map(|dim| {
                if config.split_rule == SplitRule::DegenerateMin {
                    let (min, max) = span(dim);
                    return (min < max).then_some((dim, min));
                }
                let mut sorted: Vec<f64> = values(dim).collect();
                sorted.sort_by(f64::total_cmp);
                let (min, max) = (*sorted.first()?, *sorted.last()?);
                if min == max {
                    return None;
                }
                let mid = sorted[sorted.len() / 2];
                let val = if mid < max {
                    mid
                } else {
                    *sorted.iter().rev().find(|&&v| v < max)?
                };
                Some((dim, val))
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The selected median and the one-pass step down give the sort's
        /// plane bit for bit, under every rule, on buckets drawn from a
        /// few values with `-0.0` and `0.0` among them, so ties, constant
        /// dimensions and medians at the maximum are the rule.
        #[test]
        fn selection_splits_where_the_sort_did(
            cells in prop::collection::vec(0usize..6, 0..120),
            dims in 1usize..4,
            depth in 0u32..8,
        ) {
            const VALUES: [f64; 6] = [-0.0, 0.0, 1.0, -2.5, 3.0, 0.0];
            let bucket: Vec<Vec<f64>> = cells
                .chunks_exact(dims)
                .map(|row| row.iter().map(|&c| VALUES[c]).collect())
                .collect();
            let bits = |split: Option<(usize, f64)>| split.map(|(dim, val)| (dim, val.to_bits()));
            for rule in [SplitRule::Cycle, SplitRule::WidestSpread, SplitRule::DegenerateMin] {
                let config = KdConfig::new(dims).with_split_rule(rule);
                let got = choose_split(&config, bucket.iter().map(|p| &p[..]), depth);
                let want = sorted_split(&config, &bucket, depth);
                prop_assert_eq!(bits(got), bits(want), "{:?} at depth {} on {:?}", rule, depth, bucket);
            }
        }
    }
}
