//! Tree structure, dynamic insertion, bulk loading, and the split rule
//! both KD-trees share.

/// Identifier of a node in the tree arena; the root is always node 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct NodeId(pub(crate) u32);

impl NodeId {
    /// The arena index.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

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

/// The one split rule (`Sr`, `Sv`) of both trees, [`KdTree`] and
/// [`crate::versioned::Tree`], over a bucket whose points `coords`
/// exposes. The rule's preferred dimension comes first — `depth mod k`,
/// or the lowest dimension of the widest spread — then the next ones in
/// turn while a dimension is constant. `Sv` is the median, stepped down
/// to the largest value below the maximum when the median is the
/// maximum, so `<= Sv` leaves both sides non-empty; under
/// [`SplitRule::DegenerateMin`] it is the minimum. `None` when every
/// point is the same.
pub(crate) fn choose_split<T>(
    config: &KdConfig,
    bucket: &[T],
    coords: impl Fn(&T) -> &[f64],
    depth: u32,
) -> Option<(usize, f64)> {
    let dims = config.dims;
    let coords = &coords;
    let values = |dim: usize| bucket.iter().map(move |p| coords(p)[dim]);
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

#[derive(Debug, Clone)]
pub(crate) struct Entry<P> {
    pub(crate) coords: Box<[f64]>,
    pub(crate) payload: P,
}

#[derive(Debug, Clone)]
pub(crate) enum NodeKind<P> {
    /// Internal node carrying the split index `Sr` and split value `Sv`.
    Routing {
        split_dim: usize,
        split_val: f64,
        left: NodeId,
        right: NodeId,
    },
    /// Leaf bucket ("data can be stored only into the leaf nodes").
    Leaf { bucket: Vec<Entry<P>> },
}

#[derive(Debug, Clone)]
pub(crate) struct Node<P> {
    pub(crate) kind: NodeKind<P>,
    pub(crate) depth: u32,
}

/// A bucketed KD-tree with payloads of type `P`.
#[derive(Debug, Clone)]
pub struct KdTree<P> {
    config: KdConfig,
    pub(crate) nodes: Vec<Node<P>>,
    len: usize,
}

impl<P: Clone> KdTree<P> {
    /// An empty tree (a single empty leaf as root).
    #[must_use]
    pub fn new(config: KdConfig) -> Self {
        KdTree {
            config,
            nodes: vec![Node {
                kind: NodeKind::Leaf { bucket: Vec::new() },
                depth: 0,
            }],
            len: 0,
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &KdConfig {
        &self.config
    }

    /// Number of stored points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree stores no points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of nodes (routing + leaf).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Insert a point with its payload, splitting the target leaf if it
    /// overflows its bucket.
    ///
    /// # Panics
    /// Panics if `coords.len() != config.dims()`.
    pub fn insert(&mut self, coords: &[f64], payload: P) {
        assert_eq!(coords.len(), self.config.dims, "dimensionality mismatch");
        let leaf = self.locate_leaf(coords);
        let entry = Entry {
            coords: coords.into(),
            payload,
        };
        match &mut self.nodes[leaf.index()].kind {
            NodeKind::Leaf { bucket } => bucket.push(entry),
            NodeKind::Routing { .. } => unreachable!("locate_leaf returns leaves"),
        }
        self.len += 1;
        self.maybe_split(leaf);
    }

    /// The leaf a point with these coordinates belongs to (navigation by
    /// `Sr`/`Sv` exactly as the paper's insertion algorithm).
    fn locate_leaf(&self, coords: &[f64]) -> NodeId {
        let mut node = NodeId(0);
        loop {
            match &self.nodes[node.index()].kind {
                NodeKind::Leaf { .. } => return node,
                NodeKind::Routing {
                    split_dim,
                    split_val,
                    left,
                    right,
                } => {
                    node = if coords[*split_dim] <= *split_val {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    fn maybe_split(&mut self, leaf: NodeId) {
        let (depth, over) = match &self.nodes[leaf.index()].kind {
            NodeKind::Leaf { bucket } => (
                self.nodes[leaf.index()].depth,
                bucket.len() > self.config.bucket_size,
            ),
            NodeKind::Routing { .. } => return,
        };
        if !over {
            return;
        }
        let NodeKind::Leaf { bucket } = std::mem::replace(
            &mut self.nodes[leaf.index()].kind,
            NodeKind::Leaf { bucket: Vec::new() },
        ) else {
            return;
        };

        let Some((split_dim, split_val)) =
            choose_split(&self.config, &bucket, |e| &e.coords, depth)
        else {
            // Every point identical: splitting is impossible; keep the
            // oversized bucket (re-checked at the next insert).
            self.nodes[leaf.index()].kind = NodeKind::Leaf { bucket };
            return;
        };

        let (left_bucket, right_bucket): (Vec<_>, Vec<_>) = bucket
            .into_iter()
            .partition(|e| e.coords[split_dim] <= split_val);
        debug_assert!(!left_bucket.is_empty() && !right_bucket.is_empty());

        let left = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            kind: NodeKind::Leaf {
                bucket: left_bucket,
            },
            depth: depth + 1,
        });
        let right = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            kind: NodeKind::Leaf {
                bucket: right_bucket,
            },
            depth: depth + 1,
        });
        self.nodes[leaf.index()].kind = NodeKind::Routing {
            split_dim,
            split_val,
            left,
            right,
        };

        // A median split leaves each side within capacity, but re-check for
        // safety with degenerate (heavily duplicated) coordinates.
        self.maybe_split(left);
        self.maybe_split(right);
    }

    /// Balanced bulk-load: recursive median construction, the paper's
    /// "1 partition (balanced)" series.
    #[must_use]
    pub fn bulk_load(config: KdConfig, points: Vec<(Vec<f64>, P)>) -> Self {
        for (coords, _) in &points {
            assert_eq!(coords.len(), config.dims, "dimensionality mismatch");
        }
        let len = points.len();
        let mut tree = KdTree {
            config,
            nodes: Vec::new(),
            len,
        };
        let entries: Vec<Entry<P>> = points
            .into_iter()
            .map(|(coords, payload)| Entry {
                coords: coords.into(),
                payload,
            })
            .collect();
        tree.nodes.push(Node {
            kind: NodeKind::Leaf { bucket: Vec::new() },
            depth: 0,
        });
        tree.build_recursive(NodeId(0), entries, 0);
        tree
    }

    fn build_recursive(&mut self, node: NodeId, entries: Vec<Entry<P>>, depth: u32) {
        self.nodes[node.index()].depth = depth;
        if entries.len() <= self.config.bucket_size {
            self.nodes[node.index()].kind = NodeKind::Leaf { bucket: entries };
            return;
        }
        let Some((split_dim, split_val)) =
            choose_split(&self.config, &entries, |e| &e.coords, depth)
        else {
            self.nodes[node.index()].kind = NodeKind::Leaf { bucket: entries };
            return;
        };
        let (left_bucket, right_bucket): (Vec<_>, Vec<_>) = entries
            .into_iter()
            .partition(|e| e.coords[split_dim] <= split_val);
        let left = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            kind: NodeKind::Leaf { bucket: Vec::new() },
            depth: depth + 1,
        });
        let right = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            kind: NodeKind::Leaf { bucket: Vec::new() },
            depth: depth + 1,
        });
        self.nodes[node.index()].kind = NodeKind::Routing {
            split_dim,
            split_val,
            left,
            right,
        };
        self.build_recursive(left, left_bucket, depth + 1);
        self.build_recursive(right, right_bucket, depth + 1);
    }

    /// Totally unbalanced ("chain") construction: points are inserted in
    /// lexicographic coordinate order under the [`SplitRule::DegenerateMin`]
    /// rule, so every split peels off only the minimum-valued points and
    /// the tree degenerates into a chain — the paper's worst-case series in
    /// Figures 3, 4 and 6.
    #[must_use]
    pub fn chain_load(config: KdConfig, mut points: Vec<(Vec<f64>, P)>) -> Self {
        points.sort_by(|(a, _), (b, _)| {
            a.iter()
                .zip(b.iter())
                .find_map(|(x, y)| x.partial_cmp(y).filter(|o| o.is_ne()))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut tree = KdTree::new(config.with_split_rule(SplitRule::DegenerateMin));
        for (coords, payload) in points {
            tree.insert(&coords, payload);
        }
        tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TreeShape;

    fn grid(n: usize) -> Vec<(Vec<f64>, u32)> {
        (0..n)
            .map(|i| (vec![(i % 10) as f64, (i / 10) as f64], i as u32))
            .collect()
    }

    #[test]
    fn empty_tree() {
        let t: KdTree<u32> = KdTree::new(KdConfig::new(2));
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.node_count(), 1);
    }

    #[test]
    fn insert_grows_len_and_splits() {
        let mut t = KdTree::new(KdConfig::new(2).with_bucket_size(4));
        for (coords, p) in grid(50) {
            t.insert(&coords, p);
        }
        assert_eq!(t.len(), 50);
        assert!(t.node_count() > 1, "bucket overflow must have split");
        assert_eq!(TreeShape::of(&t).entries, 50);
    }

    #[test]
    fn all_leaves_within_capacity_after_splits() {
        let mut t = KdTree::new(KdConfig::new(2).with_bucket_size(4));
        for (coords, p) in grid(200) {
            t.insert(&coords, p);
        }
        for node in &t.nodes {
            if let NodeKind::Leaf { bucket } = &node.kind {
                assert!(bucket.len() <= 4, "leaf holds {}", bucket.len());
            }
        }
    }

    #[test]
    fn identical_points_do_not_split_forever() {
        let mut t = KdTree::new(KdConfig::new(2).with_bucket_size(2));
        for i in 0..20u32 {
            t.insert(&[1.0, 1.0], i);
        }
        assert_eq!(t.len(), 20);
        // A single (oversized) leaf: no split possible.
        assert_eq!(t.node_count(), 1);
    }

    #[test]
    fn duplicate_heavy_data_splits_on_another_dim() {
        let mut t = KdTree::new(
            KdConfig::new(2)
                .with_bucket_size(2)
                .with_split_rule(SplitRule::Cycle),
        );
        // Constant on dim 0 (the Cycle rule's first choice), varying dim 1.
        for i in 0..10u32 {
            t.insert(&[5.0, f64::from(i)], i);
        }
        assert!(t.node_count() > 1);
        assert_eq!(TreeShape::of(&t).entries, 10);
    }

    #[test]
    fn locate_leaf_is_consistent_with_insert() {
        let mut t = KdTree::new(KdConfig::new(2).with_bucket_size(2));
        for (coords, p) in grid(40) {
            t.insert(&coords, p);
        }
        // Every stored point must be found in the leaf locate_leaf returns.
        for (coords, payload) in grid(40) {
            let leaf = t.locate_leaf(&coords);
            match &t.nodes[leaf.index()].kind {
                NodeKind::Leaf { bucket } => {
                    assert!(bucket.iter().any(|e| e.payload == payload));
                }
                NodeKind::Routing { .. } => panic!("locate_leaf returned routing node"),
            }
        }
    }

    #[test]
    fn bulk_load_is_balanced() {
        let t = KdTree::bulk_load(KdConfig::new(2).with_bucket_size(4), grid(256));
        assert_eq!(t.len(), 256);
        let max_depth = t.nodes.iter().map(|n| n.depth).max().unwrap();
        // 256 points / bucket 4 = 64 leaves → ideal depth 6; allow slack
        // for uneven medians.
        assert!(
            max_depth <= 9,
            "depth {max_depth} too large for balanced build"
        );
    }

    #[test]
    fn chain_load_degenerates() {
        let pts: Vec<(Vec<f64>, u32)> = (0..64).map(|i| (vec![i as f64], i as u32)).collect();
        let chain = KdTree::chain_load(KdConfig::new(1).with_bucket_size(4), pts.clone());
        let balanced = KdTree::bulk_load(KdConfig::new(1).with_bucket_size(4), pts);
        let chain_depth = chain.nodes.iter().map(|n| n.depth).max().unwrap();
        let bal_depth = balanced.nodes.iter().map(|n| n.depth).max().unwrap();
        assert!(
            chain_depth >= 2 * bal_depth,
            "chain depth {chain_depth} vs balanced {bal_depth}"
        );
        assert_eq!(chain.len(), 64);
    }

    #[test]
    fn bulk_load_empty_and_small() {
        let t: KdTree<u32> = KdTree::bulk_load(KdConfig::new(3), vec![]);
        assert!(t.is_empty());
        let t = KdTree::bulk_load(KdConfig::new(1), vec![(vec![1.0], 7u32)]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.node_count(), 1);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn wrong_dimensionality_panics() {
        let mut t = KdTree::new(KdConfig::new(2));
        t.insert(&[1.0], 0u32);
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
        let mut t = KdTree::new(
            KdConfig::new(2)
                .with_bucket_size(4)
                .with_split_rule(SplitRule::WidestSpread),
        );
        for (coords, p) in grid(100) {
            t.insert(&coords, p);
        }
        assert_eq!(TreeShape::of(&t).entries, 100);
    }

    #[test]
    fn split_rule_table() {
        // (rule, depth, bucket, expected `(Sr, Sv)`) on hand-built buckets.
        type Case = (SplitRule, u32, &'static [[f64; 2]], Option<(usize, f64)>);
        let cases: [Case; 9] = [
            // An all-equal bucket has no plane under any rule.
            (SplitRule::Cycle, 0, &[[3.0, 3.0]; 4], None),
            (SplitRule::WidestSpread, 0, &[[3.0, 3.0]; 4], None),
            (SplitRule::DegenerateMin, 0, &[[3.0, 3.0]; 4], None),
            // The median (index 2) below the max is the split value...
            (
                SplitRule::Cycle,
                0,
                &[[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [2.0, 0.0]],
                Some((0, 1.0)),
            ),
            // ...and a median equal to the max steps down below it.
            (
                SplitRule::Cycle,
                0,
                &[[1.0, 0.0], [2.0, 0.0], [2.0, 0.0], [2.0, 0.0]],
                Some((0, 1.0)),
            ),
            // A widest-spread tie goes to the lowest dimension.
            (
                SplitRule::WidestSpread,
                1,
                &[[0.0, 0.0], [4.0, 4.0], [2.0, 1.0]],
                Some((0, 2.0)),
            ),
            // The degenerate rule splits at the minimum.
            (
                SplitRule::DegenerateMin,
                0,
                &[[5.0, 0.0], [1.0, 0.0], [3.0, 0.0]],
                Some((0, 1.0)),
            ),
            // A constant preferred dimension (depth 1 → dim 1) falls through.
            (
                SplitRule::Cycle,
                1,
                &[[0.0, 7.0], [1.0, 7.0], [2.0, 7.0]],
                Some((0, 1.0)),
            ),
            (
                SplitRule::DegenerateMin,
                1,
                &[[2.0, 7.0], [0.0, 7.0], [1.0, 7.0]],
                Some((0, 0.0)),
            ),
        ];
        for (rule, depth, bucket, want) in cases {
            let config = KdConfig::new(2).with_split_rule(rule);
            let got = choose_split(&config, bucket, |p| &p[..], depth);
            assert_eq!(got, want, "{rule:?} at depth {depth} on {bucket:?}");
        }
    }
}
