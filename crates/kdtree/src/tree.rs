//! Tree structure, dynamic insertion and bulk loading.

use semtree_par::Pool;

/// Identifier of a node in the tree arena; the root is always node 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The arena index.
    #[must_use]
    pub fn index(self) -> usize {
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

    /// Remove one stored point matching both coordinates and payload.
    /// Returns `true` when a point was removed. The leaf may become empty;
    /// routing structure is left in place (deletion does not rebalance —
    /// call [`KdTree::rebalance`] after bulk deletions).
    pub fn remove(&mut self, coords: &[f64], payload: &P) -> bool
    where
        P: PartialEq,
    {
        assert_eq!(coords.len(), self.config.dims, "dimensionality mismatch");
        let leaf = self.locate_leaf(coords);
        let NodeKind::Leaf { bucket } = &mut self.nodes[leaf.index()].kind else {
            unreachable!("locate_leaf returns leaves");
        };
        let Some(pos) = bucket
            .iter()
            .position(|e| e.coords.as_ref() == coords && e.payload == *payload)
        else {
            return false;
        };
        bucket.swap_remove(pos);
        self.len -= 1;
        true
    }

    /// The leaf a point with these coordinates belongs to (navigation by
    /// `Sr`/`Sv` exactly as the paper's insertion algorithm).
    #[must_use]
    pub fn locate_leaf(&self, coords: &[f64]) -> NodeId {
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

        let Some((split_dim, split_val)) = self.choose_split(&bucket, depth) else {
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

    /// Pick `(Sr, Sv)` for a bucket; `None` when no dimension separates the
    /// points. `Sv` is chosen so both sides are non-empty.
    fn choose_split(&self, bucket: &[Entry<P>], depth: u32) -> Option<(usize, f64)> {
        choose_split_at(&self.config, bucket, depth)
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
        let Some((split_dim, split_val)) = self.choose_split(&entries, depth) else {
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

    /// [`KdTree::bulk_load`] with the recursive median construction fanned
    /// out over `pool`'s workers. The resulting tree is **identical** to
    /// the sequential bulk-load — same arena layout, node numbering, split
    /// choices and bucket order — because the top of the tree is split
    /// sequentially into independent sub-tree tasks whose results are
    /// flattened back in exactly the order [`KdTree::bulk_load`] would
    /// have allocated them.
    #[must_use]
    pub fn bulk_load_par(config: KdConfig, points: Vec<(Vec<f64>, P)>, pool: &Pool) -> Self
    where
        P: Send,
    {
        if pool.threads() <= 1 {
            return Self::bulk_load(config, points);
        }
        for (coords, _) in &points {
            assert_eq!(coords.len(), config.dims, "dimensionality mismatch");
        }
        let len = points.len();
        let entries: Vec<Entry<P>> = points
            .into_iter()
            .map(|(coords, payload)| Entry {
                coords: coords.into(),
                payload,
            })
            .collect();
        // Split sequentially for the first few levels — enough to hand
        // every worker a handful of independent sub-trees.
        let levels = (pool.threads() * 4).next_power_of_two().trailing_zeros();
        let mut tasks: Vec<(Vec<Entry<P>>, u32)> = Vec::new();
        let top = skeleton(&config, entries, 0, levels, &mut tasks);
        let built = pool.map_vec(tasks, &|(sub, depth)| build_subtree(&config, sub, depth));
        let mut built: Vec<Option<BuildNode<P>>> = built.into_iter().map(Some).collect();
        let mut tree = KdTree {
            config,
            nodes: Vec::new(),
            len,
        };
        tree.nodes.push(Node {
            kind: NodeKind::Leaf { bucket: Vec::new() },
            depth: 0,
        });
        tree.flatten_built(NodeId(0), top, 0, &mut built);
        tree
    }

    /// Write a linked [`BuildNode`] sub-tree into the arena at `node`,
    /// allocating children in `build_recursive`'s exact order (left at
    /// `len`, right at `len + 1`, then the left sub-tree in full before
    /// the right) so the parallel build is arena-identical.
    fn flatten_built(
        &mut self,
        node: NodeId,
        built: BuildNode<P>,
        depth: u32,
        tasks: &mut [Option<BuildNode<P>>],
    ) {
        self.nodes[node.index()].depth = depth;
        match built {
            BuildNode::Leaf(bucket) => {
                self.nodes[node.index()].kind = NodeKind::Leaf { bucket };
            }
            BuildNode::Task(i) => {
                let Some(sub) = tasks[i].take() else {
                    unreachable!("each pool-built sub-tree is flattened exactly once");
                };
                self.flatten_built(node, sub, depth, tasks);
            }
            BuildNode::Split {
                split_dim,
                split_val,
                children,
            } => {
                let (l, r) = *children;
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
                self.flatten_built(left, l, depth + 1, tasks);
                self.flatten_built(right, r, depth + 1, tasks);
            }
        }
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

    /// Rebuild the tree as a balanced bulk-load of its current contents —
    /// the answer to the paper's "once built, modifying or rebalancing a
    /// Kd-tree is a non-trivial task": rebalancing here is a full rebuild,
    /// linearithmic in the point count. Routing structure is discarded;
    /// points and payloads are preserved.
    pub fn rebalance(&mut self) {
        let points: Vec<(Vec<f64>, P)> =
            self.iter().map(|(c, p)| (c.to_vec(), p.clone())).collect();
        // A rebalanced tree uses the non-degenerate rule even if the
        // original was built for the worst-case experiments.
        let config = if self.config.split_rule == SplitRule::DegenerateMin {
            self.config.with_split_rule(SplitRule::Cycle)
        } else {
            self.config
        };
        *self = KdTree::bulk_load(config, points);
    }

    /// Iterate every stored `(coords, payload)`.
    pub fn iter(&self) -> impl Iterator<Item = (&[f64], &P)> {
        self.nodes
            .iter()
            .flat_map(|n| match &n.kind {
                NodeKind::Leaf { bucket } => bucket.as_slice(),
                NodeKind::Routing { .. } => &[],
            })
            .map(|e| (e.coords.as_ref(), &e.payload))
    }
}

/// Sub-tree representation for the parallel bulk-load: workers build
/// linked sub-trees independently, and the flatten pass writes them into
/// the arena in the sequential allocation order.
enum BuildNode<P> {
    Leaf(Vec<Entry<P>>),
    Split {
        split_dim: usize,
        split_val: f64,
        children: Box<(BuildNode<P>, BuildNode<P>)>,
    },
    /// Placeholder for a sub-tree built by a pool worker; the index keys
    /// into the built-task vector during flattening.
    Task(usize),
}

/// Split sequentially for `levels` levels, recording each unfinished
/// sub-tree as a task. Split decisions are exactly `build_recursive`'s.
fn skeleton<P>(
    config: &KdConfig,
    entries: Vec<Entry<P>>,
    depth: u32,
    levels: u32,
    tasks: &mut Vec<(Vec<Entry<P>>, u32)>,
) -> BuildNode<P> {
    if entries.len() <= config.bucket_size {
        return BuildNode::Leaf(entries);
    }
    if levels == 0 {
        tasks.push((entries, depth));
        return BuildNode::Task(tasks.len() - 1);
    }
    let Some((split_dim, split_val)) = choose_split_at(config, &entries, depth) else {
        return BuildNode::Leaf(entries);
    };
    let (left, right): (Vec<_>, Vec<_>) = entries
        .into_iter()
        .partition(|e| e.coords[split_dim] <= split_val);
    BuildNode::Split {
        split_dim,
        split_val,
        children: Box::new((
            skeleton(config, left, depth + 1, levels - 1, tasks),
            skeleton(config, right, depth + 1, levels - 1, tasks),
        )),
    }
}

/// Sequentially build one sub-tree as a linked structure, mirroring
/// `build_recursive`'s decisions exactly.
fn build_subtree<P>(config: &KdConfig, entries: Vec<Entry<P>>, depth: u32) -> BuildNode<P> {
    if entries.len() <= config.bucket_size {
        return BuildNode::Leaf(entries);
    }
    let Some((split_dim, split_val)) = choose_split_at(config, &entries, depth) else {
        return BuildNode::Leaf(entries);
    };
    let (left, right): (Vec<_>, Vec<_>) = entries
        .into_iter()
        .partition(|e| e.coords[split_dim] <= split_val);
    BuildNode::Split {
        split_dim,
        split_val,
        children: Box::new((
            build_subtree(config, left, depth + 1),
            build_subtree(config, right, depth + 1),
        )),
    }
}

/// Pick `(Sr, Sv)` for a bucket under `config`; `None` when no dimension
/// separates the points. Shared by the sequential and parallel builders
/// so both make byte-identical split decisions.
fn choose_split_at<P>(config: &KdConfig, bucket: &[Entry<P>], depth: u32) -> Option<(usize, f64)> {
    let dims = config.dims;
    let preferred = match config.split_rule {
        SplitRule::Cycle | SplitRule::DegenerateMin => depth as usize % dims,
        SplitRule::WidestSpread => widest_dim(bucket, dims),
    };
    let degenerate = config.split_rule == SplitRule::DegenerateMin;
    // Try the preferred dimension first, then the rest.
    for offset in 0..dims {
        let dim = (preferred + offset) % dims;
        let val = if degenerate {
            min_split_value(bucket, dim)
        } else {
            split_value(bucket, dim)
        };
        if let Some(val) = val {
            return Some((dim, val));
        }
    }
    None
}

fn widest_dim<P>(bucket: &[Entry<P>], dims: usize) -> usize {
    let mut best = 0;
    let mut best_spread = f64::NEG_INFINITY;
    for dim in 0..dims {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for e in bucket {
            lo = lo.min(e.coords[dim]);
            hi = hi.max(e.coords[dim]);
        }
        let spread = hi - lo;
        if spread > best_spread {
            best_spread = spread;
            best = dim;
        }
    }
    best
}

/// The smallest coordinate along `dim` — the degenerate split: the left
/// side receives only the minimum-valued points. `None` when all equal.
fn min_split_value<P>(bucket: &[Entry<P>], dim: usize) -> Option<f64> {
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for e in bucket {
        min = min.min(e.coords[dim]);
        max = max.max(e.coords[dim]);
    }
    (min < max).then_some(min)
}

/// The median coordinate along `dim`, adjusted so that partitioning on
/// `<= value` leaves both sides non-empty; `None` when all values equal.
fn split_value<P>(bucket: &[Entry<P>], dim: usize) -> Option<f64> {
    let mut values: Vec<f64> = bucket.iter().map(|e| e.coords[dim]).collect();
    values.sort_by(f64::total_cmp);
    let max = *values.last()?;
    let min = values[0];
    if max == min {
        return None;
    }
    let mid = values[values.len() / 2];
    // `<= mid` must not swallow everything: when the median equals the
    // maximum (duplicate-heavy data), step down to the largest value < max.
    if mid < max {
        Some(mid)
    } else {
        values.iter().rev().find(|&&v| v < max).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(t.iter().count(), 50);
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
        assert_eq!(t.iter().count(), 10);
    }

    #[test]
    fn locate_leaf_is_consistent_with_insert() {
        let mut t = KdTree::new(KdConfig::new(2).with_bucket_size(2));
        for (coords, p) in grid(40) {
            t.insert(&coords, p);
        }
        // Every stored point must be found in the leaf locate_leaf returns.
        let stored: Vec<(Vec<f64>, u32)> = t.iter().map(|(c, p)| (c.to_vec(), *p)).collect();
        for (coords, payload) in stored {
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
        assert_eq!(t.iter().count(), 100);
    }

    #[test]
    fn remove_deletes_exact_point() {
        let mut t = KdTree::new(KdConfig::new(2).with_bucket_size(4));
        for (coords, p) in grid(50) {
            t.insert(&coords, p);
        }
        assert!(t.remove(&[3.0, 2.0], &23)); // point 23 = (3, 2)
        assert_eq!(t.len(), 49);
        assert!(!t.remove(&[3.0, 2.0], &23), "already gone");
        assert!(!t.remove(&[3.0, 2.0], &99), "payload mismatch");
        assert!(t.iter().all(|(_, &p)| p != 23));
        // Queries remain exact after deletion.
        let hits = t.knn(&[3.0, 2.0], 1);
        assert!(hits[0].dist > 0.0);
    }

    #[test]
    fn remove_distinguishes_duplicate_coords_by_payload() {
        let mut t = KdTree::new(KdConfig::new(1).with_bucket_size(4));
        t.insert(&[1.0], 1u32);
        t.insert(&[1.0], 2u32);
        assert!(t.remove(&[1.0], &1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.nearest(&[1.0]).unwrap().payload, 2);
    }

    #[test]
    fn rebalance_restores_balance_and_content() {
        let pts: Vec<(Vec<f64>, u32)> = (0..512).map(|i| (vec![i as f64], i as u32)).collect();
        let mut t = KdTree::chain_load(KdConfig::new(1).with_bucket_size(4), pts);
        let deep = t.nodes.iter().map(|n| n.depth).max().unwrap();
        t.rebalance();
        let shallow = t.nodes.iter().map(|n| n.depth).max().unwrap();
        assert!(shallow * 4 < deep, "depth {deep} → {shallow}");
        assert_eq!(t.len(), 512);
        assert_eq!(t.iter().count(), 512);
        // Still exact.
        assert_eq!(t.nearest(&[100.2]).unwrap().payload, 100);
        // And back on the normal split rule.
        assert_eq!(t.config().split_rule(), SplitRule::Cycle);
    }

    #[test]
    fn rebalance_empty_tree_is_noop() {
        let mut t: KdTree<u32> = KdTree::new(KdConfig::new(2));
        t.rebalance();
        assert!(t.is_empty());
    }

    #[test]
    fn bulk_load_par_is_arena_identical_to_sequential() {
        // Varied shapes: grids, duplicate-heavy data, every split rule.
        type Case = (KdConfig, Vec<(Vec<f64>, u32)>);
        let cases: Vec<Case> = vec![
            (KdConfig::new(2).with_bucket_size(4), grid(256)),
            (KdConfig::new(2).with_bucket_size(1), grid(100)),
            (
                KdConfig::new(2)
                    .with_bucket_size(4)
                    .with_split_rule(SplitRule::WidestSpread),
                grid(200),
            ),
            (
                KdConfig::new(1).with_bucket_size(4),
                (0..300).map(|i| (vec![(i % 7) as f64], i as u32)).collect(),
            ),
            (KdConfig::new(3).with_bucket_size(8), Vec::new()),
        ];
        for (config, pts) in cases {
            let seq = KdTree::bulk_load(config, pts.clone());
            for threads in [1usize, 2, 3, 8] {
                let pool = Pool::sequential().with_threads(threads);
                let par = KdTree::bulk_load_par(config, pts.clone(), &pool);
                assert_eq!(par.len(), seq.len());
                assert_eq!(
                    format!("{:?}", par.nodes),
                    format!("{:?}", seq.nodes),
                    "arena differs at threads={threads} for {config:?}"
                );
            }
        }
    }

    #[test]
    fn split_value_handles_duplicates() {
        let entries: Vec<Entry<u32>> = [1.0, 1.0, 1.0, 2.0]
            .iter()
            .map(|&v| Entry {
                coords: vec![v].into(),
                payload: 0,
            })
            .collect();
        // Median (index 2) is 1.0 < max → fine.
        assert_eq!(split_value(&entries, 0), Some(1.0));
        let entries: Vec<Entry<u32>> = [1.0, 2.0, 2.0, 2.0]
            .iter()
            .map(|&v| Entry {
                coords: vec![v].into(),
                payload: 0,
            })
            .collect();
        // Median is the max → must step down to 1.0.
        assert_eq!(split_value(&entries, 0), Some(1.0));
        let entries: Vec<Entry<u32>> = [3.0, 3.0]
            .iter()
            .map(|&v| Entry {
                coords: vec![v].into(),
                payload: 0,
            })
            .collect();
        assert_eq!(split_value(&entries, 0), None);
    }
}
