//! The R-tree: STR bulk load, Guttman insertion, best-first search.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::mbr::Mbr;

/// Maximum children per node (Guttman's `M`).
const MAX_FANOUT: usize = 16;
/// Minimum fill used by the quadratic split (Guttman's `m`).
const MIN_FANOUT: usize = 4;

/// One search hit.
#[derive(Debug, Clone, PartialEq)]
pub struct RNeighbor<P> {
    /// Euclidean distance from the query point.
    pub dist: f64,
    /// The stored payload.
    pub payload: P,
}

#[derive(Debug, Clone)]
enum Node<P> {
    Leaf { entries: Vec<(Box<[f64]>, P)> },
    Internal { children: Vec<(Mbr, usize)> },
}

/// An in-memory R-tree over `R^k` points with payloads `P`.
#[derive(Debug, Clone)]
pub struct RTree<P> {
    dims: usize,
    nodes: Vec<Node<P>>,
    root: usize,
    len: usize,
}

fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

impl<P: Clone> RTree<P> {
    /// An empty tree.
    ///
    /// # Panics
    /// Panics if `dims == 0`.
    #[must_use]
    pub fn new(dims: usize) -> Self {
        assert!(dims > 0, "dimensionality must be at least 1");
        RTree {
            dims,
            nodes: vec![Node::Leaf {
                entries: Vec::new(),
            }],
            root: 0,
            len: 0,
        }
    }

    /// Sort-Tile-Recursive bulk load.
    #[must_use]
    pub fn bulk_load(dims: usize, points: Vec<(Vec<f64>, P)>) -> Self {
        assert!(dims > 0, "dimensionality must be at least 1");
        for (coords, _) in &points {
            assert_eq!(coords.len(), dims, "dimensionality mismatch");
        }
        let len = points.len();
        let mut tree = RTree {
            dims,
            nodes: Vec::new(),
            root: 0,
            len,
        };
        if points.is_empty() {
            tree.nodes.push(Node::Leaf {
                entries: Vec::new(),
            });
            return tree;
        }

        // Tile points into leaves.
        let mut tiles: Vec<Vec<(Vec<f64>, P)>> = Vec::new();
        str_tile(points, dims, 0, MAX_FANOUT, &mut tiles);
        let mut level: Vec<(Mbr, usize)> = tiles
            .into_iter()
            .map(|tile| {
                let mbr = mbr_of_points(&tile);
                let idx = tree.nodes.len();
                tree.nodes.push(Node::Leaf {
                    entries: tile
                        .into_iter()
                        .map(|(c, p)| (c.into_boxed_slice(), p))
                        .collect(),
                });
                (mbr, idx)
            })
            .collect();

        // Pack upper levels in runs of MAX_FANOUT (tiles arrive in spatial
        // order, so consecutive grouping preserves locality).
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(MAX_FANOUT));
            for chunk in level.chunks(MAX_FANOUT) {
                let mut mbr = chunk[0].0.clone();
                for (m, _) in &chunk[1..] {
                    mbr.union_with(m);
                }
                let idx = tree.nodes.len();
                tree.nodes.push(Node::Internal {
                    children: chunk.to_vec(),
                });
                next.push((mbr, idx));
            }
            level = next;
        }
        tree.root = level[0].1;
        tree
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

    /// Dimensionality.
    #[must_use]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Insert a point (Guttman: least-enlargement descent, quadratic
    /// split on overflow).
    pub fn insert(&mut self, coords: &[f64], payload: P) {
        assert_eq!(coords.len(), self.dims, "dimensionality mismatch");
        self.len += 1;
        // Descend, recording the path of (node, child position).
        let mut path: Vec<(usize, usize)> = Vec::new();
        let mut current = self.root;
        loop {
            match &self.nodes[current] {
                Node::Leaf { .. } => break,
                Node::Internal { children } => {
                    let target = Mbr::point(coords);
                    let (pos, _) = children
                        .iter()
                        .enumerate()
                        .min_by(|(_, (a, _)), (_, (b, _))| {
                            let ea = a.enlargement(&target);
                            let eb = b.enlargement(&target);
                            ea.partial_cmp(&eb)
                                .unwrap_or(Ordering::Equal)
                                .then_with(|| {
                                    a.area().partial_cmp(&b.area()).unwrap_or(Ordering::Equal)
                                })
                        })
                        .expect("internal nodes are never empty");
                    path.push((current, pos));
                    current = children[pos].1;
                }
            }
        }
        if let Node::Leaf { entries } = &mut self.nodes[current] {
            entries.push((coords.into(), payload));
        }

        // Walk back up: refresh MBRs and split overflowing nodes.
        let mut split: Option<(Mbr, usize)> = self.maybe_split_leaf(current);
        for &(parent, pos) in path.iter().rev() {
            let child_idx = match &self.nodes[parent] {
                Node::Internal { children } => children[pos].1,
                Node::Leaf { .. } => unreachable!("path holds internal nodes"),
            };
            let child_mbr = self.mbr_of(child_idx);
            if let Node::Internal { children } = &mut self.nodes[parent] {
                children[pos].0 = child_mbr;
                if let Some(new_child) = split.take() {
                    children.push(new_child);
                }
            }
            split = self.maybe_split_internal(parent);
        }
        if let Some((new_mbr, new_idx)) = split {
            // The root itself split: grow the tree by one level.
            let old_root = self.root;
            let old_mbr = self.mbr_of(old_root);
            let root = self.nodes.len();
            self.nodes.push(Node::Internal {
                children: vec![(old_mbr, old_root), (new_mbr, new_idx)],
            });
            self.root = root;
        }
    }

    fn mbr_of(&self, idx: usize) -> Mbr {
        match &self.nodes[idx] {
            Node::Leaf { entries } => {
                let mut mbr = Mbr::point(&entries[0].0);
                for (c, _) in &entries[1..] {
                    mbr.union_with(&Mbr::point(c));
                }
                mbr
            }
            Node::Internal { children } => {
                let mut mbr = children[0].0.clone();
                for (m, _) in &children[1..] {
                    mbr.union_with(m);
                }
                mbr
            }
        }
    }

    fn maybe_split_leaf(&mut self, idx: usize) -> Option<(Mbr, usize)> {
        let needs_split =
            matches!(&self.nodes[idx], Node::Leaf { entries } if entries.len() > MAX_FANOUT);
        if !needs_split {
            return None;
        }
        let Node::Leaf { entries } = std::mem::replace(
            &mut self.nodes[idx],
            Node::Leaf {
                entries: Vec::new(),
            },
        ) else {
            unreachable!();
        };
        let rects: Vec<Mbr> = entries.iter().map(|(c, _)| Mbr::point(c)).collect();
        let (ga, gb) = quadratic_split(&rects);
        let mut a = Vec::with_capacity(ga.len());
        let mut b = Vec::with_capacity(gb.len());
        for (i, e) in entries.into_iter().enumerate() {
            if ga.contains(&i) {
                a.push(e);
            } else {
                b.push(e);
            }
        }
        self.nodes[idx] = Node::Leaf { entries: a };
        let new_idx = self.nodes.len();
        self.nodes.push(Node::Leaf { entries: b });
        Some((self.mbr_of(new_idx), new_idx))
    }

    fn maybe_split_internal(&mut self, idx: usize) -> Option<(Mbr, usize)> {
        let needs_split =
            matches!(&self.nodes[idx], Node::Internal { children } if children.len() > MAX_FANOUT);
        if !needs_split {
            return None;
        }
        let Node::Internal { children } = std::mem::replace(
            &mut self.nodes[idx],
            Node::Leaf {
                entries: Vec::new(),
            },
        ) else {
            unreachable!();
        };
        let rects: Vec<Mbr> = children.iter().map(|(m, _)| m.clone()).collect();
        let (ga, _gb) = quadratic_split(&rects);
        let mut a = Vec::with_capacity(ga.len());
        let mut b = Vec::with_capacity(children.len() - ga.len());
        for (i, c) in children.into_iter().enumerate() {
            if ga.contains(&i) {
                a.push(c);
            } else {
                b.push(c);
            }
        }
        self.nodes[idx] = Node::Internal { children: a };
        let new_idx = self.nodes.len();
        self.nodes.push(Node::Internal { children: b });
        Some((self.mbr_of(new_idx), new_idx))
    }

    /// Exact k-nearest neighbours via best-first search (Hjaltason &
    /// Samet): a priority queue over minimum possible distances, expanding
    /// nodes lazily.
    #[must_use]
    pub fn knn(&self, query: &[f64], k: usize) -> Vec<RNeighbor<P>> {
        assert_eq!(query.len(), self.dims, "dimensionality mismatch");
        enum Item<P> {
            Node(usize),
            Point(P),
        }
        struct Queued<P> {
            dist2: f64,
            item: Item<P>,
        }
        impl<P> PartialEq for Queued<P> {
            fn eq(&self, other: &Self) -> bool {
                self.dist2 == other.dist2
            }
        }
        impl<P> Eq for Queued<P> {}
        impl<P> PartialOrd for Queued<P> {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }
        impl<P> Ord for Queued<P> {
            fn cmp(&self, other: &Self) -> Ordering {
                // Reverse: BinaryHeap is a max-heap, we want the min first.
                other
                    .dist2
                    .partial_cmp(&self.dist2)
                    .expect("distances are finite")
            }
        }

        let mut out = Vec::with_capacity(k.min(self.len));
        if k == 0 || self.is_empty() {
            return out;
        }
        let mut heap = BinaryHeap::new();
        heap.push(Queued {
            dist2: 0.0,
            item: Item::Node(self.root),
        });
        while let Some(Queued { dist2, item }) = heap.pop() {
            match item {
                Item::Point(payload) => {
                    out.push(RNeighbor {
                        dist: dist2.sqrt(),
                        payload,
                    });
                    if out.len() == k {
                        break;
                    }
                }
                Item::Node(idx) => match &self.nodes[idx] {
                    Node::Leaf { entries } => {
                        for (c, p) in entries {
                            let d = euclidean(c, query);
                            heap.push(Queued {
                                dist2: d * d,
                                item: Item::Point(p.clone()),
                            });
                        }
                    }
                    Node::Internal { children } => {
                        for (mbr, child) in children {
                            heap.push(Queued {
                                dist2: mbr.min_dist2(query),
                                item: Item::Node(*child),
                            });
                        }
                    }
                },
            }
        }
        out
    }

    /// All points within `radius` of `query` (inclusive), closest first.
    #[must_use]
    pub fn range(&self, query: &[f64], radius: f64) -> Vec<RNeighbor<P>> {
        assert_eq!(query.len(), self.dims, "dimensionality mismatch");
        assert!(radius >= 0.0, "radius must be non-negative");
        let mut out = Vec::new();
        if self.is_empty() {
            return out;
        }
        let mut stack = vec![self.root];
        while let Some(idx) = stack.pop() {
            match &self.nodes[idx] {
                Node::Leaf { entries } => {
                    for (c, p) in entries {
                        let d = euclidean(c, query);
                        if d <= radius {
                            out.push(RNeighbor {
                                dist: d,
                                payload: p.clone(),
                            });
                        }
                    }
                }
                Node::Internal { children } => {
                    for (mbr, child) in children {
                        if mbr.intersects_ball(query, radius) {
                            stack.push(*child);
                        }
                    }
                }
            }
        }
        out.sort_by(|a, b| a.dist.total_cmp(&b.dist));
        out
    }

    /// Iterate every stored `(coords, payload)`.
    pub fn iter(&self) -> impl Iterator<Item = (&[f64], &P)> {
        self.nodes
            .iter()
            .flat_map(|n| match n {
                Node::Leaf { entries } => entries.as_slice(),
                Node::Internal { .. } => &[],
            })
            .map(|(c, p)| (c.as_ref(), p))
    }
}

fn mbr_of_points<P>(points: &[(Vec<f64>, P)]) -> Mbr {
    let mut mbr = Mbr::point(&points[0].0);
    for (c, _) in &points[1..] {
        mbr.union_with(&Mbr::point(c));
    }
    mbr
}

/// Recursive Sort-Tile-Recursive partitioning into leaf tiles of at most
/// `cap` points each.
fn str_tile<P>(
    mut points: Vec<(Vec<f64>, P)>,
    dims: usize,
    dim: usize,
    cap: usize,
    out: &mut Vec<Vec<(Vec<f64>, P)>>,
) {
    if points.len() <= cap {
        out.push(points);
        return;
    }
    points.sort_by(|(a, _), (b, _)| a[dim].total_cmp(&b[dim]));
    if dim + 1 == dims {
        let mut rest = points;
        while !rest.is_empty() {
            let tail = rest.split_off(cap.min(rest.len()));
            out.push(rest);
            rest = tail;
        }
        return;
    }
    // Number of vertical slices: ceil((leaves)^(1/remaining_dims)).
    let leaves = points.len().div_ceil(cap);
    let remaining = (dims - dim) as f64;
    let slices = (leaves as f64).powf(1.0 / remaining).ceil() as usize;
    let slice_size = points.len().div_ceil(slices.max(1));
    let mut rest = points;
    while !rest.is_empty() {
        let tail = rest.split_off(slice_size.min(rest.len()));
        str_tile(rest, dims, dim + 1, cap, out);
        rest = tail;
    }
}

/// Guttman's quadratic split over a set of rectangles: returns the index
/// set of group A (group B is the complement).
fn quadratic_split(rects: &[Mbr]) -> (Vec<usize>, Vec<usize>) {
    debug_assert!(rects.len() >= 2);
    // Seeds: the pair wasting the most area if grouped together.
    let (mut seed_a, mut seed_b, mut worst) = (0, 1, f64::NEG_INFINITY);
    for i in 0..rects.len() {
        for j in (i + 1)..rects.len() {
            let waste = rects[i].union(&rects[j]).area() - rects[i].area() - rects[j].area();
            if waste > worst {
                worst = waste;
                seed_a = i;
                seed_b = j;
            }
        }
    }
    let mut group_a = vec![seed_a];
    let mut group_b = vec![seed_b];
    let mut mbr_a = rects[seed_a].clone();
    let mut mbr_b = rects[seed_b].clone();

    let mut remaining: Vec<usize> = (0..rects.len())
        .filter(|&i| i != seed_a && i != seed_b)
        .collect();
    while let Some(&next) = remaining.first() {
        // Min-fill guard: if one group needs every remaining entry, take
        // them all.
        let left = remaining.len();
        if group_a.len() + left <= MIN_FANOUT {
            group_a.append(&mut remaining);
            break;
        }
        if group_b.len() + left <= MIN_FANOUT {
            group_b.append(&mut remaining);
            break;
        }
        // Pick the entry with the strongest preference.
        let (pos, &choice) = remaining
            .iter()
            .enumerate()
            .max_by(|(_, &x), (_, &y)| {
                let dx = (mbr_a.enlargement(&rects[x]) - mbr_b.enlargement(&rects[x])).abs();
                let dy = (mbr_a.enlargement(&rects[y]) - mbr_b.enlargement(&rects[y])).abs();
                dx.partial_cmp(&dy).unwrap_or(Ordering::Equal)
            })
            .unwrap_or((0, &next));
        remaining.swap_remove(pos);
        let ea = mbr_a.enlargement(&rects[choice]);
        let eb = mbr_b.enlargement(&rects[choice]);
        if ea < eb || (ea == eb && group_a.len() <= group_b.len()) {
            group_a.push(choice);
            mbr_a.union_with(&rects[choice]);
        } else {
            group_b.push(choice);
            mbr_b.union_with(&rects[choice]);
        }
    }
    (group_a, group_b)
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    use super::*;

    fn random_points(n: usize, dims: usize, seed: u64) -> Vec<(Vec<f64>, u32)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                (
                    (0..dims).map(|_| rng.random_range(0.0..100.0)).collect(),
                    i as u32,
                )
            })
            .collect()
    }

    fn brute_knn(points: &[(Vec<f64>, u32)], q: &[f64], k: usize) -> Vec<f64> {
        let mut d: Vec<f64> = points.iter().map(|(c, _)| euclidean(c, q)).collect();
        d.sort_by(|a, b| a.partial_cmp(b).unwrap());
        d.truncate(k);
        d
    }

    #[test]
    fn bulk_knn_matches_brute_force() {
        let points = random_points(500, 3, 1);
        let tree = RTree::bulk_load(3, points.clone());
        assert_eq!(tree.len(), 500);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..30 {
            let q: Vec<f64> = (0..3).map(|_| rng.random_range(0.0..100.0)).collect();
            let got = tree.knn(&q, 7);
            let want = brute_knn(&points, &q, 7);
            assert_eq!(got.len(), 7);
            for (g, w) in got.iter().zip(&want) {
                assert!((g.dist - w).abs() < 1e-9, "{} vs {}", g.dist, w);
            }
        }
    }

    #[test]
    fn dynamic_knn_matches_brute_force() {
        let points = random_points(300, 2, 2);
        let mut tree = RTree::new(2);
        for (c, p) in &points {
            tree.insert(c, *p);
        }
        assert_eq!(tree.len(), 300);
        assert_eq!(tree.iter().count(), 300);
        let q = vec![50.0, 50.0];
        let got = tree.knn(&q, 10);
        let want = brute_knn(&points, &q, 10);
        for (g, w) in got.iter().zip(&want) {
            assert!((g.dist - w).abs() < 1e-9);
        }
    }

    #[test]
    fn range_matches_brute_force() {
        let points = random_points(400, 2, 3);
        let tree = RTree::bulk_load(2, points.clone());
        let q = vec![40.0, 60.0];
        for radius in [0.0, 10.0, 35.0, 200.0] {
            let got = tree.range(&q, radius);
            let want = points
                .iter()
                .filter(|(c, _)| euclidean(c, &q) <= radius)
                .count();
            assert_eq!(got.len(), want, "radius {radius}");
            for w in got.windows(2) {
                assert!(w[0].dist <= w[1].dist);
            }
        }
    }

    #[test]
    fn mixed_bulk_and_dynamic() {
        let initial = random_points(100, 2, 4);
        let mut tree = RTree::bulk_load(2, initial.clone());
        let extra = random_points(150, 2, 5);
        for (c, p) in &extra {
            tree.insert(c, p + 1000);
        }
        assert_eq!(tree.len(), 250);
        let q = vec![10.0, 90.0];
        let all: Vec<(Vec<f64>, u32)> = initial
            .into_iter()
            .chain(extra.into_iter().map(|(c, p)| (c, p + 1000)))
            .collect();
        let got = tree.knn(&q, 5);
        let want = brute_knn(&all, &q, 5);
        for (g, w) in got.iter().zip(&want) {
            assert!((g.dist - w).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_and_tiny_trees() {
        let tree: RTree<u32> = RTree::new(2);
        assert!(tree.is_empty());
        assert!(tree.knn(&[0.0, 0.0], 3).is_empty());
        assert!(tree.range(&[0.0, 0.0], 5.0).is_empty());
        let tree = RTree::bulk_load(1, vec![(vec![3.0], 7u32)]);
        assert_eq!(tree.knn(&[0.0], 1)[0].payload, 7);
    }

    #[test]
    fn duplicate_points_survive_splits() {
        let mut tree = RTree::new(2);
        for i in 0..50u32 {
            tree.insert(&[1.0, 1.0], i);
        }
        assert_eq!(tree.len(), 50);
        assert_eq!(tree.range(&[1.0, 1.0], 0.0).len(), 50);
    }

    #[test]
    fn knn_k_zero_and_oversized() {
        let tree = RTree::bulk_load(2, random_points(10, 2, 6));
        assert!(tree.knn(&[0.0, 0.0], 0).is_empty());
        assert_eq!(tree.knn(&[0.0, 0.0], 99).len(), 10);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn wrong_dims_panics() {
        let mut tree = RTree::new(2);
        tree.insert(&[1.0], 0u32);
    }

    #[test]
    fn quadratic_split_balances_and_partitions() {
        let rects: Vec<Mbr> = (0..20).map(|i| Mbr::point(&[f64::from(i), 0.0])).collect();
        let (a, b) = quadratic_split(&rects);
        assert_eq!(a.len() + b.len(), 20);
        assert!(a.len() >= MIN_FANOUT && b.len() >= MIN_FANOUT);
        let mut all: Vec<usize> = a.iter().chain(b.iter()).copied().collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 20, "no entry lost or duplicated");
    }
}
