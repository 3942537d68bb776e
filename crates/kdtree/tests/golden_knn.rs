//! Golden fingerprint of the one k-NN walk and the one range walk
//! (`versioned::Tree::knn` / `Tree::range`), plus their brute-force
//! oracles.
//!
//! One FNV-1a hash covers the raw candidate order of every answer —
//! distance bits and payload, exactly as the walk returns them, before
//! any facade sorts them — with and without a `worst` hint, and every
//! range hit in traversal order. The population is snapped to a coarse
//! grid, so it is full of exact copies and exact distance ties, and the
//! first-seen tie rule decides which copies an answer keeps: a walk that
//! visits the same points in another order, or lets one more tie in,
//! fails here. The constant was recorded at the commit before the walk
//! began pruning on whole cells and scanning leaves in place, and must
//! not be re-recorded by a change that claims to keep the answers.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use semtree_kdtree::versioned::{
    Child, InPlace, NeedsMailbox, RemoteOps, StdShim, Tree, TreeWriter,
};
use semtree_kdtree::{KdConfig, SplitRule};
use semtree_par::metric::euclidean;

const GOLDEN: u64 = 2_165_472_712_503_218_819;

const DIMS: usize = 6;
const KS: [usize; 4] = [1, 5, 10, 33];

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn hits(&mut self, hits: &[(f64, u64)]) {
        self.u64(hits.len() as u64);
        for &(dist, payload) in hits {
            self.u64(dist.to_bits());
            self.u64(payload);
        }
    }
}

/// `n` points on a grid of 6 values per dimension (step 0.37, so sums
/// round): four in five are copies of `n / 8` prototypes.
fn population(seed: u64, n: usize) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let grid = |rng: &mut StdRng| -> Vec<f64> {
        (0..DIMS)
            .map(|_| f64::from(rng.random_range(0u32..6)) * 0.37)
            .collect()
    };
    let prototypes: Vec<Vec<f64>> = (0..n / 8).map(|_| grid(&mut rng)).collect();
    (0..n)
        .map(|_| {
            if rng.random_bool(0.8) {
                prototypes[rng.random_range(0..prototypes.len())].clone()
            } else {
                grid(&mut rng)
            }
        })
        .collect()
}

/// Off-grid queries — inside the data, around it and far from it — then
/// stored points.
fn queries(points: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(7);
    let mut out: Vec<Vec<f64>> = (0..24)
        .map(|i| {
            let (lo, hi) = if i % 4 == 3 { (6.0, 9.0) } else { (-0.5, 2.4) };
            (0..DIMS).map(|_| rng.random_range(lo..hi)).collect()
        })
        .collect();
    out.extend(points.iter().step_by(points.len() / 24).cloned());
    out
}

/// The reader of a tree with nothing behind its remote links.
type Nowhere = InPlace<StdShim, fn(u32) -> Option<Arc<Tree>>>;

fn nowhere() -> Nowhere {
    InPlace::nowhere()
}

fn build(config: KdConfig, points: &[Vec<f64>]) -> TreeWriter {
    let mut writer: TreeWriter = TreeWriter::new(config);
    assert_eq!(writer.push_leaf(0, None, &[]), Some(0));
    for (i, point) in points.iter().enumerate() {
        let stored = writer.insert(0, point, i as u64, &nowhere(), &mut Vec::new());
        assert_eq!(stored, Some(Ok(true)));
    }
    writer
}

/// Move every fifth non-empty leaf below the root into a partition of
/// its own (split again there), the way build-partition does, so a walk
/// crosses [`Child::Remote`] edges in place.
fn partition(writer: &mut TreeWriter) -> Vec<Arc<Tree>> {
    let tree = Arc::clone(writer.tree());
    let leaves: Vec<u32> = (0..tree.nodes())
        .filter(|&id| {
            let node = tree.node(id).unwrap();
            node.routing().is_none() && node.point_count() > 0 && node.parent().is_some()
        })
        .step_by(5)
        .collect();
    let mut partitions = vec![tree];
    for leaf in leaves {
        let node = partitions[0].node(leaf).unwrap();
        let mut hosted: TreeWriter = TreeWriter::new(*partitions[0].config());
        assert_eq!(
            hosted.push_leaf(node.depth(), None, &node.bucket()),
            Some(0)
        );
        hosted.split(0, &mut Vec::new());
        let to = Child::Remote {
            partition: partitions.len() as u32,
            node: 0,
        };
        writer.relink(leaf, to).unwrap();
        partitions.push(Arc::clone(hosted.tree()));
    }
    partitions
}

/// Every answer of `tree` over `queries`, in raw walk order.
fn fingerprint<R: RemoteOps<Error = NeedsMailbox>>(
    h: &mut Fnv,
    tree: &Tree,
    remote: &R,
    queries: &[Vec<f64>],
) {
    for q in queries {
        let mut tie = 0.37;
        for k in KS {
            let hits = tree.knn(0, q, k, None, remote).unwrap().unwrap();
            h.hits(&hits);
            // A hint that is itself an answer's distance: the walk must
            // refuse it, and every tie of it, exactly as before.
            let worst = hits[hits.len() / 2].0;
            h.hits(&tree.knn(0, q, k, Some(worst), remote).unwrap().unwrap());
            if k == 10 {
                tie = worst;
            }
        }
        for radius in [0.0, 0.37, 0.8, tie] {
            h.hits(&tree.range(0, q, radius, remote).unwrap().unwrap());
        }
    }
}

#[test]
fn knn_and_range_fingerprint_is_unchanged() {
    let points = population(42, 2_400);
    let queries = queries(&points);
    let mut h = Fnv::new();
    for (bucket, rule) in [
        (4, SplitRule::Cycle),
        (32, SplitRule::Cycle),
        (4, SplitRule::WidestSpread),
        (32, SplitRule::WidestSpread),
    ] {
        let config = KdConfig::new(DIMS)
            .with_bucket_size(bucket)
            .with_split_rule(rule);
        let writer = build(config, &points);
        fingerprint(&mut h, writer.tree(), &nowhere(), &queries);
    }
    let mut writer = build(KdConfig::new(DIMS).with_bucket_size(4), &points);
    let partitions = partition(&mut writer);
    assert!(partitions.len() > 3, "the walk must cross partitions");
    let lookup = |p: u32| partitions.get(p as usize).cloned();
    let remote = InPlace::new(lookup);
    fingerprint(&mut h, &partitions[0], &remote, &queries);
    assert!(remote.crossed() > 0);
    assert_eq!(
        h.0, GOLDEN,
        "k-NN / range fingerprint moved: an answer, a tie or an order changed"
    );
}

/// `(distance, payload)` of every point, in insertion order.
fn brute(points: &[Vec<f64>], q: &[f64]) -> Vec<(f64, u64)> {
    let dist = |(i, p): (usize, &Vec<f64>)| (euclidean(p, q), i as u64);
    points.iter().enumerate().map(dist).collect()
}

fn small_population(seed: u64, n: usize, dims: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let points = (0..n)
        .map(|_| {
            (0..dims)
                .map(|_| f64::from(rng.random_range(0u32..4)) * 0.5)
                .collect()
        })
        .collect();
    let query = (0..dims).map(|_| rng.random_range(-0.5..2.0)).collect();
    (points, query)
}

proptest! {
    /// The walk against brute force. Under the first-seen tie rule the
    /// copies an answer keeps at its k-th distance are the ones the walk
    /// met first, so the oracle pins everything else: the answer's
    /// distances bit for bit (hint respected), each payload's own
    /// distance, no payload twice — and with that, every point strictly
    /// closer than the k-th distance.
    #[test]
    fn knn_matches_brute_force(
        seed in 0u64..u64::MAX,
        n in 1usize..400,
        dims in 1usize..7,
        bucket in 1usize..9,
        k in 1usize..40,
        hint in 0u32..3,
    ) {
        let (points, q) = small_population(seed, n, dims);
        let writer = build(KdConfig::new(dims).with_bucket_size(bucket), &points);
        let mut all = brute(&points, &q);
        all.sort_by(|a, b| a.0.total_cmp(&b.0));
        // No hint, a hint that is an answer's distance, or one between.
        let worst = match hint {
            0 => None,
            1 => Some(all[all.len() / 2].0),
            _ => Some(all[all.len() / 3].0 + 0.01),
        };
        let got = writer.tree().knn(0, &q, k, worst, &nowhere()).unwrap().unwrap();
        let want: Vec<u64> = all
            .iter()
            .filter(|(d, _)| worst.is_none_or(|w| *d < w))
            .take(k)
            .map(|(d, _)| d.to_bits())
            .collect();
        let dists: Vec<u64> = got.iter().map(|(d, _)| d.to_bits()).collect();
        prop_assert_eq!(dists, want);
        let mut seen = vec![false; n];
        for &(d, p) in &got {
            prop_assert_eq!(euclidean(&points[p as usize], &q).to_bits(), d.to_bits());
            prop_assert!(!std::mem::replace(&mut seen[p as usize], true), "payload {} twice", p);
        }
    }

    /// The range walk returns exactly the points within `radius`.
    #[test]
    fn range_matches_brute_force(
        seed in 0u64..u64::MAX,
        n in 1usize..400,
        dims in 1usize..7,
        bucket in 1usize..9,
        pick in 0usize..400,
    ) {
        let (points, q) = small_population(seed, n, dims);
        let writer = build(KdConfig::new(dims).with_bucket_size(bucket), &points);
        let all = brute(&points, &q);
        // An exact distance of the population, so ties sit on the rim.
        let radius = all[pick % n].0;
        let mut got = writer.tree().range(0, &q, radius, &nowhere()).unwrap().unwrap();
        got.sort_by_key(|&(_, p)| p);
        let want: Vec<(f64, u64)> = all.into_iter().filter(|(d, _)| *d <= radius).collect();
        prop_assert_eq!(got, want);
    }
}
