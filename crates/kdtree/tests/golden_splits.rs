//! Golden record of the leaf splits that incremental inserts make.
//!
//! One FNV-1a hash per stream covers every [`SplitEvent`] each insert
//! reports — the leaf, the plane's dimension and value bits, and the
//! arena ids its children got — and then the final arena: its node
//! count and, node by node, whether it routes and how many points it
//! holds. Four streams, each full of exact copies so that over-full
//! leaves which no plane divides are common: a semantic-like stream
//! (six dimensions, most points a copy of a few prototypes, `±0.0`
//! among the coordinates), `golden_shapes.rs`' `copies` and
//! `two_valued_x` fixtures, and `copies` sorted into a `DegenerateMin`
//! chain. A split at another plane, one split more or fewer, another
//! id handed out or a point kept in another leaf moves a digest. The
//! constants were recorded before splits stopped copying buckets that
//! no plane divides, and must not be re-recorded by a change that
//! claims to keep the trees.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use semtree_kdtree::versioned::{InPlace, SplitEvent, StdShim, Tree, TreeWriter};
use semtree_kdtree::{KdConfig, SplitRule};

type Points = Vec<(Vec<f64>, u64)>;

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

    fn split(&mut self, s: &SplitEvent) {
        self.u64(u64::from(s.leaf));
        self.u64(s.split_dim as u64);
        self.u64(s.split_val.to_bits());
        self.u64(u64::from(s.left));
        self.u64(u64::from(s.right));
    }
}

/// 8,000 6-d points, nine in ten a copy of one of 120 prototypes, every
/// coordinate one of seven values with `0.0` and `-0.0` among them —
/// the shape FastMap gives a triple store, where most triples share
/// their point with others.
fn semantic() -> Points {
    const VALUES: [f64; 7] = [-1.25, -0.5, -0.0, 0.0, 0.75, 1.5, 3.0];
    let mut rng = StdRng::seed_from_u64(0x5E3A);
    let point = |rng: &mut StdRng| -> Vec<f64> {
        (0..6)
            .map(|_| VALUES[rng.random_range(0..VALUES.len())])
            .collect()
    };
    let prototypes: Vec<Vec<f64>> = (0..120).map(|_| point(&mut rng)).collect();
    (0..8_000u64)
        .map(|i| {
            let p = if rng.random_bool(0.9) {
                prototypes[rng.random_range(0..prototypes.len())].clone()
            } else {
                point(&mut rng)
            };
            (p, i)
        })
        .collect()
}

/// 2,000 6-d points, four in five a copy of one of 200 prototypes (as in
/// `golden_shapes.rs`).
fn copies() -> Points {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let point =
        |rng: &mut StdRng| -> Vec<f64> { (0..6).map(|_| rng.random_range(-50.0..50.0)).collect() };
    let prototypes: Vec<Vec<f64>> = (0..200).map(|_| point(&mut rng)).collect();
    (0..2_000u64)
        .map(|i| {
            let p = if rng.random_bool(0.8) {
                prototypes[rng.random_range(0..prototypes.len())].clone()
            } else {
                point(&mut rng)
            };
            (p, i)
        })
        .collect()
}

/// Two x values, 200 y values (as in `golden_shapes.rs`).
fn two_valued_x() -> Points {
    (0..200u32)
        .map(|i| {
            (
                vec![f64::from(i % 2), f64::from(i * 37 % 200)],
                u64::from(i),
            )
        })
        .collect()
}

/// `copies` in lexicographic coordinate order, the order a chain load
/// inserts in.
fn sorted_copies() -> Points {
    let mut points = copies();
    points.sort_by(|(a, _), (b, _)| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    points
}

/// Insert `points` one by one, hashing each insert's splits, then the
/// final arena.
fn digest(config: KdConfig, points: &Points) -> u64 {
    let nowhere = InPlace::<StdShim, fn(u32) -> Option<Arc<Tree>>>::nowhere();
    let mut writer: TreeWriter = TreeWriter::new(config);
    assert_eq!(writer.push_leaf(0, None, &[]), Some(0));
    let mut h = Fnv::new();
    let mut splits = Vec::new();
    for (coords, payload) in points {
        splits.clear();
        let stored = writer.insert(0, coords, *payload, &nowhere, &mut splits);
        assert_eq!(stored, Some(Ok(true)));
        h.u64(splits.len() as u64);
        for s in &splits {
            h.split(s);
        }
    }
    let tree = writer.tree();
    h.u64(u64::from(tree.nodes()));
    for id in 0..tree.nodes() {
        let node = tree.node(id).expect("published node");
        h.u64(u64::from(node.routing().is_some()));
        h.u64(node.point_count() as u64);
    }
    h.0
}

#[test]
fn split_events_and_final_arenas_are_unchanged() {
    let six = |bucket: usize, rule: SplitRule| {
        KdConfig::new(6)
            .with_bucket_size(bucket)
            .with_split_rule(rule)
    };
    let two = |rule: SplitRule| KdConfig::new(2).with_bucket_size(4).with_split_rule(rule);
    let cases: [(&str, KdConfig, Points, u64); 7] = [
        (
            "semantic, bucket 32",
            six(32, SplitRule::Cycle),
            semantic(),
            7_383_056_267_535_877_739,
        ),
        (
            "semantic, bucket 4, widest",
            six(4, SplitRule::WidestSpread),
            semantic(),
            15_327_645_702_665_726_241,
        ),
        (
            "copies",
            six(32, SplitRule::Cycle),
            copies(),
            15_679_871_079_612_021_765,
        ),
        (
            "copies, bucket 4, widest",
            six(4, SplitRule::WidestSpread),
            copies(),
            9_695_240_091_798_765_968,
        ),
        (
            "two-valued x, cycle",
            two(SplitRule::Cycle),
            two_valued_x(),
            14_866_467_438_113_008_315,
        ),
        (
            "two-valued x, widest",
            two(SplitRule::WidestSpread),
            two_valued_x(),
            15_189_747_001_736_981_826,
        ),
        (
            "sorted copies, chain",
            six(8, SplitRule::DegenerateMin),
            sorted_copies(),
            17_530_944_747_599_106_311,
        ),
    ];
    let mut moved = Vec::new();
    for (name, config, points, golden) in cases {
        let got = digest(config, &points);
        if got != golden {
            moved.push(format!("{name}: {got}"));
        }
    }
    assert!(
        moved.is_empty(),
        "split record moved: a plane, an id or a leaf changed\n{}",
        moved.join("\n")
    );
}
