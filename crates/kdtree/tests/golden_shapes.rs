//! Golden tree shapes of the balanced bulk load and the totally
//! unbalanced chain load.
//!
//! Each row is the [`TreeShape`] a build produces on one input — node,
//! routing, leaf and point counts, the deepest node, the fullest leaf,
//! and the mean leaf depth as its exact bits. A build that splits at
//! another plane, sends a point on the plane to the other side, or stops
//! splitting one level earlier or later moves a row. The rows were
//! recorded on the builders that preceded the arena tree's own, and must
//! not be re-recorded by a change that claims to keep the shapes.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use semtree_kdtree::{KdConfig, SplitRule, TreeShape, VersionedKdTree};

type Tree = VersionedKdTree;

type Points = Vec<(Vec<f64>, u64)>;

/// `(nodes, routing, leaves, entries, max_depth, max_leaf_occupancy,
/// mean_leaf_depth bits)`.
type Row = (usize, usize, usize, usize, u32, usize, u64);

fn row(shape: &TreeShape) -> Row {
    (
        shape.nodes,
        shape.routing,
        shape.leaves,
        shape.entries,
        shape.max_depth,
        shape.max_leaf_occupancy,
        shape.mean_leaf_depth.to_bits(),
    )
}

/// The 1-d line `0, 1, …, 1023`.
fn line() -> Points {
    (0..1_024u32)
        .map(|i| (vec![f64::from(i)], u64::from(i)))
        .collect()
}

/// 2,000 6-d points, four in five a copy of one of 200 prototypes.
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

/// Two x values, 200 y values: the input on which cycling the split
/// dimension and picking the widest spread build different trees.
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

#[test]
fn bulk_and_chain_shapes_are_unchanged() {
    let cases: [(&str, KdConfig, Points, Row, Row); 3] = [
        (
            "line",
            KdConfig::new(1).with_bucket_size(8),
            line(),
            (341, 170, 171, 1024, 8, 8, 4_620_133_559_833_698_352),
            (2033, 1016, 1017, 1024, 1016, 8, 4_647_662_021_590_100_586),
        ),
        (
            "copies",
            KdConfig::new(6).with_bucket_size(32),
            copies(),
            (175, 87, 88, 2000, 7, 32, 4_619_055_545_090_357_807),
            (529, 264, 265, 2000, 57, 32, 4_627_873_485_012_559_215),
        ),
        (
            "two-valued x",
            KdConfig::new(2)
                .with_bucket_size(4)
                .with_split_rule(SplitRule::WidestSpread),
            two_valued_x(),
            (133, 66, 67, 200, 7, 4, 4_618_542_244_725_772_838),
            (197, 98, 99, 200, 98, 4, 4_632_232_270_136_474_324),
        ),
    ];
    for (name, config, points, bulk, chain) in cases {
        let got_bulk = row(&TreeShape::of(&Tree::bulk_load(config, points.clone())));
        let got_chain = row(&TreeShape::of(&Tree::chain_load(config, points)));
        assert_eq!(got_bulk, bulk, "{name}: bulk load");
        assert_eq!(got_chain, chain, "{name}: chain load");
    }
}
