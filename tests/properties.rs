//! Cross-crate property-based tests (proptest).

use std::sync::Arc;

use proptest::prelude::*;
use semtree_cluster::CostModel;
use semtree_dist::{DistConfig, DistSemTree, Query, QueryOutcome};
use semtree_distance::{TripleDistance, VocabularyRegistry, Weights};
use semtree_fastmap::FastMap;
use semtree_kdtree::{KdConfig, KdTree};
use semtree_model::{turtle, Term, Triple};
use semtree_rtree::RTree;
use semtree_vocab::wordnet;

fn dist_query(tree: &DistSemTree, q: Query) -> Vec<semtree_dist::Neighbor<u64>> {
    tree.query(q)
        .and_then(QueryOutcome::neighbors)
        .expect("distributed query")
}

fn euclid(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// Strategy for terms: literals, standard concepts or prefixed concepts.
fn term_strategy() -> impl Strategy<Value = Term> {
    prop_oneof![
        "[A-Za-z0-9 _-]{1,12}".prop_map(Term::literal),
        prop_oneof![
            Just("accept"),
            Just("reject"),
            Just("send"),
            Just("receive"),
            Just("start"),
            Just("stop"),
            Just("monitor"),
            Just("command"),
            Just("message"),
            Just("device")
        ]
        .prop_map(Term::concept),
        ("[A-Z][a-z]{1,6}", "[a-z_-]{1,10}").prop_map(|(p, n)| Term::concept_in(p, n)),
    ]
}

fn triple_strategy() -> impl Strategy<Value = Triple> {
    (term_strategy(), term_strategy(), term_strategy()).prop_map(|(s, p, o)| Triple::new(s, p, o))
}

fn distance() -> TripleDistance {
    let mut reg = VocabularyRegistry::new();
    reg.register_standard(Arc::new(wordnet::mini_taxonomy()));
    TripleDistance::new(Weights::default(), Arc::new(reg))
}

proptest! {
    /// Eq. 1 stays in [0,1], is symmetric, and vanishes on identity.
    #[test]
    fn triple_distance_pseudo_metric(a in triple_strategy(), b in triple_strategy()) {
        let d = distance();
        let dab = d.distance(&a, &b);
        let dba = d.distance(&b, &a);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&dab), "range: {dab}");
        prop_assert!((dab - dba).abs() < 1e-12, "symmetry");
        prop_assert!(d.distance(&a, &a).abs() < 1e-12, "identity");
    }

    /// Turtle serialization round-trips arbitrary triples, as long as the
    /// lexical forms avoid the tuple meta-characters.
    #[test]
    fn turtle_roundtrip(t in triple_strategy()) {
        let rendered = turtle::write_triple(&t);
        let reparsed = turtle::parse_triple(&rendered);
        // Concepts whose names parse as another term kind (numeric names,
        // names with commas) are not round-trippable by design; only check
        // when parsing succeeds.
        if let Ok(back) = reparsed {
            let rerendered = turtle::write_triple(&back);
            prop_assert_eq!(rendered, rerendered, "stable after one round");
        }
    }

    /// KD-tree k-NN agrees with brute force on random point sets.
    #[test]
    fn kdtree_knn_exact(
        points in prop::collection::vec(
            prop::collection::vec(-100.0f64..100.0, 3),
            1..120
        ),
        query in prop::collection::vec(-100.0f64..100.0, 3),
        k in 1usize..8,
    ) {
        let data: Vec<(Vec<f64>, u32)> =
            points.iter().cloned().zip(0u32..).collect();
        let tree = KdTree::bulk_load(KdConfig::new(3).with_bucket_size(4), data);
        let got = tree.knn(&query, k);
        let mut brute: Vec<f64> = points.iter().map(|p| euclid(p, &query)).collect();
        brute.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let want = &brute[..k.min(points.len())];
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want) {
            prop_assert!((g.dist - w).abs() < 1e-9, "{} vs {}", g.dist, w);
        }
    }

    /// KD-tree range search returns exactly the brute-force ball.
    #[test]
    fn kdtree_range_exact(
        points in prop::collection::vec(
            prop::collection::vec(-50.0f64..50.0, 2),
            1..120
        ),
        query in prop::collection::vec(-50.0f64..50.0, 2),
        radius in 0.0f64..60.0,
    ) {
        let data: Vec<(Vec<f64>, u32)> =
            points.iter().cloned().zip(0u32..).collect();
        let tree = KdTree::bulk_load(KdConfig::new(2).with_bucket_size(4), data);
        let got = tree.range(&query, radius);
        let want = points.iter().filter(|p| euclid(p, &query) <= radius).count();
        prop_assert_eq!(got.len(), want);
        for hit in got {
            prop_assert!(hit.dist <= radius + 1e-12);
        }
    }

    /// Dynamic insertion and bulk loading retrieve the same neighbours.
    #[test]
    fn dynamic_equals_bulk(
        points in prop::collection::vec(
            prop::collection::vec(-10.0f64..10.0, 2),
            2..80
        ),
        query in prop::collection::vec(-10.0f64..10.0, 2),
    ) {
        let data: Vec<(Vec<f64>, u32)> =
            points.iter().cloned().zip(0u32..).collect();
        let bulk = KdTree::bulk_load(KdConfig::new(2).with_bucket_size(4), data.clone());
        let mut dynamic = KdTree::new(KdConfig::new(2).with_bucket_size(4));
        for (p, i) in &data {
            dynamic.insert(p, *i);
        }
        let a = bulk.knn(&query, 3);
        let b = dynamic.knn(&query, 3);
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x.dist - y.dist).abs() < 1e-9);
        }
    }

    /// FastMap never expands distances when the input really is Euclidean.
    #[test]
    fn fastmap_contractive_on_euclidean(
        points in prop::collection::vec(
            prop::collection::vec(-5.0f64..5.0, 4),
            2..40
        ),
    ) {
        let d = |i: usize, j: usize| euclid(&points[i], &points[j]);
        let emb = FastMap::new(2).with_seed(7).embed(points.len(), &d);
        for i in 0..points.len() {
            for j in 0..points.len() {
                prop_assert!(emb.embedded_distance(i, j) <= d(i, j) + 1e-6);
            }
        }
    }

    /// Out-of-sample projection of an in-sample object reproduces its
    /// build coordinates.
    #[test]
    fn fastmap_projection_consistency(
        points in prop::collection::vec(
            prop::collection::vec(-5.0f64..5.0, 3),
            3..40
        ),
        pick in 0usize..1000,
    ) {
        let d = |i: usize, j: usize| euclid(&points[i], &points[j]);
        let emb = FastMap::new(2).with_seed(3).embed(points.len(), &d);
        let idx = pick % points.len();
        let projected = emb.project_with(&|p| d(idx, p));
        for (a, b) in projected.iter().zip(emb.point(idx)) {
            prop_assert!((a - b).abs() < 1e-6);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The distributed tree answers exactly like the sequential KD-tree
    /// for every partition count the paper evaluates.
    #[test]
    fn distributed_matches_sequential(
        points in prop::collection::vec(
            prop::collection::vec(-20.0f64..20.0, 2),
            8..60
        ),
        query in prop::collection::vec(-20.0f64..20.0, 2),
        m_idx in 0usize..3,
    ) {
        let m = [1usize, 3, 5][m_idx];
        let data: Vec<(Vec<f64>, u32)> =
            points.iter().cloned().zip(0u32..).collect();
        let seq = KdTree::bulk_load(KdConfig::new(2).with_bucket_size(4), data);

        let dist = DistSemTree::with_fanout(
            DistConfig::new(2).with_bucket_size(4).with_max_partitions(8),
            CostModel::zero(),
            m,
            &points,
        );
        for (i, p) in points.iter().enumerate() {
            dist.query(Query::insert(p, i as u64))
                .and_then(QueryOutcome::inserted)
                .expect("distributed insert");
        }

        let a = seq.knn(&query, 5);
        let b = dist_query(&dist, Query::knn(&query, 5));
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x.dist - y.dist).abs() < 1e-9, "m={}: {} vs {}", m, x.dist, y.dist);
        }

        let ra = seq.range(&query, 10.0);
        let rb = dist_query(&dist, Query::range(&query, 10.0));
        prop_assert_eq!(ra.len(), rb.len());

        prop_assert_eq!(dist.verify(), Vec::<String>::new());
        dist.shutdown();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// KD-tree and R-tree agree exactly on every query — two independent
    /// implementations cross-validating each other.
    #[test]
    fn kdtree_and_rtree_agree(
        points in prop::collection::vec(
            prop::collection::vec(-50.0f64..50.0, 3),
            1..150
        ),
        query in prop::collection::vec(-50.0f64..50.0, 3),
        k in 1usize..8,
        radius in 0.0f64..80.0,
    ) {
        let data: Vec<(Vec<f64>, u32)> =
            points.iter().cloned().zip(0u32..).collect();
        let kd = KdTree::bulk_load(KdConfig::new(3).with_bucket_size(4), data.clone());
        let rt = RTree::bulk_load(3, data);

        let a = kd.knn(&query, k);
        let b = rt.knn(&query, k);
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x.dist - y.dist).abs() < 1e-9, "{} vs {}", x.dist, y.dist);
        }

        let ra = kd.range(&query, radius);
        let rb = rt.range(&query, radius);
        prop_assert_eq!(ra.len(), rb.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Seqlock readers racing the writer (DESIGN.md §14): while a writer
    /// inserts (and splits leaves) the whole point set, a concurrent
    /// lock-free reader only ever observes internally consistent answers
    /// — sorted distances over some prefix of the inserts — and once the
    /// writer finishes, the versioned tree agrees with a sequential
    /// reference build on both k-NN and range.
    #[test]
    fn versioned_reads_under_writes_agree_with_sequential_reference(
        points in prop::collection::vec(
            prop::collection::vec(-20.0f64..20.0, 2),
            8..120
        ),
        query in prop::collection::vec(-20.0f64..20.0, 2),
        k in 1usize..6,
        radius in 0.0f64..25.0,
    ) {
        use std::sync::atomic::{AtomicBool, Ordering};
        use semtree_kdtree::versioned::VersionedKdTree;

        let config = KdConfig::new(2).with_bucket_size(2);
        let mut vtree = VersionedKdTree::<semtree_kdtree::versioned::StdShim>::new(config);
        let reader = vtree.reader();

        let done = Arc::new(AtomicBool::new(false));
        let racing_reader = {
            let reader = reader.clone();
            let done = Arc::clone(&done);
            let query = query.clone();
            std::thread::spawn(move || {
                let mut seen = 0usize;
                while !done.load(Ordering::Relaxed) {
                    let (hits, _) = reader.knn(&query, k);
                    // The result set grows monotonically with the
                    // writer's progress and is always sorted: a torn
                    // split would violate one of the two.
                    assert!(hits.len() >= seen, "result set shrank");
                    seen = hits.len();
                    for pair in hits.windows(2) {
                        assert!(pair[0].dist <= pair[1].dist, "unsorted hits");
                    }
                }
            })
        };

        let mut seq = KdTree::new(config);
        for (i, p) in points.iter().enumerate() {
            prop_assert!(vtree.insert(p, i as u64));
            seq.insert(p, i as u64);
        }
        done.store(true, Ordering::Relaxed);
        racing_reader.join().expect("racing reader");

        // Quiescent parity: exact distances, payload parity up to ties.
        let (hits, stats) = reader.knn(&query, k);
        let want = seq.knn(&query, k);
        prop_assert_eq!(stats.retries, 0, "no writer left, no retries");
        prop_assert_eq!(hits.len(), want.len());
        for (h, w) in hits.iter().zip(&want) {
            prop_assert_eq!(h.dist.to_bits(), w.dist.to_bits());
        }
        let mut got: Vec<u64> = hits.iter().map(|h| h.payload).collect();
        let mut expect: Vec<u64> = want.iter().map(|w| w.payload).collect();
        got.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);

        let (in_range, _) = reader.range(&query, radius);
        let want_range = seq.range(&query, radius);
        prop_assert_eq!(in_range.len(), want_range.len());
        for pair in in_range.windows(2) {
            prop_assert!(pair[0].dist <= pair[1].dist);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Lock-free reads cross partition borders in place (DESIGN.md §14)
    /// while the tree underneath them is being partitioned: a reader
    /// races the inserts of a capacity-bound tree, so leaves migrate to
    /// new partitions between — and during — its walks. Two writers
    /// insert every other point each; inserts are routed in place to the
    /// partition that stores them, so each writer races the other's
    /// build-partition too. Every answer holds each point acknowledged
    /// before the read began, exactly once, and nothing that was never
    /// inserted; once the writers finish, answers are bit-for-bit the
    /// sequential reference's, no read sends a message, and the tree
    /// verifies clean.
    #[test]
    fn reads_crossing_partitions_under_build_partition_keep_every_acknowledged_point(
        points in prop::collection::vec(
            prop::collection::vec(-20.0f64..20.0, 2),
            40..160
        ),
        query in prop::collection::vec(-20.0f64..20.0, 2),
        k in 1usize..8,
        radius in 1.0f64..30.0,
    ) {
        use std::sync::atomic::{AtomicBool, Ordering};
        use semtree_dist::CapacityPolicy;

        let tree = Arc::new(DistSemTree::single(
            DistConfig::new(2)
                .with_bucket_size(4)
                .with_capacity(CapacityPolicy::MaxPoints(12))
                .with_max_partitions(32),
            CostModel::zero(),
        ));
        let points = Arc::new(points);
        let acknowledged: Arc<Vec<AtomicBool>> =
            Arc::new(points.iter().map(|_| AtomicBool::new(false)).collect());
        let done = Arc::new(AtomicBool::new(false));
        let racing_reader = {
            let (tree, points) = (Arc::clone(&tree), Arc::clone(&points));
            let (acknowledged, done) = (Arc::clone(&acknowledged), Arc::clone(&done));
            let query = query.clone();
            std::thread::spawn(move || {
                // Every hit is a stored point at its true distance, and
                // no point is reported from both sides of a migration.
                let genuine = |hits: &[semtree_dist::Neighbor<u64>]| {
                    let mut seen = std::collections::HashSet::new();
                    for hit in hits {
                        let stored = &points[hit.payload as usize];
                        assert!((hit.dist - euclid(stored, &query)).abs() < 1e-9);
                        assert!(seen.insert(hit.payload), "point {} twice", hit.payload);
                    }
                };
                while !done.load(Ordering::Acquire) {
                    let mut owed: Vec<f64> = points
                        .iter()
                        .zip(acknowledged.iter())
                        .filter(|(_, acked)| acked.load(Ordering::Acquire))
                        .map(|(p, _)| euclid(p, &query))
                        .collect();
                    owed.sort_by(f64::total_cmp);
                    let before = owed.len();

                    let in_range = dist_query(&tree, Query::range(&query, radius));
                    genuine(&in_range);
                    let owed_in_range = owed.iter().filter(|d| **d <= radius - 1e-9).count();
                    assert!(
                        in_range.len() >= owed_in_range,
                        "range lost an acknowledged point: {} < {owed_in_range}",
                        in_range.len()
                    );

                    let nearest = dist_query(&tree, Query::knn(&query, k));
                    genuine(&nearest);
                    assert!(nearest.len() >= k.min(before), "k-NN came up short");
                    for (hit, owed) in nearest.iter().zip(&owed) {
                        assert!(
                            hit.dist <= owed + 1e-9,
                            "k-NN lost an acknowledged point: {} > {owed}",
                            hit.dist
                        );
                    }
                }
            })
        };

        let writer = |parity: usize| {
            let (tree, points) = (Arc::clone(&tree), Arc::clone(&points));
            let acknowledged = Arc::clone(&acknowledged);
            move || {
                for (i, p) in points.iter().enumerate().skip(parity).step_by(2) {
                    tree.query(Query::insert(p, i as u64))
                        .and_then(QueryOutcome::inserted)
                        .expect("distributed insert");
                    acknowledged[i].store(true, Ordering::Release);
                }
            }
        };
        let second_writer = std::thread::spawn(writer(1));
        writer(0)();
        second_writer.join().expect("second writer");
        done.store(true, Ordering::Release);
        racing_reader.join().expect("racing reader");

        let config = KdConfig::new(2).with_bucket_size(4);
        let mut seq = KdTree::new(config);
        for (i, p) in points.iter().enumerate() {
            seq.insert(p, i as u64);
        }

        // Quiescent parity with the sequential reference, in place.
        let messages = tree.metrics().messages;
        let nearest = dist_query(&tree, Query::knn(&query, k));
        let want = seq.knn(&query, k);
        prop_assert_eq!(nearest.len(), want.len());
        for (h, w) in nearest.iter().zip(&want) {
            prop_assert_eq!(h.dist.to_bits(), w.dist.to_bits());
        }
        let in_range = dist_query(&tree, Query::range(&query, radius));
        let mut want_range = seq.range(&query, radius);
        want_range.sort_by(|a, b| a.dist.total_cmp(&b.dist));
        prop_assert_eq!(in_range.len(), want_range.len());
        for (h, w) in in_range.iter().zip(&want_range) {
            prop_assert_eq!(h.dist.to_bits(), w.dist.to_bits());
        }
        let mut got: Vec<u64> = in_range.iter().map(|h| h.payload).collect();
        let mut expect: Vec<u64> = want_range.iter().map(|w| w.payload).collect();
        got.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
        prop_assert_eq!(tree.metrics().messages, messages, "a quiescent read took a mailbox");

        prop_assert_eq!(tree.verify(), Vec::<String>::new());
        Arc::try_unwrap(tree).ok().expect("sole owner").shutdown();
    }
}
