//! Cross-crate property-based tests (proptest).

use std::sync::Arc;

use proptest::prelude::*;
use semtree_cluster::CostModel;
use semtree_dist::{DistConfig, DistSemTree, Query, QueryOutcome};
use semtree_distance::{TripleDistance, VocabularyRegistry, Weights};
use semtree_fastmap::FastMap;
use semtree_kdtree::{KdConfig, VersionedKdTree};

/// The KD-tree on its own: one arena, no partitions.
type Tree = VersionedKdTree;
use semtree_model::{turtle, Term, Triple};
use semtree_par::metric::euclidean;
use semtree_rtree::RTree;
use semtree_vocab::wordnet;

fn dist_query(tree: &DistSemTree, q: Query) -> Vec<semtree_dist::Neighbor<u64>> {
    tree.query(q)
        .and_then(QueryOutcome::neighbors)
        .expect("distributed query")
}

/// Brute force, the independent oracle of every tree below: each
/// point's distance to `q` and its index as payload, closest first.
fn brute(points: &[Vec<f64>], q: &[f64]) -> Vec<(f64, u64)> {
    let mut all: Vec<(f64, u64)> = points
        .iter()
        .zip(0u64..)
        .map(|(p, i)| (euclidean(p, q), i))
        .collect();
    all.sort_by(|a, b| a.0.total_cmp(&b.0));
    all
}

/// `(distance, payload)` of a tree's answer, in its order.
fn pairs(hits: &[semtree_kdtree::Neighbor<u64>]) -> Vec<(f64, u64)> {
    hits.iter().map(|h| (h.dist, h.payload)).collect()
}

/// `hits` are the `k` nearest by brute force: the same distances bit
/// for bit, and each payload once at its own distance. Which copies
/// fill a tie at the k-th distance is the tree's choice.
fn knn_is_exact(points: &[Vec<f64>], q: &[f64], k: usize, hits: &[(f64, u64)]) {
    let want: Vec<u64> = brute(points, q)
        .iter()
        .take(k)
        .map(|(d, _)| d.to_bits())
        .collect();
    let got: Vec<u64> = hits.iter().map(|(d, _)| d.to_bits()).collect();
    assert_eq!(got, want);
    let mut seen = std::collections::HashSet::new();
    for &(d, p) in hits {
        assert_eq!(euclidean(&points[p as usize], q).to_bits(), d.to_bits());
        assert!(seen.insert(p), "payload {p} twice");
    }
}

/// `hits` are exactly the brute-force ball of `radius`, distances bit
/// for bit.
fn range_is_exact(points: &[Vec<f64>], q: &[f64], radius: f64, hits: &[(f64, u64)]) {
    let key = |&(d, p): &(f64, u64)| (p, d.to_bits());
    let mut want: Vec<(u64, u64)> = brute(points, q)
        .iter()
        .filter(|(d, _)| *d <= radius)
        .map(key)
        .collect();
    let mut got: Vec<(u64, u64)> = hits.iter().map(key).collect();
    want.sort_unstable();
    got.sort_unstable();
    assert_eq!(got, want);
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
        let data: Vec<(Vec<f64>, u64)> = points.iter().cloned().zip(0..).collect();
        let tree = Tree::bulk_load(KdConfig::new(3).with_bucket_size(4), data);
        knn_is_exact(&points, &query, k, &pairs(&tree.knn(&query, k)));
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
        let data: Vec<(Vec<f64>, u64)> = points.iter().cloned().zip(0..).collect();
        let tree = Tree::bulk_load(KdConfig::new(2).with_bucket_size(4), data);
        range_is_exact(&points, &query, radius, &pairs(&tree.range(&query, radius)));
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
        let data: Vec<(Vec<f64>, u64)> = points.iter().cloned().zip(0..).collect();
        let bulk = Tree::bulk_load(KdConfig::new(2).with_bucket_size(4), data.clone());
        let mut dynamic = Tree::new(KdConfig::new(2).with_bucket_size(4));
        for (p, i) in &data {
            dynamic.insert(p, *i);
        }
        knn_is_exact(&points, &query, 3, &pairs(&bulk.knn(&query, 3)));
        knn_is_exact(&points, &query, 3, &pairs(&dynamic.knn(&query, 3)));
    }

    /// FastMap never expands distances when the input really is Euclidean.
    #[test]
    fn fastmap_contractive_on_euclidean(
        points in prop::collection::vec(
            prop::collection::vec(-5.0f64..5.0, 4),
            2..40
        ),
    ) {
        let d = |i: usize, j: usize| euclidean(&points[i], &points[j]);
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
        let d = |i: usize, j: usize| euclidean(&points[i], &points[j]);
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

    /// The distributed tree answers exactly like brute force for every
    /// partition count the paper evaluates.
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

        let nearest = dist_query(&dist, Query::knn(&query, 5));
        knn_is_exact(&points, &query, 5, &pairs(&nearest));
        let in_range = dist_query(&dist, Query::range(&query, 10.0));
        range_is_exact(&points, &query, 10.0, &pairs(&in_range));

        prop_assert_eq!(dist.verify(), Vec::<String>::new());
        dist.shutdown();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// KD-tree and R-tree agree on every query — two independent
    /// implementations cross-validating each other — and each matches
    /// brute force.
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
        let data: Vec<(Vec<f64>, u64)> = points.iter().cloned().zip(0..).collect();
        let kd = Tree::bulk_load(KdConfig::new(3).with_bucket_size(4), data.clone());
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

        // Each against brute force too, so neither tree is only checked
        // by the other. The KD-tree's distances are the oracle's bit for
        // bit; the R-tree's k-NN squares a rooted distance and roots it
        // again, so its distances are compared to within rounding.
        knn_is_exact(&points, &query, k, &pairs(&a));
        range_is_exact(&points, &query, radius, &pairs(&ra));
        let all = brute(&points, &query);
        let mut seen = std::collections::HashSet::new();
        for (hit, (want, _)) in b.iter().zip(&all) {
            let own = euclidean(&points[hit.payload as usize], &query);
            prop_assert!((hit.dist - want).abs() < 1e-9, "{} vs {}", hit.dist, want);
            prop_assert!((hit.dist - own).abs() < 1e-9, "{} vs {}", hit.dist, own);
            prop_assert!(seen.insert(hit.payload), "payload {} twice", hit.payload);
        }
        let rt_range: Vec<(f64, u64)> =
            rb.iter().map(|h| (h.dist, h.payload)).collect();
        range_is_exact(&points, &query, radius, &rt_range);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Seqlock readers racing the writer (DESIGN.md §14): while a writer
    /// inserts (and splits leaves) the whole point set, a concurrent
    /// lock-free reader only ever observes internally consistent answers
    /// — sorted distances over some prefix of the inserts — and once the
    /// writer finishes, the tree answers k-NN and range as brute force
    /// does, byte for byte as a tree built by the same inserts with no
    /// reader running.
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
        let config = KdConfig::new(2).with_bucket_size(2);
        let mut vtree = Tree::new(config);
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

        let mut seq = Tree::new(config);
        for (i, p) in points.iter().enumerate() {
            prop_assert!(vtree.insert(p, i as u64));
            seq.insert(p, i as u64);
        }
        done.store(true, Ordering::Relaxed);
        racing_reader.join().expect("racing reader");

        // Quiescent parity: brute force's answers, and the quiet build's
        // bytes and tie order.
        let (hits, stats) = reader.knn(&query, k);
        prop_assert_eq!(stats.retries, 0, "no writer left, no retries");
        knn_is_exact(&points, &query, k, &pairs(&hits));
        prop_assert_eq!(&hits, &seq.knn(&query, k));

        let (in_range, _) = reader.range(&query, radius);
        range_is_exact(&points, &query, radius, &pairs(&in_range));
        prop_assert_eq!(&in_range, &seq.range(&query, radius));
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
    /// inserted; once the writers finish, answers are brute force's,
    /// distances bit for bit, no read sends a message, and the tree
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
                        assert!((hit.dist - euclidean(stored, &query)).abs() < 1e-9);
                        assert!(seen.insert(hit.payload), "point {} twice", hit.payload);
                    }
                };
                while !done.load(Ordering::Acquire) {
                    let mut owed: Vec<f64> = points
                        .iter()
                        .zip(acknowledged.iter())
                        .filter(|(_, acked)| acked.load(Ordering::Acquire))
                        .map(|(p, _)| euclidean(p, &query))
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

        // Quiescent parity with brute force, in place.
        let messages = tree.metrics().messages;
        let nearest = dist_query(&tree, Query::knn(&query, k));
        knn_is_exact(&points, &query, k, &pairs(&nearest));
        let in_range = dist_query(&tree, Query::range(&query, radius));
        range_is_exact(&points, &query, radius, &pairs(&in_range));
        prop_assert_eq!(tree.metrics().messages, messages, "a quiescent read took a mailbox");

        prop_assert_eq!(tree.verify(), Vec::<String>::new());
        Arc::try_unwrap(tree).ok().expect("sole owner").shutdown();
    }
}
