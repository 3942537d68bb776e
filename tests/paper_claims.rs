//! Tests pinning the paper's qualitative claims: complexity shapes,
//! partition-structure invariants, message accounting, parallel border
//! search, and the Figure 8 effectiveness shape.

use std::sync::Arc;
use std::time::{Duration, Instant};

use semtree_cluster::CostModel;
use semtree_dist::{
    build_tree, join_cluster, serve_cluster, CapacityPolicy, DistConfig, DistSemTree, Query,
    QueryOutcome,
};

fn insert(tree: &DistSemTree, point: &[f64], payload: u64) {
    tree.query(Query::insert(point, payload))
        .and_then(QueryOutcome::inserted)
        .expect("insert");
}
use semtree_eval::{average_pr, precision, recall};
use semtree_kdtree::{KdConfig, TreeShape, VersionedKdTree};
use semtree_model::TripleId;
use semtree_reqgen::{CorpusGenerator, DomainVocabulary, GenConfig, GroundTruthOracle};
use semtree_vocab::wordnet;

/// The KD-tree on its own: one arena, no partitions.
type Tree = VersionedKdTree;

fn line_points(n: usize) -> Vec<(Vec<f64>, u64)> {
    (0..n).map(|i| (vec![i as f64], i as u64)).collect()
}

/// §III-C: "when the tree is well-balanced, the time to navigate the tree
/// … is Θ(A + log2(N/M))" — node visits on a balanced tree grow
/// logarithmically, on a chain linearly.
#[test]
fn knn_visit_complexity_shapes() {
    let mut balanced_growth = Vec::new();
    let mut chain_growth = Vec::new();
    for n in [1_000usize, 4_000, 16_000] {
        let bal = Tree::bulk_load(KdConfig::new(1).with_bucket_size(8), line_points(n));
        let chain = Tree::chain_load(KdConfig::new(1).with_bucket_size(8), line_points(n));
        let q = vec![n as f64 / 2.0 + 0.3];
        let (_, bs) = bal.knn_with_stats(&q, 3);
        let (_, cs) = chain.knn_with_stats(&q, 3);
        balanced_growth.push(bs.nodes_visited as f64);
        chain_growth.push(cs.nodes_visited as f64);
    }
    // 16× more data: balanced visits grow ≤ 3× (log-ish), chain ≥ 8×.
    assert!(
        balanced_growth[2] / balanced_growth[0] <= 3.0,
        "balanced growth {balanced_growth:?}"
    );
    assert!(
        chain_growth[2] / chain_growth[0] >= 8.0,
        "chain growth {chain_growth:?}"
    );
}

/// §III-C: `N = 2K/Bs` nodes; leaves = routing + 1 in any binary KD-tree.
#[test]
fn node_count_formula_shape() {
    for (k_points, bs) in [(2_048usize, 8usize), (8_192, 32)] {
        let tree = Tree::bulk_load(KdConfig::new(1).with_bucket_size(bs), line_points(k_points));
        let shape = TreeShape::of(&tree);
        assert_eq!(shape.leaves, shape.routing + 1);
        let formula = 2 * k_points / bs;
        assert!(
            shape.nodes >= formula / 4 && shape.nodes <= formula * 4,
            "nodes {} vs formula {formula}",
            shape.nodes
        );
        assert_eq!(shape.entries, k_points);
    }
}

/// The root partition of a fan-out tree is routing-only and hosts exactly
/// `M − 2` routing nodes for `M − 1` data partitions (a binary tree with
/// `M − 1` remote leaves), matching the paper's "Root Partition hosting
/// routing nodes and able to distribute messages between the other
/// partitions".
#[test]
fn root_partition_structure() {
    let sample: Vec<Vec<f64>> = (0..256).map(|i| vec![f64::from(i)]).collect();
    for m in [3usize, 5, 9] {
        let tree = DistSemTree::with_fanout(
            DistConfig::new(1)
                .with_bucket_size(8)
                .with_max_partitions(16),
            CostModel::zero(),
            m,
            &sample,
        );
        for i in 0..500u64 {
            insert(&tree, &[(i % 256) as f64], i);
        }
        let stats = tree.try_global_stats().expect("stats");
        assert_eq!(stats.partition_count(), m);
        assert_eq!(stats.partitions[0].1.points, 0, "root stores nothing");
        assert_eq!(stats.root_routing_nodes(), m - 2);
        // Every edge node is accounted: the root's remote children are the
        // M−1 data partitions.
        assert_eq!(stats.partitions[0].1.remote_children.len(), m - 1);
        assert_eq!(stats.total_points(), 500);
        tree.shutdown();
    }
}

/// Partitions cost messages; more partitions → more messages (the
/// overhead visible at small N in Figures 3/5/7). The paper relays every
/// insert through the root partition, which adds a round trip per insert
/// once the root only routes (`messages_grow_with_partition_count` in
/// `semtree-dist` pins that relay). Here an insert walks the routing
/// nodes in place and is one round trip to the partition that stores
/// it, at every M; what grows with M is the build, one adoption round
/// trip per data partition.
#[test]
fn message_overhead_grows_with_partitions() {
    let sample: Vec<Vec<f64>> = (0..256).map(|i| vec![f64::from(i)]).collect();
    let mut per_m = Vec::new();
    for m in [1usize, 3, 9] {
        let tree = DistSemTree::with_fanout(
            DistConfig::new(1)
                .with_bucket_size(8)
                .with_max_partitions(16),
            CostModel::zero(),
            m,
            &sample,
        );
        let built = tree.metrics().messages;
        for i in 0..300u64 {
            insert(&tree, &[(i % 256) as f64], i);
        }
        per_m.push((built, tree.metrics().messages - built));
        tree.shutdown();
    }
    assert_eq!(per_m, [(0, 600), (4, 600), (16, 600)]);
}

/// §III-B.4: at a border node whose two children live on other partitions,
/// the range search proceeds in parallel. The root partition lives on a
/// coordinator and each data partition on a worker process of its own
/// (three fabrics over loopback, in this process). Every message a worker
/// handles pays 25 ms each way, and the border range's only messages are
/// its two sub-requests: sent together, their round trips overlap.
#[test]
fn border_range_search_runs_in_parallel() {
    let latency = Duration::from_millis(25);
    let config = DistConfig::new(1)
        .with_bucket_size(64)
        .with_max_partitions(8);
    let fabric = serve_cluster("127.0.0.1:0".parse().unwrap(), &config, CostModel::zero())
        .expect("coordinator");
    let slow = CostModel {
        latency,
        per_kib: Duration::ZERO,
    };
    let workers: Vec<_> = (0..2)
        .map(|_| {
            join_cluster(fabric.listen_addr(), slow, Duration::from_secs(10), None)
                .expect("worker join")
        })
        .collect();
    fabric
        .wait_for_workers(2, Duration::from_secs(10))
        .expect("workers joined");
    let sample: Vec<Vec<f64>> = (0..64).map(|i| vec![f64::from(i)]).collect();
    let tree = build_tree(&fabric, config, 3, &sample, None).expect("tree");
    for i in 0..8u32 {
        insert(&tree, &[f64::from(i * 8)], u64::from(i));
    }
    // A query at the split point with a radius spanning both partitions.
    let before = tree.metrics().messages;
    let t0 = Instant::now();
    let hits = tree
        .query(Query::range(&[32.0], 40.0))
        .and_then(QueryOutcome::neighbors)
        .expect("range");
    let elapsed = t0.elapsed();
    assert_eq!(hits.len(), 8, "radius covers everything");
    assert_eq!(
        tree.metrics().messages - before,
        4,
        "two sub-requests and their replies"
    );
    // One round trip is two latencies; sent one after the other, the two
    // sub-requests would take two round trips at least.
    let round_trip = 2 * latency;
    assert!(
        elapsed < 2 * round_trip,
        "range took {elapsed:?}; parallel border search expected"
    );

    let waiters: Vec<_> = workers
        .into_iter()
        .map(|w| std::thread::spawn(move || w.run_until_shutdown()))
        .collect();
    tree.shutdown();
    for w in waiters {
        w.join().expect("worker shut down cleanly");
    }
}

/// Build-partition leaves routing-only partitions behind, per Figure 2.
#[test]
fn build_partition_creates_routing_only_partitions() {
    let tree = DistSemTree::single(
        DistConfig::new(1)
            .with_bucket_size(8)
            .with_capacity(CapacityPolicy::MaxPoints(30))
            .with_max_partitions(32),
        CostModel::zero(),
    );
    for i in 0..400u64 {
        insert(&tree, &[i as f64], i);
    }
    let stats = tree.try_global_stats().expect("stats");
    assert!(stats.partition_count() > 1);
    assert_eq!(stats.total_points(), 400);
    // The original partition keeps shedding leaves until it routes more
    // than it stores; every partition respects the capacity.
    for (_, p) in &stats.partitions {
        assert!(p.points <= 30, "partition holds {}", p.points);
    }
    tree.shutdown();
}

/// The Figure 8 shape: as K grows, precision falls monotonically (weakly)
/// and recall rises monotonically.
#[test]
fn effectiveness_precision_falls_recall_rises() {
    let corpus = CorpusGenerator::new(GenConfig::small().with_seed(0xF18)).generate();
    let oracle = GroundTruthOracle::new(&corpus);
    let mut builder = semtree_core::SemTree::builder()
        .dimensions(6)
        .register_standard(Arc::new(wordnet::mini_taxonomy()))
        .register_vocabulary("Fun", Arc::clone(corpus.domain.fun_taxonomy()));
    for (prefix, tax) in corpus.domain.parameter_taxonomies() {
        builder = builder.register_vocabulary(prefix.clone(), Arc::clone(tax));
    }
    builder.add_store(&corpus.store);
    let index = builder.build().unwrap();

    let cases: Vec<(semtree_model::Triple, Vec<TripleId>)> = corpus
        .store
        .iter()
        .filter_map(|(id, _)| {
            let target = oracle.target_triple(id)?;
            let truth = oracle.inconsistent_with(id);
            (!truth.is_empty()).then_some((target, truth))
        })
        .take(60)
        .collect();
    assert!(cases.len() >= 20, "enough query cases");

    let mut last: Option<(f64, f64)> = None;
    for k in [1usize, 3, 6, 10, 15] {
        let per_query: Vec<(Vec<TripleId>, Vec<TripleId>)> = cases
            .iter()
            .map(|(target, truth)| {
                let retrieved: Vec<TripleId> =
                    index.knn(target, k).into_iter().map(|h| h.id).collect();
                (retrieved, truth.clone())
            })
            .collect();
        let pt = average_pr(k, &per_query);
        if let Some((lp, lr)) = last {
            assert!(
                pt.precision <= lp + 0.05,
                "P should fall: {lp} → {}",
                pt.precision
            );
            assert!(
                pt.recall >= lr - 0.05,
                "R should rise: {lr} → {}",
                pt.recall
            );
        }
        last = Some((pt.precision, pt.recall));
    }
    let (_, final_r) = last.unwrap();
    assert!(final_r > 0.8, "K=15 recall {final_r}");
    index.shutdown();
}

/// Antinomic predicates must be *near* in the Fun taxonomy but *far* from
/// unrelated predicates — the property that makes target-triple k-NN find
/// contradictions at all.
#[test]
fn antinomy_locality_in_embedding() {
    use semtree_distance::{TripleDistance, VocabularyRegistry, Weights};
    use semtree_model::{Term, Triple};

    let domain = DomainVocabulary::new(4);
    let mut reg = VocabularyRegistry::new();
    reg.register("Fun", Arc::clone(domain.fun_taxonomy()));
    for (prefix, tax) in domain.parameter_taxonomies() {
        reg.register(prefix.clone(), Arc::clone(tax));
    }
    let dist = TripleDistance::new(Weights::default(), Arc::new(reg));

    let base = Triple::new(
        Term::literal("OBSW001"),
        Term::concept_in("Fun", "accept_cmd"),
        Term::concept_in("CmdType", "start-up"),
    );
    let antonym = base.with_predicate(Term::concept_in("Fun", "block_cmd"));
    let unrelated = base.with_predicate(Term::concept_in("Fun", "send_msg"));
    assert!(dist.distance(&base, &antonym) < dist.distance(&base, &unrelated));
}

/// Precision/recall definitions match the paper's formulas exactly.
#[test]
fn pr_formulas() {
    let t = vec![1u32, 2, 3, 4];
    let t_star = vec![2u32, 4, 6];
    // |T∩T*| = 2, |T| = 4, |T*| = 3.
    assert!((precision(&t, &t_star) - 0.5).abs() < 1e-12);
    assert!((recall(&t, &t_star) - 2.0 / 3.0).abs() < 1e-12);
}
