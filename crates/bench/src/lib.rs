//! Shared workload builders for `repro`'s figures and for `perfbench`.
//!
//! Every experiment works on *embedded semantic triples*: distinct triples
//! drawn from the on-board-software domain vocabulary, run through the
//! Eq. 1 distance and FastMap — i.e. the real pipeline, not synthetic
//! uniform points — so the tree sees the clustered distribution the paper's
//! index saw.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use semtree_cluster::CostModel;
use semtree_dist::{DistConfig, DistSemTree, Neighbor, Query, QueryOutcome};
use semtree_distance::{TripleDistance, VocabularyRegistry, Weights};
use semtree_fastmap::{Embedding, FastMap};
use semtree_model::{Term, Triple, TripleStore};
use semtree_reqgen::{CorpusGenerator, DomainVocabulary, GenConfig};
use semtree_vocab::wordnet;

/// The FastMap dimensionality every efficiency experiment uses.
pub const DIMS: usize = 6;
/// The paper's bucket size is unstated; 32 keeps trees realistic.
pub const BUCKET: usize = 32;

/// The vocabulary registry for a domain (Fun + parameter classes +
/// standard).
#[must_use]
pub fn registry_for(domain: &DomainVocabulary) -> VocabularyRegistry {
    let mut reg = VocabularyRegistry::new();
    reg.register_standard(Arc::new(wordnet::mini_taxonomy()));
    reg.register("Fun", Arc::clone(domain.fun_taxonomy()));
    for (prefix, tax) in domain.parameter_taxonomies() {
        reg.register(prefix.clone(), Arc::clone(tax));
    }
    reg
}

/// `n` *distinct* domain triples, deterministically shuffled: the
/// cross-product of actors × functions × parameters, truncated to `n`.
///
/// # Panics
/// Panics if the domain cannot produce `n` distinct triples (never in
/// practice: the actor count is sized from `n`).
#[must_use]
pub fn distinct_triples(n: usize, seed: u64) -> Vec<Triple> {
    // ~115 combinations per actor; head-room factor 2 guards truncation.
    let actors = (2 * n / 100).max(8);
    let domain = DomainVocabulary::new(actors);
    let mut all = Vec::with_capacity(n * 2);
    'outer: for actor in domain.actors() {
        for (_, _, _, predicate, obj_prefix) in domain.functions() {
            for param in domain.parameters_of(obj_prefix) {
                all.push(Triple::new(
                    Term::literal(actor.clone()),
                    Term::concept_in("Fun", *predicate),
                    Term::concept_in(*obj_prefix, *param),
                ));
                if all.len() >= n * 2 {
                    break 'outer;
                }
            }
        }
    }
    assert!(all.len() >= n, "domain too small for {n} distinct triples");
    let mut rng = StdRng::seed_from_u64(seed);
    all.shuffle(&mut rng);
    all.truncate(n);
    all
}

/// The Eq. 1 distance for a freshly sized domain (weights uniform).
#[must_use]
pub fn triple_distance(domain: &DomainVocabulary) -> TripleDistance {
    TripleDistance::new(Weights::default(), Arc::new(registry_for(domain)))
}

/// A store holding `triples` in one document, in order: distinct
/// triples keep their positions as ids.
#[must_use]
pub fn store_of(triples: impl IntoIterator<Item = Triple>) -> TripleStore {
    let mut store = TripleStore::new();
    let doc = store.create_document("triples");
    store.insert_all(doc, triples);
    store
}

/// FastMap-embed a store's distinct triples, by id, with the Eq. 1
/// distance.
#[must_use]
pub fn embed_triples(store: &TripleStore, dims: usize, seed: u64) -> Embedding {
    let domain = DomainVocabulary::new(8); // vocabularies are actor-independent
    let distance = triple_distance(&domain);
    let resolutions = distance.resolve_terms(store);
    let rows = distance.rows(store, &resolutions);
    FastMap::new(dims)
        .with_seed(seed)
        .embed_rows(store.len(), &|s| rows.row(s))
}

/// `n` embedded semantic points (the standard efficiency workload).
#[must_use]
pub fn semantic_points(n: usize, seed: u64) -> Vec<Vec<f64>> {
    let store = store_of(distinct_triples(n, seed));
    let embedding = embed_triples(&store, DIMS, seed);
    embedding.iter().map(|(_, p)| p.to_vec()).collect()
}

/// The reqgen corpus as the index actually ingests it: one embedded
/// point per `(document, triple)` occurrence, in document extraction
/// order. The corpus re-asserts the same triples across documents, so
/// the stream repeats a modest palette of distinct embedded points —
/// the occurrence-heavy distribution the paper's extraction pipeline
/// produces (and the shape columnar storage compresses best).
#[must_use]
pub fn occurrence_points(documents: usize, seed: u64) -> Vec<Vec<f64>> {
    let config = GenConfig::small().with_documents(documents).with_seed(seed);
    let store = CorpusGenerator::new(config).generate().store;
    let embedding = embed_triples(&store, DIMS, seed);
    store
        .documents()
        .flat_map(|doc| doc.triples.iter())
        .map(|id| embedding.point(id.index()).to_vec())
        .collect()
}

/// Insert one point through the unified query API, aborting the
/// benchmark on cluster failure — a silently dropped insert would skew
/// every figure built on the tree.
pub fn dist_insert(tree: &DistSemTree, point: &[f64], payload: u64) {
    let outcome = tree.query(Query::insert(point, payload));
    assert!(outcome.is_ok(), "benchmark insert failed: {outcome:?}");
}

/// k-NN through the unified query API; the benchmark tree is in-process,
/// so a cluster error is harness corruption, not a recoverable state.
#[must_use]
pub fn dist_knn(tree: &DistSemTree, point: &[f64], k: usize) -> Vec<Neighbor<u64>> {
    match tree
        .query(Query::knn(point, k))
        .and_then(QueryOutcome::neighbors)
    {
        Ok(hits) => hits,
        Err(e) => unreachable!("benchmark knn failed: {e}"),
    }
}

/// Range search through the unified query API (same failure contract as
/// [`dist_knn`]).
#[must_use]
pub fn dist_range(tree: &DistSemTree, point: &[f64], radius: f64) -> Vec<Neighbor<u64>> {
    match tree
        .query(Query::range(point, radius))
        .and_then(QueryOutcome::neighbors)
    {
        Ok(hits) => hits,
        Err(e) => unreachable!("benchmark range failed: {e}"),
    }
}

/// Build a distributed tree over `m` partitions and insert every point in
/// the given (already shuffled) order — the paper's dynamic build.
#[must_use]
pub fn build_dist_tree(points: &[Vec<f64>], m: usize, bucket: usize) -> DistSemTree {
    let config = DistConfig::new(points.first().map_or(DIMS, Vec::len))
        .with_bucket_size(bucket)
        .with_max_partitions(m.max(1) * 2);
    let tree = if m <= 1 {
        DistSemTree::single(config, CostModel::zero())
    } else {
        let sample: Vec<Vec<f64>> = points.iter().take(2048).cloned().collect();
        DistSemTree::with_fanout(config, CostModel::zero(), m, &sample)
    };
    for (i, p) in points.iter().enumerate() {
        dist_insert(&tree, p, i as u64);
    }
    tree
}

/// Build the paper's "1 partition (totally unbalanced)" configuration: a
/// single partition under the degenerate min-split rule, fed the points in
/// sorted order — a true chain.
#[must_use]
pub fn build_chain_dist_tree(points: &[Vec<f64>], bucket: usize) -> DistSemTree {
    let sorted = sorted_points(points);
    let config = DistConfig::new(sorted.first().map_or(DIMS, Vec::len))
        .with_bucket_size(bucket)
        .with_split_rule(semtree_kdtree::SplitRule::DegenerateMin);
    let tree = DistSemTree::single(config, CostModel::zero());
    for (i, p) in sorted.iter().enumerate() {
        dist_insert(&tree, p, i as u64);
    }
    tree
}

/// Sort points lexicographically — inserting in this order degenerates the
/// tree into the paper's "totally unbalanced" chain.
#[must_use]
pub fn sorted_points(points: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let mut sorted = points.to_vec();
    sorted.sort_by(|a, b| {
        a.iter()
            .zip(b.iter())
            .find_map(|(x, y)| x.partial_cmp(y).filter(|o| o.is_ne()))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    sorted
}

/// A range radius with moderate selectivity: the `q`-quantile of pairwise
/// distances over a point sample.
#[must_use]
pub fn pick_radius(points: &[Vec<f64>], q: f64) -> f64 {
    let sample: Vec<&Vec<f64>> = points.iter().take(200).collect();
    let mut dists = Vec::new();
    for i in 0..sample.len() {
        for j in (i + 1)..sample.len() {
            let d = sample[i]
                .iter()
                .zip(sample[j])
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt();
            dists.push(d);
        }
    }
    if dists.is_empty() {
        return 0.1;
    }
    dists.sort_by(f64::total_cmp);
    let idx = ((q.clamp(0.0, 1.0)) * (dists.len() - 1) as f64) as usize;
    dists[idx]
}

/// Deterministic query points: a rotation of the data set.
#[must_use]
pub fn query_points(points: &[Vec<f64>], count: usize) -> Vec<Vec<f64>> {
    (0..count)
        .map(|i| points[(i * 37 + 11) % points.len()].clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_triples_are_distinct_and_sized() {
        let ts = distinct_triples(500, 1);
        assert_eq!(ts.len(), 500);
        let mut d = ts.clone();
        d.sort();
        d.dedup();
        assert_eq!(d.len(), 500, "all distinct");
        // Deterministic per seed.
        assert_eq!(ts, distinct_triples(500, 1));
        assert_ne!(ts, distinct_triples(500, 2));
    }

    #[test]
    fn semantic_points_have_configured_dims() {
        let ps = semantic_points(100, 3);
        assert_eq!(ps.len(), 100);
        assert!(ps.iter().all(|p| p.len() == DIMS));
    }

    #[test]
    fn occurrence_points_repeat_a_distinct_palette() {
        let pts = occurrence_points(80, 9);
        assert_eq!(pts, occurrence_points(80, 9), "deterministic per seed");
        assert!(
            pts.len() >= 100,
            "corpus yields a real stream: {}",
            pts.len()
        );
        assert!(pts.iter().all(|p| p.len() == DIMS));
        let mut distinct: Vec<Vec<u64>> = pts
            .iter()
            .map(|p| p.iter().map(|c| c.to_bits()).collect())
            .collect();
        distinct.sort();
        distinct.dedup();
        assert!(
            distinct.len() * 2 < pts.len(),
            "occurrences repeat triples: {} distinct of {}",
            distinct.len(),
            pts.len()
        );
    }

    #[test]
    fn build_dist_tree_round_trips() {
        let ps = semantic_points(200, 4);
        for m in [1, 3] {
            let tree = build_dist_tree(&ps, m, 16);
            assert_eq!(tree.len(), 200);
            assert_eq!(tree.partition_count(), m);
            let hits = dist_knn(&tree, &ps[0], 1);
            assert!(hits[0].dist < 1e-9, "self-query finds itself");
            tree.shutdown();
        }
    }

    #[test]
    fn sorted_points_are_sorted() {
        let ps = semantic_points(50, 5);
        let s = sorted_points(&ps);
        for w in s.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn pick_radius_monotone_in_quantile() {
        let ps = semantic_points(100, 6);
        let small = pick_radius(&ps, 0.05);
        let large = pick_radius(&ps, 0.5);
        assert!(small > 0.0);
        assert!(large >= small);
    }

    /// A durable tree fed the occurrence stream snapshots it columnar,
    /// at least 5× smaller than the snapshots' raw point bytes, and a
    /// cold inspection of the directory recovers every point.
    #[test]
    fn columnar_directory_is_5x_smaller_and_recovers_the_same_corpus() {
        use semtree_dist::{build_local_durable, inspect_wal, WalOptions};

        let pts = occurrence_points(150, 7);
        let sample: Vec<Vec<f64>> = pts.iter().take(256).cloned().collect();
        let dir = std::env::temp_dir().join(format!(
            "semtree-bench-columnar-recovery-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let config = DistConfig::new(DIMS)
            .with_bucket_size(BUCKET)
            .with_max_partitions(8);
        // Small segments, so sealing and compaction fire many times
        // within the run.
        let options = WalOptions::default().with_segment_bytes(64 * 1024);
        let tree = build_local_durable(config, CostModel::zero(), 4, &sample, &dir, options)
            .expect("durable tree");
        for (i, p) in pts.iter().enumerate() {
            dist_insert(&tree, p, i as u64);
        }
        tree.shutdown();
        let inspection = inspect_wal(&dir).expect("inspect");
        std::fs::remove_dir_all(&dir).ok();

        let points: usize = inspection.partitions.iter().map(|(_, p)| p.points).sum();
        assert_eq!(points, pts.len());
        let stored: usize = inspection.compression.iter().map(|c| c.stored_bytes).sum();
        let raw: usize = inspection.compression.iter().map(|c| c.raw_bytes).sum();
        assert!(stored > 0, "no snapshot was taken");
        // The routing root holds no points: a snapshot with points is
        // one a data partition's cadence took mid-run.
        assert!(
            inspection.compression.iter().any(|c| c.raw_bytes > 0),
            "no data partition snapshotted mid-run"
        );
        assert!(
            raw >= 5 * stored,
            "stored-vs-raw ratio {:.2}",
            raw as f64 / stored as f64
        );
        assert!(inspection.report.segment_disk_bytes > 0);
    }

    /// Concurrency changes timing, never bytes: a versioned tree filled
    /// on the semantic workload while several lock-free readers query it
    /// answers every query exactly like the same tree filled alone, tie
    /// order included.
    #[test]
    fn versioned_tree_filled_under_readers_answers_like_one_filled_alone() {
        use semtree_kdtree::versioned::{StdShim, VersionedKdTree};
        use semtree_kdtree::KdConfig;
        use std::sync::atomic::{AtomicBool, Ordering};

        const K: usize = 5;
        let points = semantic_points(2_000, 0x9A21);
        let queries = query_points(&points, 64);
        let (seed, extra) = points.split_at(points.len() / 2);
        let fill = |tree: &mut VersionedKdTree<StdShim>, pts: &[Vec<f64>], first: usize| {
            for (i, p) in pts.iter().enumerate() {
                assert!(tree.insert(p, (first + i) as u64));
            }
        };
        let config = KdConfig::new(DIMS).with_bucket_size(BUCKET);

        let mut raced = VersionedKdTree::<StdShim>::new(config);
        fill(&mut raced, seed, 0);
        let reader = raced.reader();
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let (reader, done, queries) = (reader.clone(), &done, &queries);
                scope.spawn(move || {
                    let mut i = t;
                    while !done.load(Ordering::Relaxed) {
                        std::hint::black_box(reader.knn(&queries[i % queries.len()], K));
                        i += 1;
                    }
                });
            }
            fill(&mut raced, extra, seed.len());
            done.store(true, Ordering::Relaxed);
        });

        let mut alone = VersionedKdTree::<StdShim>::new(config);
        fill(&mut alone, &points, 0);
        let key = |tree: &VersionedKdTree<StdShim>, q: &[f64]| -> Vec<(u64, u64)> {
            let (hits, _) = tree.reader().knn(q, K);
            hits.iter().map(|h| (h.dist.to_bits(), h.payload)).collect()
        };
        for q in &queries {
            assert_eq!(key(&raced, q), key(&alone, q));
        }
    }

    #[test]
    fn query_points_cycle_data() {
        let ps = semantic_points(40, 7);
        let qs = query_points(&ps, 10);
        assert_eq!(qs.len(), 10);
        assert!(qs.iter().all(|q| ps.contains(q)));
    }
}
