//! End-to-end pipeline tests: text → triples → distance → FastMap →
//! distributed KD-tree → queries, across crate boundaries.

use std::sync::Arc;

use semtree_core::{
    AntinomyTable, InconsistencyFinder, QueryOptions, SemTree, Term, Triple, TripleStore,
};
use semtree_model::turtle;
use semtree_reqgen::{CorpusGenerator, GenConfig, GroundTruthOracle};
use semtree_vocab::wordnet;

/// Build an index over a turtle-parsed corpus and query it.
#[test]
fn turtle_corpus_to_index() {
    let src = "\
@prefix Fun: <urn:fun> .
@document REQ-1
('OBSW001', Fun:accept_cmd, CmdType:start-up)
('OBSW001', Fun:acquire_in, InType:pre-launch phase)
('OBSW001', Fun:send_msg, MsgType:power amplifier)
@document REQ-2
('OBSW001', Fun:block_cmd, CmdType:start-up)
";
    let mut store = TripleStore::new();
    let n = turtle::parse_into(&mut store, src).unwrap();
    assert_eq!(n, 4);

    let mut builder = SemTree::builder()
        .dimensions(3)
        .register_standard(Arc::new(wordnet::mini_taxonomy()));
    builder.add_store(&store);
    let index = builder.build().unwrap();
    assert_eq!(index.len(), 4);

    let query = turtle::parse_triple("('OBSW001', Fun:accept_cmd, CmdType:start-up)").unwrap();
    let hits = index.knn(&query, 2);
    assert_eq!(hits[0].triple, query);
    // The antinomic twin (same subject/object, sibling predicate) is next.
    assert_eq!(hits[1].triple.predicate.lexical(), "block_cmd");
    index.shutdown();
}

/// The full NLP path: prose documents in, inconsistency report out.
#[test]
fn prose_documents_to_inconsistency_report() {
    let mut builder = SemTree::builder()
        .dimensions(4)
        .register_standard(Arc::new(wordnet::mini_taxonomy()));
    builder.add_document_text(
        "A",
        "The OBSW009 shall accept the reboot command. \
         The OBSW009 shall send the heartbeat message.",
    );
    builder.add_document_text("B", "The OBSW009 shall block the reboot command.");
    builder.add_document_text("C", "The PSU002 shall enable the heater output.");
    let index = builder.build().unwrap();

    let mut antinomies = AntinomyTable::new();
    antinomies.declare("accept_cmd", "block_cmd");
    let finder = InconsistencyFinder::new(&index, antinomies);

    let subject = Triple::new(
        Term::literal("OBSW009"),
        Term::concept_in("Fun", "accept_cmd"),
        Term::concept_in("CmdType", "reboot"),
    );
    let confirmed = finder.confirmed(&subject, 4).unwrap();
    assert_eq!(confirmed.len(), 1);
    assert_eq!(confirmed[0].triple.predicate.lexical(), "block_cmd");
    index.shutdown();
}

/// The synthetic corpus flows through every layer, and the index-backed
/// sweep agrees with the exhaustive oracle.
#[test]
fn corpus_sweep_matches_oracle() {
    let corpus = CorpusGenerator::new(GenConfig::small().with_seed(99)).generate();
    let oracle = GroundTruthOracle::new(&corpus);

    let mut builder = SemTree::builder()
        .dimensions(6)
        .bucket_size(16)
        .register_standard(Arc::new(wordnet::mini_taxonomy()))
        .register_vocabulary("Fun", Arc::clone(corpus.domain.fun_taxonomy()));
    for (prefix, tax) in corpus.domain.parameter_taxonomies() {
        builder = builder.register_vocabulary(prefix.clone(), Arc::clone(tax));
    }
    builder.add_store(&corpus.store);
    let index = builder.build().unwrap();

    let found = InconsistencyFinder::new(&index, corpus.domain.antinomies().clone()).sweep(10);
    let truth = oracle.all_pairs();
    // The formal post-filter keeps precision at 1; k=10 recovers nearly all.
    for pair in &found {
        assert!(truth.contains(pair), "spurious pair {pair:?}");
    }
    assert!(
        found.len() * 10 >= truth.len() * 8,
        "recall too low: {}/{}",
        found.len(),
        truth.len()
    );
    index.shutdown();
}

/// Multi-partition indexes return the same answers as single-partition.
#[test]
fn partitioning_does_not_change_results() {
    let corpus = CorpusGenerator::new(GenConfig::small().with_seed(5)).generate();
    let build = |partitions: usize| {
        let mut b = SemTree::builder()
            .dimensions(4)
            .bucket_size(8)
            .partitions(partitions)
            .register_standard(Arc::new(wordnet::mini_taxonomy()))
            .register_vocabulary("Fun", Arc::clone(corpus.domain.fun_taxonomy()));
        for (prefix, tax) in corpus.domain.parameter_taxonomies() {
            b = b.register_vocabulary(prefix.clone(), Arc::clone(tax));
        }
        b.add_store(&corpus.store);
        b.build().unwrap()
    };
    let single = build(1);
    let multi = build(5);

    for (qid, _) in corpus.store.iter().take(25) {
        let q = single.triple(qid).unwrap().clone();
        let h1: Vec<f64> = single
            .knn(&q, 5)
            .iter()
            .map(|h| h.embedded_distance)
            .collect();
        let h5: Vec<f64> = multi
            .knn(&q, 5)
            .iter()
            .map(|h| h.embedded_distance)
            .collect();
        assert_eq!(h1.len(), h5.len());
        for (a, b) in h1.iter().zip(&h5) {
            assert!((a - b).abs() < 1e-9, "query {qid}: {h1:?} vs {h5:?}");
        }
    }
    single.shutdown();
    multi.shutdown();
}

/// Refined queries never rank worse than raw queries on the true distance.
#[test]
fn refinement_improves_or_preserves_semantic_ranking() {
    let corpus = CorpusGenerator::new(GenConfig::small().with_seed(17)).generate();
    let mut builder = SemTree::builder()
        .dimensions(4)
        .register_standard(Arc::new(wordnet::mini_taxonomy()))
        .register_vocabulary("Fun", Arc::clone(corpus.domain.fun_taxonomy()));
    for (prefix, tax) in corpus.domain.parameter_taxonomies() {
        builder = builder.register_vocabulary(prefix.clone(), Arc::clone(tax));
    }
    builder.add_store(&corpus.store);
    let index = builder.build().unwrap();
    let dist = index.distance().clone();

    for (qid, _) in corpus.store.iter().take(10) {
        let q = index.triple(qid).unwrap().clone();
        let raw = index.knn(&q, 5);
        let refined = index.knn_with(&q, 5, QueryOptions::refined());
        let sum_raw: f64 = raw.iter().map(|h| dist.distance(&q, &h.triple)).sum();
        let sum_ref: f64 = refined
            .iter()
            .map(|h| h.semantic_distance.expect("refined"))
            .sum();
        assert!(
            sum_ref <= sum_raw + 1e-9,
            "refined sum {sum_ref} worse than raw {sum_raw}"
        );
    }
    index.shutdown();
}

/// The whole store round-trips through the turtle serializer and produces
/// an identical index input.
#[test]
fn corpus_serialization_roundtrip() {
    let corpus = CorpusGenerator::new(GenConfig::small().with_seed(31)).generate();
    let rendered = turtle::write_store(&corpus.store);
    let mut reparsed = TripleStore::new();
    turtle::parse_into(&mut reparsed, &rendered).unwrap();
    assert_eq!(reparsed.len(), corpus.store.len());
    assert_eq!(
        reparsed.stats().occurrences,
        corpus.store.stats().occurrences
    );
    for (id, t) in corpus.store.iter() {
        assert_eq!(reparsed.get(id), Some(t));
    }
}

/// The paper's full scale: "several hundreds of documents from which about
/// 100,000 triples were extracted". Slow (FastMap over the whole corpus),
/// so ignored by default:
/// `cargo test -p semtree-integration --test end_to_end -- --ignored`
#[test]
#[ignore = "paper-scale run (~minutes); run explicitly with --ignored"]
fn paper_scale_pipeline() {
    let corpus = CorpusGenerator::new(GenConfig::paper_scale()).generate();
    let stats = corpus.store.stats();
    assert!(stats.occurrences >= 80_000, "paper-scale volume: {stats:?}");
    assert!(stats.documents >= 300);

    let mut builder = SemTree::builder()
        .dimensions(6)
        .bucket_size(32)
        .partitions(9)
        .register_standard(Arc::new(wordnet::mini_taxonomy()))
        .register_vocabulary("Fun", Arc::clone(corpus.domain.fun_taxonomy()));
    for (prefix, tax) in corpus.domain.parameter_taxonomies() {
        builder = builder.register_vocabulary(prefix.clone(), Arc::clone(tax));
    }
    builder.add_store(&corpus.store);
    let index = builder.build().unwrap();
    assert_eq!(index.len(), stats.triples);
    assert_eq!(index.tree_stats().expect("stats").partition_count(), 9);

    // Effectiveness spot-check at K = 10 over 50 queries.
    let oracle = GroundTruthOracle::new(&corpus);
    let mut hits_with_truth = 0usize;
    let mut recall_sum = 0.0;
    let mut cases = 0usize;
    for (id, _) in corpus.store.iter() {
        if cases >= 50 {
            break;
        }
        let Some(target) = oracle.target_triple(id) else {
            continue;
        };
        let truth = oracle.inconsistent_with(id);
        if truth.is_empty() {
            continue;
        }
        cases += 1;
        let retrieved: Vec<_> = index.knn(&target, 10).into_iter().map(|h| h.id).collect();
        let found = truth.iter().filter(|t| retrieved.contains(t)).count();
        if found > 0 {
            hits_with_truth += 1;
        }
        recall_sum += found as f64 / truth.len() as f64;
    }
    assert_eq!(cases, 50);
    assert!(
        hits_with_truth >= 25,
        "at least half the queries surface a true inconsistency ({hits_with_truth}/50)"
    );
    assert!(
        recall_sum / 50.0 > 0.3,
        "mean recall@10 = {}",
        recall_sum / 50.0
    );
    index.shutdown();
}
