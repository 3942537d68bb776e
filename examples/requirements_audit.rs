//! Requirements audit: generate a synthetic requirements corpus, index it,
//! hunt for inconsistencies, and score the result against ground truth —
//! the paper's case study end to end.
//!
//! ```sh
//! cargo run -p semtree-examples --bin requirements_audit --release
//! ```

use semtree_core::InconsistencyFinder;
use semtree_eval::{precision, recall};
use semtree_examples::{builder_for_corpus, stage_corpus};
use semtree_model::TripleId;
use semtree_reqgen::{CorpusGenerator, GenConfig, GroundTruthOracle};

fn main() {
    // 1. A corpus of requirement documents with seeded contradictions.
    let corpus = CorpusGenerator::new(GenConfig::small().with_seed(2026)).generate();
    let stats = corpus.store.stats();
    println!(
        "corpus: {} documents, {} distinct triples ({} occurrences), {} seeded inconsistencies",
        stats.documents,
        stats.triples,
        stats.occurrences,
        corpus.seeded_inconsistencies.len()
    );

    // 2. Index it.
    let mut builder = builder_for_corpus(&corpus).dimensions(6).bucket_size(16);
    stage_corpus(&mut builder, &corpus);
    let index = builder.build().expect("non-empty corpus");
    println!(
        "indexed {} triples in FastMap R^{}",
        index.len(),
        index.dimensions()
    );

    // 3. Sweep for confirmed inconsistencies via the index.
    let finder = InconsistencyFinder::new(&index, corpus.domain.antinomies().clone());
    let found = finder.sweep(10);
    println!("sweep found {} confirmed inconsistent pairs", found.len());

    // 4. Score against the oracle (the formal rule applied exhaustively).
    let oracle = GroundTruthOracle::new(&corpus);
    // Translate index ids to corpus store ids: both stores intern the same
    // distinct triples in the same insertion order, so ids coincide; assert
    // that instead of assuming it.
    for (id, triple) in corpus.store.iter().take(10) {
        assert_eq!(
            index.triple(id).map(ToString::to_string),
            Some(triple.to_string())
        );
    }
    let truth = oracle.all_pairs();
    let found_pairs: Vec<(TripleId, TripleId)> = found;
    let p = precision(&found_pairs, &truth);
    let r = recall(&found_pairs, &truth);
    println!(
        "vs ground truth: {} true pairs | precision {p:.3}, recall {r:.3}",
        truth.len()
    );
    assert!(p > 0.99, "the formal post-filter makes precision ~1");
    assert!(r > 0.8, "k=10 neighbourhood recovers most pairs");

    // 5. Show a few findings as a human report.
    println!("\nsample findings:");
    for &(a, b) in found_pairs.iter().take(5) {
        let ta = index.triple(a).unwrap();
        let tb = index.triple(b).unwrap();
        let docs_a = corpus.store.documents_of(a).unwrap();
        let docs_b = corpus.store.documents_of(b).unwrap();
        println!(
            "  {} (in {}) contradicts {} (in {})",
            ta,
            corpus.store.document(docs_a[0]).unwrap().name,
            tb,
            corpus.store.document(docs_b[0]).unwrap().name,
        );
    }

    index.shutdown();
    println!("\nok");
}
