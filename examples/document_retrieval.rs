//! Document retrieval: the paper's headline use case — retrieve whole
//! documents by semantic similarity of their triples to a query, written
//! either as triples or as plain requirement prose.
//!
//! ```sh
//! cargo run -p semtree-examples --bin document_retrieval --release
//! ```

use semtree_core::DocumentRetriever;
use semtree_examples::{builder_for_corpus, stage_corpus};
use semtree_reqgen::{CorpusGenerator, GenConfig};

fn main() {
    // A corpus of requirement documents.
    let corpus = CorpusGenerator::new(GenConfig::small().with_seed(77)).generate();
    let mut builder = builder_for_corpus(&corpus).dimensions(6).bucket_size(16);
    stage_corpus(&mut builder, &corpus);
    let index = builder.build().expect("non-empty corpus");
    println!(
        "indexed {} triples from {} documents\n",
        index.len(),
        corpus.store.stats().documents
    );

    let retriever = DocumentRetriever::new(&index).with_k(10);

    // 1. Query by example document: take an existing requirement's triples
    //    and ask which documents talk about the same things.
    let sample_req = &corpus.requirements[3];
    let query_triples: Vec<_> = sample_req
        .triples
        .iter()
        .map(|&tid| corpus.store.get(tid).expect("live id").clone())
        .collect();
    println!(
        "query-by-example: requirement {} ({} triples)",
        sample_req.id,
        query_triples.len()
    );
    let hits = retriever.query_triples(&query_triples);
    for hit in hits.iter().take(5) {
        println!(
            "  {:<8} score {:.3}  ({} matched triples)",
            hit.name,
            hit.score,
            hit.matched.len()
        );
    }
    // The requirement's own document must rank first: it contains every
    // query triple verbatim.
    let own_doc = corpus.store.document(sample_req.doc).expect("live id");
    assert_eq!(*hits[0].name, own_doc.name, "self-retrieval sanity");
    assert!(hits[0].score > 0.9);

    // 2. Free-text query: the NLP pipeline turns prose into query triples.
    let prose = "The OBSW001 shall accept the start-up command.";
    println!("\ntext query: {prose}");
    let hits = retriever.query_text(prose);
    for hit in hits.iter().take(5) {
        println!("  {:<8} score {:.3}", hit.name, hit.score);
    }
    assert!(!hits.is_empty());

    index.shutdown();
    println!("\nok");
}
