//! `doc_retrieval`: the paper's actual use case. A requirements corpus
//! is fed as prose through the NLP extractor, the Eq. 1 distance and
//! FastMap into a single-partition index; the op ranks documents for a
//! query triple. `nlp`, `vocab`, `distance`, `fastmap` and `core` do
//! nearly all the work; `net`, `reactor` and `wal` none.

use std::time::{Duration, Instant};

use semtree_bench::{triple_distance, BUCKET, DIMS};
use semtree_core::{DocumentHit, DocumentRetriever, SemTree};

use super::{Scratch, Steady, Tally, K};
use crate::error::{layer, Result};
use crate::estimators::depth1_chunk;
use crate::inputs::{DocInputs, GEOMETRY_SEED};
use crate::trace::{SpanId, Tracer};

/// Documents per NLP set-up chunk.
const NLP_CHUNK: usize = 25;

/// The built index.
pub struct DocIndex {
    index: SemTree,
}

/// Run the whole ingestion pipeline over `inputs`, timing NLP chunks
/// and the build.
///
/// # Errors
/// Fails when the corpus yields no triples.
pub fn build_index(
    inputs: &DocInputs,
    tracer: &mut Tracer,
    parent: SpanId,
) -> Result<(SemTree, Vec<(&'static str, f64)>)> {
    let mut chunks = Vec::new();
    let mut builder = SemTree::builder()
        .dimensions(DIMS)
        .bucket_size(BUCKET)
        .seed(GEOMETRY_SEED);
    for (c, docs) in inputs.documents.chunks(NLP_CHUNK).enumerate() {
        let span = tracer.open("setup.nlp", parent, c as u64);
        let start = Instant::now();
        for (name, prose) in docs {
            builder.add_document_text(name.clone(), prose);
        }
        chunks.push(("nlp", start.elapsed().as_secs_f64()));
        tracer.close(span);
    }
    let distance = triple_distance(&inputs.corpus.domain);
    let (built, secs) = tracer.timed("setup.build", parent, || {
        builder.build_with_distance(distance)
    });
    chunks.push(("build", secs));
    Ok((built.map_err(layer("index build"))?, chunks))
}

/// Cheap per-op check of a ranking: something matched, best first,
/// every ranked document backed by a matched triple.
#[must_use]
pub fn ranking_well_formed(hits: &[DocumentHit]) -> bool {
    !hits.is_empty()
        && hits.windows(2).all(|w| w[0].score >= w[1].score)
        && hits.iter().all(|h| !h.matched.is_empty())
}

impl Steady for DocIndex {
    type Inputs = DocInputs;

    fn set_up(
        inputs: &DocInputs,
        tracer: &mut Tracer,
        parent: SpanId,
    ) -> Result<(Self, Vec<(&'static str, f64)>)> {
        let (index, chunks) = build_index(inputs, tracer, parent)?;
        Ok((DocIndex { index }, chunks))
    }

    fn resident_points(&self) -> usize {
        self.index.len()
    }

    fn cycle_ops(inputs: &DocInputs) -> usize {
        inputs.queries.len()
    }

    fn chunk(
        &mut self,
        inputs: &DocInputs,
        first_request: u64,
        ops: usize,
        scratch: &mut Scratch,
        tracer: &mut Tracer,
    ) -> Result<Duration> {
        let Scratch {
            latencies_ns,
            tally,
        } = scratch;
        let retriever = DocumentRetriever::new(&self.index).with_k(K);
        depth1_chunk(ops, latencies_ns, |i| {
            let request = first_request + i as u64;
            let query = &inputs.queries[(request % inputs.queries.len() as u64) as usize];
            let op = tracer.open("op", SpanId::ROOT, request);
            let call = tracer.open("core.query_triple", op, request);
            let hits = retriever.query_triple(query);
            tracer.close(call);
            tally.record(ranking_well_formed(&hits));
            tracer.close(op);
            Ok(())
        })
    }

    fn check(&mut self, inputs: &DocInputs) -> Result<Tally> {
        let mut tally = Tally::default();
        // The NLP path must recover exactly the triples the generator
        // asserted: same distinct count, every sampled triple interned.
        let same_triples = self.index.len() == inputs.corpus.store.len();
        if !same_triples {
            eprintln!(
                "check failed: NLP recovered {} distinct triples, the corpus asserts {}",
                self.index.len(),
                inputs.corpus.store.len()
            );
        }
        tally.record(same_triples);
        let retriever = DocumentRetriever::new(&self.index).with_k(K);
        for triple in &inputs.check {
            // Own-document-in-hits: querying with a triple a document
            // asserts must rank one of the documents asserting it —
            // unless K other triples share its exact embedded point
            // (FastMap collapses near-synonymous triples), in which
            // case the whole ring must sit at distance 0.
            let own: Vec<&str> = inputs
                .corpus
                .store
                .id_of(triple)
                .and_then(|id| inputs.corpus.store.documents_of(id).ok())
                .into_iter()
                .flatten()
                .filter_map(|&d| inputs.corpus.store.document(d))
                .map(|d| d.name.as_str())
                .collect();
            let hits = retriever.query_triple(triple);
            let ring_is_all_ties = hits
                .iter()
                .flat_map(|h| &h.matched)
                .all(|&(_, d)| d <= 1e-12);
            let ok = !own.is_empty()
                && ranking_well_formed(&hits)
                && (hits.iter().any(|h| own.contains(&h.name.as_str())) || ring_is_all_ties);
            if !ok {
                eprintln!("check failed: {triple} does not rank its own documents {own:?}");
            }
            tally.record(ok);
        }
        Ok(tally)
    }

    fn tear_down(self) -> Result<()> {
        self.index.shutdown();
        Ok(())
    }
}
