//! Fluent construction of a [`crate::SemTree`].

use std::sync::Arc;

use semtree_distance::{TripleDistance, VocabularyRegistry, Weights};
use semtree_model::{Triple, TripleStore};
use semtree_nlp::SvoExtractor;
use semtree_vocab::Taxonomy;

use crate::error::BuildError;
use crate::index::SemTree;

/// Builder over vocabularies, data sources and tuning knobs.
///
/// Data can be added as parsed [`Triple`]s, as whole [`TripleStore`]s, or
/// as raw document text (run through the `semtree-nlp` extractor, the
/// paper's "NLP facilities").
pub struct SemTreeBuilder {
    pub(crate) dimensions: usize,
    pub(crate) bucket_size: usize,
    pub(crate) partitions: usize,
    pub(crate) seed: u64,
    pub(crate) weights: Weights,
    pub(crate) registry: VocabularyRegistry,
    pub(crate) store: TripleStore,
    extractor: SvoExtractor,
}

impl Default for SemTreeBuilder {
    fn default() -> Self {
        SemTreeBuilder {
            dimensions: 8,
            bucket_size: 32,
            partitions: 1,
            seed: 0x5E47EE,
            weights: Weights::default(),
            registry: VocabularyRegistry::new(),
            store: TripleStore::new(),
            extractor: SvoExtractor::requirements(),
        }
    }
}

impl SemTreeBuilder {
    /// A builder with defaults (8 FastMap dimensions, bucket 32, single
    /// partition, uniform weights, zero-cost interconnect).
    #[must_use]
    pub fn new() -> Self {
        SemTreeBuilder::default()
    }

    /// FastMap target dimensionality `k` (≥ 1).
    ///
    /// # Panics
    /// Panics if `dims == 0`.
    #[must_use]
    pub fn dimensions(mut self, dims: usize) -> Self {
        assert!(dims > 0, "dimensionality must be at least 1");
        self.dimensions = dims;
        self
    }

    /// KD-tree leaf bucket size `Bs` (≥ 1).
    ///
    /// # Panics
    /// Panics if `bucket_size == 0`.
    #[must_use]
    pub fn bucket_size(mut self, bucket_size: usize) -> Self {
        assert!(bucket_size > 0, "bucket size must be at least 1");
        self.bucket_size = bucket_size;
        self
    }

    /// Number of partitions (1, or ≥ 3 — a routing root needs two data
    /// partitions).
    #[must_use]
    pub fn partitions(mut self, partitions: usize) -> Self {
        assert!(
            partitions == 1 || partitions >= 3,
            "partitions must be 1 or ≥ 3"
        );
        self.partitions = partitions;
        self
    }

    /// Seed for FastMap pivot selection.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Eq. 1 weights `(α, β, γ)`.
    #[must_use]
    pub fn weights(mut self, weights: Weights) -> Self {
        self.weights = weights;
        self
    }

    /// Register a taxonomy under a vocabulary prefix.
    #[must_use]
    pub fn register_vocabulary(mut self, prefix: impl Into<String>, tax: Arc<Taxonomy>) -> Self {
        self.registry.register(prefix, tax);
        self
    }

    /// Register the standard (unprefixed) taxonomy.
    #[must_use]
    pub fn register_standard(mut self, tax: Arc<Taxonomy>) -> Self {
        self.registry.register_standard(tax);
        self
    }

    /// Add pre-extracted triples under a named document.
    pub fn add_triples(
        &mut self,
        document: impl Into<String>,
        triples: impl IntoIterator<Item = Triple>,
    ) -> &mut Self {
        let doc = self.store.create_document(document);
        self.store.insert_all(doc, triples);
        self
    }

    /// Add a document as raw text; triples are extracted with the
    /// requirements NLP pipeline. Returns how many triples were extracted.
    pub fn add_document_text(&mut self, document: impl Into<String>, text: &str) -> usize {
        let doc = self.store.create_document(document);
        let store = &mut self.store;
        self.extractor.extract_each(text, |triple| {
            store.insert_ref(doc, triple);
        })
    }

    /// Absorb an existing store (documents and triples are re-inserted,
    /// preserving names).
    pub fn add_store(&mut self, store: &TripleStore) -> &mut Self {
        for doc in store.documents() {
            let new_doc = self.store.create_document(doc.name.clone());
            for &tid in &doc.triples {
                let t = store.get(tid).expect("document references interned triple");
                self.store.insert_ref(new_doc, t.view());
            }
        }
        self
    }

    /// Number of distinct triples staged so far.
    #[must_use]
    pub fn staged_triples(&self) -> usize {
        self.store.len()
    }

    /// Build the index: compute the Eq. 1 distance, run FastMap, and load
    /// the distributed KD-tree.
    pub fn build(mut self) -> Result<SemTree, BuildError> {
        if self.store.is_empty() {
            return Err(BuildError::EmptyCorpus);
        }
        let registry = Arc::new(std::mem::take(&mut self.registry));
        let distance = TripleDistance::new(self.weights, registry);
        SemTree::assemble(self, distance)
    }

    /// Build with a fully custom [`TripleDistance`] (overrides the weights
    /// and registry previously configured on the builder).
    pub fn build_with_distance(self, distance: TripleDistance) -> Result<SemTree, BuildError> {
        if self.store.is_empty() {
            return Err(BuildError::EmptyCorpus);
        }
        SemTree::assemble(self, distance)
    }
}

#[cfg(test)]
mod tests {
    use semtree_model::Term;

    use super::*;

    fn triple(s: &str, p: &str, o: &str) -> Triple {
        Triple::new(
            Term::literal(s),
            Term::concept_in("Fun", p),
            Term::concept_in("CmdType", o),
        )
    }

    #[test]
    fn empty_corpus_is_rejected() {
        match SemTreeBuilder::new().build() {
            Err(e) => assert_eq!(e, BuildError::EmptyCorpus),
            Ok(_) => panic!("empty corpus must be rejected"),
        }
    }

    #[test]
    fn add_triples_stages() {
        let mut b = SemTreeBuilder::new();
        b.add_triples("D1", vec![triple("A", "p", "x"), triple("B", "q", "y")]);
        assert_eq!(b.staged_triples(), 2);
    }

    #[test]
    fn add_document_text_extracts() {
        let mut b = SemTreeBuilder::new();
        let n = b.add_document_text(
            "REQ-1",
            "OBSW001 shall accept the start-up command. Noise sentence here.",
        );
        assert_eq!(n, 1);
        assert_eq!(b.staged_triples(), 1);
    }

    #[test]
    fn add_store_copies_documents() {
        let mut src = TripleStore::new();
        let d = src.create_document("D1");
        src.insert(d, triple("A", "p", "x"));
        let mut b = SemTreeBuilder::new();
        b.add_store(&src);
        assert_eq!(b.staged_triples(), 1);
        assert!(b.store.document_by_name("D1").is_some());
    }

    #[test]
    #[should_panic(expected = "1 or ≥ 3")]
    fn two_partitions_rejected() {
        let _ = SemTreeBuilder::new().partitions(2);
    }
}
