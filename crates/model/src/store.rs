//! In-memory interning triple store with pattern matching.

use std::collections::HashMap;
use std::hash::{BuildHasher, RandomState};

use crate::document::{Document, DocumentId};
use crate::error::ModelError;
use crate::prefix::PrefixTable;
use crate::triple::{Triple, TripleId, TriplePattern};

/// Aggregate counts over a [`TripleStore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Distinct triples interned.
    pub triples: usize,
    /// Documents created.
    pub documents: usize,
    /// Total (document, triple) occurrences — duplicates across documents
    /// count once per document.
    pub occurrences: usize,
}

/// Where a hash chain ends in [`TripleStore`]'s `next`.
const CHAIN_END: u32 = u32::MAX;

/// An in-memory triple store.
///
/// Triples are *interned*: inserting the same `(s, p, o)` twice yields the
/// same [`TripleId`], while each insertion still records an occurrence in
/// its document. This mirrors the paper's setting where "a requirement
/// contains more than one sentence and a sentence can include several
/// triples" and identical assertions recur across requirements.
#[derive(Debug, Clone, Default)]
pub struct TripleStore {
    triples: Vec<Triple>,
    /// The hash function `heads` is keyed under.
    hasher: RandomState,
    /// A triple's hash → the newest id with that hash, the head of its
    /// chain. The triple itself lives only in `triples`.
    heads: HashMap<u64, TripleId>,
    /// `next[id]`: the next older id whose triple has the same hash, or
    /// `CHAIN_END`.
    next: Vec<u32>,
    documents: Vec<Document>,
    /// For each triple, the documents it occurs in (sorted, deduplicated).
    containing: Vec<Vec<DocumentId>>,
    prefixes: PrefixTable,
    occurrences: usize,
}

impl TripleStore {
    /// An empty store.
    #[must_use]
    pub fn new() -> Self {
        TripleStore::default()
    }

    /// The prefix table attached to this store.
    #[must_use]
    pub fn prefixes(&self) -> &PrefixTable {
        &self.prefixes
    }

    /// Mutable access to the prefix table.
    pub fn prefixes_mut(&mut self) -> &mut PrefixTable {
        &mut self.prefixes
    }

    /// Create a new, empty document.
    pub fn create_document(&mut self, name: impl Into<String>) -> DocumentId {
        let id = DocumentId(u32::try_from(self.documents.len()).expect("document count fits u32"));
        self.documents.push(Document::new(id, name));
        id
    }

    /// Insert a triple as part of `doc`, interning it.
    ///
    /// # Panics
    /// Panics if `doc` was not created by this store.
    pub fn insert(&mut self, doc: DocumentId, triple: Triple) -> TripleId {
        assert!(
            doc.index() < self.documents.len(),
            "document {doc} does not belong to this store"
        );
        let id = self.intern(self.hasher.hash_one(&triple), triple);
        self.documents[doc.index()].triples.push(id);
        let docs = &mut self.containing[id.index()];
        if let Err(pos) = docs.binary_search(&doc) {
            docs.insert(pos, doc);
        }
        self.occurrences += 1;
        id
    }

    /// The id of `triple`, whose hash is `hash`, interning it first if it
    /// is new. A new id becomes the head of its hash's chain.
    fn intern(&mut self, hash: u64, triple: Triple) -> TripleId {
        if let Some(id) = self.find(hash, &triple) {
            return id;
        }
        let id = u32::try_from(self.triples.len())
            .ok()
            .filter(|&id| id != CHAIN_END)
            .expect("triple count fits u32");
        let next = self
            .heads
            .insert(hash, TripleId(id))
            .map_or(CHAIN_END, |older| older.0);
        self.next.push(next);
        self.triples.push(triple);
        self.containing.push(Vec::new());
        TripleId(id)
    }

    /// Walk `hash`'s chain for an id whose triple is `triple`.
    fn find(&self, hash: u64, triple: &Triple) -> Option<TripleId> {
        let mut id = self.heads.get(&hash)?.0;
        loop {
            if self.triples[id as usize] == *triple {
                return Some(TripleId(id));
            }
            id = self.next[id as usize];
            if id == CHAIN_END {
                return None;
            }
        }
    }

    /// Insert every triple of an iterator into `doc`, returning the ids.
    pub fn insert_all(
        &mut self,
        doc: DocumentId,
        triples: impl IntoIterator<Item = Triple>,
    ) -> Vec<TripleId> {
        triples.into_iter().map(|t| self.insert(doc, t)).collect()
    }

    /// Look a triple up by id.
    #[must_use]
    pub fn get(&self, id: TripleId) -> Option<&Triple> {
        self.triples.get(id.index())
    }

    /// Every distinct triple, indexed by [`TripleId`].
    #[must_use]
    pub fn triples(&self) -> &[Triple] {
        &self.triples
    }

    /// The id of an already-interned triple, if present.
    #[must_use]
    pub fn id_of(&self, triple: &Triple) -> Option<TripleId> {
        self.find(self.hasher.hash_one(triple), triple)
    }

    /// Look a document up by id.
    #[must_use]
    pub fn document(&self, id: DocumentId) -> Option<&Document> {
        self.documents.get(id.index())
    }

    /// Find a document by its external name (linear scan; names are few).
    #[must_use]
    pub fn document_by_name(&self, name: &str) -> Option<&Document> {
        self.documents.iter().find(|d| d.name == name)
    }

    /// The documents a triple occurs in.
    pub fn documents_of(&self, id: TripleId) -> Result<&[DocumentId], ModelError> {
        self.containing
            .get(id.index())
            .map(Vec::as_slice)
            .ok_or(ModelError::UnknownTriple(id.0))
    }

    /// Iterate all distinct triples with their ids.
    pub fn iter(&self) -> impl Iterator<Item = (TripleId, &Triple)> {
        self.triples
            .iter()
            .enumerate()
            .map(|(i, t)| (TripleId(i as u32), t))
    }

    /// Iterate all documents.
    pub fn documents(&self) -> impl Iterator<Item = &Document> {
        self.documents.iter()
    }

    /// Iterate the distinct triples matching `pattern`.
    pub fn matching<'a>(
        &'a self,
        pattern: &'a TriplePattern,
    ) -> impl Iterator<Item = (TripleId, &'a Triple)> + 'a {
        self.iter().filter(move |(_, t)| pattern.matches(t))
    }

    /// Number of distinct triples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// Whether the store holds no triples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }

    /// Aggregate statistics.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            triples: self.triples.len(),
            documents: self.documents.len(),
            occurrences: self.occurrences,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Term;

    fn t(s: &str, p: &str, o: &str) -> Triple {
        Triple::new(
            Term::literal(s),
            Term::concept_in("Fun", p),
            Term::concept_in("CmdType", o),
        )
    }

    #[test]
    fn insert_interns_duplicates() {
        let mut store = TripleStore::new();
        let d0 = store.create_document("REQ-1");
        let d1 = store.create_document("REQ-2");
        let a = store.insert(d0, t("OBSW001", "accept_cmd", "start-up"));
        let b = store.insert(d1, t("OBSW001", "accept_cmd", "start-up"));
        assert_eq!(a, b);
        assert_eq!(store.len(), 1);
        assert_eq!(store.stats().occurrences, 2);
        assert_eq!(store.documents_of(a).unwrap(), &[d0, d1]);
    }

    #[test]
    fn duplicate_within_same_document_counts_once_per_doc() {
        let mut store = TripleStore::new();
        let d = store.create_document("REQ-1");
        let a = store.insert(d, t("A", "p", "x"));
        store.insert(d, t("A", "p", "x"));
        assert_eq!(store.documents_of(a).unwrap(), &[d]);
        // ...but the document records both occurrences in order.
        assert_eq!(store.document(d).unwrap().len(), 2);
    }

    #[test]
    fn get_and_id_of_roundtrip() {
        let mut store = TripleStore::new();
        let d = store.create_document("REQ-1");
        let triple = t("A", "p", "x");
        let id = store.insert(d, triple.clone());
        assert_eq!(store.get(id), Some(&triple));
        assert_eq!(store.id_of(&triple), Some(id));
        assert_eq!(store.id_of(&t("B", "p", "x")), None);
        assert_eq!(store.get(TripleId(99)), None);
    }

    #[test]
    fn pattern_matching_filters() {
        let mut store = TripleStore::new();
        let d = store.create_document("REQ-1");
        store.insert(d, t("A", "accept_cmd", "x"));
        store.insert(d, t("A", "block_cmd", "x"));
        store.insert(d, t("B", "accept_cmd", "y"));

        let p = TriplePattern::any().with_subject(Term::literal("A"));
        assert_eq!(store.matching(&p).count(), 2);

        let p = p.with_predicate(Term::concept_in("Fun", "block_cmd"));
        assert_eq!(store.matching(&p).count(), 1);
    }

    #[test]
    fn document_lookup_by_name() {
        let mut store = TripleStore::new();
        store.create_document("REQ-1");
        let d2 = store.create_document("REQ-2");
        assert_eq!(store.document_by_name("REQ-2").unwrap().id, d2);
        assert!(store.document_by_name("REQ-9").is_none());
    }

    #[test]
    fn insert_all_preserves_order() {
        let mut store = TripleStore::new();
        let d = store.create_document("REQ-1");
        let ids = store.insert_all(d, vec![t("A", "p", "x"), t("B", "q", "y")]);
        assert_eq!(ids.len(), 2);
        assert_eq!(store.document(d).unwrap().triples, ids);
    }

    #[test]
    #[should_panic(expected = "does not belong")]
    fn insert_into_foreign_document_panics() {
        let mut store = TripleStore::new();
        store.insert(DocumentId(0), t("A", "p", "x"));
    }

    #[test]
    fn documents_of_unknown_triple_errors() {
        let store = TripleStore::new();
        assert!(matches!(
            store.documents_of(TripleId(0)),
            Err(ModelError::UnknownTriple(0))
        ));
    }

    #[test]
    fn triples_sharing_one_hash_still_intern_apart() {
        // Every triple on one chain: each must find its own id, and only it.
        let mut store = TripleStore::new();
        let triples: Vec<Triple> = (0..1000).map(|i| t(&format!("A{i}"), "p", "x")).collect();
        for (i, triple) in triples.iter().enumerate() {
            assert_eq!(store.intern(7, triple.clone()), TripleId(i as u32));
        }
        assert_eq!(store.len(), 1000);
        for (i, triple) in triples.iter().enumerate() {
            assert_eq!(store.intern(7, triple.clone()), TripleId(i as u32));
            assert_eq!(store.find(7, triple), Some(TripleId(i as u32)));
        }
        assert_eq!(store.len(), 1000, "a duplicate interned anew");
        assert_eq!(store.find(7, &t("B", "p", "x")), None);
        assert_eq!(store.find(8, &triples[0]), None);
    }

    #[test]
    fn iter_yields_in_id_order() {
        let mut store = TripleStore::new();
        let d = store.create_document("REQ-1");
        store.insert(d, t("A", "p", "x"));
        store.insert(d, t("B", "q", "y"));
        let ids: Vec<u32> = store.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![0, 1]);
    }
}
