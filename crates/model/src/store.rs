//! In-memory interning triple store with pattern matching.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher, RandomState};

use crate::document::{Document, DocumentId};
use crate::error::ModelError;
use crate::prefix::PrefixTable;
use crate::term::{Term, TermRef};
use crate::triple::{Triple, TripleId, TriplePattern, TripleRef};

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

/// Where a hash chain ends in [`TripleStore`]'s `term_next`.
const CHAIN_END: u32 = u32::MAX;

/// The hasher of `term_heads`, whose keys are hashes already: a key
/// hashes to itself. Only `write_u64` is called; `write` folds bytes in
/// to be a `Hasher` at all.
#[derive(Debug, Default)]
struct PreHashed(u64);

impl Hasher for PreHashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// The dense id of the entry to be pushed onto a table of `len` entries.
fn next_id(len: usize) -> u32 {
    u32::try_from(len)
        .ok()
        .filter(|&id| id != CHAIN_END)
        .expect("term and triple counts fit u32")
}

/// An in-memory triple store.
///
/// Triples are *interned*: inserting the same `(s, p, o)` twice yields the
/// same [`TripleId`], while each insertion still records an occurrence in
/// its document. This mirrors the paper's setting where "a requirement
/// contains more than one sentence and a sentence can include several
/// triples" and identical assertions recur across requirements.
///
/// Terms are interned too, each distinct [`Term`] once under a dense term
/// id, and a triple is keyed by its three term ids. Every stored triple
/// naming a term shares that term's strings, and inserting a
/// [`TripleRef`] builds a term only the first time the store sees it.
#[derive(Debug, Clone, Default)]
pub struct TripleStore {
    /// Every distinct term, by term id.
    terms: Vec<Term>,
    /// Hashes a term for `term_heads`.
    hasher: RandomState,
    /// A term's hash → the newest term id with that hash, the head of its
    /// chain. The term itself lives only in `terms`.
    term_heads: HashMap<u64, u32, BuildHasherDefault<PreHashed>>,
    /// `term_next[id]`: the next older term id with the same hash, or
    /// `CHAIN_END`.
    term_next: Vec<u32>,
    /// Every distinct triple, by id, built from `terms`' strings.
    triples: Vec<Triple>,
    /// Every distinct triple's subject, predicate and object term ids, by
    /// id.
    keys: Vec<[u32; 3]>,
    /// A triple's subject, predicate and object term ids → its id.
    ids: HashMap<[u32; 3], TripleId>,
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
        self.insert_ref(doc, triple.view())
    }

    /// [`Self::insert`] for a borrowed triple: only a term the store has
    /// not seen yet is built.
    ///
    /// # Panics
    /// Panics if `doc` was not created by this store.
    pub fn insert_ref(&mut self, doc: DocumentId, triple: TripleRef<'_>) -> TripleId {
        assert!(
            doc.index() < self.documents.len(),
            "document {doc} does not belong to this store"
        );
        let key = [triple.subject, triple.predicate, triple.object]
            .map(|term| self.intern_term(self.hasher.hash_one(term), term));
        let next = TripleId(next_id(self.triples.len()));
        let id = match self.ids.entry(key) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let id = *e.insert(next);
                let [s, p, o] = key.map(|t| self.terms[t as usize].clone());
                self.triples.push(Triple::new(s, p, o));
                self.keys.push(key);
                self.containing.push(Vec::new());
                id
            }
        };
        self.documents[doc.index()].triples.push(id);
        let docs = &mut self.containing[id.index()];
        if let Err(pos) = docs.binary_search(&doc) {
            docs.insert(pos, doc);
        }
        self.occurrences += 1;
        id
    }

    /// The id of `term`, whose hash is `hash`, interning it first if it
    /// is new. A new id becomes the head of its hash's chain.
    fn intern_term(&mut self, hash: u64, term: TermRef<'_>) -> u32 {
        if let Some(id) = self.find_term(hash, term) {
            return id;
        }
        let id = next_id(self.terms.len());
        let next = self.term_heads.insert(hash, id).unwrap_or(CHAIN_END);
        self.term_next.push(next);
        self.terms.push(term.to_term());
        id
    }

    /// Walk `hash`'s chain for the id of `term`.
    fn find_term(&self, hash: u64, term: TermRef<'_>) -> Option<u32> {
        let mut id = *self.term_heads.get(&hash)?;
        loop {
            if self.terms[id as usize].view() == term {
                return Some(id);
            }
            id = self.term_next[id as usize];
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

    /// Every distinct term, by term id.
    #[must_use]
    pub fn terms(&self) -> &[Term] {
        &self.terms
    }

    /// Every distinct triple's subject, predicate and object term ids
    /// (indexes into [`Self::terms`]), indexed by [`TripleId`].
    #[must_use]
    pub fn term_ids(&self) -> &[[u32; 3]] {
        &self.keys
    }

    /// The id of an already-interned triple, if present.
    #[must_use]
    pub fn id_of(&self, triple: &Triple) -> Option<TripleId> {
        let mut key = [0; 3];
        for (id, term) in key
            .iter_mut()
            .zip([&triple.subject, &triple.predicate, &triple.object])
        {
            let term = term.view();
            *id = self.find_term(self.hasher.hash_one(term), term)?;
        }
        self.ids.get(&key).copied()
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

    /// Iterate the distinct triples matching `pattern`. Each bound
    /// position is resolved to its term id once, so a term this store
    /// never interned matches nothing, and the scan compares term ids,
    /// no strings.
    pub fn matching<'a>(
        &'a self,
        pattern: &TriplePattern,
    ) -> impl Iterator<Item = (TripleId, &'a Triple)> + 'a {
        let mut unknown = false;
        let bound = [&pattern.subject, &pattern.predicate, &pattern.object].map(|term| {
            let term = term.as_ref()?.view();
            let id = self.find_term(self.hasher.hash_one(term), term);
            unknown |= id.is_none();
            id
        });
        let keys = if unknown { &[][..] } else { &self.keys[..] };
        keys.iter()
            .enumerate()
            .filter(move |(_, key)| {
                key.iter()
                    .zip(bound)
                    .all(|(id, want)| want.is_none_or(|want| *id == want))
            })
            .map(|(i, _)| (TripleId(i as u32), &self.triples[i]))
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
    use crate::term::{Literal, LiteralType};

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
    fn terms_sharing_one_hash_still_intern_apart() {
        // Every term on one chain: each must find its own id, and only it,
        // down to terms that differ only in type, prefix or kind.
        let mut terms: Vec<Term> = (0..1000).map(|i| Term::literal(format!("A{i}"))).collect();
        terms.extend(near_twins());
        let mut store = TripleStore::new();
        for (i, term) in terms.iter().enumerate() {
            assert_eq!(store.intern_term(7, term.view()), i as u32);
        }
        for (i, term) in terms.iter().enumerate() {
            assert_eq!(store.intern_term(7, term.view()), i as u32);
            assert_eq!(store.find_term(7, term.view()), Some(i as u32));
        }
        assert_eq!(store.terms.len(), terms.len(), "a duplicate interned anew");
        assert_eq!(store.find_term(7, TermRef::literal("B")), None);
        assert_eq!(store.find_term(8, terms[0].view()), None);
    }

    /// Terms that differ only in literal type, in prefix, or in being a
    /// literal or a concept.
    fn near_twins() -> Vec<Term> {
        vec![
            Term::literal("42"),
            Term::Literal(Literal::typed("42", LiteralType::String)),
            Term::Literal(Literal::typed("42", LiteralType::Decimal)),
            Term::concept("42"),
            Term::concept_in("Fun", "42"),
            Term::concept_in("CmdType", "42"),
            Term::concept_in("Fun", "accept_cmd"),
            Term::literal("accept_cmd"),
        ]
    }

    /// The store before terms were interned: every distinct triple keyed
    /// by a copy of itself.
    #[derive(Default)]
    struct TripleKeyed {
        ids: HashMap<Triple, TripleId>,
        triples: Vec<Triple>,
        documents: Vec<Vec<TripleId>>,
        containing: Vec<Vec<DocumentId>>,
        occurrences: usize,
    }

    impl TripleKeyed {
        fn insert(&mut self, doc: DocumentId, triple: Triple) -> TripleId {
            let next = TripleId(self.triples.len() as u32);
            let id = *self.ids.entry(triple.clone()).or_insert_with(|| {
                self.triples.push(triple);
                self.containing.push(Vec::new());
                next
            });
            self.documents[doc.index()].push(id);
            let docs = &mut self.containing[id.index()];
            if let Err(pos) = docs.binary_search(&doc) {
                docs.insert(pos, doc);
            }
            self.occurrences += 1;
            id
        }
    }

    proptest::proptest! {
        #[test]
        fn the_term_keyed_store_matches_the_triple_keyed_one(
            documents in 1usize..5,
            inserts in proptest::collection::vec(
                (0usize..8, 0usize..8, 0usize..8, 0usize..5, 0u8..2),
                0..120,
            ),
        ) {
            let terms = near_twins();
            let triple = |s: usize, p: usize, o: usize| {
                Triple::new(terms[s].clone(), terms[p].clone(), terms[o].clone())
            };
            let mut store = TripleStore::new();
            let mut want = TripleKeyed::default();
            let docs: Vec<DocumentId> = (0..documents)
                .map(|d| {
                    want.documents.push(Vec::new());
                    store.create_document(format!("D{d}"))
                })
                .collect();
            for &(s, p, o, d, borrowed) in &inserts {
                let (doc, t) = (docs[d % documents], triple(s, p, o));
                let got = if borrowed == 1 {
                    store.insert_ref(doc, t.view())
                } else {
                    store.insert(doc, t.clone())
                };
                proptest::prop_assert_eq!(got, want.insert(doc, t));
            }
            proptest::prop_assert_eq!(store.triples(), &want.triples[..]);
            proptest::prop_assert_eq!(store.term_ids().len(), store.len());
            for (stored, ids) in store.triples().iter().zip(store.term_ids()) {
                let [s, p, o] = ids.map(|id| store.terms()[id as usize].clone());
                proptest::prop_assert_eq!(stored, &Triple::new(s, p, o));
            }
            proptest::prop_assert_eq!(store.stats().occurrences, want.occurrences);
            for (doc, ids) in docs.iter().zip(&want.documents) {
                proptest::prop_assert_eq!(&store.document(*doc).unwrap().triples, ids);
            }
            for (id, containing) in want.containing.iter().enumerate() {
                let got = store.documents_of(TripleId(id as u32)).unwrap();
                proptest::prop_assert_eq!(got, &containing[..]);
            }
            for (s, p, o) in (0..8).flat_map(|s| (0..8).flat_map(move |p| (0..8).map(move |o| (s, p, o)))) {
                let t = triple(s, p, o);
                proptest::prop_assert_eq!(store.id_of(&t), want.ids.get(&t).copied(), "{}", t);
            }
        }
    }

    proptest::proptest! {
        /// `matching` by term id answers what the string filter
        /// `TriplePattern::matches` answers over every stored triple, for
        /// patterns binding near-twin terms, terms absent from this
        /// store and terms no store ever saw.
        #[test]
        fn matching_by_term_id_is_the_string_filter(
            inserts in proptest::collection::vec((0usize..8, 0usize..8, 0usize..8), 0..60),
            patterns in proptest::collection::vec(
                proptest::collection::vec(0usize..13, 3),
                1..20,
            ),
        ) {
            let mut terms = near_twins();
            terms.extend([Term::literal("43"), Term::concept_in("Fun", "accept")]);
            let mut store = TripleStore::new();
            let d = store.create_document("D");
            for &(s, p, o) in &inserts {
                let t = Triple::new(terms[s].clone(), terms[p].clone(), terms[o].clone());
                store.insert(d, t);
            }
            for bound in &patterns {
                // 10 terms to bind, and 10..13 leaves the position free.
                let [s, p, o] = [0, 1, 2].map(|at| terms.get(bound[at]).cloned());
                let pattern = TriplePattern { subject: s, predicate: p, object: o };
                let got: Vec<_> = store.matching(&pattern).collect();
                let want: Vec<_> = store.iter().filter(|(_, t)| pattern.matches(t)).collect();
                proptest::prop_assert_eq!(got, want, "{:?}", pattern);
            }
        }
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
