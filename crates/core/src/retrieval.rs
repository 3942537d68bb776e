//! Document-level retrieval on top of the triple index.
//!
//! The paper's goal is "supporting *retrieval of documents*": a document's
//! semantics is the set of triples extracted from it, so document ranking
//! aggregates triple-level k-NN hits back onto the documents that asserted
//! them. Each query triple contributes `1 − d` for the best-matching
//! triple a document contains (0 when the document misses the k-NN ring
//! entirely), and a document's score is the mean contribution over the
//! query triples.

use std::ops::Deref;
use std::sync::OnceLock;

use semtree_model::{DocumentId, Triple, TripleId};
use semtree_nlp::SvoExtractor;

use crate::index::{QueryOptions, SemTree};

/// One ranked document.
#[derive(Debug, Clone, PartialEq)]
pub struct DocumentHit<'a> {
    /// The document's id in the index's store.
    pub doc: DocumentId,
    /// The document's external name, borrowed from the index's store.
    pub name: &'a String,
    /// Aggregate similarity in `[0, 1]`, higher is better.
    pub score: f64,
    /// The matched triples with their distances, best first.
    pub matched: Matched,
}

/// A ranked document's matched triples with their distances, read as a
/// slice. One match per query triple: a single-triple query's match is
/// held inline, and only a document matched by a second query triple
/// spills to a `Vec`.
#[derive(Debug, Clone)]
pub struct Matched(Repr);

#[derive(Debug, Clone)]
enum Repr {
    One((TripleId, f64)),
    Spilled(Vec<(TripleId, f64)>),
}

impl Matched {
    fn one(m: (TripleId, f64)) -> Self {
        Matched(Repr::One(m))
    }

    fn push(&mut self, m: (TripleId, f64)) {
        match &mut self.0 {
            Repr::One(first) => self.0 = Repr::Spilled(vec![*first, m]),
            Repr::Spilled(all) => all.push(m),
        }
    }

    /// Move the matches out, leaving an empty list.
    fn take(&mut self) -> Self {
        std::mem::replace(self, Matched(Repr::Spilled(Vec::new())))
    }

    /// Best first; equal distances keep push order.
    fn sort_by_distance(&mut self) {
        if let Repr::Spilled(all) = &mut self.0 {
            all.sort_by(|a, b| a.1.total_cmp(&b.1));
        }
    }
}

impl Deref for Matched {
    type Target = [(TripleId, f64)];

    fn deref(&self) -> &Self::Target {
        match &self.0 {
            Repr::One(m) => std::slice::from_ref(m),
            Repr::Spilled(all) => all,
        }
    }
}

impl<'m> IntoIterator for &'m Matched {
    type Item = &'m (TripleId, f64);
    type IntoIter = std::slice::Iter<'m, (TripleId, f64)>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl PartialEq for Matched {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

/// Ranks documents by the semantic similarity of their triples to a query.
pub struct DocumentRetriever<'a> {
    index: &'a SemTree,
    /// Built by the first [`DocumentRetriever::query_text`].
    extractor: OnceLock<SvoExtractor>,
    /// Triple-level neighbourhood size per query triple.
    k: usize,
    /// Query options for the underlying triple searches.
    opts: QueryOptions,
}

impl<'a> DocumentRetriever<'a> {
    /// A retriever with triple-level `k = 10` and raw (embedded-space)
    /// matching.
    #[must_use]
    pub fn new(index: &'a SemTree) -> Self {
        DocumentRetriever {
            index,
            extractor: OnceLock::new(),
            k: 10,
            opts: QueryOptions::default(),
        }
    }

    /// Set the per-query-triple neighbourhood size.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    #[must_use]
    pub fn with_k(mut self, k: usize) -> Self {
        assert!(k > 0, "neighbourhood size must be at least 1");
        self.k = k;
        self
    }

    /// Use refined (true-distance) triple matching.
    #[must_use]
    pub fn with_options(mut self, opts: QueryOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Rank documents for a single query triple.
    #[must_use]
    pub fn query_triple(&self, query: &Triple) -> Vec<DocumentHit<'a>> {
        self.query_triples(std::slice::from_ref(query))
    }

    /// Rank documents for a set of query triples (query-by-document).
    #[must_use]
    pub fn query_triples(&self, queries: &[Triple]) -> Vec<DocumentHit<'a>> {
        /// One document that matched: one match per query triple that
        /// reached it, the last one being `query`'s.
        struct Slot {
            doc: DocumentId,
            query: usize,
            matched: Matched,
        }
        /// `slot_of` for a document that has not matched.
        const UNMATCHED: u32 = u32::MAX;
        let store = self.index.store();
        let documents = store.stats().documents;
        // Per document id: its index in `slots`, once it matched.
        let mut slot_of: Vec<u32> = vec![UNMATCHED; documents];
        let mut slots: Vec<Slot> = Vec::with_capacity(documents.min(queries.len() * self.k));

        for (query, triple) in queries.iter().enumerate() {
            // `nearest` yields hits by ascending `d`, so a document's first
            // hit for a query triple is its best one. Raw, that is the dist
            // k-NN read's order: the walk over every partition fills one
            // candidate heap and drains it sorted by `total_cmp`. Refined,
            // `ranked` sorts by `d` itself. A test in `index.rs` pins both
            // on a partitioned tree.
            let mut previous = None;
            for (tid, embedded, semantic) in self.index.nearest(triple, self.k, self.opts) {
                // The distance the hit was ranked by.
                let d = semantic.unwrap_or(embedded);
                debug_assert!(
                    previous.is_none_or(|p: f64| p.total_cmp(&d).is_le()),
                    "{previous:?} then {d}"
                );
                previous = Some(d);
                let docs = store
                    .documents_of(tid)
                    .expect("hit ids come from the store");
                for &doc in docs {
                    let s = slot_of[doc.index()];
                    if s == UNMATCHED {
                        slot_of[doc.index()] = slots.len() as u32;
                        slots.push(Slot {
                            doc,
                            query,
                            matched: Matched::one((tid, d)),
                        });
                        continue;
                    }
                    let slot = &mut slots[s as usize];
                    if slot.query != query {
                        slot.query = query;
                        slot.matched.push((tid, d));
                    }
                }
            }
        }

        // A document's score sums its matches' contributions in query
        // order, then takes the mean over every query triple. Each is
        // ranked by one integer key: `u64::MAX − score bits`, doc id, slot.
        // Every contribution `(1 − d).max(0.0)` is finite and ≥ +0.0 (a NaN
        // `d` gives 0.0), so every score is too, and on such floats the
        // bits order as the values do: ascending keys are score descending
        // under `total_cmp`, then doc id ascending. Doc ids are unique, so
        // the slot never decides and the order is total.
        let n_queries = queries.len() as f64;
        let mut order: Vec<u128> = slots
            .iter()
            .enumerate()
            .map(|(s, slot)| {
                let sum = slot
                    .matched
                    .iter()
                    .fold(0.0, |sum, &(_, d)| sum + (1.0 - d).max(0.0));
                let score = sum / n_queries;
                debug_assert!(
                    score.is_finite() && score.is_sign_positive(),
                    "score {score}"
                );
                (u128::from(u64::MAX - score.to_bits()) << 64)
                    | (u128::from(slot.doc.0) << 32)
                    | s as u128
            })
            .collect();
        order.sort_unstable();
        order
            .into_iter()
            .map(|key| {
                let s = key as u32 as usize;
                let doc = slots[s].doc;
                let score = f64::from_bits(u64::MAX - (key >> 64) as u64);
                let mut matched = slots[s].matched.take();
                matched.sort_by_distance();
                DocumentHit {
                    doc,
                    name: &store
                        .document(doc)
                        .expect("documents_of returns live ids")
                        .name,
                    score,
                    matched,
                }
            })
            .collect()
    }

    /// Rank documents for a natural-language query, extracting its triples
    /// with the requirements NLP pipeline. Returns an empty ranking when
    /// no triple could be extracted.
    #[must_use]
    pub fn query_text(&self, text: &str) -> Vec<DocumentHit<'a>> {
        let extractor = self.extractor.get_or_init(SvoExtractor::requirements);
        let queries = extractor.extract(text);
        self.query_triples(&queries)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use semtree_model::Term;
    use semtree_reqgen::{CorpusGenerator, GenConfig};
    use semtree_vocab::wordnet;

    use super::*;
    use crate::index::SemTree;

    fn req(s: &str, p: &str, o: &str) -> Triple {
        Triple::new(
            Term::literal(s),
            Term::concept_in("Fun", p),
            Term::concept_in("CmdType", o),
        )
    }

    fn index() -> SemTree {
        let mut b = SemTree::builder()
            .dimensions(4)
            .bucket_size(4)
            .register_standard(Arc::new(wordnet::mini_taxonomy()));
        b.add_triples(
            "DOC-A",
            vec![
                req("OBSW001", "accept_cmd", "start-up"),
                req("OBSW001", "send_msg", "heartbeat"),
            ],
        );
        b.add_triples(
            "DOC-B",
            vec![
                req("OBSW001", "block_cmd", "start-up"),
                req("PSU001", "enable_out", "heater"),
            ],
        );
        b.add_triples("DOC-C", vec![req("TCU009", "monitor_par", "temperature")]);
        b.build().unwrap()
    }

    #[test]
    fn exact_triple_ranks_its_document_first() {
        let idx = index();
        let r = DocumentRetriever::new(&idx).with_k(3);
        let hits = r.query_triple(&req("OBSW001", "accept_cmd", "start-up"));
        assert!(!hits.is_empty());
        assert_eq!(hits[0].name, "DOC-A");
        assert!(hits[0].score > 0.9, "exact match ≈ 1: {}", hits[0].score);
        // Ranked descending.
        for w in hits.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        idx.shutdown();
    }

    #[test]
    fn multi_triple_query_aggregates() {
        let idx = index();
        let r = DocumentRetriever::new(&idx).with_k(2);
        let hits = r.query_triples(&[
            req("OBSW001", "accept_cmd", "start-up"),
            req("OBSW001", "send_msg", "heartbeat"),
        ]);
        // DOC-A matches both query triples exactly → top score.
        assert_eq!(hits[0].name, "DOC-A");
        assert!(hits[0].score > 0.9);
        assert_eq!(hits[0].matched.len(), 2);
        idx.shutdown();
    }

    #[test]
    fn text_query_goes_through_nlp() {
        let idx = index();
        let r = DocumentRetriever::new(&idx);
        let hits = r.query_text("The OBSW001 shall accept the start-up command.");
        assert_eq!(hits[0].name, "DOC-A");
        assert!(r.query_text("no parseable requirement here").is_empty());
        idx.shutdown();
    }

    #[test]
    fn empty_query_set_is_empty() {
        let idx = index();
        let r = DocumentRetriever::new(&idx);
        assert!(r.query_triples(&[]).is_empty());
        idx.shutdown();
    }

    #[test]
    fn matched_triples_are_sorted_by_distance() {
        let idx = index();
        let r = DocumentRetriever::new(&idx).with_k(5);
        let hits = r.query_triple(&req("OBSW001", "accept_cmd", "start-up"));
        for h in &hits {
            for w in h.matched.windows(2) {
                assert!(w[0].1 <= w[1].1);
            }
        }
        idx.shutdown();
    }

    #[test]
    fn refined_options_are_honoured() {
        let idx = index();
        let r = DocumentRetriever::new(&idx)
            .with_k(3)
            .with_options(QueryOptions::refined());
        let hits = r.query_triple(&req("OBSW001", "accept_cmd", "start-up"));
        assert_eq!(hits[0].name, "DOC-A");
        idx.shutdown();
    }

    /// The three-map aggregation `query_triples` ran before the slot
    /// vector, kept as the oracle. It reads the public `knn_with`.
    fn three_map_oracle<'a>(
        index: &'a SemTree,
        k: usize,
        opts: QueryOptions,
        queries: &[Triple],
    ) -> Vec<DocumentHit<'a>> {
        use std::collections::HashMap;
        if queries.is_empty() {
            return Vec::new();
        }
        let mut scores: HashMap<DocumentId, f64> = HashMap::new();
        let mut matches: HashMap<DocumentId, Vec<(TripleId, f64)>> = HashMap::new();
        for query in queries {
            let mut best: HashMap<DocumentId, (TripleId, f64)> = HashMap::new();
            for hit in index.knn_with(query, k, opts) {
                let d = hit.ranking_distance();
                for &doc in index.store().documents_of(hit.id).unwrap() {
                    match best.get(&doc) {
                        Some(&(_, existing)) if existing <= d => {}
                        _ => {
                            best.insert(doc, (hit.id, d));
                        }
                    }
                }
            }
            for (doc, (tid, d)) in best {
                *scores.entry(doc).or_insert(0.0) += (1.0 - d).max(0.0);
                matches.entry(doc).or_default().push((tid, d));
            }
        }
        let n_queries = queries.len() as f64;
        let mut out: Vec<DocumentHit> = scores
            .into_iter()
            .map(|(doc, sum)| {
                let mut matched = matches.remove(&doc).unwrap_or_default();
                matched.sort_by(|a, b| a.1.total_cmp(&b.1));
                DocumentHit {
                    doc,
                    name: &index.store().document(doc).unwrap().name,
                    score: sum / n_queries,
                    matched: Matched(Repr::Spilled(matched)),
                }
            })
            .collect();
        out.sort_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.doc.cmp(&b.doc)));
        out
    }

    /// Every field of a ranking, floats as bits.
    type RankingBits = Vec<(DocumentId, String, u64, Vec<(TripleId, u64)>)>;

    fn bits(hits: &[DocumentHit]) -> RankingBits {
        hits.iter()
            .map(|h| {
                let matched = h.matched.iter().map(|&(t, d)| (t, d.to_bits())).collect();
                (h.doc, h.name.clone(), h.score.to_bits(), matched)
            })
            .collect()
    }

    /// A reqgen corpus in two FastMap dimensions, where many triples
    /// share an embedded point and many documents share a triple, plus a
    /// query pool of its triples and of triples with an unseen subject.
    fn tied_index() -> (SemTree, Vec<Triple>) {
        let corpus = CorpusGenerator::new(GenConfig::small().with_seed(3)).generate();
        let mut b = SemTree::builder()
            .dimensions(2)
            .bucket_size(4)
            .register_standard(Arc::new(wordnet::mini_taxonomy()))
            .register_vocabulary("Fun", Arc::clone(corpus.domain.fun_taxonomy()));
        for (prefix, tax) in corpus.domain.parameter_taxonomies() {
            b = b.register_vocabulary(prefix.clone(), Arc::clone(tax));
        }
        b.add_store(&corpus.store);
        let mut pool = corpus.triples();
        let unseen: Vec<Triple> = pool
            .iter()
            .step_by(7)
            .map(|t| {
                Triple::new(
                    Term::literal("ZZZ999"),
                    t.predicate.clone(),
                    t.object.clone(),
                )
            })
            .collect();
        pool.extend(unseen);
        (b.build().unwrap(), pool)
    }

    #[test]
    fn query_triples_matches_the_three_map_oracle() {
        use proptest::prelude::*;
        use proptest::TestRng;

        let (idx, pool) = tied_index();
        let cases = (
            prop::collection::vec(0..pool.len(), 1..6),
            0u8..2, // repeat the first query triple
            0u8..2, // refined
            1usize..12,
        );
        let mut tied_documents = 0;
        let mut spilled_documents = 0;
        for case in 0..64 {
            let mut rng = TestRng::for_case(
                concat!(
                    module_path!(),
                    "::query_triples_matches_the_three_map_oracle"
                ),
                case,
            );
            let (picks, repeat, refined, k) = cases.generate(&mut rng);
            let mut queries: Vec<Triple> = picks.iter().map(|&i| pool[i].clone()).collect();
            if repeat == 1 {
                queries.push(queries[0].clone());
            }
            let opts = if refined == 1 {
                QueryOptions::refined()
            } else {
                QueryOptions::raw()
            };
            let r = DocumentRetriever::new(&idx).with_k(k).with_options(opts);
            let got = r.query_triples(&queries);
            assert_eq!(
                bits(&got),
                bits(&three_map_oracle(&idx, k, opts, &queries)),
                "case {case}: k {k}, {opts:?}, {queries:?}"
            );
            // A document matched by two query triples spills its list.
            spilled_documents += got.iter().filter(|h| h.matched.len() >= 2).count();
            // A tie the first-minimal rule settles: one document holding
            // two distinct triples at the same distance from one query.
            for q in &queries {
                let hits = idx.knn_with(q, k, opts);
                for h in &got {
                    let mut ds: Vec<u64> = hits
                        .iter()
                        .filter(|x| idx.store().documents_of(x.id).unwrap().contains(&h.doc))
                        .map(|x| x.ranking_distance().to_bits())
                        .collect();
                    let n = ds.len();
                    ds.sort_unstable();
                    ds.dedup();
                    tied_documents += usize::from(ds.len() < n);
                }
            }
        }
        assert!(
            tied_documents > 0,
            "the fixture must exercise distance ties"
        );
        assert!(
            spilled_documents > 0,
            "the fixture must exercise documents with several matches"
        );
        idx.shutdown();
    }

    #[test]
    fn zero_scores_rank_by_ascending_doc_id() {
        // Two triples at Eq. 1 distance 1 (every element a mixed kind)
        // embed one FastMap unit apart, so a document holding only the far
        // one scores exactly +0.0. Such documents interleave by id with
        // those holding the query's own triple.
        let near = req("OBSW001", "accept_cmd", "start-up");
        let far = Triple::new(
            Term::concept("accept"),
            Term::literal("x"),
            Term::literal("y"),
        );
        let mut b = SemTree::builder()
            .dimensions(1)
            .bucket_size(4)
            .register_standard(Arc::new(wordnet::mini_taxonomy()));
        for d in 0..7 {
            let held = if d % 3 == 1 { &near } else { &far };
            b.add_triples(format!("DOC-{d}"), vec![held.clone()]);
        }
        let idx = b.build().unwrap();
        assert_eq!(idx.distance().distance(&near, &far), 1.0);

        let got = DocumentRetriever::new(&idx).query_triple(&near);
        assert_eq!(
            bits(&got),
            bits(&three_map_oracle(&idx, 10, QueryOptions::raw(), &[near])),
        );
        let zeros: Vec<u32> = got
            .iter()
            .filter(|h| h.score.to_bits() == 0.0f64.to_bits())
            .map(|h| h.doc.0)
            .collect();
        assert_eq!(zeros, [0, 2, 3, 5, 6]);
        assert_eq!(got.len(), 7);
        assert!(got[..2].iter().all(|h| h.score == 1.0));
        idx.shutdown();
    }

    fn pairs(n: u32) -> Vec<(TripleId, f64)> {
        (0..n)
            .map(|i| (TripleId(i), 1.0 / f64::from(i + 1)))
            .collect()
    }

    fn matched_of(pairs: &[(TripleId, f64)]) -> Matched {
        let mut m = Matched::one(pairs[0]);
        for &p in &pairs[1..] {
            m.push(p);
        }
        m
    }

    #[test]
    fn one_match_is_held_inline() {
        let m = Matched::one((TripleId(7), 0.25));
        assert!(matches!(m.0, Repr::One(_)));
        assert_eq!(&*m, &[(TripleId(7), 0.25)]);
    }

    #[test]
    fn a_second_push_spills_in_push_order() {
        let m = matched_of(&pairs(2));
        assert!(matches!(m.0, Repr::Spilled(_)));
        // Pushed farthest-first is still read in push order: only the
        // ranking sorts.
        assert_eq!(&*m, &pairs(2)[..]);
    }

    #[test]
    fn matched_reads_like_a_vec_of_its_pairs() {
        for n in 1..5 {
            let want = pairs(n);
            let m = matched_of(&want);
            assert_eq!(m.len(), want.len());
            assert_eq!(
                m.iter().collect::<Vec<_>>(),
                want.iter().collect::<Vec<_>>()
            );
            assert_eq!((&m).into_iter().copied().collect::<Vec<_>>(), want);
            for other in 1..5 {
                let theirs = pairs(other);
                assert_eq!(m == matched_of(&theirs), want == theirs, "{n} vs {other}");
            }
        }
        // The same single pair, inline or spilled, is equal.
        let mut spilled = matched_of(&pairs(2));
        spilled.take();
        spilled.push(pairs(1)[0]);
        assert!(matches!(spilled.0, Repr::Spilled(_)));
        assert_eq!(spilled, Matched::one(pairs(1)[0]));
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_k_rejected() {
        let idx = index();
        let _ = DocumentRetriever::new(&idx).with_k(0);
    }
}
