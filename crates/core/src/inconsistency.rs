//! The case study: inconsistency detection over requirement triples.

use semtree_model::{Term, Triple, TripleId};
use semtree_vocab::AntinomyTable;

use crate::hit::Hit;
use crate::index::{QueryOptions, SemTree};

/// Finds candidate inconsistencies the way §II prescribes: given a
/// requirement triple, build the *target triple* (same subject and object,
/// antinomic predicate) and ask the index for everything semantically close
/// to it — "all the triples 'semantically close' to the target one" are the
/// candidate contradictions.
pub struct InconsistencyFinder<'a> {
    index: &'a SemTree,
    antinomies: AntinomyTable,
}

/// Vocabulary prefix requirement predicates live in.
const PREDICATE_PREFIX: &str = "Fun";

impl<'a> InconsistencyFinder<'a> {
    /// Wrap an index with the antinomy vocabulary.
    #[must_use]
    pub fn new(index: &'a SemTree, antinomies: AntinomyTable) -> Self {
        InconsistencyFinder { index, antinomies }
    }

    /// The antinomy table in use.
    #[must_use]
    pub fn antinomies(&self) -> &AntinomyTable {
        &self.antinomies
    }

    /// The target (query) triple for a requirement triple: subject and
    /// object kept, predicate replaced by its canonical antonym. `None`
    /// when the predicate has no antonym in the vocabulary.
    #[must_use]
    pub fn target_triple(&self, triple: &Triple) -> Option<Triple> {
        let antonym = self
            .antinomies
            .canonical_antonym(triple.predicate.lexical())?;
        Some(triple.with_predicate(Term::concept_in(PREDICATE_PREFIX, antonym)))
    }

    /// Candidate inconsistencies for `triple`: the k-NN ring around its
    /// target triple (the paper's evaluation protocol). `None` when the
    /// predicate has no antonym.
    #[must_use]
    pub fn candidates(&self, triple: &Triple, k: usize) -> Option<Vec<Hit>> {
        self.candidates_with(triple, k, QueryOptions::default())
    }

    /// [`InconsistencyFinder::candidates`] with explicit query options.
    #[must_use]
    pub fn candidates_with(
        &self,
        triple: &Triple,
        k: usize,
        opts: QueryOptions,
    ) -> Option<Vec<Hit>> {
        let target = self.target_triple(triple)?;
        let mut hits = self.index.knn_with(&target, k, opts);
        // The queried triple itself may be indexed; it is not an
        // inconsistency with itself.
        hits.retain(|h| h.triple != *triple);
        Some(hits)
    }

    /// Strict confirmation of candidates by the formal rule: same subject,
    /// same object, antinomic predicates. This is the high-precision
    /// post-filter a production deployment would add on top of the paper's
    /// raw k-NN ring.
    #[must_use]
    pub fn confirmed(&self, triple: &Triple, k: usize) -> Option<Vec<Hit>> {
        let hits = self.candidates(triple, k)?;
        Some(
            hits.into_iter()
                .filter(|h| self.is_inconsistent_pair(triple, &h.triple))
                .collect(),
        )
    }

    /// The §II rule as a predicate over two triples.
    #[must_use]
    pub fn is_inconsistent_pair(&self, a: &Triple, b: &Triple) -> bool {
        a.subject == b.subject
            && a.object == b.object
            && self
                .antinomies
                .are_antonyms(a.predicate.lexical(), b.predicate.lexical())
    }

    /// Scan every indexed triple and return all confirmed inconsistent
    /// pairs `(a, b)` with `a < b` — the exhaustive sweep an offline
    /// verification job runs.
    #[must_use]
    pub fn sweep(&self, k: usize) -> Vec<(TripleId, TripleId)> {
        let mut out = Vec::new();
        for i in 0..self.index.len() {
            let id = TripleId(i as u32);
            let triple = self.index.triple(id).expect("dense ids").clone();
            let Some(hits) = self.confirmed(&triple, k) else {
                continue;
            };
            for h in hits {
                let pair = if id < h.id { (id, h.id) } else { (h.id, id) };
                out.push(pair);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use semtree_vocab::wordnet;

    use super::*;
    use crate::index::SemTree;

    fn fun(p: &str) -> Term {
        Term::concept_in("Fun", p)
    }

    fn req(s: &str, p: &str, o: &str) -> Triple {
        Triple::new(Term::literal(s), fun(p), Term::concept_in("CmdType", o))
    }

    fn antinomies() -> AntinomyTable {
        let mut a = AntinomyTable::new();
        a.declare("accept_cmd", "block_cmd");
        a.declare("enable_out", "disable_out");
        a
    }

    fn fun_taxonomy() -> Arc<semtree_vocab::Taxonomy> {
        let mut b = semtree_vocab::Taxonomy::builder("Fun");
        b.add("command_handling", &[]);
        b.add("accept_cmd", &["command_handling"]);
        b.add("block_cmd", &["command_handling"]);
        b.add("actuation", &[]);
        b.add("enable_out", &["actuation"]);
        b.add("disable_out", &["actuation"]);
        b.add("telemetry", &[]);
        b.add("send_msg", &["telemetry"]);
        Arc::new(b.build().unwrap())
    }

    fn cmd_taxonomy() -> Arc<semtree_vocab::Taxonomy> {
        let mut b = semtree_vocab::Taxonomy::builder("CmdType");
        for c in ["start-up", "shut-down", "reset", "standby"] {
            b.add(c, &[]);
        }
        Arc::new(b.build().unwrap())
    }

    fn index() -> SemTree {
        let mut b = SemTree::builder()
            .dimensions(4)
            .bucket_size(4)
            .register_standard(Arc::new(wordnet::mini_taxonomy()))
            .register_vocabulary("Fun", fun_taxonomy())
            .register_vocabulary("CmdType", cmd_taxonomy());
        b.add_triples(
            "D",
            vec![
                req("OBSW001", "accept_cmd", "start-up"),
                req("OBSW001", "block_cmd", "start-up"), // the contradiction
                req("OBSW001", "send_msg", "reset"),
                req("OBSW002", "accept_cmd", "start-up"),
                req("OBSW002", "enable_out", "standby"),
                req("OBSW003", "block_cmd", "shut-down"),
            ],
        );
        b.build().unwrap()
    }

    #[test]
    fn target_triple_follows_the_paper() {
        let idx = index();
        let f = InconsistencyFinder::new(&idx, antinomies());
        let t = req("OBSW001", "accept_cmd", "start-up");
        let target = f.target_triple(&t).unwrap();
        assert_eq!(target.subject, t.subject);
        assert_eq!(target.object, t.object);
        assert_eq!(target.predicate, fun("block_cmd"));
        // No antonym → no target.
        assert!(f.target_triple(&req("X", "send_msg", "reset")).is_none());
        idx.shutdown();
    }

    #[test]
    fn candidates_surface_the_contradiction_first() {
        let idx = index();
        let f = InconsistencyFinder::new(&idx, antinomies());
        let t = req("OBSW001", "accept_cmd", "start-up");
        let hits = f.candidates(&t, 3).unwrap();
        // The closest thing to (OBSW001, block_cmd, start-up) is the
        // indexed contradiction itself.
        assert_eq!(hits[0].triple, req("OBSW001", "block_cmd", "start-up"));
        assert!(hits[0].embedded_distance < 1e-9);
        // The query triple itself was filtered out.
        assert!(hits.iter().all(|h| h.triple != t));
        idx.shutdown();
    }

    #[test]
    fn confirmed_applies_the_formal_rule() {
        let idx = index();
        let f = InconsistencyFinder::new(&idx, antinomies());
        let t = req("OBSW001", "accept_cmd", "start-up");
        let confirmed = f.confirmed(&t, 5).unwrap();
        assert_eq!(confirmed.len(), 1);
        assert_eq!(confirmed[0].triple, req("OBSW001", "block_cmd", "start-up"));
        idx.shutdown();
    }

    #[test]
    fn is_inconsistent_pair_requires_all_three_conditions() {
        let idx = index();
        let f = InconsistencyFinder::new(&idx, antinomies());
        let a = req("OBSW001", "accept_cmd", "start-up");
        assert!(f.is_inconsistent_pair(&a, &req("OBSW001", "block_cmd", "start-up")));
        assert!(!f.is_inconsistent_pair(&a, &req("OBSW002", "block_cmd", "start-up"))); // subject
        assert!(!f.is_inconsistent_pair(&a, &req("OBSW001", "block_cmd", "shut-down"))); // object
        assert!(!f.is_inconsistent_pair(&a, &req("OBSW001", "send_msg", "start-up"))); // predicate
        assert!(!f.is_inconsistent_pair(&a, &a)); // not antonym of itself
        idx.shutdown();
    }

    #[test]
    fn sweep_finds_exactly_the_planted_pair() {
        let idx = index();
        let f = InconsistencyFinder::new(&idx, antinomies());
        let pairs = f.sweep(5);
        assert_eq!(pairs.len(), 1);
        let (a, b) = pairs[0];
        assert!(f.is_inconsistent_pair(idx.triple(a).unwrap(), idx.triple(b).unwrap()));
        idx.shutdown();
    }
}
