//! Antinomy (antonym) relations between concepts.
//!
//! The case study's inconsistency rule (§II): two triples are inconsistent
//! iff same subject, same object, and "the two predicates are linked by an
//! antinomy relationship in a given vocabulary". The evaluation's target
//! triples take "as predicate an antinomic term (retrieved using an ad-hoc
//! requirements vocabulary)".

use std::collections::{BTreeMap, BTreeSet};

/// A symmetric antonym relation over concept names.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AntinomyTable {
    pairs: BTreeMap<String, BTreeSet<String>>,
}

impl AntinomyTable {
    /// An empty table.
    #[must_use]
    pub fn new() -> Self {
        AntinomyTable::default()
    }

    /// Declare `a` and `b` antonyms (stored symmetrically; self-antinomies
    /// are ignored).
    pub fn declare(&mut self, a: impl Into<String>, b: impl Into<String>) {
        let a = a.into();
        let b = b.into();
        if a == b {
            return;
        }
        self.pairs.entry(a.clone()).or_default().insert(b.clone());
        self.pairs.entry(b).or_default().insert(a);
    }

    /// Whether `a` and `b` are declared antonyms.
    #[must_use]
    pub fn are_antonyms(&self, a: &str, b: &str) -> bool {
        self.pairs.get(a).is_some_and(|s| s.contains(b))
    }

    /// The canonical (lexicographically first) antonym of `a`, if any —
    /// how the evaluation picks *the* antinomic predicate for a target
    /// triple.
    #[must_use]
    pub fn canonical_antonym(&self, a: &str) -> Option<&str> {
        self.pairs
            .get(a)
            .and_then(|s| s.iter().next())
            .map(String::as_str)
    }

    /// Number of concepts that have at least one antonym.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether no antinomies are declared.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Iterate each unordered pair exactly once, lexicographically.
    pub fn iter_pairs(&self) -> impl Iterator<Item = (&str, &str)> {
        self.pairs.iter().flat_map(|(a, set)| {
            set.iter()
                .filter(move |b| a < *b)
                .map(move |b| (a.as_str(), b.as_str()))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AntinomyTable {
        let mut t = AntinomyTable::new();
        t.declare("accept_cmd", "block_cmd");
        t.declare("start-up", "shut-down");
        t.declare("accept_cmd", "reject_cmd");
        t
    }

    #[test]
    fn declared_pairs_are_symmetric() {
        let t = sample();
        assert!(t.are_antonyms("accept_cmd", "block_cmd"));
        assert!(t.are_antonyms("block_cmd", "accept_cmd"));
        assert!(!t.are_antonyms("accept_cmd", "start-up"));
        assert!(!t.are_antonyms("ghost", "block_cmd"));
    }

    #[test]
    fn multiple_antonyms_sorted() {
        let t = sample();
        assert_eq!(t.canonical_antonym("accept_cmd"), Some("block_cmd"));
        assert_eq!(t.canonical_antonym("ghost"), None);
    }

    #[test]
    fn self_antinomy_ignored() {
        let mut t = AntinomyTable::new();
        t.declare("x", "x");
        assert!(t.is_empty());
        assert!(!t.are_antonyms("x", "x"));
    }

    #[test]
    fn iter_pairs_yields_each_once() {
        let t = sample();
        let pairs: Vec<_> = t.iter_pairs().collect();
        assert_eq!(
            pairs,
            vec![
                ("accept_cmd", "block_cmd"),
                ("accept_cmd", "reject_cmd"),
                ("shut-down", "start-up"),
            ]
        );
    }

    #[test]
    fn redeclaring_is_idempotent() {
        let mut t = sample();
        let before = t.clone();
        t.declare("block_cmd", "accept_cmd");
        assert_eq!(t, before);
    }

    #[test]
    fn len_counts_concepts_with_antonyms() {
        let t = sample();
        assert_eq!(t.len(), 5); // accept, block, reject, start-up, shut-down
        assert!(!t.is_empty());
    }
}
