//! Prefix-keyed registry of taxonomies.

use std::sync::Arc;

use semtree_model::Term;
use semtree_vocab::{ConceptId, Taxonomy};

/// Maps vocabulary prefixes to taxonomies, mirroring the paper's "domain
/// specific and/or general vocabularies": `Fun:x` is resolved in the
/// taxonomy registered for `Fun`, while unprefixed concepts resolve in the
/// *standard* taxonomy.
///
/// Each registered vocabulary owns a dense *slot*, so a term's lookups can
/// be done once ([`VocabularyRegistry::resolve_term`]) and replayed without
/// any.
#[derive(Debug, Clone, Default)]
pub struct VocabularyRegistry {
    /// Per slot, in registration order: the prefix (`None` for the
    /// standard vocabulary) and its taxonomy. A registry holds a handful
    /// of vocabularies, so a prefix is found by a scan, cheaper than
    /// hashing it.
    slots: Vec<(Option<String>, Arc<Taxonomy>)>,
}

/// A term's vocabulary lookups, done once by
/// [`VocabularyRegistry::resolve_term`]: for a concept found in a
/// registered vocabulary, that vocabulary's slot and the concept's id there;
/// `None` for a literal, an unregistered vocabulary or an
/// out-of-vocabulary concept. `Copy` and free of borrows, so an index can
/// keep the resolutions of the triples it owns beside them. It is only
/// meaningful next to the term it was resolved from, against the same
/// registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TermResolution(pub(crate) Option<(u32, ConceptId)>);

impl VocabularyRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        VocabularyRegistry::default()
    }

    /// Register a taxonomy for a prefix (replacing any previous one).
    pub fn register(&mut self, prefix: impl Into<String>, taxonomy: Arc<Taxonomy>) {
        self.fill(Some(prefix.into()), taxonomy);
    }

    /// Register the standard (unprefixed) taxonomy.
    pub fn register_standard(&mut self, taxonomy: Arc<Taxonomy>) {
        self.fill(None, taxonomy);
    }

    /// Put `taxonomy` in `prefix`'s slot, or in a new slot when it has none.
    fn fill(&mut self, prefix: Option<String>, taxonomy: Arc<Taxonomy>) {
        match self.slot(prefix.as_deref()) {
            Some(slot) => self.slots[slot as usize].1 = taxonomy,
            None => self.slots.push((prefix, taxonomy)),
        }
    }

    fn slot(&self, prefix: Option<&str>) -> Option<u32> {
        let slot = self
            .slots
            .iter()
            .position(|(p, _)| p.as_deref() == prefix)?;
        Some(slot as u32)
    }

    /// Resolve a prefix (`None` → standard taxonomy).
    #[must_use]
    pub fn resolve(&self, prefix: Option<&str>) -> Option<&Arc<Taxonomy>> {
        self.slot(prefix).map(|slot| self.taxonomy(slot))
    }

    /// The taxonomy in a slot handed out by [`Self::resolve_term`].
    pub(crate) fn taxonomy(&self, slot: u32) -> &Arc<Taxonomy> {
        &self.slots[slot as usize].1
    }

    /// Do a term's vocabulary lookups: its vocabulary's slot and its
    /// concept id there.
    pub(crate) fn resolve_term(&self, term: &Term) -> TermResolution {
        let Term::Concept(c) = term else {
            return TermResolution(None);
        };
        TermResolution(self.slot(c.prefix.as_deref()).and_then(|slot| {
            let id = self.taxonomy(slot).id_of(&c.name)?;
            Some((slot, id))
        }))
    }

    /// Number of prefixed taxonomies registered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.prefixes().count()
    }

    /// Whether nothing (not even a standard taxonomy) is registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Iterate registered prefixes, in registration order.
    pub fn prefixes(&self) -> impl Iterator<Item = &str> {
        self.slots.iter().filter_map(|(p, _)| p.as_deref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tax(name: &str) -> Arc<Taxonomy> {
        let mut b = Taxonomy::builder(name);
        b.add("a", &[]);
        Arc::new(b.build().unwrap())
    }

    #[test]
    fn register_and_resolve() {
        let mut r = VocabularyRegistry::new();
        assert!(r.is_empty());
        r.register("Fun", tax("Fun"));
        assert_eq!(r.resolve(Some("Fun")).unwrap().name(), "Fun");
        assert!(r.resolve(Some("Ghost")).is_none());
        assert!(r.resolve(None).is_none());
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn standard_taxonomy() {
        let mut r = VocabularyRegistry::new();
        r.register_standard(tax("std"));
        assert_eq!(r.resolve(None).unwrap().name(), "std");
        assert!(!r.is_empty());
        assert_eq!(r.len(), 0); // standard does not count as a prefix
    }

    #[test]
    fn reregistering_replaces() {
        let mut r = VocabularyRegistry::new();
        r.register("X", tax("first"));
        r.register("X", tax("second"));
        assert_eq!(r.resolve(Some("X")).unwrap().name(), "second");
    }

    #[test]
    fn reregistering_keeps_the_slot() {
        let mut r = VocabularyRegistry::new();
        r.register("X", tax("first"));
        let before = r.resolve_term(&Term::concept_in("X", "a"));
        r.register("X", tax("second"));
        r.register_standard(tax("std"));
        r.register_standard(tax("std2"));
        assert_eq!(r.resolve_term(&Term::concept_in("X", "a")), before);
        assert_eq!(r.slots.len(), 2);
    }

    #[test]
    fn resolve_term_does_the_lookups() {
        let mut r = VocabularyRegistry::new();
        r.register("Fun", tax("Fun"));
        r.register_standard(tax("std"));
        let (fun, fun_id) = r.resolve_term(&Term::concept_in("Fun", "a")).0.unwrap();
        let (std, _) = r.resolve_term(&Term::concept("a")).0.unwrap();
        assert_eq!(r.taxonomy(fun).name(), "Fun");
        assert_eq!(r.taxonomy(std).name(), "std");
        assert_eq!(Some(fun_id), r.resolve(Some("Fun")).unwrap().id_of("a"));
        // Out of vocabulary, unregistered vocabulary, literal: nothing.
        for term in [
            Term::concept_in("Fun", "zz"),
            Term::concept_in("Ghost", "a"),
            Term::literal("a"),
        ] {
            assert_eq!(r.resolve_term(&term), TermResolution(None), "{term}");
        }
    }

    #[test]
    fn prefixes_iterates() {
        let mut r = VocabularyRegistry::new();
        r.register("A", tax("A"));
        r.register("B", tax("B"));
        let mut ps: Vec<&str> = r.prefixes().collect();
        ps.sort_unstable();
        assert_eq!(ps, vec!["A", "B"]);
    }
}
