//! Eq. 1: the weighted triple distance.

use std::sync::Arc;

use semtree_model::{Term, Triple, TripleStore};

use crate::registry::{TermResolution, VocabularyRegistry};
use crate::term_distance::TermDistanceConfig;
use crate::weights::Weights;

/// A triple's vocabulary lookups, done once by [`TripleDistance::resolve`]:
/// for each concept among its subject, predicate and object, the registry
/// slot of its vocabulary and its id there. `Copy` and
/// free of borrows; only meaningful next to the triple it was resolved
/// from, under the same distance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TripleResolution([TermResolution; 3]);

/// The paper's semantic distance between two triples.
///
/// Cheap to clone (the registry is shared behind an `Arc`), `Send + Sync`,
/// and usable directly as the distance oracle of the FastMap embedding.
#[derive(Debug, Clone)]
pub struct TripleDistance {
    weights: Weights,
    terms: TermDistanceConfig,
    registry: Arc<VocabularyRegistry>,
}

impl TripleDistance {
    /// Build with default element-distance configuration.
    #[must_use]
    pub fn new(weights: Weights, registry: Arc<VocabularyRegistry>) -> Self {
        TripleDistance {
            weights,
            terms: TermDistanceConfig::default(),
            registry,
        }
    }

    /// Build with an explicit element-distance configuration.
    #[must_use]
    pub fn with_config(
        weights: Weights,
        terms: TermDistanceConfig,
        registry: Arc<VocabularyRegistry>,
    ) -> Self {
        TripleDistance {
            weights,
            terms,
            registry,
        }
    }

    /// The weight set in use.
    #[must_use]
    pub fn weights(&self) -> Weights {
        self.weights
    }

    /// The element-distance configuration in use.
    #[must_use]
    pub fn term_config(&self) -> &TermDistanceConfig {
        &self.terms
    }

    /// The vocabulary registry in use.
    #[must_use]
    pub fn registry(&self) -> &Arc<VocabularyRegistry> {
        &self.registry
    }

    /// Do a triple's vocabulary lookups once, for any number of
    /// [`Self::resolved_distance`] evaluations.
    #[must_use]
    pub fn resolve(&self, t: &Triple) -> TripleResolution {
        TripleResolution([
            self.registry.resolve_term(&t.subject),
            self.registry.resolve_term(&t.predicate),
            self.registry.resolve_term(&t.object),
        ])
    }

    /// `d(ti, tj)` per Eq. 1, in `[0, 1]`: both triples are resolved, then
    /// compared by [`Self::resolved_distance`].
    #[must_use]
    pub fn distance(&self, a: &Triple, b: &Triple) -> f64 {
        self.resolved_distance((a, self.resolve(a)), (b, self.resolve(b)))
    }

    /// [`Self::distance`] between two triples whose vocabulary lookups are
    /// done: each operand is a triple with its [`Self::resolve`].
    #[must_use]
    pub fn resolved_distance(
        &self,
        (a, ra): (&Triple, TripleResolution),
        (b, rb): (&Triple, TripleResolution),
    ) -> f64 {
        let term = |i: usize, ta, tb| {
            self.terms
                .resolved_distance(&self.registry, (ta, ra.0[i]), (tb, rb.0[i]))
        };
        let ds = term(0, &a.subject, &b.subject);
        let dp = term(1, &a.predicate, &b.predicate);
        let dobj = term(2, &a.object, &b.object);
        self.weights.combine(ds, dp, dobj)
    }
}

/// The vocabulary lookups of every term of a [`TripleStore`]'s term
/// table, by term id: each distinct term is resolved once, and a stored
/// triple's [`TripleResolution`] is three reads at its
/// [`TripleStore::term_ids`]. Only meaningful next to the store it was
/// resolved from, under the same distance.
#[derive(Debug, Default)]
pub struct TermResolutions(Vec<TermResolution>);

impl TermResolutions {
    /// Resolve the terms of `store` this table does not hold yet: a
    /// store's term table only grows, so after an insert this resolves
    /// just the terms the insert interned.
    pub fn extend(&mut self, distance: &TripleDistance, store: &TripleStore) {
        let new = &store.terms()[self.0.len()..];
        self.0
            .extend(new.iter().map(|t| distance.registry.resolve_term(t)));
    }

    /// The resolution of the stored triple whose term ids are `ids`.
    #[must_use]
    pub fn triple(&self, ids: [u32; 3]) -> TripleResolution {
        TripleResolution(ids.map(|t| self.0[t as usize]))
    }
}

/// Eq. 1 over the triples of one store, a row at a time (see
/// [`TripleDistance::rows`]).
#[derive(Debug)]
pub struct TripleRows<'t> {
    distance: &'t TripleDistance,
    /// The store's term table.
    terms: &'t [Term],
    /// `terms`' resolutions, by term id.
    resolutions: &'t TermResolutions,
    /// Per triple, the term ids of its subject, predicate and object.
    ids: &'t [[u32; 3]],
}

impl TripleDistance {
    /// Resolve every term of `store`'s term table once.
    #[must_use]
    pub fn resolve_terms(&self, store: &TripleStore) -> TermResolutions {
        let mut resolutions = TermResolutions::default();
        resolutions.extend(self, store);
        resolutions
    }

    /// Eq. 1 between the triples of `store`, served by rows, over the
    /// store's term table as `resolutions` resolved it. Eq. 1 is a
    /// weighted sum of per-role term distances, and a corpus of many
    /// triples has few distinct terms, so a row is built from term
    /// distances and entries are read by term id.
    #[must_use]
    pub fn rows<'t>(
        &'t self,
        store: &'t TripleStore,
        resolutions: &'t TermResolutions,
    ) -> TripleRows<'t> {
        debug_assert_eq!(resolutions.0.len(), store.terms().len());
        TripleRows {
            distance: self,
            terms: store.terms(),
            resolutions,
            ids: store.term_ids(),
        }
    }
}

impl TripleRows<'_> {
    /// The row of triple `s`: entry `x` is
    /// `resolved_distance(triples[min(s, x)], triples[max(s, x)])` bit for
    /// bit. Building it compares each of `s`'s three terms with every term
    /// of the table, in both operand orders (memory: six `f64` per term;
    /// a pair of terms of different kinds is the mixed penalty at once);
    /// an entry is then three lookups and [`Weights::combine`], the
    /// operand order taken from whether `x > s`.
    pub fn row(&self, s: usize) -> impl Fn(usize) -> f64 + Sync + '_ {
        let d = self.distance;
        let n = self.terms.len();
        let term = |t: usize| (&self.terms[t], self.resolutions.0[t]);
        // Per role: `d(t, own)` for every term `t` (read for entries
        // `x < s`, where `s` is the second operand), then `d(own, t)`
        // (read for entries `x > s`).
        let rows: [Vec<f64>; 3] = std::array::from_fn(|role| {
            let own = term(self.ids[s][role] as usize);
            let all = || (0..n).map(term);
            let before = all().map(|t| d.terms.resolved_distance(&d.registry, t, own));
            let after = all().map(|t| d.terms.resolved_distance(&d.registry, own, t));
            before.chain(after).collect()
        });
        move |x| {
            let after = usize::from(x > s);
            let [ds, dp, dobj] =
                std::array::from_fn(|role| rows[role][after * n + self.ids[x][role] as usize]);
            d.weights.combine(ds, dp, dobj)
        }
    }
}

#[cfg(test)]
mod tests {
    use semtree_model::Term;
    use semtree_vocab::wordnet;

    use super::*;

    fn dist() -> TripleDistance {
        let mut reg = VocabularyRegistry::new();
        reg.register_standard(Arc::new(wordnet::mini_taxonomy()));
        TripleDistance::new(Weights::default(), Arc::new(reg))
    }

    fn t(s: &str, p: &str, o: &str) -> Triple {
        Triple::new(Term::literal(s), Term::concept(p), Term::concept(o))
    }

    #[test]
    fn identity_is_zero() {
        let d = dist();
        let a = t("OBSW001", "accept", "start");
        assert_eq!(d.distance(&a, &a), 0.0);
    }

    #[test]
    fn symmetric() {
        let d = dist();
        let a = t("OBSW001", "accept", "start");
        let b = t("OBSW002", "send", "message");
        assert!((d.distance(&a, &b) - d.distance(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn bounded_by_unit_interval() {
        let d = dist();
        let a = t("OBSW001", "accept", "start");
        let b = t("completely-different", "antenna", "telemetry_frame");
        let v = d.distance(&a, &b);
        assert!((0.0..=1.0).contains(&v));
    }

    #[test]
    fn paper_motivating_example_ranks_antinomy_near() {
        // (OBSW001, accept_cmd, start-up) should be semantically close to
        // (OBSW001, block_cmd, start-up) — "the result set … contains all
        // the triples semantically close to the target one" — and far from
        // an unrelated triple.
        let d = dist();
        let req = t("OBSW001", "accept", "start");
        let target = t("OBSW001", "block", "start");
        let unrelated = t("PSU42", "monitor", "telemetry_frame");
        assert!(d.distance(&req, &target) < d.distance(&req, &unrelated));
    }

    #[test]
    fn predicate_weight_controls_predicate_sensitivity() {
        let mut reg = VocabularyRegistry::new();
        reg.register_standard(Arc::new(wordnet::mini_taxonomy()));
        let reg = Arc::new(reg);
        let uniform = TripleDistance::new(Weights::default(), Arc::clone(&reg));
        let heavy = TripleDistance::new(Weights::predicate_heavy(), reg);

        let a = t("OBSW001", "accept", "start");
        let b = t("OBSW001", "antenna", "start"); // only predicate differs
        assert!(heavy.distance(&a, &b) > uniform.distance(&a, &b));
    }

    #[test]
    fn subject_only_difference_scales_with_alpha() {
        let d = dist();
        let a = t("OBSW001", "accept", "start");
        let b = t("OBSW009", "accept", "start");
        // Only the subject differs: distance = α · ds.
        let expected = d.weights().alpha() * (1.0 / 7.0);
        assert!((d.distance(&a, &b) - expected).abs() < 1e-12);
    }

    #[test]
    fn term_resolutions_resolve_each_stored_triple_as_resolve_does() {
        let d = dist();
        let mut store = TripleStore::new();
        let doc = store.create_document("D");
        let mut resolutions = d.resolve_terms(&store);
        let batches = [
            vec![
                t("OBSW001", "accept", "start"),
                t("OBSW002", "send", "message"),
            ],
            vec![t("OBSW001", "acceptx", "start"), t("accept", "send", "zzz")],
            vec![Triple::new(
                Term::concept("accept"),
                Term::literal("send"),
                Term::concept_in("Ghost", "start"),
            )],
        ];
        for batch in batches {
            store.insert_all(doc, batch);
            resolutions.extend(&d, &store);
            for (triple, &ids) in store.triples().iter().zip(store.term_ids()) {
                assert_eq!(resolutions.triple(ids), d.resolve(triple), "{triple}");
            }
        }
    }

    #[test]
    fn clone_shares_registry() {
        let d = dist();
        let d2 = d.clone();
        assert!(Arc::ptr_eq(d.registry(), d2.registry()));
    }
}
