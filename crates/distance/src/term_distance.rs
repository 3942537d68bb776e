//! Sub-distance between two triple elements (§III-A's two "main cases").

use semtree_model::Term;
use semtree_vocab::similarity::{Similarity, SimilarityMeasure};
use semtree_vocab::strings::normalised_levenshtein;

use crate::registry::{TermResolution, VocabularyRegistry};

/// Distance charged when the two elements are not comparable: mixed
/// kinds (literal vs concept), literals of different types, or concepts
/// from different vocabularies. The paper leaves this case open; 1.0
/// (maximally distant) is the conservative choice.
const MIXED_PENALTY: f64 = 1.0;

/// Configuration of the element-level distance. Two literals of the same
/// type are always compared by
/// [`normalised_levenshtein`](semtree_vocab::strings::normalised_levenshtein),
/// the paper's named string measure, and so are the names of two concepts
/// of one vocabulary when either is missing from its taxonomy: that keeps
/// out-of-vocabulary concepts (noisy NLP output) comparable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TermDistanceConfig {
    /// Taxonomy measure used when both elements are concepts of the same
    /// vocabulary (paper default: Wu & Palmer).
    pub semantic: SimilarityMeasure,
}

impl Default for TermDistanceConfig {
    fn default() -> Self {
        TermDistanceConfig {
            semantic: SimilarityMeasure::WuPalmer,
        }
    }
}

impl TermDistanceConfig {
    /// Distance in `[0, 1]` between two triple elements: both are resolved
    /// against `registry`, then compared by `Self::resolved_distance`.
    #[must_use]
    pub fn distance(&self, registry: &VocabularyRegistry, a: &Term, b: &Term) -> f64 {
        self.resolved_distance(
            registry,
            (a, registry.resolve_term(a)),
            (b, registry.resolve_term(b)),
        )
    }

    /// [`Self::distance`] between two elements whose vocabulary lookups are
    /// done: each operand is a term with its
    /// [`VocabularyRegistry::resolve_term`] against `registry`. No lookup
    /// is repeated here.
    pub(crate) fn resolved_distance(
        &self,
        registry: &VocabularyRegistry,
        (a, ra): (&Term, TermResolution),
        (b, rb): (&Term, TermResolution),
    ) -> f64 {
        match (a, b) {
            (Term::Literal(la), Term::Literal(lb)) => {
                if la.dtype == lb.dtype {
                    normalised_levenshtein(&la.value, &lb.value)
                } else {
                    MIXED_PENALTY
                }
            }
            (Term::Concept(ca), Term::Concept(cb)) => {
                if ca.prefix != cb.prefix {
                    return MIXED_PENALTY;
                }
                // One prefix, one slot: `a`'s is `b`'s.
                match (ra.0, rb.0) {
                    (Some((slot, ia)), Some((_, ib))) => {
                        1.0 - self
                            .semantic
                            .similarity_ids(registry.taxonomy(slot), ia, ib)
                    }
                    _ => normalised_levenshtein(&ca.name, &cb.name),
                }
            }
            _ => MIXED_PENALTY,
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use semtree_model::{Literal, LiteralType};
    use semtree_vocab::wordnet;

    use super::*;

    fn registry() -> VocabularyRegistry {
        let mut r = VocabularyRegistry::new();
        r.register_standard(Arc::new(wordnet::mini_taxonomy()));
        r.register("Fun", Arc::new(wordnet::mini_taxonomy()));
        r
    }

    #[test]
    fn literal_same_type_uses_string_measure() {
        let cfg = TermDistanceConfig::default();
        let r = registry();
        let d = cfg.distance(&r, &Term::literal("OBSW001"), &Term::literal("OBSW002"));
        assert!((d - 1.0 / 7.0).abs() < 1e-12); // one edit over max length 7
        assert_eq!(
            cfg.distance(&r, &Term::literal("x"), &Term::literal("x")),
            0.0
        );
    }

    #[test]
    fn literal_different_type_is_mixed() {
        let cfg = TermDistanceConfig::default();
        let r = registry();
        let a = Term::Literal(Literal::typed("42", LiteralType::Integer));
        let b = Term::Literal(Literal::typed("42", LiteralType::String));
        assert_eq!(cfg.distance(&r, &a, &b), MIXED_PENALTY);
    }

    #[test]
    fn concepts_same_vocab_use_taxonomy() {
        let cfg = TermDistanceConfig::default();
        let r = registry();
        let near = cfg.distance(&r, &Term::concept("accept"), &Term::concept("reject"));
        let far = cfg.distance(&r, &Term::concept("accept"), &Term::concept("antenna"));
        assert!(near < far);
        assert_eq!(
            cfg.distance(&r, &Term::concept("accept"), &Term::concept("accept")),
            0.0
        );
    }

    #[test]
    fn concepts_different_vocab_are_mixed() {
        let cfg = TermDistanceConfig::default();
        let r = registry();
        let d = cfg.distance(
            &r,
            &Term::concept_in("Fun", "accept"),
            &Term::concept("accept"),
        );
        assert_eq!(d, MIXED_PENALTY);
    }

    #[test]
    fn unknown_concept_falls_back_to_string() {
        let cfg = TermDistanceConfig::default();
        let r = registry();
        let d = cfg.distance(&r, &Term::concept("acceptx"), &Term::concept("accepty"));
        assert!(
            d < 1.0,
            "string fallback should see the near-identical names"
        );
    }

    #[test]
    fn unregistered_vocabulary_falls_back() {
        let cfg = TermDistanceConfig::default();
        let r = registry();
        let d = cfg.distance(
            &r,
            &Term::concept_in("Ghost", "same"),
            &Term::concept_in("Ghost", "same"),
        );
        assert_eq!(d, 0.0); // identical names under string fallback
    }

    #[test]
    fn mixed_kind_is_penalised() {
        let cfg = TermDistanceConfig::default();
        let r = registry();
        assert_eq!(
            cfg.distance(&r, &Term::literal("accept"), &Term::concept("accept")),
            MIXED_PENALTY
        );
    }

    /// `distance`'s body before the resolved arm, kept as the oracle: it
    /// looks the vocabulary and both concepts up on every call.
    fn distance_oracle(
        cfg: &TermDistanceConfig,
        registry: &VocabularyRegistry,
        a: &Term,
        b: &Term,
    ) -> f64 {
        match (a, b) {
            (Term::Literal(la), Term::Literal(lb)) => {
                if la.dtype == lb.dtype {
                    normalised_levenshtein(&la.value, &lb.value)
                } else {
                    MIXED_PENALTY
                }
            }
            (Term::Concept(ca), Term::Concept(cb)) => {
                if ca.prefix != cb.prefix {
                    return MIXED_PENALTY;
                }
                let Some(tax) = registry.resolve(ca.prefix.as_deref()) else {
                    return normalised_levenshtein(&ca.name, &cb.name);
                };
                match (tax.id_of(&ca.name), tax.id_of(&cb.name)) {
                    (Some(ia), Some(ib)) => 1.0 - cfg.semantic.similarity_ids(tax, ia, ib),
                    _ => normalised_levenshtein(&ca.name, &cb.name),
                }
            }
            _ => MIXED_PENALTY,
        }
    }

    /// A small DAG vocabulary sharing some names with the mini taxonomy.
    fn dag() -> Arc<semtree_vocab::Taxonomy> {
        let mut b = semtree_vocab::Taxonomy::builder("Fun");
        b.add("act", &[]);
        b.add("accept", &["act"]);
        b.add("signal", &["act"]);
        b.add("send", &["signal", "accept"]);
        b.add("start", &["act"]);
        b.add("start-up", &["start", "signal"]);
        Arc::new(b.build().unwrap())
    }

    /// Every operand kind Eq. 1 dispatches on: literals of three types,
    /// standard and `Fun` concepts in and out of vocabulary, and concepts
    /// of the unregistered `Ghost` vocabulary.
    fn operands() -> Vec<Term> {
        let mut terms = vec![
            Term::literal("OBSW001"),
            Term::literal("OBSW002"),
            Term::literal("accept"),
            Term::literal(""),
            Term::Literal(Literal::typed("42", LiteralType::Integer)),
            Term::Literal(Literal::typed("43", LiteralType::Integer)),
            Term::Literal(Literal::typed("42", LiteralType::String)),
            Term::Literal(Literal::typed("4.2", LiteralType::Decimal)),
        ];
        for name in [
            "accept", "reject", "antenna", "start", "message", "acceptx", "zzz",
        ] {
            terms.push(Term::concept(name));
        }
        for name in ["accept", "send", "start-up", "signal", "act", "acceptx"] {
            terms.push(Term::concept_in("Fun", name));
        }
        for name in ["accept", "accepty"] {
            terms.push(Term::concept_in("Ghost", name));
        }
        terms
    }

    proptest::proptest! {
        #[test]
        fn resolved_distance_is_the_oracle_bit_for_bit(
            measure in 0usize..5,
            standard in 0u8..2,
        ) {
            // Without a standard taxonomy, unprefixed concepts are an
            // unregistered vocabulary too.
            let mut r = VocabularyRegistry::new();
            if standard == 1 {
                r.register_standard(Arc::new(wordnet::mini_taxonomy()));
            }
            r.register("Fun", dag());
            let cfg = TermDistanceConfig {
                semantic: SimilarityMeasure::ALL[measure],
            };
            let terms = operands();
            for a in &terms {
                for b in &terms {
                    let got = cfg.distance(&r, a, b).to_bits();
                    let want = distance_oracle(&cfg, &r, a, b).to_bits();
                    proptest::prop_assert_eq!(got, want, "{} / {}", a, b);
                }
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn rows_embed_what_the_pair_oracle_embeds_bit_for_bit(
            measure in 0usize..5,
            standard in 0u8..2,
            weights in (0.0f64..1.0, 0.0f64..1.0, 0.01f64..1.0),
            picks in proptest::collection::vec((0usize..23, 0usize..23, 0usize..23), 0..60),
            k in 1usize..6,
            seed in 0u64..u64::MAX,
        ) {
            use semtree_fastmap::{Embedding, FastMap};
            use semtree_model::{Triple, TripleStore};

            use crate::{TripleDistance, Weights};

            let mut r = VocabularyRegistry::new();
            if standard == 1 {
                r.register_standard(Arc::new(wordnet::mini_taxonomy()));
            }
            r.register("Fun", dag());
            let cfg = TermDistanceConfig {
                semantic: SimilarityMeasure::ALL[measure],
            };
            let (alpha, beta, gamma) = weights;
            let weights = Weights::normalised(alpha, beta, gamma).unwrap();
            let distance = TripleDistance::with_config(weights, cfg, Arc::new(r));
            let terms = operands();
            assert_eq!(terms.len(), 23, "picks must draw from every operand");
            let mut store = TripleStore::new();
            let doc = store.create_document("D");
            for &(s, p, o) in &picks {
                store.insert(doc, Triple::new(terms[s].clone(), terms[p].clone(), terms[o].clone()));
            }
            let triples = store.triples();
            let n = triples.len();
            let resolved: Vec<_> = triples.iter().map(|t| distance.resolve(t)).collect();
            let pair = |i: usize, j: usize| {
                distance.resolved_distance((&triples[i], resolved[i]), (&triples[j], resolved[j]))
            };
            let resolutions = distance.resolve_terms(&store);
            let rows = distance.rows(&store, &resolutions);

            // The row contract: every off-diagonal entry is the pair's.
            for s in 0..n {
                let row = rows.row(s);
                for x in (0..n).filter(|&x| x != s) {
                    let want = pair(s.min(x), s.max(x)).to_bits();
                    proptest::prop_assert_eq!(row(x).to_bits(), want, "row {} entry {}", s, x);
                }
            }
            let bits = |e: &Embedding| -> Vec<u64> {
                let coords = (0..e.len()).flat_map(|i| e.point(i).iter().map(|c| c.to_bits()));
                let pivots = e.pivots().iter().flat_map(|p| [p.a as u64, p.b as u64, p.d_ab.to_bits()]);
                coords.chain(pivots).collect()
            };
            for threads in [1, 3] {
                let fastmap = FastMap::new(k).with_seed(seed).with_threads(threads);
                let want = fastmap.embed(n, &pair);
                let got = fastmap.embed_rows(n, &|s| rows.row(s));
                proptest::prop_assert_eq!(bits(&got), bits(&want), "threads {}", threads);
            }
        }
    }

    #[test]
    fn distance_is_symmetric_across_kinds() {
        let cfg = TermDistanceConfig::default();
        let r = registry();
        let terms = [
            Term::literal("OBSW001"),
            Term::concept("accept"),
            Term::concept_in("Fun", "send"),
            Term::Literal(Literal::typed("5", LiteralType::Integer)),
        ];
        for a in &terms {
            for b in &terms {
                let d1 = cfg.distance(&r, a, b);
                let d2 = cfg.distance(&r, b, a);
                assert!((d1 - d2).abs() < 1e-12, "asymmetric for {a} / {b}");
            }
        }
    }
}
