//! Sub-distance between two triple elements (§III-A's two "main cases").

use semtree_model::Term;
use semtree_vocab::similarity::{Similarity, SimilarityMeasure};
use semtree_vocab::strings::normalised_levenshtein;

use crate::registry::{TermResolution, VocabularyRegistry};

/// Configuration of the element-level distance. Two literals of the same
/// type are always compared by
/// [`normalised_levenshtein`](semtree_vocab::strings::normalised_levenshtein),
/// the paper's named string measure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TermDistanceConfig {
    /// Taxonomy measure used when both elements are concepts of the same
    /// vocabulary (paper default: Wu & Palmer).
    pub semantic: SimilarityMeasure,
    /// Distance charged when the two elements are not comparable: mixed
    /// kinds (literal vs concept), literals of different types, or concepts
    /// from different vocabularies. The paper leaves this case open; 1.0
    /// (maximally distant) is the conservative default.
    pub mixed_penalty: f64,
    /// When a concept is missing from its taxonomy, compare the concept
    /// names as same-typed literals are compared (normalised Levenshtein)
    /// instead of charging the mixed penalty. Keeps out-of-vocabulary
    /// concepts comparable (useful with noisy NLP output).
    pub string_fallback: bool,
}

impl Default for TermDistanceConfig {
    fn default() -> Self {
        TermDistanceConfig {
            semantic: SimilarityMeasure::WuPalmer,
            mixed_penalty: 1.0,
            string_fallback: true,
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
                    self.mixed_penalty
                }
            }
            (Term::Concept(ca), Term::Concept(cb)) => {
                if ca.prefix != cb.prefix {
                    return self.mixed_penalty;
                }
                // One prefix, one slot: `a`'s is `b`'s.
                match (ra.0, rb.0) {
                    (Some((slot, ia)), Some((_, ib))) => {
                        1.0 - self
                            .semantic
                            .similarity_ids(registry.taxonomy(slot), ia, ib)
                    }
                    _ => self.fallback(&ca.name, &cb.name),
                }
            }
            _ => self.mixed_penalty,
        }
    }

    fn fallback(&self, a: &str, b: &str) -> f64 {
        if self.string_fallback {
            normalised_levenshtein(a, b)
        } else {
            self.mixed_penalty
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
        assert_eq!(cfg.distance(&r, &a, &b), cfg.mixed_penalty);
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
        assert_eq!(d, cfg.mixed_penalty);
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

        let strict = TermDistanceConfig {
            string_fallback: false,
            ..cfg
        };
        assert_eq!(
            strict.distance(&r, &Term::concept("acceptx"), &Term::concept("accepty")),
            1.0
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
            cfg.mixed_penalty
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
                    cfg.mixed_penalty
                }
            }
            (Term::Concept(ca), Term::Concept(cb)) => {
                if ca.prefix != cb.prefix {
                    return cfg.mixed_penalty;
                }
                let Some(tax) = registry.resolve(ca.prefix.as_deref()) else {
                    return cfg.fallback(&ca.name, &cb.name);
                };
                match (tax.id_of(&ca.name), tax.id_of(&cb.name)) {
                    (Some(ia), Some(ib)) => 1.0 - cfg.semantic.similarity_ids(tax, ia, ib),
                    _ => cfg.fallback(&ca.name, &cb.name),
                }
            }
            _ => cfg.mixed_penalty,
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
            fallback in 0u8..2,
            penalty in 0.0f64..=1.0,
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
                mixed_penalty: penalty,
                string_fallback: fallback == 1,
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
