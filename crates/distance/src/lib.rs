//! The paper's semantic distance between triples (Eq. 1):
//!
//! ```text
//! d(ti, tj) = α·ds(tiˢ, tjˢ) + β·dp(tiᵖ, tjᵖ) + γ·do(tiᵒ, tjᵒ),   α+β+γ = 1
//! ```
//!
//! Sub-distances dispatch per §III-A:
//! - both elements literals of the same type → the normalised Levenshtein
//!   distance ([`semtree_vocab::strings::normalised_levenshtein`]);
//! - both elements concepts → a taxonomy similarity
//!   ([`semtree_vocab::similarity::SimilarityMeasure`], Wu & Palmer by
//!   default), resolved through a [`VocabularyRegistry`] keyed by the
//!   concept's prefix;
//! - anything else (mixed kinds, different literal types, different
//!   vocabularies) → a configurable *mixed penalty*, 1.0 by default.
//!
//! All sub-distances land in `[0, 1]`, and the weights are validated to sum
//! to 1, so the triple distance is itself in `[0, 1]` — a property the
//! FastMap embedding and the experiments rely on and the test-suite checks
//! by property testing.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use semtree_model::{Term, Triple};
//! use semtree_vocab::wordnet;
//! use semtree_distance::{TripleDistance, VocabularyRegistry, Weights};
//!
//! let mut reg = VocabularyRegistry::new();
//! reg.register_standard(Arc::new(wordnet::mini_taxonomy()));
//! let dist = TripleDistance::new(Weights::default(), Arc::new(reg));
//!
//! let a = Triple::new(Term::literal("OBSW001"), Term::concept("accept"), Term::concept("start"));
//! let b = Triple::new(Term::literal("OBSW001"), Term::concept("block"),  Term::concept("start"));
//! let c = Triple::new(Term::literal("PSU9"),    Term::concept("send"),   Term::concept("message"));
//!
//! assert_eq!(dist.distance(&a, &a), 0.0);
//! assert!(dist.distance(&a, &b) < dist.distance(&a, &c));
//! ```

mod cache;
mod registry;
mod term_distance;
mod triple_distance;
mod weights;

pub use cache::MemoizedDistance;
pub use registry::VocabularyRegistry;
pub use term_distance::TermDistanceConfig;
pub use triple_distance::{TermResolutions, TripleDistance, TripleResolution, TripleRows};
pub use weights::{Weights, WeightsError};
