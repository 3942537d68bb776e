//! # SemTree — semantic document indexing over RDF-style triples
//!
//! The end-to-end system of *"SemTree: an index for supporting semantic
//! retrieval of documents"* (ICDE Workshops 2015): document semantics are
//! expressed as `(subject, predicate, object)` triples, a **semantic
//! distance** (Eq. 1) compares them through vocabularies/taxonomies,
//! **FastMap** embeds them into `R^k`, and a **distributed KD-tree**
//! answers k-nearest and range queries — including the paper's case study,
//! finding *inconsistencies* in software-requirement documents.
//!
//! ```text
//!  documents ──NLP──▶ triples ──Eq.1 distance──▶ FastMap ──▶ R^k ──▶ distributed KD-tree
//!                                                                        │
//!            query triple ──project──▶ q ∈ R^k ──king/range──────────────┘
//! ```
//!
//! # Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use semtree_core::{SemTree, Term, Triple};
//! use semtree_vocab::wordnet;
//!
//! let mut builder = SemTree::builder()
//!     .dimensions(4)
//!     .register_standard(Arc::new(wordnet::mini_taxonomy()));
//! builder.add_document_text(
//!     "REQ-1",
//!     "OBSW001 shall accept the start-up command. \
//!      OBSW001 shall send the heartbeat message.",
//! );
//! builder.add_document_text("REQ-2", "OBSW001 shall block the start-up command.");
//! let index = builder.build().expect("non-empty corpus");
//!
//! // Query by example: triples similar to "OBSW001 blocks start-up".
//! let query = Triple::new(
//!     Term::literal("OBSW001"),
//!     Term::concept_in("Fun", "block_cmd"),
//!     Term::concept_in("CmdType", "start-up"),
//! );
//! let hits = index.knn(&query, 2);
//! assert_eq!(hits.len(), 2);
//! // The exact match ranks first; the antinomic twin right after it.
//! assert_eq!(hits[0].triple.predicate.lexical(), "block_cmd");
//! assert_eq!(hits[1].triple.predicate.lexical(), "accept_cmd");
//! index.shutdown();
//! ```

mod builder;
mod error;
mod hit;
mod inconsistency;
mod index;
pub mod persist;
mod retrieval;

pub use builder::SemTreeBuilder;
pub use error::BuildError;
pub use hit::Hit;
pub use inconsistency::InconsistencyFinder;
pub use index::{QueryOptions, SemTree};
pub use persist::{load_index_str, save_index_string, PersistError};
pub use retrieval::{DocumentHit, DocumentRetriever, Matched};

// The vocabulary types a typical user needs, re-exported for convenience.
pub use semtree_cluster::CostModel;
pub use semtree_distance::{TripleDistance, VocabularyRegistry, Weights};
pub use semtree_model::{Term, Triple, TripleId, TripleStore};
pub use semtree_vocab::similarity::SimilarityMeasure;
pub use semtree_vocab::{AntinomyTable, Taxonomy};
