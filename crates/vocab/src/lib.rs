//! Vocabulary substrate for SemTree: taxonomies, semantic similarity
//! measures, antinomy relations and the string distance.
//!
//! The paper computes sub-distances between triple elements in two ways
//! (§III-A):
//!
//! - *both elements are literals of the same type* → "any distance function
//!   between strings, i.e. Levenshtein" — provided by [`strings`];
//! - *both elements are concepts* → "any distance semantic based on the
//!   available ontologies, taxonomies or vocabularies, i.e. Wu & Palmer" —
//!   provided by [`Taxonomy`] + [`similarity`].
//!
//! The requirements case study additionally needs an **antinomy** relation
//! ("the two predicates are linked by an antinomy relationship in a given
//! vocabulary") — provided by [`AntinomyTable`].
//!
//! # Example
//!
//! ```
//! use semtree_vocab::{Taxonomy, similarity::{Similarity, SimilarityMeasure}};
//!
//! let mut b = Taxonomy::builder("Fun");
//! b.add("command_handling", &["root"]);
//! b.add("accept_cmd", &["command_handling"]);
//! b.add("block_cmd", &["command_handling"]);
//! b.add("telemetry", &["root"]);
//! b.add("send_msg", &["telemetry"]);
//! let tax = b.build().unwrap();
//!
//! let wp = SimilarityMeasure::WuPalmer;
//! let near = wp.similarity(&tax, "accept_cmd", "block_cmd").unwrap();
//! let far = wp.similarity(&tax, "accept_cmd", "send_msg").unwrap();
//! assert!(near > far);
//! ```

mod antinomy;
mod error;
pub mod ic;
pub mod similarity;
pub mod strings;
mod taxonomy;
pub mod wordnet;

pub use antinomy::AntinomyTable;
pub use error::VocabError;
pub use taxonomy::{ConceptId, Taxonomy, TaxonomyBuilder, ROOT_NAME};
