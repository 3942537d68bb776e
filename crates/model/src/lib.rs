//! RDF-style data model substrate for SemTree.
//!
//! The SemTree paper assumes "semantics of a document can be effectively
//! expressed by a set of *(subject, predicate, object)* statements as in the
//! RDF model". This crate provides that substrate:
//!
//! - [`Term`]: a triple element — either a [`Concept`] resolvable through a
//!   vocabulary prefix (`Fun:accept_cmd`) or a typed [`Literal`]
//!   (`'OBSW001'`, `42`).
//! - [`Triple`]: an `(subject, predicate, object)` statement, plus
//!   [`TriplePattern`] for wildcard matching.
//! - [`PrefixTable`]: prefix → namespace bindings (the paper's "the meaning
//!   of the concept `x` can be found by using the prefix `X`").
//! - [`Document`] / [`DocumentId`]: a named group of triples with metadata,
//!   modelling a requirements document made of sections.
//! - [`TripleStore`]: an in-memory, interning triple store with
//!   pattern-match iteration and per-document grouping.
//! - [`turtle`]: a parser/serializer for the Turtle-like tuple syntax used
//!   in the paper (`('OBSW001', Fun:accept_cmd, CmdType:start-up)`).
//!
//! # Example
//!
//! ```
//! use semtree_model::{Term, Triple, TripleStore, DocumentId};
//!
//! let mut store = TripleStore::new();
//! let doc = store.create_document("REQ-SW-001");
//! let t = Triple::new(
//!     Term::literal("OBSW001"),
//!     Term::concept_in("Fun", "accept_cmd"),
//!     Term::concept_in("CmdType", "start-up"),
//! );
//! let id = store.insert(doc, t.clone());
//! assert_eq!(store.get(id), Some(&t));
//! assert_eq!(store.len(), 1);
//! ```

mod document;
mod error;
mod prefix;
mod store;
mod term;
mod triple;
pub mod turtle;

pub use document::{Document, DocumentId, DocumentMeta};
pub use error::ModelError;
pub use prefix::PrefixTable;
pub use store::{StoreStats, TripleStore};
pub use term::{Concept, Literal, LiteralType, Term, TermRef};
pub use triple::{Triple, TripleId, TriplePattern, TripleRef, TripleRole};
