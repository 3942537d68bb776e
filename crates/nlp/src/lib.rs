//! Lightweight NLP substrate: from requirement prose to triples.
//!
//! The paper assumes "NLP facilities to transform a text in a set of
//! triples can be easily exploited" and deliberately does not specify them.
//! This crate provides the concrete facility the rest of the system uses:
//! a tokenizer, sentence splitter, stopword list, light stemmer, and an
//! SVO (subject–verb–object) extractor tuned to the controlled grammar of
//! software requirements (`X shall <verb> the <parameter> <class>`).
//!
//! The extractor reproduces the paper's own notation: from
//!
//! ```text
//! OBSW001 shall accept the start-up command.
//! ```
//!
//! it derives `('OBSW001', Fun:accept_cmd, CmdType:start-up)` — exactly the
//! resource shape of the paper's §III-A example (`Fun:acquire_in`,
//! `InType:pre-launch phase`, `Fun:send_msg`, `MsgType:power amplifier`).
//!
//! # What a sentence costs
//!
//! [`tokenize`] hands out [`Token`]s that borrow their text from the
//! sentence, and the extractor's words are its non-punctuation tokens.
//! Each word is lowercased once, borrowed when it already is lowercase
//! ASCII and put through `str::to_lowercase` otherwise, so Unicode case
//! mappings (the Kelvin sign, `İ`, a final `Σ`) come out as they always
//! did; [`is_stopword`] and [`light_stem`] allocate nothing for a word
//! that is already lowercase. Every predicate the extractor can emit
//! (`Fun:<verb>` and `Fun:<verb>_<class>`) and every object prefix is
//! built once, in [`SvoExtractor::requirements`]. A sentence's subject
//! and object conjuncts are kept in one buffer, and every triple is
//! handed out as a borrowed [`semtree_model::TripleRef`] by
//! [`SvoExtractor::extract_each`], so a `TripleStore` sink builds a term
//! only the first time it sees it. [`SvoExtractor::extract`] and
//! [`SvoExtractor::extract_sentence_all`] build owned triples from the
//! same views.
//!
//! # Example
//!
//! ```
//! use semtree_nlp::SvoExtractor;
//!
//! let ex = SvoExtractor::requirements();
//! let triples = ex.extract("OBSW001 shall accept the start-up command.");
//! assert_eq!(triples.len(), 1);
//! assert_eq!(triples[0].to_string(), "('OBSW001', Fun:accept_cmd, CmdType:start-up)");
//! ```

mod extract;
mod stem;
mod stopwords;
mod tokenizer;

pub use extract::{ExtractError, SvoExtractor};
pub use stem::light_stem;
pub use stopwords::is_stopword;
pub use tokenizer::{sentences, tokenize, Token, TokenKind};
