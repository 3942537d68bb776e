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
//! sentence. [`SvoExtractor::extract_each`] parses all of a text's
//! sentences over one scratch that it clears per sentence: the words,
//! their lowercase forms back to back in one buffer, the conjunct
//! buffers and the subject and object lists, so a sentence allocates
//! nothing once the scratch has grown. A word is lowercased once, ASCII
//! in place and anything else through `str::to_lowercase`, so Unicode
//! case mappings (the Kelvin sign, `İ`, a final `Σ`) come out as they
//! always did. [`is_stopword`] is a `match`, the verb and class lexicons
//! are constant tables searched by position, and [`light_stem`]
//! allocates nothing for a word that is already lowercase. Every
//! predicate the extractor can emit (`Fun:<verb>` and
//! `Fun:<verb>_<class>`) and every object prefix is built once, in
//! [`SvoExtractor::requirements`]. Every triple is handed out as a
//! borrowed [`semtree_model::TripleRef`], so a `TripleStore` sink builds
//! a term only the first time it sees it. [`SvoExtractor::extract`] and
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
