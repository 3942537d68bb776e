//! A compact English stopword list for requirement prose.

use crate::tokenizer::lowercase;

/// Whether `word` (matched case-insensitively) is a stopword: one of the
/// 37 words the extractor skips when assembling subject/object phrases.
#[must_use]
#[rustfmt::skip]
pub fn is_stopword(word: &str) -> bool {
    matches!(
        &*lowercase(word),
        "a" | "an" | "the" | "this" | "that" | "these" | "those" | "of" | "in" | "on" | "at"
            | "to" | "from" | "by" | "with" | "and" | "or" | "for" | "as" | "is" | "are" | "be"
            | "been" | "was" | "were" | "it" | "its" | "any" | "all" | "each" | "every" | "when"
            | "then" | "than" | "so" | "such" | "via"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn common_words_are_stopwords() {
        for w in ["the", "a", "The", "AND", "with"] {
            assert!(is_stopword(w), "{w}");
        }
    }

    #[test]
    fn content_words_are_not() {
        for w in ["command", "OBSW001", "accept", "start-up"] {
            assert!(!is_stopword(w), "{w}");
        }
    }
}
