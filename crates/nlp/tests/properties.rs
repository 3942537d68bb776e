//! Properties of the tokenizer and the SVO extractor on generated prose.

use proptest::prelude::*;
use semtree_model::Term;
use semtree_nlp::{is_stopword, tokenize, SvoExtractor};

/// Pieces a requirement sentence is assembled from: actors, modals,
/// lexicon verbs (bare and inflected), class nouns, stopwords,
/// conjunctions, negations, passive markers, condition openers,
/// punctuation, suffix fragments and characters whose lowercase is
/// longer than, or outside the script of, their uppercase.
const POOL: &[&str] = &[
    "OBSW001",
    "PSU002",
    "Unit",
    "SHALL",
    "not",
    "never",
    "be",
    "by",
    "by",
    "accept",
    "accepted",
    "Accepts",
    "sending",
    "validated",
    "verifies",
    "stopped",
    "store",
    "command",
    "commands",
    "message",
    "input",
    "output",
    "mode",
    "signal",
    "telemetry",
    "parameter",
    "the",
    "The",
    "a",
    "of",
    "with",
    "and",
    "or",
    "AND",
    "When",
    "if",
    "during",
    ",",
    ".",
    "-",
    "_",
    "(",
    ")",
    "ing",
    "ed",
    "s",
    "start-up",
    "é",
    "ß",
    "\u{212A}",
    "İ",
    "Σ",
    "ΣΑ",
    "ǅ",
    "½",
    "42",
];

/// Modal openings, so that most generated sentences reach the verb.
const MODALS: &[&str] = &["shall", "MUST", "will not", "should never be", "shall be"];

/// Verbs known, inflected, unknown or case-mapped.
const VERBS: &[&str] = &[
    "accept",
    "Accepted",
    "validated",
    "verifies",
    "stopped",
    "sending",
    "store",
    "frobnicate",
    "\u{212A}ill",
    "CHEC\u{212A}",
    "éing",
    "İNG",
];

/// What joins two pieces: a space, nothing (gluing them into one word)
/// or a hyphen.
const GLUE: &[&str] = &[" ", " ", " ", "", "-"];

/// The stopword list, as `is_stopword` held it before it became a `match`.
const STOPWORDS: [&str; 37] = [
    "a", "an", "the", "this", "that", "these", "those", "of", "in", "on", "at", "to", "from", "by",
    "with", "and", "or", "for", "as", "is", "are", "be", "been", "was", "were", "it", "its", "any",
    "all", "each", "every", "when", "then", "than", "so", "such", "via",
];

/// Edits of a stopword: none (twice, so that many cases stay
/// stopwords), cut its last char, lengthen it, or swap an `i` for `İ` or
/// an `o` for the Greek capital omicron, look-alikes whose lowercase is
/// not the ASCII letter.
const EDITS: &[fn(&str) -> String] = &[
    |w| w.to_string(),
    |w| w.to_string(),
    |w| w[..w.len() - 1].to_string(),
    |w| format!("{w}s"),
    |w| format!("x{w}"),
    |w| w.replacen('i', "İ", 1),
    |w| w.replacen('o', "\u{39F}", 1),
];

#[test]
fn every_stopword_is_one_in_lower_upper_and_title_case() {
    for w in STOPWORDS {
        let title = w[..1].to_uppercase() + &w[1..];
        for form in [w.to_string(), w.to_uppercase(), title] {
            assert!(is_stopword(&form), "{form:?}");
        }
    }
    for w in [
        "command", "OBSW001", "accept", "start-up", "", "İt", "whEn-", "thé",
    ] {
        assert!(!is_stopword(w), "{w:?}");
    }
}

fn phrase(picks: &[(usize, usize)]) -> String {
    picks
        .iter()
        .map(|&(word, glue)| format!("{}{}", POOL[word], GLUE[glue]))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn tokens_concatenate_to_the_sentence_without_whitespace(
        s in "[a-zA-Z0-9 _.,;()\t\u{212A}İΣσéß½ǅ-]{0,40}",
    ) {
        let joined: String = tokenize(&s).iter().map(|t| t.text).collect();
        let expected: String = s.chars().filter(|c| !c.is_whitespace()).collect();
        prop_assert_eq!(joined, expected);
    }

    #[test]
    fn is_stopword_is_membership_of_the_lowercased_word(
        word in 0..STOPWORDS.len(),
        edit in 0..EDITS.len(),
        case_mask in 0..256usize,
    ) {
        let edited = EDITS[edit](STOPWORDS[word]);
        // Uppercase the chars the mask's bits pick.
        let mut cased = String::new();
        for (i, c) in edited.chars().enumerate() {
            if (case_mask >> (i % 8)) & 1 == 1 {
                cased.extend(c.to_uppercase());
            } else {
                cased.push(c);
            }
        }
        let expected = STOPWORDS.contains(&cased.to_lowercase().as_str());
        prop_assert_eq!(is_stopword(&cased), expected, "{:?}", cased);
    }

    #[test]
    fn extraction_never_panics_and_keeps_its_terms_well_formed(
        subject in prop::collection::vec((0..POOL.len(), 0..GLUE.len()), 1..5),
        modal in 0..MODALS.len(),
        between in prop::collection::vec((0..POOL.len(), 0..GLUE.len()), 0..2),
        verb in 0..VERBS.len(),
        object in prop::collection::vec((0..POOL.len(), 0..GLUE.len()), 0..9),
    ) {
        let s = format!(
            "{} {} {}{} {}",
            phrase(&subject),
            MODALS[modal],
            phrase(&between),
            VERBS[verb],
            phrase(&object)
        );
        let Ok(triples) = SvoExtractor::requirements().extract_sentence_all(&s) else {
            return;
        };
        prop_assert!(!triples.is_empty(), "{s:?}");
        for t in &triples {
            prop_assert!(!t.subject.lexical().is_empty(), "{s:?} → {t}");
            let Term::Concept(object) = &t.object else {
                panic!("{s:?} → {t}: the object is not a concept");
            };
            prop_assert!(!object.name.is_empty(), "{s:?} → {t}");
            prop_assert_eq!(&*object.name, object.name.to_lowercase(), "{:?} → {}", s, t);
        }
    }
}
