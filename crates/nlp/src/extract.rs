//! SVO extraction for the controlled requirements grammar.

use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use semtree_model::{Term, TermRef, Triple, TripleRef};

use crate::stem::light_stem;
use crate::stopwords::is_stopword;
use crate::tokenizer::{each_token, push_lowercase, sentences, TokenKind};

/// Extraction failure for a single sentence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExtractError {
    /// No modal verb (`shall`, `must`, …) found.
    NoModal,
    /// Nothing usable before the modal.
    NoSubject,
    /// No known action verb after the modal.
    NoVerb(String),
    /// No object phrase after the verb.
    NoObject,
}

impl fmt::Display for ExtractError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExtractError::NoModal => f.write_str("no modal verb (shall/must/…) in sentence"),
            ExtractError::NoSubject => f.write_str("no subject before the modal verb"),
            ExtractError::NoVerb(v) => write!(f, "unknown action verb '{v}'"),
            ExtractError::NoObject => f.write_str("no object phrase after the verb"),
        }
    }
}

impl std::error::Error for ExtractError {}

/// The modal verbs a requirement turns on.
const MODALS: [&str; 4] = ["shall", "must", "will", "should"];

/// The action verbs, one row each.
const VERBS: [&str; 20] = [
    "accept", "reject", "block", "allow", "send", "receive", "acquire", "release", "start", "stop",
    "enable", "disable", "monitor", "verify", "validate", "check", "transmit", "process", "store",
    "discard",
];

/// The verb a negation folds each of these to (`shall not accept` →
/// `block`); every other verb keeps its own row.
const NEGATIONS: [(&str, &str); 5] = [
    ("accept", "block"),
    ("allow", "reject"),
    ("enable", "disable"),
    ("start", "stop"),
    ("send", "discard"),
];

/// The object classes, one column each: (class noun, predicate suffix,
/// object prefix).
const CLASSES: [(&str, &str, &str); 8] = [
    ("command", "cmd", "CmdType"),
    ("message", "msg", "MsgType"),
    ("input", "in", "InType"),
    ("output", "out", "OutType"),
    ("mode", "mode", "ModeType"),
    ("signal", "sig", "SigType"),
    ("telemetry", "tm", "TmType"),
    ("parameter", "par", "ParType"),
];

/// The row of `verb` in [`VERBS`].
fn verb_row(verb: &str) -> Option<usize> {
    VERBS.iter().position(|&v| v == verb)
}

/// Extracts `(Actor, Fun:<verb>_<class>, <ClassType>:<parameter>)` triples
/// from `"<Actor> shall [not] <verb> the <parameter> <class>"` sentences —
/// the unary-function reading of requirements from the paper's §III-A.
#[derive(Debug, Clone)]
pub struct SvoExtractor {
    /// Object prefix per class column, `CmdType`, ….
    prefixes: Vec<Arc<str>>,
    /// Per verb row, `Fun:<verb>` then `Fun:<verb>_<suffix>` per class
    /// column: every predicate the extractor can emit, built once.
    predicates: Vec<Vec<Term>>,
}

/// The buffers a sentence's parse fills, kept across the sentences of one
/// text and cleared per sentence.
#[derive(Default)]
struct Scratch<'a> {
    /// The sentence's words (its non-punctuation tokens), as written and
    /// with the byte range of their lowercase form in `lowered`.
    words: Vec<(&'a str, Range<usize>)>,
    /// The words lowercased, back to back.
    lowered: String,
    /// One conjunct's words, joined in turn.
    text: String,
    /// The conjuncts kept, subjects then object parameters, back to back.
    kept: String,
    /// Each subject's byte range in `kept`.
    subjects: Vec<Range<usize>>,
    /// Each object conjunct's parameter (its range in `kept`, `None` for
    /// a bare class noun) and its class column.
    objects: Vec<(Option<Range<usize>>, Option<usize>)>,
}

impl SvoExtractor {
    /// The extractor configured for on-board-software requirements, with
    /// the verb/class lexicon the synthetic corpus also uses.
    #[must_use]
    pub fn requirements() -> Self {
        let fun: Arc<str> = Arc::from("Fun");
        let predicates = VERBS
            .iter()
            .map(|verb| {
                std::iter::once(Term::concept_in(fun.clone(), *verb))
                    .chain(CLASSES.iter().map(|(_, suffix, _)| {
                        Term::concept_in(fun.clone(), format!("{verb}_{suffix}"))
                    }))
                    .collect()
            })
            .collect();
        SvoExtractor {
            prefixes: CLASSES
                .iter()
                .map(|&(_, _, prefix)| prefix.into())
                .collect(),
            predicates,
        }
    }

    /// Extract the first triple from one sentence (see
    /// [`SvoExtractor::extract_sentence_all`] for conjunction handling).
    pub fn extract_sentence(&self, sentence: &str) -> Result<Triple, ExtractError> {
        self.extract_sentence_all(sentence).map(|mut v| v.remove(0))
    }

    /// Extract every triple a sentence asserts. The paper notes "a sentence
    /// can include several triples": object conjunctions
    /// (`… accept the start-up and shut-down commands`) yield one triple
    /// per conjunct. Passive sentences
    /// (`The start-up command shall be accepted by OBSW001`) are normalised
    /// to their active form first.
    pub fn extract_sentence_all(&self, sentence: &str) -> Result<Vec<Triple>, ExtractError> {
        let mut out = Vec::new();
        self.sentence_each(sentence, &mut Scratch::default(), &mut |t| {
            out.push(t.to_triple());
        })?;
        Ok(out)
    }

    /// Extract triples from whole text (unparseable sentences are skipped —
    /// free prose around the requirements is expected).
    #[must_use]
    pub fn extract(&self, text: &str) -> Vec<Triple> {
        let mut out = Vec::new();
        self.extract_each(text, |t| out.push(t.to_triple()));
        out
    }

    /// [`SvoExtractor::extract`], handing each triple to `sink` as a
    /// borrowed view instead of building it; returns how many there were.
    /// A [`semtree_model::TripleStore::insert_ref`] sink builds a term only
    /// the first time the store sees it. Every sentence is parsed over the
    /// same buffers.
    pub fn extract_each(&self, text: &str, mut sink: impl FnMut(TripleRef<'_>)) -> usize {
        let mut scratch = Scratch::default();
        let mut n = 0;
        for sentence in sentences(text) {
            // A sentence that fails hands `sink` nothing.
            n += self
                .sentence_each(sentence, &mut scratch, &mut sink)
                .unwrap_or(0);
        }
        n
    }

    /// Hand every triple `sentence` asserts to `sink` and count them; on
    /// an error, `sink` was handed nothing. `scratch` holds whatever an
    /// earlier sentence left in it.
    fn sentence_each<'a>(
        &self,
        sentence: &'a str,
        scratch: &mut Scratch<'a>,
        sink: &mut impl FnMut(TripleRef<'_>),
    ) -> Result<usize, ExtractError> {
        let Scratch {
            words,
            lowered,
            text,
            kept,
            subjects,
            objects,
        } = scratch;
        words.clear();
        lowered.clear();
        kept.clear();
        subjects.clear();
        objects.clear();

        // Leading subordinate clause ("When in safe mode, …", "During the
        // pre-launch phase, …") is scoped context, not part of the SVO
        // core: drop everything up to the first comma.
        let sentence = strip_condition_clause(sentence);
        each_token(sentence, |token| {
            if token.kind != TokenKind::Punct {
                let start = lowered.len();
                push_lowercase(lowered, token.text);
                words.push((token.text, start..lowered.len()));
            }
        });
        let lower = |i: usize| &lowered[words[i].1.clone()];
        let n_words = words.len();

        let modal_idx = (0..n_words)
            .position(|i| MODALS.contains(&lower(i)))
            .ok_or(ExtractError::NoModal)?;

        // Optional negation directly after the modal ("shall not …",
        // "shall not be … by …").
        let mut idx = modal_idx + 1;
        let mut negated = false;
        while idx < n_words && matches!(lower(idx), "not" | "never") {
            negated = true;
            idx += 1;
        }

        // Passive voice: "<object> shall [not] be <participle> by <subject>".
        let passive = idx < n_words && lower(idx) == "be";
        let (verb_idx, subject_range, object_range) = if passive {
            let verb_idx = idx + 1;
            if verb_idx >= n_words {
                return Err(ExtractError::NoVerb(String::new()));
            }
            let by_idx = (verb_idx + 1..n_words)
                .find(|&i| lower(i) == "by")
                .ok_or(ExtractError::NoSubject)?;
            (verb_idx, by_idx + 1..n_words, 0..modal_idx)
        } else {
            if idx >= n_words {
                return Err(ExtractError::NoVerb(String::new()));
            }
            (idx, 0..modal_idx, idx + 1..n_words)
        };

        // Subject conjunctions ("OBSW001 and OBSW002 shall …") assert the
        // statement for each actor.
        // `text` holds each conjunct's words in turn; the conjuncts it
        // yields are kept back to back in `kept`, subjects then object
        // parameters, as byte ranges.
        let mut keep = |conjunct: &str| {
            kept.push_str(conjunct);
            kept.len() - conjunct.len()..kept.len()
        };
        let subject_words = subject_range.map(|i| (lower(i), words[i].0));
        conjuncts(text, subject_words, |subject, _| {
            subjects.push(keep(subject));
        });
        if subjects.is_empty() {
            return Err(ExtractError::NoSubject);
        }

        let raw_verb = words[verb_idx].0;
        let stem = light_stem(raw_verb);
        // The light stemmer may leave a dropped silent `e` unrestored
        // ("validated" → "validat"); retry lexicon lookup with it appended.
        let mut verb = verb_row(&stem)
            .or_else(|| {
                VERBS
                    .iter()
                    .position(|v| v.strip_suffix('e') == Some(&*stem))
            })
            .ok_or_else(|| ExtractError::NoVerb(raw_verb.to_string()))?;
        if negated {
            // `shall not accept` ≡ `shall block`: fold the negation into
            // the antonym action so the antinomy machinery sees it.
            verb = NEGATIONS
                .iter()
                .find(|&&(from, _)| from == VERBS[verb])
                .and_then(|&(_, to)| verb_row(to))
                .unwrap_or(verb);
        }

        // Object conjunctions: split on and/or *before* stopword removal,
        // then resolve each conjunct's class noun. A class noun on the last
        // conjunct distributes to earlier ones ("start-up and shut-down
        // commands"). Each conjunct keeps its parameter (`None` when it is
        // a bare class noun) and the class column its own noun names.
        let object_words = object_range.map(|i| (lower(i), lower(i)));
        conjuncts(text, object_words, |object, last| {
            let noun = light_stem(&object[last..]);
            objects.push(match CLASSES.iter().position(|&(n, _, _)| n == noun) {
                Some(column) => ((last > 0).then(|| keep(&object[..last - 1])), Some(column)),
                None => (Some(keep(object)), None),
            });
        });
        if objects.is_empty() {
            return Err(ExtractError::NoObject);
        }

        // Right-to-left class inheritance.
        let mut inherited = None;
        for (_, class) in objects.iter_mut().rev() {
            inherited = class.or(inherited);
            *class = inherited;
        }

        let predicates = &self.predicates[verb];
        let mut emitted = 0;
        for (parameter, class) in objects.iter() {
            let Some(parameter) = parameter else {
                continue; // a bare class noun carries no parameter
            };
            let parameter = &kept[parameter.clone()];
            let (predicate, object) = match *class {
                Some(column) => (
                    &predicates[column + 1],
                    TermRef::Concept(Some(&self.prefixes[column]), parameter),
                ),
                None => (&predicates[0], TermRef::Concept(None, parameter)),
            };
            for subject in subjects.iter() {
                sink(TripleRef {
                    subject: TermRef::literal(&kept[subject.clone()]),
                    predicate: predicate.view(),
                    object,
                });
            }
            emitted += subjects.len();
        }
        if emitted == 0 {
            return Err(ExtractError::NoObject);
        }
        Ok(emitted)
    }
}

/// Split `(lowercased, kept)` word pairs into conjuncts on `and` / `or`,
/// dropping stopwords, and hand each non-empty conjunct to `emit`: its
/// kept words joined by single spaces (built in `buf`), and the byte
/// offset where its last word starts.
fn conjuncts<'w>(
    buf: &mut String,
    words: impl Iterator<Item = (&'w str, &'w str)>,
    mut emit: impl FnMut(&str, usize),
) {
    buf.clear();
    let mut last = 0;
    for (lower, kept) in words {
        if lower == "and" || lower == "or" {
            if !buf.is_empty() {
                emit(buf, last);
                buf.clear();
            }
        } else if !is_stopword(lower) {
            if !buf.is_empty() {
                buf.push(' ');
            }
            last = buf.len();
            buf.push_str(kept);
        }
    }
    if !buf.is_empty() {
        emit(buf, last);
    }
}

/// Strip a leading subordinate clause introduced by a condition keyword and
/// terminated by a comma. Sentences without one pass through unchanged.
fn strip_condition_clause(sentence: &str) -> &str {
    const CONDITIONS: [&str; 6] = ["when ", "while ", "if ", "during ", "after ", "before "];
    let trimmed = sentence.trim_start();
    // Only ASCII letters, the Kelvin sign (→ `k`) and `İ` (→ `i̇`)
    // lowercase to ASCII, and no keyword holds `k` or `i̇`, so an ASCII
    // case-insensitive compare gives what a Unicode one would.
    let opens_with = |keyword: &str| {
        (trimmed.as_bytes().get(..keyword.len()))
            .is_some_and(|head| head.eq_ignore_ascii_case(keyword.as_bytes()))
    };
    if CONDITIONS.iter().any(|c| opens_with(c)) {
        if let Some(comma) = trimmed.find(',') {
            return trimmed[comma + 1..].trim_start();
        }
    }
    trimmed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ex() -> SvoExtractor {
        SvoExtractor::requirements()
    }

    #[test]
    fn paper_example_accept_cmd() {
        let t = ex()
            .extract_sentence("OBSW001 shall accept the start-up command")
            .unwrap();
        assert_eq!(
            t.to_string(),
            "('OBSW001', Fun:accept_cmd, CmdType:start-up)"
        );
    }

    #[test]
    fn paper_example_acquire_input() {
        let t = ex()
            .extract_sentence("The OBSW001 shall acquire the pre-launch phase input")
            .unwrap();
        assert_eq!(
            t.to_string(),
            "('OBSW001', Fun:acquire_in, InType:pre-launch phase)"
        );
    }

    #[test]
    fn paper_example_send_msg() {
        let t = ex()
            .extract_sentence("OBSW001 shall send the power amplifier message")
            .unwrap();
        assert_eq!(
            t.to_string(),
            "('OBSW001', Fun:send_msg, MsgType:power amplifier)"
        );
    }

    #[test]
    fn negation_folds_to_antonym() {
        let t = ex()
            .extract_sentence("OBSW001 shall not accept the start-up command")
            .unwrap();
        assert_eq!(t.predicate, Term::concept_in("Fun", "block_cmd"));
        // Subject and object unchanged — the inconsistency pattern.
        assert_eq!(t.subject, Term::literal("OBSW001"));
        assert_eq!(t.object, Term::concept_in("CmdType", "start-up"));
    }

    #[test]
    fn inflected_verbs_are_stemmed() {
        let t = ex()
            .extract_sentence("The controller must accepts the shutdown command")
            .unwrap();
        assert_eq!(t.predicate, Term::concept_in("Fun", "accept_cmd"));
    }

    #[test]
    fn object_without_class_noun() {
        let t = ex()
            .extract_sentence("OBSW002 shall monitor the battery voltage")
            .unwrap();
        assert_eq!(t.predicate, Term::concept_in("Fun", "monitor"));
        assert_eq!(t.object, Term::concept("battery voltage"));
    }

    #[test]
    fn error_cases() {
        let e = ex();
        assert_eq!(
            e.extract_sentence("no modal here").unwrap_err(),
            ExtractError::NoModal
        );
        assert_eq!(
            e.extract_sentence("shall accept the command").unwrap_err(),
            ExtractError::NoSubject
        );
        assert!(matches!(
            e.extract_sentence("OBSW001 shall frobnicate the widget")
                .unwrap_err(),
            ExtractError::NoVerb(_)
        ));
        assert_eq!(
            e.extract_sentence("OBSW001 shall accept").unwrap_err(),
            ExtractError::NoObject
        );
        assert_eq!(
            e.extract_sentence("OBSW001 shall accept the command")
                .unwrap_err(),
            ExtractError::NoObject // class noun alone carries no parameter
        );
    }

    #[test]
    fn extract_walks_sentences_and_skips_noise() {
        let text = "Introduction text without structure. \
                    OBSW001 shall accept the start-up command. \
                    Some rationale follows. \
                    OBSW001 shall send the heartbeat message.";
        let triples = ex().extract(text);
        assert_eq!(triples.len(), 2);
        assert_eq!(triples[0].predicate, Term::concept_in("Fun", "accept_cmd"));
        assert_eq!(triples[1].predicate, Term::concept_in("Fun", "send_msg"));
    }

    #[test]
    fn multi_word_subject() {
        let t = ex()
            .extract_sentence("The thermal control unit shall enable the heater output")
            .unwrap();
        assert_eq!(t.subject, Term::literal("thermal control unit"));
        assert_eq!(t.predicate, Term::concept_in("Fun", "enable_out"));
    }

    #[test]
    fn subject_conjunction_asserts_for_each_actor() {
        let ts = ex()
            .extract_sentence_all("OBSW001 and OBSW002 shall accept the start-up command")
            .unwrap();
        assert_eq!(ts.len(), 2);
        assert_eq!(ts[0].subject, Term::literal("OBSW001"));
        assert_eq!(ts[1].subject, Term::literal("OBSW002"));
        assert!(ts
            .iter()
            .all(|t| t.predicate == Term::concept_in("Fun", "accept_cmd")));
    }

    #[test]
    fn subject_and_object_conjunctions_cross_product() {
        let ts = ex()
            .extract_sentence_all(
                "OBSW001 and OBSW002 shall accept the start-up and shut-down commands",
            )
            .unwrap();
        assert_eq!(ts.len(), 4);
    }

    #[test]
    fn leading_condition_clause_is_stripped() {
        let t = ex()
            .extract_sentence("When in safe mode, OBSW001 shall reject the reboot command")
            .unwrap();
        assert_eq!(t.subject, Term::literal("OBSW001"));
        assert_eq!(t.predicate, Term::concept_in("Fun", "reject_cmd"));

        let t = ex()
            .extract_sentence(
                "During the pre-launch phase, the PSU001 shall enable the heater output",
            )
            .unwrap();
        assert_eq!(t.subject, Term::literal("PSU001"));
        assert_eq!(strip_condition_clause(" WHILE idle, x"), "x");
        assert_eq!(strip_condition_clause("İf idle, x"), "İf idle, x");
    }

    #[test]
    fn condition_keyword_without_comma_is_left_alone() {
        // "if" without a clause comma: parse proceeds (and fails on the
        // missing modal structure rather than mangling the sentence).
        assert!(ex().extract_sentence("if only this worked").is_err());
        // Condition words inside the sentence are untouched.
        let t = ex()
            .extract_sentence("OBSW001 shall monitor the battery voltage")
            .unwrap();
        assert_eq!(t.predicate, Term::concept_in("Fun", "monitor"));
    }

    #[test]
    fn error_display() {
        assert!(ExtractError::NoModal.to_string().contains("modal"));
        assert!(ExtractError::NoVerb("x".into()).to_string().contains('x'));
    }

    #[test]
    fn object_conjunction_yields_one_triple_per_conjunct() {
        // "a sentence can include several triples" — the paper, §II.
        let ts = ex()
            .extract_sentence_all("OBSW001 shall accept the start-up and shut-down commands")
            .unwrap();
        assert_eq!(ts.len(), 2);
        assert_eq!(
            ts[0].to_string(),
            "('OBSW001', Fun:accept_cmd, CmdType:start-up)"
        );
        assert_eq!(
            ts[1].to_string(),
            "('OBSW001', Fun:accept_cmd, CmdType:shut-down)"
        );
    }

    #[test]
    fn per_conjunct_class_nouns() {
        let ts = ex()
            .extract_sentence_all(
                "OBSW001 shall send the heartbeat message and the status telemetry",
            )
            .unwrap();
        assert_eq!(ts.len(), 2);
        assert_eq!(ts[0].predicate, Term::concept_in("Fun", "send_msg"));
        assert_eq!(ts[0].object, Term::concept_in("MsgType", "heartbeat"));
        assert_eq!(ts[1].predicate, Term::concept_in("Fun", "send_tm"));
        assert_eq!(ts[1].object, Term::concept_in("TmType", "status"));
    }

    #[test]
    fn or_conjunction_also_splits() {
        let ts = ex()
            .extract_sentence_all("OBSW001 shall reject the reset or reboot commands")
            .unwrap();
        assert_eq!(ts.len(), 2);
        assert_eq!(ts[1].object, Term::concept_in("CmdType", "reboot"));
    }

    #[test]
    fn passive_voice_is_normalised() {
        let t = ex()
            .extract_sentence("The start-up command shall be accepted by OBSW001")
            .unwrap();
        assert_eq!(
            t.to_string(),
            "('OBSW001', Fun:accept_cmd, CmdType:start-up)"
        );
    }

    #[test]
    fn negated_passive_voice() {
        let t = ex()
            .extract_sentence("The start-up command shall not be accepted by the OBSW001")
            .unwrap();
        assert_eq!(t.predicate, Term::concept_in("Fun", "block_cmd"));
        assert_eq!(t.subject, Term::literal("OBSW001"));
    }

    #[test]
    fn passive_without_agent_fails() {
        assert_eq!(
            ex().extract_sentence("The command shall be accepted")
                .unwrap_err(),
            ExtractError::NoSubject
        );
    }

    #[test]
    fn extract_flattens_conjunctions_across_sentences() {
        let text = "OBSW001 shall accept the start-up and shut-down commands. \
                    OBSW001 shall send the heartbeat message.";
        let ts = ex().extract(text);
        assert_eq!(ts.len(), 3);
    }

    #[test]
    fn trailing_conjunction_of_bare_class_noun_is_skipped() {
        // "… the start-up command and message" — the second conjunct names
        // a class with no parameter; only the first produces a triple.
        let ts = ex()
            .extract_sentence_all("OBSW001 shall accept the start-up command and message")
            .unwrap();
        assert_eq!(ts.len(), 1);
    }
}
