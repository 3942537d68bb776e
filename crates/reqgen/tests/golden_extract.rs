//! Golden fingerprint of the NLP extractor: requirement prose → triples.
//!
//! One FNV-1a hash covers every `extract_sentence_all` result (each
//! triple's `Display`, or the error's `Debug`) for every sentence of
//! three 40-document `paper_scale` corpora, and a second one covers a
//! table of edge sentences: Unicode case mappings (the Kelvin sign,
//! dotted capital I, final sigma), `½`, a bare `_`, hyphens at word
//! edges, condition clauses, passives, negation and every
//! `ExtractError`. The constants were recorded before the extractor
//! stopped allocating per word, and must not be re-recorded by a change
//! that claims to keep the triples.

use semtree_nlp::{sentences, SvoExtractor};
use semtree_reqgen::{CorpusGenerator, GenConfig};

const CORPORA: u64 = 11_195_208_202_026_799_323;
const EDGES: u64 = 10_324_368_110_465_220_436;

const SEEDS: [u64; 3] = [42, 7, 1234];

/// Sentences whose tokens, case mappings or grammar sit at an edge.
const EDGE_SENTENCES: &[&str] = &[
    // Unicode case mappings: the Kelvin sign lowercases to ASCII `k`,
    // `İ` to `i` + U+0307, a final `Σ` to `ς`.
    "OBSW001 shall accept the \u{212A}ILL command",
    "OBSW001 SHALL ACCEPT THE \u{212A}ILL COMMAND",
    "\u{212A}ERNEL shall send the heartbeat message",
    "OBSW001 shall accept the İNIT command",
    "İT shall accept the start-up command",
    "OBSW001 shall accept İT command",
    "OBSW001 shall send the ΟΔΟΣ message",
    "ΟΔΟΣ shall send the ΣΟΦΙΑ message",
    "OBSW001 shall monitor the ΣΣ",
    "OBSW001 shall \u{212A}ill the widget",
    "OBSW001 shall CHEC\u{212A} the pump signal",
    "OBSW001 shall bloc\u{212A}ed the reset command",
    "OBSW001 shall accept İN the command",
    "OBSW001 shall ACCEPTİNG the command",
    "Straße shall store the GROẞE parameter",
    "ǅemal shall store the ǅ parameter",
    // Non-letters inside words.
    "OBSW001 shall store the ½ parameter",
    "OBSW001 shall store the x½y parameter",
    "OBSW001 shall store the _ parameter",
    "_ shall accept the start-up command",
    "OBSW_1 shall store the a_b parameter",
    "OBSW001 shall accept the 42 command",
    // Hyphens at word edges and between punctuation.
    "OBSW001 shall accept the -start command",
    "OBSW001 shall accept the start- command",
    "OBSW001 shall accept the start--up command",
    "OBSW001 shall accept the start-up-now command",
    "-OBSW001- shall accept the a-1 command",
    "OBSW001 shall accept the - command",
    "OBSW001 shall accept the x-ǅ command",
    // Condition clauses.
    "When in safe mode, OBSW001 shall reject the reboot command",
    "WHEN in safe mode, OBSW001 shall reject the reboot command",
    "   while armed, OBSW001 shall reject the reboot command",
    "If armed OBSW001 shall reject the reboot command",
    "If, OBSW001 shall reject the reboot command",
    "İf armed, OBSW001 shall reject the reboot command",
    "Whenever armed, OBSW001 shall reject the reboot command",
    "During the pre-launch phase, PSU001 shall enable the heater output",
    "before, ",
    "after x,",
    // Passives.
    "The start-up command shall be accepted by OBSW001",
    "The start-up command shall not be accepted by the OBSW001",
    "The start-up command shall be accepted",
    "The start-up command shall be",
    "The start-up command shall be accepted by",
    "The start-up command shall be accepted by the",
    "The start-up command shall BE ACCEPTED BY OBSW001 and OBSW002",
    "shall be accepted by OBSW001",
    "The start-up command shall be frobnicated by OBSW001",
    // Negation.
    "OBSW001 shall not accept the start-up command",
    "OBSW001 shall not never accept the start-up command",
    "OBSW001 shall NOT allow the reboot command",
    "OBSW001 shall never monitor the battery voltage",
    "OBSW001 shall not",
    // Conjunctions.
    "OBSW001 and OBSW002 shall accept the start-up and shut-down commands",
    "and OBSW001 or shall accept the start-up command",
    "OBSW001 shall accept the start-up and and commands",
    "OBSW001 shall accept the and or",
    "OBSW001 shall accept the start-up command and message",
    "OBSW001 shall send the heartbeat message and the status telemetry",
    "OBSW001 shall send the heartbeat messages, the status and the mode",
    // Stemming.
    "OBSW001 must validated the boot parameter",
    "OBSW001 will verifies the mode",
    "OBSW001 should stopping the pump signals",
    "OBSW001 shall processes the passes",
    "OBSW001 shall stored the enabled inputs",
    // Every error variant.
    "no modal here",
    "",
    "   ",
    "shall accept the command",
    "the shall accept the command",
    "OBSW001 shall",
    "OBSW001 shall frobnicate the widget",
    "OBSW001 shall accept",
    "OBSW001 shall accept the",
    "OBSW001 shall accept the command",
    "OBSW001 shall accept the commands and messages",
];

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// One sentence's result: its triples' `Display`, or its error's
    /// `Debug`, each framed by its length.
    fn sentence(&mut self, extractor: &SvoExtractor, sentence: &str) {
        match extractor.extract_sentence_all(sentence) {
            Ok(triples) => {
                self.u64(triples.len() as u64);
                for t in triples {
                    let shown = t.to_string();
                    self.u64(shown.len() as u64);
                    self.bytes(shown.as_bytes());
                }
            }
            Err(e) => {
                let shown = format!("{e:?}");
                self.u64(u64::MAX);
                self.bytes(shown.as_bytes());
            }
        }
    }
}

#[test]
fn corpus_extraction_matches_golden() {
    let extractor = SvoExtractor::requirements();
    let mut h = Fnv::new();
    let mut sentences_seen = 0usize;
    for seed in SEEDS {
        let corpus =
            CorpusGenerator::new(GenConfig::paper_scale().with_documents(40).with_seed(seed))
                .generate();
        for req in &corpus.requirements {
            for s in sentences(&req.text) {
                h.sentence(&extractor, s);
                sentences_seen += 1;
            }
        }
    }
    assert!(sentences_seen > 10_000, "{sentences_seen} sentences");
    assert_eq!(h.0, CORPORA, "corpus extraction digest moved");
}

#[test]
fn edge_sentence_extraction_matches_golden() {
    let extractor = SvoExtractor::requirements();
    let mut h = Fnv::new();
    for s in EDGE_SENTENCES {
        h.sentence(&extractor, s);
    }
    assert_eq!(h.0, EDGES, "edge-sentence extraction digest moved");
}
