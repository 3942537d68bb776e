//! A light inflectional stemmer (Porter step-1 flavour).
//!
//! Enough to normalise requirement verbs — `accepts`/`accepted`/
//! `accepting` → `accept` — without the full Porter machinery the
//! controlled grammar does not need.

use std::borrow::Cow;

use crate::tokenizer::lowercase;

/// Strip common inflectional suffixes from a word, lowercasing it first.
/// Borrows from `word` whenever the stem is a prefix of it and `word` was
/// already lowercase ASCII.
#[must_use]
pub fn light_stem(word: &str) -> Cow<'_, str> {
    let w = lowercase(word);
    // -sses → -ss, -ies → -y, -s (not -ss, -us)
    if w.ends_with("sses") {
        return drop_last(w, 2);
    }
    if let Some(base) = w.strip_suffix("ies") {
        if !base.is_empty() {
            return Cow::Owned(format!("{base}y"));
        }
    }
    if w.ends_with('s') && !w.ends_with("ss") && !w.ends_with("us") && w.len() > 3 {
        return drop_last(w, 1);
    }
    // -ing / -ed with consonant-doubling and silent-e restoration.
    for suffix in ["ing", "ed"] {
        let Some(base) = w.strip_suffix(suffix) else {
            continue;
        };
        let mut rev = base.chars().rev();
        let (Some(last), Some(prev)) = (rev.next(), rev.next()) else {
            continue;
        };
        // stopped → stop, blocked → block
        if last == prev && matches!(last, 'b' | 'd' | 'g' | 'm' | 'n' | 'p' | 'r' | 't') {
            return drop_last(w, suffix.len() + 1);
        }
        // Silent-e restoration: received → receive, enabling → enable,
        // stored → store (CVC with a single vowel-consonant run).
        let restore_e = last == 'v'
            || (last == 'l' && !is_vowel(prev))
            || (ends_consonant_vowel_consonant(base) && measure(base) == 1);
        if restore_e && last != 'e' {
            return Cow::Owned(format!("{base}e"));
        }
        return drop_last(w, suffix.len());
    }
    w
}

/// `w` without its last `bytes` bytes, still borrowed if `w` was.
fn drop_last(w: Cow<'_, str>, bytes: usize) -> Cow<'_, str> {
    match w {
        Cow::Borrowed(s) => Cow::Borrowed(&s[..s.len() - bytes]),
        Cow::Owned(mut s) => {
            s.truncate(s.len() - bytes);
            Cow::Owned(s)
        }
    }
}

fn is_vowel(c: char) -> bool {
    matches!(c, 'a' | 'e' | 'i' | 'o' | 'u')
}

/// Porter's *measure*: the number of vowel→consonant transitions.
fn measure(word: &str) -> usize {
    let mut m = 0;
    let mut prev_vowel = false;
    for c in word.chars() {
        let v = is_vowel(c);
        if prev_vowel && !v {
            m += 1;
        }
        prev_vowel = v;
    }
    m
}

fn ends_consonant_vowel_consonant(word: &str) -> bool {
    let mut rev = word.chars().rev();
    match (rev.next(), rev.next(), rev.next()) {
        (Some(c), Some(v), Some(before)) => {
            !is_vowel(c) && is_vowel(v) && !is_vowel(before) && !matches!(c, 'w' | 'x' | 'y')
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plural_s() {
        assert_eq!(light_stem("accepts"), "accept");
        assert_eq!(light_stem("commands"), "command");
        assert_eq!(light_stem("sends"), "send");
    }

    #[test]
    fn s_guards() {
        assert_eq!(light_stem("pass"), "pass");
        assert_eq!(light_stem("status"), "status");
        assert_eq!(light_stem("gas"), "gas"); // too short to strip
    }

    #[test]
    fn ies_and_sses() {
        assert_eq!(light_stem("verifies"), "verify");
        assert_eq!(light_stem("passes"), "pass");
    }

    #[test]
    fn ing_forms() {
        assert_eq!(light_stem("accepting"), "accept");
        assert_eq!(light_stem("stopping"), "stop");
        assert_eq!(light_stem("enabling"), "enable");
        assert_eq!(light_stem("monitoring"), "monitor");
    }

    #[test]
    fn ed_forms() {
        assert_eq!(light_stem("accepted"), "accept");
        assert_eq!(light_stem("blocked"), "block");
        assert_eq!(light_stem("received"), "receive");
    }

    #[test]
    fn lowercases() {
        assert_eq!(light_stem("ACCEPTS"), "accept");
    }

    #[test]
    fn a_one_char_multibyte_base_is_not_stemmed() {
        // Two bytes but one char before the suffix: too short to stem.
        assert_eq!(light_stem("éing"), "éing");
        assert_eq!(light_stem("ÉED"), "éed");
    }

    #[test]
    fn borrows_lowercase_ascii() {
        assert!(matches!(light_stem("accepted"), Cow::Borrowed("accept")));
        assert!(matches!(light_stem("passes"), Cow::Borrowed("pass")));
        assert!(matches!(light_stem("Accepted"), Cow::Owned(_)));
    }

    #[test]
    fn short_words_untouched() {
        assert_eq!(light_stem("go"), "go");
        assert_eq!(light_stem("ed"), "ed");
        assert_eq!(light_stem("ing"), "ing");
    }
}
