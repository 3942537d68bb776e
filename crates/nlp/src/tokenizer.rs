//! Tokenization and sentence splitting.

use std::borrow::Cow;

/// Lexical class of a token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Alphabetic (or hyphenated alphabetic) word, e.g. `start-up`.
    Word,
    /// Numeric or alphanumeric identifier, e.g. `OBSW001`, `42`.
    Identifier,
    /// Punctuation.
    Punct,
}

/// One token, borrowed from the sentence it was cut from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token<'a> {
    /// The token text as it appeared (case preserved).
    pub text: &'a str,
    /// Its lexical class.
    pub kind: TokenKind,
}

impl<'a> Token<'a> {
    /// Lowercased text (words are matched case-insensitively).
    #[must_use]
    pub fn lower(&self) -> Cow<'a, str> {
        lowercase(self.text)
    }

    fn word(text: &'a str) -> Self {
        let has_digit = text.chars().any(|c| c.is_ascii_digit());
        let has_alpha = text.chars().any(char::is_alphabetic);
        let kind = if has_digit {
            TokenKind::Identifier
        } else if has_alpha {
            TokenKind::Word
        } else {
            TokenKind::Punct
        };
        Token { text, kind }
    }
}

/// `word` lowercased, borrowed when it already is lowercase ASCII and
/// folded by [`push_lowercase`] otherwise.
pub(crate) fn lowercase(word: &str) -> Cow<'_, str> {
    if word
        .bytes()
        .all(|b| b.is_ascii() && !b.is_ascii_uppercase())
    {
        Cow::Borrowed(word)
    } else {
        let mut lower = String::with_capacity(word.len());
        push_lowercase(&mut lower, word);
        Cow::Owned(lower)
    }
}

/// `word` lowercased onto the end of `buf`: ASCII in place, anything
/// else through `str::to_lowercase`, which keeps the Unicode mappings an
/// ASCII-only fold would miss (the Kelvin sign → `k`, `İ` → `i̇`, a final
/// `Σ` → `ς`).
pub(crate) fn push_lowercase(buf: &mut String, word: &str) {
    if word.is_ascii() {
        let start = buf.len();
        buf.push_str(word);
        buf[start..].make_ascii_lowercase();
    } else {
        buf.push_str(&word.to_lowercase());
    }
}

/// Tokenize one sentence. Words keep internal hyphens (`start-up`,
/// `pre-launch`); everything else splits on non-alphanumerics.
#[must_use]
pub fn tokenize(sentence: &str) -> Vec<Token<'_>> {
    // Room for words of about five bytes with their separators, so a
    // requirement sentence does not regrow the vector.
    let mut out = Vec::with_capacity(sentence.len() / 4);
    each_token(sentence, |token| out.push(token));
    out
}

/// [`tokenize`], handing each token to `emit` in order.
pub(crate) fn each_token<'a>(sentence: &'a str, mut emit: impl FnMut(Token<'a>)) {
    // Byte offset where the word being scanned starts.
    let mut start = None;
    let mut prev = None;
    let mut chars = sentence.char_indices().peekable();
    while let Some((i, c)) = chars.next() {
        let joins = c.is_alphanumeric()
            || c == '_'
            || (c == '-'
                && prev.is_some_and(char::is_alphanumeric)
                && chars
                    .peek()
                    .is_some_and(|&(_, next)| next.is_alphanumeric()));
        if joins {
            start.get_or_insert(i);
        } else {
            if let Some(s) = start.take() {
                emit(Token::word(&sentence[s..i]));
            }
            if !c.is_whitespace() {
                emit(Token {
                    text: &sentence[i..i + c.len_utf8()],
                    kind: TokenKind::Punct,
                });
            }
        }
        prev = Some(c);
    }
    if let Some(s) = start {
        emit(Token::word(&sentence[s..]));
    }
}

/// Split text into sentences on `.`, `!`, `?` and newlines, ignoring
/// periods inside decimal numbers (`1.5 seconds`).
#[must_use]
pub fn sentences(text: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let bytes = text.as_bytes();
    let mut start = 0usize;
    for (i, &b) in bytes.iter().enumerate() {
        let is_break = match b {
            b'!' | b'?' | b'\n' => true,
            b'.' => {
                let prev_digit = i > 0 && bytes[i - 1].is_ascii_digit();
                let next_digit = bytes.get(i + 1).is_some_and(u8::is_ascii_digit);
                !(prev_digit && next_digit)
            }
            _ => false,
        };
        if is_break {
            let s = text[start..i].trim();
            if !s.is_empty() {
                out.push(s);
            }
            start = i + 1;
        }
    }
    let tail = text[start..].trim();
    if !tail.is_empty() {
        out.push(tail);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_requirement_sentence() {
        let toks = tokenize("OBSW001 shall accept the start-up command");
        let texts: Vec<&str> = toks.iter().map(|t| t.text).collect();
        assert_eq!(
            texts,
            vec!["OBSW001", "shall", "accept", "the", "start-up", "command"]
        );
        assert_eq!(toks[0].kind, TokenKind::Identifier);
        assert_eq!(toks[1].kind, TokenKind::Word);
        assert_eq!(toks[4].kind, TokenKind::Word);
    }

    #[test]
    fn hyphen_only_joins_between_alphanumerics() {
        let toks = tokenize("pre-launch - phase -x");
        let texts: Vec<&str> = toks.iter().map(|t| t.text).collect();
        assert_eq!(texts, vec!["pre-launch", "-", "phase", "-", "x"]);
    }

    #[test]
    fn punctuation_is_kept_as_tokens() {
        let toks = tokenize("stop, then go.");
        let texts: Vec<&str> = toks.iter().map(|t| t.text).collect();
        assert_eq!(texts, vec!["stop", ",", "then", "go", "."]);
        assert_eq!(toks[1].kind, TokenKind::Punct);
    }

    #[test]
    fn empty_and_whitespace() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("   \t ").is_empty());
    }

    #[test]
    fn sentence_split_basic() {
        let s = sentences("First one. Second one! Third?");
        assert_eq!(s, vec!["First one", "Second one", "Third"]);
    }

    #[test]
    fn sentence_split_spares_decimals() {
        let s = sentences("Respond within 1.5 seconds. Then stop.");
        assert_eq!(s, vec!["Respond within 1.5 seconds", "Then stop"]);
    }

    #[test]
    fn sentence_split_on_newlines() {
        let s = sentences("line one\nline two\n");
        assert_eq!(s, vec!["line one", "line two"]);
    }

    #[test]
    fn lower_helper() {
        let t = Token {
            text: "ShAlL",
            kind: TokenKind::Word,
        };
        assert_eq!(t.lower(), "shall");
    }
}
