//! Triple elements: concepts and typed literals.

use std::fmt;
use std::sync::Arc;

/// The type tag of a [`Literal`].
///
/// The paper's distance definition (§III-A) requires knowing whether two
/// triple elements are "literals/constants *of the same type*": string
/// distances only apply within one literal type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LiteralType {
    /// Free text / identifiers, e.g. `'OBSW001'`.
    String,
    /// Integer constants.
    Integer,
    /// Decimal constants.
    Decimal,
    /// Boolean constants.
    Boolean,
}

impl LiteralType {
    /// Infer the literal type from a lexical form, the way the Turtle-like
    /// parser does: `true`/`false` → Boolean, pure digits (with optional
    /// sign) → Integer, digits with one dot → Decimal, otherwise String.
    #[must_use]
    pub fn infer(lexical: &str) -> Self {
        if lexical == "true" || lexical == "false" {
            return LiteralType::Boolean;
        }
        let body = lexical.strip_prefix(['+', '-']).unwrap_or(lexical);
        if !body.is_empty() && body.bytes().all(|b| b.is_ascii_digit()) {
            return LiteralType::Integer;
        }
        let mut dots = 0usize;
        let numeric = !body.is_empty()
            && body.bytes().all(|b| {
                if b == b'.' {
                    dots += 1;
                    true
                } else {
                    b.is_ascii_digit()
                }
            });
        if numeric && dots == 1 && !body.starts_with('.') && !body.ends_with('.') {
            return LiteralType::Decimal;
        }
        LiteralType::String
    }
}

impl fmt::Display for LiteralType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LiteralType::String => "string",
            LiteralType::Integer => "integer",
            LiteralType::Decimal => "decimal",
            LiteralType::Boolean => "boolean",
        };
        f.write_str(s)
    }
}

/// A typed constant, e.g. `'OBSW001'` or `42`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Literal {
    /// The lexical form.
    pub value: Arc<str>,
    /// The inferred or declared type.
    pub dtype: LiteralType,
}

impl Literal {
    /// Build a literal, inferring its type from the lexical form.
    #[must_use]
    pub fn new(value: impl Into<Arc<str>>) -> Self {
        let value = value.into();
        let dtype = LiteralType::infer(&value);
        Literal { value, dtype }
    }

    /// Build a literal with an explicit type tag.
    #[must_use]
    pub fn typed(value: impl Into<Arc<str>>, dtype: LiteralType) -> Self {
        Literal {
            value: value.into(),
            dtype,
        }
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.dtype {
            LiteralType::String => write!(f, "'{}'", self.value),
            _ => f.write_str(&self.value),
        }
    }
}

/// A vocabulary concept, written `Prefix:name` in the paper's notation
/// (`Fun:accept_cmd`). A missing prefix means "use a standard vocabulary".
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Concept {
    /// Vocabulary prefix, `None` for the standard vocabulary.
    pub prefix: Option<Arc<str>>,
    /// Local concept name within the vocabulary.
    pub name: Arc<str>,
}

impl Concept {
    /// Concept in the standard (unprefixed) vocabulary.
    #[must_use]
    pub fn new(name: impl Into<Arc<str>>) -> Self {
        Concept {
            prefix: None,
            name: name.into(),
        }
    }

    /// Concept in a named vocabulary.
    #[must_use]
    pub fn in_vocab(prefix: impl Into<Arc<str>>, name: impl Into<Arc<str>>) -> Self {
        Concept {
            prefix: Some(prefix.into()),
            name: name.into(),
        }
    }

    /// The `prefix:name` key used to look the concept up in a taxonomy.
    /// Unprefixed concepts key on the bare name.
    #[must_use]
    pub fn qualified(&self) -> String {
        match &self.prefix {
            Some(p) => format!("{p}:{}", self.name),
            None => self.name.to_string(),
        }
    }
}

impl fmt::Display for Concept {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.prefix {
            Some(p) => write!(f, "{p}:{}", self.name),
            None => f.write_str(&self.name),
        }
    }
}

/// A triple element: either a typed [`Literal`] or a vocabulary [`Concept`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// A typed constant.
    Literal(Literal),
    /// A vocabulary concept.
    Concept(Concept),
}

impl Term {
    /// Shorthand for a string-typed literal term.
    #[must_use]
    pub fn literal(value: impl Into<Arc<str>>) -> Self {
        Term::Literal(Literal::new(value))
    }

    /// Shorthand for a concept term in the standard vocabulary.
    #[must_use]
    pub fn concept(name: impl Into<Arc<str>>) -> Self {
        Term::Concept(Concept::new(name))
    }

    /// Shorthand for a concept term in a named vocabulary.
    #[must_use]
    pub fn concept_in(prefix: impl Into<Arc<str>>, name: impl Into<Arc<str>>) -> Self {
        Term::Concept(Concept::in_vocab(prefix, name))
    }

    /// Whether this term is a literal.
    #[must_use]
    pub fn is_literal(&self) -> bool {
        matches!(self, Term::Literal(_))
    }

    /// Whether this term is a concept.
    #[must_use]
    pub fn is_concept(&self) -> bool {
        matches!(self, Term::Concept(_))
    }

    /// The lexical form without type/prefix decoration, used by string
    /// distances as a fallback for mixed comparisons.
    #[must_use]
    pub fn lexical(&self) -> &str {
        match self {
            Term::Literal(l) => &l.value,
            Term::Concept(c) => &c.name,
        }
    }

    /// The concept inside this term, if any.
    #[must_use]
    pub fn as_concept(&self) -> Option<&Concept> {
        match self {
            Term::Concept(c) => Some(c),
            Term::Literal(_) => None,
        }
    }

    /// This term as a borrowed view.
    #[must_use]
    pub fn view(&self) -> TermRef<'_> {
        match self {
            Term::Literal(l) => TermRef::Literal(&l.value, l.dtype),
            Term::Concept(c) => TermRef::Concept(c.prefix.as_deref(), &c.name),
        }
    }
}

/// A [`Term`] whose strings are borrowed: two terms are equal exactly
/// when their views are, so a term can be looked up without being built.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TermRef<'a> {
    /// A typed constant: its lexical form and type.
    Literal(&'a str, LiteralType),
    /// A vocabulary concept: its prefix (`None` for the standard
    /// vocabulary) and name.
    Concept(Option<&'a str>, &'a str),
}

impl<'a> TermRef<'a> {
    /// A literal, its type inferred as [`Literal::new`] infers it.
    #[must_use]
    pub fn literal(value: &'a str) -> Self {
        TermRef::Literal(value, LiteralType::infer(value))
    }

    /// The owned term.
    #[must_use]
    pub fn to_term(self) -> Term {
        match self {
            TermRef::Literal(value, dtype) => Term::Literal(Literal::typed(value, dtype)),
            TermRef::Concept(prefix, name) => Term::Concept(Concept {
                prefix: prefix.map(Arc::from),
                name: name.into(),
            }),
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Literal(l) => l.fmt(f),
            Term::Concept(c) => c.fmt(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_type_inference_strings() {
        assert_eq!(LiteralType::infer("OBSW001"), LiteralType::String);
        assert_eq!(LiteralType::infer("start-up"), LiteralType::String);
        assert_eq!(LiteralType::infer(""), LiteralType::String);
        assert_eq!(LiteralType::infer("1.2.3"), LiteralType::String);
        assert_eq!(LiteralType::infer(".5"), LiteralType::String);
        assert_eq!(LiteralType::infer("5."), LiteralType::String);
    }

    #[test]
    fn literal_type_inference_numbers() {
        assert_eq!(LiteralType::infer("42"), LiteralType::Integer);
        assert_eq!(LiteralType::infer("-42"), LiteralType::Integer);
        assert_eq!(LiteralType::infer("+7"), LiteralType::Integer);
        assert_eq!(LiteralType::infer("3.14"), LiteralType::Decimal);
        assert_eq!(LiteralType::infer("-0.5"), LiteralType::Decimal);
    }

    #[test]
    fn literal_type_inference_booleans() {
        assert_eq!(LiteralType::infer("true"), LiteralType::Boolean);
        assert_eq!(LiteralType::infer("false"), LiteralType::Boolean);
        assert_eq!(LiteralType::infer("True"), LiteralType::String);
    }

    #[test]
    fn literal_display_quotes_strings_only() {
        assert_eq!(Literal::new("abc").to_string(), "'abc'");
        assert_eq!(Literal::new("42").to_string(), "42");
        assert_eq!(Literal::new("true").to_string(), "true");
    }

    #[test]
    fn concept_display_and_qualified() {
        let c = Concept::in_vocab("Fun", "accept_cmd");
        assert_eq!(c.to_string(), "Fun:accept_cmd");
        assert_eq!(c.qualified(), "Fun:accept_cmd");
        let bare = Concept::new("thing");
        assert_eq!(bare.to_string(), "thing");
        assert_eq!(bare.qualified(), "thing");
    }

    #[test]
    fn term_accessors() {
        let lit = Term::literal("OBSW001");
        assert!(lit.is_literal());
        assert!(!lit.is_concept());
        assert_eq!(lit.lexical(), "OBSW001");
        assert!(lit.as_concept().is_none());

        let con = Term::concept_in("Fun", "send_msg");
        assert!(con.is_concept());
        assert_eq!(con.lexical(), "send_msg");
        assert!(con.as_concept().is_some());
    }

    #[test]
    fn term_ordering_is_total_and_stable() {
        let mut v = vec![
            Term::concept("b"),
            Term::literal("a"),
            Term::concept_in("X", "a"),
            Term::literal("42"),
        ];
        v.sort();
        v.dedup();
        assert_eq!(v.len(), 4);
    }

    #[test]
    fn typed_literal_overrides_inference() {
        let l = Literal::typed("42", LiteralType::String);
        assert_eq!(l.dtype, LiteralType::String);
    }
}
