//! `(subject, predicate, object)` statements and wildcard patterns.

use std::fmt;

use crate::term::{Term, TermRef};

/// Dense identifier of a triple inside a [`crate::TripleStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TripleId(pub u32);

impl TripleId {
    /// The id as a usable index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TripleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// The three positions of a triple. The paper projects a triple `tk` on its
/// subject (`tkˢ`), predicate (`tkᵖ`) and object (`tkᵒ`); [`TripleRole`]
/// names those projections.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TripleRole {
    /// The subject projection.
    Subject,
    /// The predicate projection.
    Predicate,
    /// The object projection.
    Object,
}

impl TripleRole {
    /// All roles, in subject/predicate/object order.
    pub const ALL: [TripleRole; 3] = [
        TripleRole::Subject,
        TripleRole::Predicate,
        TripleRole::Object,
    ];
}

/// An RDF-style statement relating a subject to an object via a predicate.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Triple {
    /// The subject (the paper's *Actor*: software component or device).
    pub subject: Term,
    /// The predicate (the paper's unary *function*, e.g. `accept_cmd`).
    pub predicate: Term,
    /// The object (the paper's *Parameter*).
    pub object: Term,
}

impl Triple {
    /// Assemble a triple.
    #[must_use]
    pub fn new(subject: Term, predicate: Term, object: Term) -> Self {
        Triple {
            subject,
            predicate,
            object,
        }
    }

    /// Project the triple on one of its three roles.
    #[must_use]
    pub fn project(&self, role: TripleRole) -> &Term {
        match role {
            TripleRole::Subject => &self.subject,
            TripleRole::Predicate => &self.predicate,
            TripleRole::Object => &self.object,
        }
    }

    /// This triple as a borrowed view.
    #[must_use]
    pub fn view(&self) -> TripleRef<'_> {
        TripleRef {
            subject: self.subject.view(),
            predicate: self.predicate.view(),
            object: self.object.view(),
        }
    }

    /// A copy of this triple with the predicate replaced — how the
    /// case study builds *target* triples (same subject and object, antonym
    /// predicate).
    #[must_use]
    pub fn with_predicate(&self, predicate: Term) -> Self {
        Triple {
            subject: self.subject.clone(),
            predicate,
            object: self.object.clone(),
        }
    }
}

impl fmt::Display for Triple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.subject, self.predicate, self.object)
    }
}

/// A [`Triple`] whose terms are [borrowed views](TermRef): what an
/// extractor hands a [`crate::TripleStore`], which builds a term only the
/// first time it sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TripleRef<'a> {
    /// The subject.
    pub subject: TermRef<'a>,
    /// The predicate.
    pub predicate: TermRef<'a>,
    /// The object.
    pub object: TermRef<'a>,
}

impl TripleRef<'_> {
    /// The owned triple.
    #[must_use]
    pub fn to_triple(self) -> Triple {
        Triple::new(
            self.subject.to_term(),
            self.predicate.to_term(),
            self.object.to_term(),
        )
    }
}

/// A triple with wildcards: `None` in a position matches any term.
///
/// The paper motivates "various pattern queries" (§I, discussing \[7\]); the
/// store supports them directly for exact matching, while approximate
/// matching goes through the index.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TriplePattern {
    /// Required subject, or `None` for any.
    pub subject: Option<Term>,
    /// Required predicate, or `None` for any.
    pub predicate: Option<Term>,
    /// Required object, or `None` for any.
    pub object: Option<Term>,
}

impl TriplePattern {
    /// The pattern matching every triple.
    #[must_use]
    pub fn any() -> Self {
        TriplePattern::default()
    }

    /// Restrict the subject.
    #[must_use]
    pub fn with_subject(mut self, s: Term) -> Self {
        self.subject = Some(s);
        self
    }

    /// Restrict the predicate.
    #[must_use]
    pub fn with_predicate(mut self, p: Term) -> Self {
        self.predicate = Some(p);
        self
    }

    /// Restrict the object.
    #[must_use]
    pub fn with_object(mut self, o: Term) -> Self {
        self.object = Some(o);
        self
    }

    /// Whether `triple` satisfies every bound position.
    #[must_use]
    pub fn matches(&self, triple: &Triple) -> bool {
        self.subject.as_ref().is_none_or(|s| *s == triple.subject)
            && self
                .predicate
                .as_ref()
                .is_none_or(|p| *p == triple.predicate)
            && self.object.as_ref().is_none_or(|o| *o == triple.object)
    }

    /// Number of bound positions (0–3).
    #[must_use]
    pub fn bound_count(&self) -> usize {
        usize::from(self.subject.is_some())
            + usize::from(self.predicate.is_some())
            + usize::from(self.object.is_some())
    }
}

impl fmt::Display for TriplePattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn slot(f: &mut fmt::Formatter<'_>, t: &Option<Term>) -> fmt::Result {
            match t {
                Some(t) => write!(f, "{t}"),
                None => f.write_str("?"),
            }
        }
        f.write_str("(")?;
        slot(f, &self.subject)?;
        f.write_str(", ")?;
        slot(f, &self.predicate)?;
        f.write_str(", ")?;
        slot(f, &self.object)?;
        f.write_str(")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Triple {
        Triple::new(
            Term::literal("OBSW001"),
            Term::concept_in("Fun", "accept_cmd"),
            Term::concept_in("CmdType", "start-up"),
        )
    }

    #[test]
    fn projections_match_fields() {
        let t = sample();
        assert_eq!(t.project(TripleRole::Subject), &t.subject);
        assert_eq!(t.project(TripleRole::Predicate), &t.predicate);
        assert_eq!(t.project(TripleRole::Object), &t.object);
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(
            sample().to_string(),
            "('OBSW001', Fun:accept_cmd, CmdType:start-up)"
        );
    }

    #[test]
    fn with_predicate_builds_target_triple() {
        let t = sample();
        let target = t.with_predicate(Term::concept_in("Fun", "block_cmd"));
        assert_eq!(target.subject, t.subject);
        assert_eq!(target.object, t.object);
        assert_ne!(target.predicate, t.predicate);
    }

    #[test]
    fn pattern_any_matches_everything() {
        assert!(TriplePattern::any().matches(&sample()));
        assert_eq!(TriplePattern::any().bound_count(), 0);
    }

    #[test]
    fn pattern_bound_positions_filter() {
        let t = sample();
        let p = TriplePattern::any().with_subject(Term::literal("OBSW001"));
        assert!(p.matches(&t));
        assert_eq!(p.bound_count(), 1);

        let p = p.with_predicate(Term::concept_in("Fun", "block_cmd"));
        assert!(!p.matches(&t));
        assert_eq!(p.bound_count(), 2);
    }

    #[test]
    fn pattern_full_bound_is_equality() {
        let t = sample();
        let p = TriplePattern {
            subject: Some(t.subject.clone()),
            predicate: Some(t.predicate.clone()),
            object: Some(t.object.clone()),
        };
        assert!(p.matches(&t));
        assert_eq!(p.bound_count(), 3);
        assert!(!p.matches(&t.with_predicate(Term::concept("other"))));
    }

    #[test]
    fn pattern_display_uses_question_marks() {
        let p = TriplePattern::any().with_predicate(Term::concept_in("Fun", "accept_cmd"));
        assert_eq!(p.to_string(), "(?, Fun:accept_cmd, ?)");
    }

    #[test]
    fn triple_id_roundtrip() {
        let id = TripleId(7);
        assert_eq!(id.index(), 7);
        assert_eq!(id.to_string(), "t7");
    }
}
