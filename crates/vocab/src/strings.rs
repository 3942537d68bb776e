//! The string distance for literal-to-literal comparison.
//!
//! The paper: "the two triples' elements are both literals/constants of the
//! same type (we can apply any distance function between strings, i.e.
//! Levenshtein)". Levenshtein is the one measure used: every pair of
//! same-typed literals, and concept names outside their taxonomy, compare
//! by [`normalised_levenshtein`].

/// Raw Levenshtein edit distance (unit costs) over `char`s, in
/// `O(|a|·|b|)` time and `O(min(|a|,|b|))` space.
#[must_use]
pub fn levenshtein(a: &str, b: &str) -> usize {
    levenshtein_and_longest(a, b).0
}

/// The edit distance and the longer string's length, both in `char`s.
/// ASCII strings (every literal the requirements corpus produces) are
/// compared as bytes, so neither count walks the strings again.
fn levenshtein_and_longest(a: &str, b: &str) -> (usize, usize) {
    if a.is_ascii() && b.is_ascii() {
        (
            edit_distance(a.as_bytes(), b.as_bytes()),
            a.len().max(b.len()),
        )
    } else {
        let av: Vec<char> = a.chars().collect();
        let bv: Vec<char> = b.chars().collect();
        (edit_distance(&av, &bv), av.len().max(bv.len()))
    }
}

/// Unit-cost edit distance by the one-row DP: the row spans the shorter
/// input and lives on the stack up to 63 units. A shared prefix and
/// suffix never cost an edit, so the DP runs on what lies between them
/// (actor names such as `OBSW001` / `OBSW017` differ in two units).
fn edit_distance<T: PartialEq>(a: &[T], b: &[T]) -> usize {
    const STACK_ROW: usize = 64;
    let prefix = a.iter().zip(b).take_while(|(x, y)| x == y).count();
    let (a, b) = (&a[prefix..], &b[prefix..]);
    let suffix = a
        .iter()
        .rev()
        .zip(b.iter().rev())
        .take_while(|(x, y)| x == y)
        .count();
    let (a, b) = (&a[..a.len() - suffix], &b[..b.len() - suffix]);
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if short.is_empty() {
        return long.len();
    }
    let mut stack = [0usize; STACK_ROW];
    let mut heap = Vec::new();
    let row: &mut [usize] = if short.len() < STACK_ROW {
        &mut stack[..=short.len()]
    } else {
        heap.resize(short.len() + 1, 0);
        &mut heap
    };
    for (j, cell) in row.iter_mut().enumerate() {
        *cell = j;
    }
    for (i, lc) in long.iter().enumerate() {
        // `diag` is the previous row's entry left of the cell being written.
        let mut diag = row[0];
        row[0] = i + 1;
        for (j, sc) in short.iter().enumerate() {
            let above = row[j + 1];
            row[j + 1] = (diag + usize::from(lc != sc))
                .min(above + 1)
                .min(row[j] + 1);
            diag = above;
        }
    }
    row[short.len()]
}

/// `levenshtein(a, b) / max(|a|, |b|)` in `char`s: a distance in
/// `[0, 1]` that is 0 iff the strings are equal (and for two empty ones).
#[must_use]
pub fn normalised_levenshtein(a: &str, b: &str) -> f64 {
    let (edits, max) = levenshtein_and_longest(a, b);
    if max == 0 {
        0.0
    } else {
        edits as f64 / max as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn levenshtein_known_values() {
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
        assert_eq!(levenshtein("OBSW001", "OBSW002"), 1);
    }

    #[test]
    fn normalised_distances_identity_and_range() {
        let pairs = [
            ("", ""),
            ("start-up", "start-up"),
            ("start-up", "shut-down"),
            ("OBSW001", "OBSW0054"),
            ("a", "aaaa"),
        ];
        for (a, b) in pairs {
            let d = normalised_levenshtein(a, b);
            assert!((0.0..=1.0).contains(&d), "({a},{b}) = {d}");
            if a == b {
                assert_eq!(d, 0.0);
            }
        }
    }

    /// The allocating two-row DP `levenshtein` was before it ran over
    /// bytes with one row, kept as the oracle.
    fn levenshtein_oracle(a: &str, b: &str) -> usize {
        let (short, long): (Vec<char>, Vec<char>) = {
            let av: Vec<char> = a.chars().collect();
            let bv: Vec<char> = b.chars().collect();
            if av.len() <= bv.len() {
                (av, bv)
            } else {
                (bv, av)
            }
        };
        if short.is_empty() {
            return long.len();
        }
        let mut prev: Vec<usize> = (0..=short.len()).collect();
        let mut cur = vec![0usize; short.len() + 1];
        for (i, lc) in long.iter().enumerate() {
            cur[0] = i + 1;
            for (j, sc) in short.iter().enumerate() {
                let sub = prev[j] + usize::from(lc != sc);
                cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        prev[short.len()]
    }

    fn normalised_oracle(a: &str, b: &str) -> f64 {
        let max = a.chars().count().max(b.chars().count());
        if max == 0 {
            0.0
        } else {
            levenshtein_oracle(a, b) as f64 / max as f64
        }
    }

    fn assert_matches_oracle(a: &str, b: &str) {
        assert_eq!(levenshtein(a, b), levenshtein_oracle(a, b), "{a:?} / {b:?}");
        assert_eq!(
            normalised_levenshtein(a, b).to_bits(),
            normalised_oracle(a, b).to_bits(),
            "{a:?} / {b:?}"
        );
    }

    #[test]
    fn levenshtein_matches_oracle_at_the_stack_row_boundary() {
        let a63 = "a".repeat(63);
        let b64 = "b".repeat(64);
        for (a, b) in [
            (a63.as_str(), b64.as_str()),
            (&b64, &a63),
            (&b64, &b64[1..]),
            (&a63, ""),
            ("é", &a63),
            ("ab€", "€ba"),
        ] {
            assert_matches_oracle(a, b);
        }
    }

    proptest! {
        #[test]
        fn levenshtein_matches_oracle_on_ascii(
            a in ".{0,20}",
            b in "[ -~]{0,20}",
            // Two letters: shared prefixes and suffixes are the rule.
            c in "[ab]{0,12}",
            d in "[ab]{0,12}",
        ) {
            assert_matches_oracle(&a, &b);
            assert_matches_oracle(&c, &d);
            assert_matches_oracle(&format!("OBSW{c}1"), &format!("OBSW{d}1"));
        }

        #[test]
        fn levenshtein_matches_oracle_on_multibyte(
            a in "[abé€ß😀 -]{0,20}",
            b in "[abé€ß😀 -]{0,20}",
        ) {
            assert_matches_oracle(&a, &b);
        }

        #[test]
        fn levenshtein_matches_oracle_on_the_heap_row(
            a in "[a-d]{60,90}",
            b in "[a-dé]{60,90}",
            ascii_b in "[a-d]{0,90}",
        ) {
            assert_matches_oracle(&a, &b);
            assert_matches_oracle(&a, &ascii_b);
            assert_matches_oracle(&ascii_b, &a);
        }

        #[test]
        fn levenshtein_symmetry(a in ".{0,12}", b in ".{0,12}") {
            prop_assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
        }

        #[test]
        fn levenshtein_triangle(a in "[a-c]{0,8}", b in "[a-c]{0,8}", c in "[a-c]{0,8}") {
            prop_assert!(levenshtein(&a, &c) <= levenshtein(&a, &b) + levenshtein(&b, &c));
        }

        #[test]
        fn levenshtein_identity(a in ".{0,12}") {
            prop_assert_eq!(levenshtein(&a, &a), 0);
        }

        #[test]
        fn normalised_levenshtein_unit_range(a in ".{0,10}", b in ".{0,10}") {
            let d = normalised_levenshtein(&a, &b);
            prop_assert!((0.0..=1.0).contains(&d), "{} for {:?} / {:?}", d, a, b);
        }
    }
}
