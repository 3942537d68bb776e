//! String distances for literal-to-literal comparison.
//!
//! The paper: "the two triples' elements are both literals/constants of the
//! same type (we can apply any distance function between strings, i.e.
//! Levenshtein)". Levenshtein is the default; the rest of the classic
//! family is provided so deployments can swap measures per literal type.

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

/// Damerau–Levenshtein in the *optimal string alignment* variant
/// (adjacent transposition counts as one edit, no substring reuse).
#[must_use]
pub fn damerau_levenshtein(a: &str, b: &str) -> usize {
    let av: Vec<char> = a.chars().collect();
    let bv: Vec<char> = b.chars().collect();
    let (n, m) = (av.len(), bv.len());
    if n == 0 {
        return m;
    }
    if m == 0 {
        return n;
    }
    let mut d = vec![vec![0usize; m + 1]; n + 1];
    for (i, row) in d.iter_mut().enumerate() {
        row[0] = i;
    }
    for (j, cell) in d[0].iter_mut().enumerate() {
        *cell = j;
    }
    for i in 1..=n {
        for j in 1..=m {
            let cost = usize::from(av[i - 1] != bv[j - 1]);
            let mut best = (d[i - 1][j] + 1)
                .min(d[i][j - 1] + 1)
                .min(d[i - 1][j - 1] + cost);
            if i > 1 && j > 1 && av[i - 1] == bv[j - 2] && av[i - 2] == bv[j - 1] {
                best = best.min(d[i - 2][j - 2] + 1);
            }
            d[i][j] = best;
        }
    }
    d[n][m]
}

/// Jaro similarity in `[0, 1]`.
#[must_use]
pub fn jaro(a: &str, b: &str) -> f64 {
    let av: Vec<char> = a.chars().collect();
    let bv: Vec<char> = b.chars().collect();
    let (n, m) = (av.len(), bv.len());
    if n == 0 && m == 0 {
        return 1.0;
    }
    if n == 0 || m == 0 {
        return 0.0;
    }
    let window = (n.max(m) / 2).saturating_sub(1);
    let mut b_used = vec![false; m];
    let mut matches = 0usize;
    let mut a_matched = Vec::with_capacity(n);
    for (i, &ac) in av.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(m);
        for j in lo..hi {
            if !b_used[j] && bv[j] == ac {
                b_used[j] = true;
                a_matched.push(i);
                matches += 1;
                break;
            }
        }
    }
    if matches == 0 {
        return 0.0;
    }
    // Count transpositions between the matched sequences.
    let b_matched: Vec<usize> = b_used
        .iter()
        .enumerate()
        .filter_map(|(j, &u)| u.then_some(j))
        .collect();
    let transpositions = a_matched
        .iter()
        .zip(&b_matched)
        .filter(|&(&i, &j)| av[i] != bv[j])
        .count();
    let m_f = matches as f64;
    (m_f / n as f64 + m_f / m as f64 + (m_f - transpositions as f64 / 2.0) / m_f) / 3.0
}

/// Jaro–Winkler similarity with the standard prefix scale 0.1 and prefix
/// cap 4.
#[must_use]
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    let j = jaro(a, b);
    let prefix = a
        .chars()
        .zip(b.chars())
        .take(4)
        .take_while(|(x, y)| x == y)
        .count();
    j + prefix as f64 * 0.1 * (1.0 - j)
}

/// Dice coefficient over character bigrams, in `[0, 1]`. Single-character
/// strings compare by equality.
#[must_use]
pub fn bigram_dice(a: &str, b: &str) -> f64 {
    fn bigrams(s: &str) -> Vec<(char, char)> {
        let cs: Vec<char> = s.chars().collect();
        cs.windows(2).map(|w| (w[0], w[1])).collect()
    }
    if a == b {
        return 1.0;
    }
    let mut ba = bigrams(a);
    let bb = bigrams(b);
    if ba.is_empty() || bb.is_empty() {
        return 0.0;
    }
    let total = ba.len() + bb.len();
    let mut shared = 0usize;
    for g in &bb {
        if let Some(pos) = ba.iter().position(|x| x == g) {
            ba.swap_remove(pos);
            shared += 1;
        }
    }
    2.0 * shared as f64 / total as f64
}

/// Normalised string *distance* measures, all mapping into `[0, 1]`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum StringMeasure {
    /// `levenshtein(a,b) / max(|a|,|b|)` — the paper's named choice.
    #[default]
    Levenshtein,
    /// Damerau–Levenshtein (OSA), normalised like Levenshtein.
    DamerauLevenshtein,
    /// `1 − jaro_winkler(a, b)`.
    JaroWinkler,
    /// `1 − bigram_dice(a, b)`.
    BigramDice,
}

impl StringMeasure {
    /// Every measure, for ablations.
    pub const ALL: [StringMeasure; 4] = [
        StringMeasure::Levenshtein,
        StringMeasure::DamerauLevenshtein,
        StringMeasure::JaroWinkler,
        StringMeasure::BigramDice,
    ];

    /// Stable lowercase name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            StringMeasure::Levenshtein => "levenshtein",
            StringMeasure::DamerauLevenshtein => "damerau-levenshtein",
            StringMeasure::JaroWinkler => "jaro-winkler",
            StringMeasure::BigramDice => "bigram-dice",
        }
    }

    /// Normalised distance in `[0, 1]`; 0 iff the strings are equal (for
    /// the edit-distance family).
    #[must_use]
    pub fn distance(self, a: &str, b: &str) -> f64 {
        match self {
            StringMeasure::Levenshtein => {
                let (edits, max) = levenshtein_and_longest(a, b);
                if max == 0 {
                    0.0
                } else {
                    edits as f64 / max as f64
                }
            }
            StringMeasure::DamerauLevenshtein => {
                let max = a.chars().count().max(b.chars().count());
                if max == 0 {
                    0.0
                } else {
                    damerau_levenshtein(a, b) as f64 / max as f64
                }
            }
            StringMeasure::JaroWinkler => 1.0 - jaro_winkler(a, b),
            StringMeasure::BigramDice => 1.0 - bigram_dice(a, b),
        }
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
    fn damerau_counts_transposition_once() {
        assert_eq!(levenshtein("ab", "ba"), 2);
        assert_eq!(damerau_levenshtein("ab", "ba"), 1);
        assert_eq!(damerau_levenshtein("ca", "abc"), 3); // OSA, not full DL
        assert_eq!(damerau_levenshtein("kitten", "sitting"), 3);
    }

    #[test]
    fn jaro_known_values() {
        assert!((jaro("martha", "marhta") - 0.944_444).abs() < 1e-5);
        assert!((jaro("dixon", "dicksonx") - 0.766_666).abs() < 1e-5);
        assert_eq!(jaro("", ""), 1.0);
        assert_eq!(jaro("a", ""), 0.0);
        assert_eq!(jaro("abc", "xyz"), 0.0);
    }

    #[test]
    fn jaro_winkler_boosts_shared_prefix() {
        let jw = jaro_winkler("dwayne", "duane");
        assert!((jw - 0.84).abs() < 1e-9, "{jw}");
        assert!(jaro_winkler("prefixed", "prefixes") > jaro("prefixed", "prefixes"));
    }

    #[test]
    fn bigram_dice_values() {
        assert_eq!(bigram_dice("night", "night"), 1.0);
        assert!((bigram_dice("night", "nacht") - 0.25).abs() < 1e-12);
        assert_eq!(bigram_dice("a", "b"), 0.0);
        assert_eq!(bigram_dice("a", "a"), 1.0);
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
        for m in StringMeasure::ALL {
            for (a, b) in pairs {
                let d = m.distance(a, b);
                assert!(
                    (0.0..=1.0 + 1e-12).contains(&d),
                    "{}({a},{b}) = {d}",
                    m.name()
                );
                if a == b {
                    assert_eq!(d, 0.0, "{}", m.name());
                }
            }
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(StringMeasure::default().name(), "levenshtein");
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
            StringMeasure::Levenshtein.distance(a, b).to_bits(),
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
        fn damerau_never_exceeds_levenshtein(a in "[a-d]{0,8}", b in "[a-d]{0,8}") {
            prop_assert!(damerau_levenshtein(&a, &b) <= levenshtein(&a, &b));
        }

        #[test]
        fn all_measures_symmetric(a in "[a-e]{0,8}", b in "[a-e]{0,8}") {
            for m in StringMeasure::ALL {
                let d1 = m.distance(&a, &b);
                let d2 = m.distance(&b, &a);
                prop_assert!((d1 - d2).abs() < 1e-12, "{} asymmetric", m.name());
            }
        }

        #[test]
        fn all_measures_unit_range(a in ".{0,10}", b in ".{0,10}") {
            for m in StringMeasure::ALL {
                let d = m.distance(&a, &b);
                prop_assert!((-1e-12..=1.0 + 1e-12).contains(&d));
            }
        }
    }
}
