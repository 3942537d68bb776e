//! Index persistence: save and reload a built index without re-running
//! FastMap.
//!
//! FastMap dominates index construction (`O(n·k)` semantic-distance
//! evaluations, each a taxonomy walk); the KD-tree reload from stored
//! coordinates is comparatively free. The format is a line-oriented text
//! file:
//!
//! ```text
//! SEMTREE-INDEX v1
//! dims 6
//! bucket 32
//! partitions 3
//! pivots 6
//! <a> <b> <d_ab>            # one line per dimension
//! points <n>
//! <c0> <c1> … <ck-1>        # one line per indexed triple, id order
//! store
//! …Turtle-like corpus (documents + triples), see semtree_model::turtle…
//! ```
//!
//! Floating-point values are written with Rust's shortest-roundtrip
//! formatting, so save → load is bit-exact. Vocabularies (taxonomies,
//! weights) are *not* stored — they are code/configuration, so
//! [`load_index_str`] takes the same [`TripleDistance`] the index was
//! built with; a mismatched distance degrades query quality but cannot
//! corrupt the structure.

use std::fmt::Write as _;

use semtree_cluster::CostModel;
use semtree_distance::TripleDistance;
use semtree_fastmap::{Embedding, PivotPair};
use semtree_model::{turtle, TripleStore};

use crate::index::SemTree;

/// Persistence failures.
#[derive(Debug, Clone, PartialEq)]
pub enum PersistError {
    /// The header magic/version line is wrong.
    BadHeader(String),
    /// A section or field is missing or malformed.
    Malformed {
        /// 1-based line of the problem.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The embedded corpus failed to parse.
    Corpus(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::BadHeader(got) => write!(f, "bad header: {got:?}"),
            PersistError::Malformed { line, message } => {
                write!(f, "malformed index file at line {line}: {message}")
            }
            PersistError::Corpus(msg) => write!(f, "embedded corpus failed to parse: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {}

const MAGIC: &str = "SEMTREE-INDEX v1";

/// Serialize an index to the v1 text format.
#[must_use]
pub fn save_index_string(index: &SemTree) -> String {
    let emb = index.embedding();
    let mut out = String::new();
    let _ = writeln!(out, "{MAGIC}");
    let _ = writeln!(out, "dims {}", index.dimensions());
    let _ = writeln!(out, "bucket {}", index.bucket_size());
    let _ = writeln!(out, "partitions {}", index.partitions());
    let _ = writeln!(out, "pivots {}", emb.pivots().len());
    for p in emb.pivots() {
        let _ = writeln!(out, "{} {} {}", p.a, p.b, p.d_ab);
    }
    let _ = writeln!(out, "points {}", emb.len());
    for (_, coords) in emb.iter() {
        let mut first = true;
        for c in coords {
            if !first {
                out.push(' ');
            }
            let _ = write!(out, "{c}");
            first = false;
        }
        out.push('\n');
    }
    let _ = writeln!(out, "store");
    out.push_str(&turtle::write_store(index.store()));
    out
}

/// Reload an index from the v1 text format. `distance` must be the same
/// Eq. 1 configuration (weights + vocabularies) the index was built with;
/// `cost` configures the fresh simulated cluster.
pub fn load_index_str(
    data: &str,
    distance: TripleDistance,
    cost: CostModel,
) -> Result<SemTree, PersistError> {
    let mut lines = data.lines().enumerate();
    let mut next = |what: &str| {
        lines.next().ok_or_else(|| PersistError::Malformed {
            line: usize::MAX,
            message: format!("unexpected end of file, expected {what}"),
        })
    };

    let (_, header) = next("header")?;
    if header.trim() != MAGIC {
        return Err(PersistError::BadHeader(header.to_string()));
    }

    fn field(line: (usize, &str), key: &str) -> Result<usize, PersistError> {
        let (no, text) = line;
        let rest = text
            .strip_prefix(key)
            .ok_or_else(|| PersistError::Malformed {
                line: no + 1,
                message: format!("expected '{key} <value>', got {text:?}"),
            })?;
        rest.trim().parse().map_err(|e| PersistError::Malformed {
            line: no + 1,
            message: format!("bad {key} value: {e}"),
        })
    }

    let dims = field(next("dims")?, "dims")?;
    if dims == 0 {
        return Err(PersistError::Malformed {
            line: 2,
            message: "dims must be at least 1".into(),
        });
    }
    let bucket = field(next("bucket")?, "bucket")?;
    if bucket == 0 {
        return Err(PersistError::Malformed {
            line: 3,
            message: "bucket must be at least 1".into(),
        });
    }
    let partitions = field(next("partitions")?, "partitions")?;
    let n_pivots = field(next("pivots")?, "pivots")?;
    if n_pivots != dims {
        return Err(PersistError::Malformed {
            line: 5,
            message: format!("{n_pivots} pivots for {dims} dimensions"),
        });
    }

    // Counts come from the file: reserve no more values than `data` can
    // hold. Each pivot is kept with its 1-based line, to name it once
    // `points` is known.
    let mut pivots = Vec::with_capacity(n_pivots.min(data.len()));
    for _ in 0..n_pivots {
        let (no, text) = next("pivot line")?;
        let mut parts = text.split_whitespace();
        let parse_err = |message: String| PersistError::Malformed {
            line: no + 1,
            message,
        };
        let a: usize = parts
            .next()
            .ok_or_else(|| parse_err("missing pivot a".into()))?
            .parse()
            .map_err(|e| parse_err(format!("bad pivot a: {e}")))?;
        let b: usize = parts
            .next()
            .ok_or_else(|| parse_err("missing pivot b".into()))?
            .parse()
            .map_err(|e| parse_err(format!("bad pivot b: {e}")))?;
        let d_ab: f64 = parts
            .next()
            .ok_or_else(|| parse_err("missing pivot distance".into()))?
            .parse()
            .map_err(|e| parse_err(format!("bad pivot distance: {e}")))?;
        if !d_ab.is_finite() {
            return Err(parse_err(format!("pivot distance {d_ab} is not finite")));
        }
        pivots.push((no + 1, PivotPair { a, b, d_ab }));
    }

    let n_points = field(next("points")?, "points")?;
    for &(line, p) in &pivots {
        if p.a.max(p.b) >= n_points {
            return Err(PersistError::Malformed {
                line,
                message: format!("pivot {} {} names no point of {n_points}", p.a, p.b),
            });
        }
    }
    let mut coords = Vec::with_capacity(n_points.saturating_mul(dims).min(data.len()));
    for _ in 0..n_points {
        let (no, text) = next("coordinate line")?;
        let mut count = 0usize;
        for tok in text.split_whitespace() {
            let v: f64 = tok.parse().map_err(|e| PersistError::Malformed {
                line: no + 1,
                message: format!("bad coordinate: {e}"),
            })?;
            if !v.is_finite() {
                return Err(PersistError::Malformed {
                    line: no + 1,
                    message: format!("coordinate {v} is not finite"),
                });
            }
            coords.push(v);
            count += 1;
        }
        if count != dims {
            return Err(PersistError::Malformed {
                line: no + 1,
                message: format!("{count} coordinates, expected {dims}"),
            });
        }
    }

    let (store_no, store_marker) = next("store section")?;
    if store_marker.trim() != "store" {
        return Err(PersistError::Malformed {
            line: store_no + 1,
            message: format!("expected 'store', got {store_marker:?}"),
        });
    }
    let corpus: String = lines.map(|(_, l)| l).collect::<Vec<_>>().join("\n");
    let mut store = TripleStore::new();
    turtle::parse_into(&mut store, &corpus).map_err(|e| PersistError::Corpus(e.to_string()))?;
    if store.len() != n_points {
        return Err(PersistError::Corpus(format!(
            "store holds {} distinct triples but {n_points} points were saved",
            store.len()
        )));
    }

    let pivots = pivots.into_iter().map(|(_, p)| p).collect();
    let embedding = Embedding::from_parts(n_points, coords, pivots);
    Ok(SemTree::from_parts(
        store, distance, embedding, bucket, partitions, cost,
    ))
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use semtree_distance::{VocabularyRegistry, Weights};
    use semtree_model::{Term, Triple};
    use semtree_vocab::wordnet;

    use super::*;

    fn distance() -> TripleDistance {
        let mut reg = VocabularyRegistry::new();
        reg.register_standard(Arc::new(wordnet::mini_taxonomy()));
        TripleDistance::new(Weights::default(), Arc::new(reg))
    }

    fn sample_index() -> SemTree {
        let mut b = SemTree::builder().dimensions(3).bucket_size(4);
        let verbs = ["accept", "block", "send", "receive", "start", "stop"];
        let triples: Vec<Triple> = verbs
            .iter()
            .enumerate()
            .map(|(i, v)| {
                Triple::new(
                    Term::literal(format!("ACT{i:02}")),
                    Term::concept(*v),
                    Term::concept("command"),
                )
            })
            .collect();
        b.add_triples("D", triples);
        b.build_with_distance(distance()).unwrap()
    }

    #[test]
    fn save_load_roundtrip_preserves_queries() {
        let idx = sample_index();
        let saved = save_index_string(&idx);
        let loaded = load_index_str(&saved, distance(), CostModel::zero()).unwrap();

        assert_eq!(loaded.len(), idx.len());
        assert_eq!(loaded.dimensions(), idx.dimensions());
        let q = Triple::new(
            Term::literal("ACT00"),
            Term::concept("accept"),
            Term::concept("command"),
        );
        let before = idx.knn(&q, 4);
        let after = loaded.knn(&q, 4);
        for (a, b) in before.iter().zip(&after) {
            assert_eq!(a.id, b.id);
            assert!((a.embedded_distance - b.embedded_distance).abs() < 1e-15);
        }
        // Out-of-sample projection is identical (pivots round-tripped).
        let unseen = Triple::new(
            Term::literal("GHOST"),
            Term::concept("monitor"),
            Term::concept("signal"),
        );
        assert_eq!(idx.project(&unseen), loaded.project(&unseen));
        idx.shutdown();
        loaded.shutdown();
    }

    #[test]
    fn saved_form_is_stable() {
        let idx = sample_index();
        let once = save_index_string(&idx);
        let loaded = load_index_str(&once, distance(), CostModel::zero()).unwrap();
        let twice = save_index_string(&loaded);
        assert_eq!(once, twice, "save∘load∘save is identity");
        idx.shutdown();
        loaded.shutdown();
    }

    #[test]
    fn bad_header_rejected() {
        match load_index_str("NOT-AN-INDEX", distance(), CostModel::zero()) {
            Err(err) => assert!(matches!(err, PersistError::BadHeader(_))),
            Ok(_) => panic!("bad header must be rejected"),
        }
    }

    #[test]
    fn truncated_file_rejected() {
        let idx = sample_index();
        let saved = save_index_string(&idx);
        let truncated = &saved[..saved.len() / 2];
        assert!(load_index_str(truncated, distance(), CostModel::zero()).is_err());
        idx.shutdown();
    }

    #[test]
    fn corrupted_coordinates_rejected() {
        let idx = sample_index();
        let saved = save_index_string(&idx);
        let corrupted = saved.replacen("0.", "xx.", 1);
        match load_index_str(&corrupted, distance(), CostModel::zero()) {
            Err(err) => assert!(matches!(err, PersistError::Malformed { .. }), "{err}"),
            Ok(_) => panic!("corrupted coordinates must be rejected"),
        }
        idx.shutdown();
    }

    /// `sample_index`'s saved form with line `line` (1-based) replaced.
    fn with_line(line: usize, text: &str) -> String {
        let idx = sample_index();
        let saved = save_index_string(&idx);
        idx.shutdown();
        let mut lines: Vec<&str> = saved.lines().collect();
        lines[line - 1] = text;
        lines.join("\n")
    }

    /// Loading `data` fails as malformed at `line`, naming `what`.
    fn assert_malformed_at(data: &str, line: usize, what: &str) {
        match load_index_str(data, distance(), CostModel::zero()) {
            Err(PersistError::Malformed { line: got, message }) => {
                assert_eq!(got, line, "{message}");
                assert!(message.contains(what), "{message}");
            }
            Err(err) => panic!("expected a malformed line {line}, got {err}"),
            Ok(idx) => {
                idx.shutdown();
                panic!("line {line} must be rejected");
            }
        }
    }

    // Lines of `sample_index`'s file: 1 header, 2 dims, 3 bucket,
    // 4 partitions, 5 pivots, 6–8 the three pivot pairs, 9 points,
    // 10.. coordinates.

    #[test]
    fn zero_dims_rejected() {
        // Zero pivots and no coordinates: otherwise a consistent file.
        let data = with_line(2, "dims 0").replace("pivots 3", "pivots 0");
        let mut lines: Vec<&str> = data.lines().collect();
        lines.drain(5..8);
        for coords in &mut lines[6..12] {
            *coords = "";
        }
        assert_malformed_at(&lines.join("\n"), 2, "dims");
    }

    #[test]
    fn zero_bucket_rejected() {
        assert_malformed_at(&with_line(3, "bucket 0"), 3, "bucket");
    }

    #[test]
    fn pivot_index_past_the_points_rejected() {
        assert_malformed_at(&with_line(7, "0 6 0.5"), 7, "names no point of 6");
        assert_malformed_at(&with_line(6, "99 1 0.5"), 6, "names no point of 6");
    }

    #[test]
    fn non_finite_pivot_distance_rejected() {
        assert_malformed_at(&with_line(6, "0 1 inf"), 6, "not finite");
        assert_malformed_at(&with_line(8, "0 1 NaN"), 8, "not finite");
    }

    #[test]
    fn non_finite_coordinate_rejected() {
        assert_malformed_at(&with_line(10, "NaN 0 0"), 10, "not finite");
        assert_malformed_at(&with_line(12, "0 -inf 0"), 12, "not finite");
    }

    #[test]
    fn huge_counts_rejected_without_reserving_them() {
        let huge = u64::MAX.to_string();
        let dims =
            with_line(2, &format!("dims {huge}")).replace("pivots 3", &format!("pivots {huge}"));
        let points = with_line(9, &format!("points {huge}"));
        for data in [dims, points] {
            match load_index_str(&data, distance(), CostModel::zero()) {
                Err(err) => assert!(matches!(err, PersistError::Malformed { .. }), "{err}"),
                Ok(idx) => {
                    idx.shutdown();
                    panic!("huge counts must be rejected");
                }
            }
        }
    }

    #[test]
    fn error_display() {
        assert!(PersistError::BadHeader("x".into())
            .to_string()
            .contains("header"));
        assert!(PersistError::Malformed {
            line: 3,
            message: "m".into()
        }
        .to_string()
        .contains("line 3"));
        assert!(PersistError::Corpus("c".into()).to_string().contains('c'));
    }
}
