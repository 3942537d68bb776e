//! Acceptance tests for the lint gate, against the REAL workspace
//! sources: the pristine tree passes, and deliberately introducing (i)
//! an `unwrap()` in `fabric.rs` or (ii) an out-of-order nested lock
//! acquisition produces a non-zero outcome with file:line diagnostics.

use std::path::PathBuf;

use semtree_check::lexer::lex;
use semtree_check::{check_workspace, rules};

/// The real network fabric source, compiled into the test so injections
/// operate on production code, not a fixture.
const FABRIC: &str = include_str!("../../net/src/fabric.rs");

/// 1-indexed line of the LAST occurrence of `needle` (injections are
/// appended, so the last hit is the injected one even when the pristine
/// source contains the same text).
fn line_of(haystack: &str, needle: &str) -> u32 {
    let lines: Vec<&str> = haystack.lines().collect();
    lines
        .iter()
        .rposition(|l| l.contains(needle))
        .map(|i| i as u32 + 1)
        .expect("needle present in injected source")
}

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/check sits two levels below the workspace root")
        .to_path_buf()
}

#[test]
fn pristine_workspace_is_clean() {
    let outcome = check_workspace(&workspace_root()).expect("driver runs");
    assert!(
        outcome.is_clean(),
        "the committed tree must pass its own gate:\n{:#?}",
        outcome.findings
    );
    assert!(
        outcome.files_checked > 50,
        "should scan the whole workspace"
    );
}

#[test]
fn pristine_fabric_has_no_panic_sites() {
    let f = rules::no_panics("crates/net/src/fabric.rs", &lex(FABRIC));
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn injected_unwrap_in_fabric_is_caught_with_file_and_line() {
    // Append a production function with an unwrap — the shape of the
    // regression the gate exists to stop.
    let injected =
        format!("{FABRIC}\nfn regressed(x: Option<u32>) -> u32 {{\n    x.unwrap()\n}}\n");
    let f = rules::no_panics("crates/net/src/fabric.rs", &lex(&injected));
    assert_eq!(f.len(), 1, "{f:?}");
    let expected_line = line_of(&injected, "x.unwrap()");
    assert_eq!(
        f[0].line, expected_line,
        "diagnostic must carry the real line"
    );
    assert_eq!(f[0].path, "crates/net/src/fabric.rs");
    assert_eq!(f[0].rule, "no-panics");
    assert!(f[0].message.contains(".unwrap()"));
    // And the allowlist cannot hide it: fabric.rs has no entry.
    let allow = std::fs::read_to_string(workspace_root().join("check.allow")).unwrap();
    assert!(
        !allow.contains("fabric.rs"),
        "fabric.rs must stay off the allowlist"
    );
}

#[test]
fn injected_out_of_order_nested_lock_is_caught_with_file_and_line() {
    // conns (rank 32) held while taking peers (rank 31): inverted.
    let injected = format!(
        "{FABRIC}\nimpl Broken {{\n    fn regressed(&self) {{\n        let table = self.conns.lock();\n        let peers = self.peers.read();\n        drop((table, peers));\n    }}\n}}\n"
    );
    let f = rules::lock_order("net", "crates/net/src/fabric.rs", &lex(&injected));
    assert_eq!(f.len(), 1, "{f:?}");
    let expected_line = line_of(&injected, "self.peers.read()");
    assert_eq!(f[0].line, expected_line);
    assert_eq!(f[0].rule, "lock-order");
    assert!(
        f[0].message.contains("`peers` (rank 31)"),
        "{}",
        f[0].message
    );
    assert!(
        f[0].message.contains("`conns` (rank 32"),
        "{}",
        f[0].message
    );
}

#[test]
fn pristine_fabric_lock_usage_follows_the_hierarchy() {
    let f = rules::lock_order("net", "crates/net/src/fabric.rs", &lex(FABRIC));
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn removing_a_codec_case_is_caught() {
    let msg = include_str!("../../net/src/msg.rs");
    let tests = include_str!("../../net/tests/codec_roundtrip.rs");
    // Full suite covers everything.
    let f = rules::codec_coverage(
        "crates/net/src/msg.rs",
        &lex(msg),
        "crates/net/tests/codec_roundtrip.rs",
        &lex(tests),
    );
    assert!(f.is_empty(), "{f:?}");
    // Dropping every Rejoin mention leaves a gap the rule reports.
    let gutted = tests.replace("NetMsg::Rejoin", "NetMsg::Shutdown; // gutted");
    let f = rules::codec_coverage(
        "crates/net/src/msg.rs",
        &lex(msg),
        "crates/net/tests/codec_roundtrip.rs",
        &lex(&gutted),
    );
    assert_eq!(f.len(), 1, "{f:?}");
    assert!(f[0].message.contains("NetMsg::Rejoin"));
    assert_eq!(f[0].rule, "codec-coverage");
}

#[test]
fn boxed_error_in_public_api_is_caught() {
    let injected = format!(
        "{FABRIC}\npub fn regressed() -> Result<(), Box<dyn std::error::Error>> {{\n    Ok(())\n}}\n"
    );
    let f = rules::no_boxed_errors("crates/net/src/fabric.rs", &lex(&injected));
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].line, line_of(&injected, "fn regressed"));
    assert_eq!(f[0].rule, "no-boxed-errors");
}

#[test]
fn census_counts_lines_pub_items_lock_ranks_and_allowances_per_crate() {
    use semtree_check::{allow, census, CrateCensus, SourceFile};
    let file = |rel: &str, krate: &str, source: &str| SourceFile {
        rel: rel.to_string(),
        crate_name: krate.to_string(),
        source: source.to_string(),
    };
    let files = [
        file(
            "crates/dist/src/a.rs",
            "dist",
            "pub fn a() {}\n    pub struct B;\npub(crate) fn hidden() {}\nfn private() {}\n",
        ),
        file(
            "crates/dist/src/b.rs",
            "dist",
            "pub const C: u8 = 0;\n// pub fn in_a_comment()\n",
        ),
        file(
            "crates/wal/src/lib.rs",
            "wal",
            "pub use x::Y;\npub type T = u8;\n",
        ),
    ];
    let entries = allow::parse(
        "crates/dist/src/a.rs no-panics 2 -- why\n\
         crates/dist/src/b.rs no-panics 1 -- why\n\
         crates/kdtree/src/tree.rs no-panics 4 -- another crate\n",
    )
    .expect("allowlist parses");
    let ranks = |krate: &str| rules::LOCK_RANKS.iter().filter(|r| r.0 == krate).count();
    let expect = |krate: &str, lines, pub_items, allowed| CrateCensus {
        crate_name: krate.to_string(),
        lines,
        pub_items,
        lock_ranks: ranks(krate),
        allowed,
    };
    assert!(ranks("dist") > 0);
    assert_eq!(
        census(&files, &entries),
        [expect("dist", 6, 3, 3), expect("wal", 2, 1, 0)]
    );

    // On the real workspace the allowances add up to all of check.allow.
    let root = workspace_root();
    let listed = allow::parse(&std::fs::read_to_string(root.join("check.allow")).unwrap())
        .expect("check.allow parses");
    let outcome = check_workspace(&root).expect("driver runs");
    assert_eq!(
        outcome.census.iter().map(|c| c.allowed).sum::<usize>(),
        listed.iter().map(|e| e.count).sum::<usize>()
    );
    // The benchmark package is counted last, and only counted.
    let perfbench = outcome.census.last().expect("census rows");
    assert_eq!(perfbench.crate_name, "perfbench");
    assert!(perfbench.lines > 0 && perfbench.pub_items > 0);
    assert_eq!((perfbench.lock_ranks, perfbench.allowed), (0, 0));
    let perfbench_files = |path: &str| path.starts_with("perfbench/");
    assert!(!outcome.findings.iter().any(|f| perfbench_files(&f.path)));
}
