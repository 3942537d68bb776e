//! `semtree-check`: the workspace invariant lint gate.
//!
//! A zero-dependency static checker run in CI as
//! `cargo run -p semtree-check`. It lexes and (lightly) parses every
//! production source file in `crates/*/src` and enforces:
//!
//! 1. **no-panics** — no `.unwrap()`, `.expect()`, or `panic!` outside
//!    test code. Known-justified sites live in `check.allow` with a
//!    mandatory justification and an exact count that can only shrink.
//! 2. **lock-order** — within a function, lock acquisitions follow the
//!    declared hierarchy (`cluster → dist → net → wal → par →
//!    distance → reactor`; see [`rules::LOCK_RANKS`]): while a guard
//!    of rank *r* is live, only ranks > *r* may be taken.
//! 3. **lock-flow / lock-blocking** — the interprocedural extension:
//!    a cross-crate call graph ([`callgraph`]) propagates the set of
//!    held locks through resolved call edges ([`lockflow`]) to find
//!    rank inversions that span functions and locks held across
//!    blocking operations (`recv`, `join`, frame IO, non-shim waits),
//!    each reported with its full file:line call chain.
//! 4. **undeclared-lock** — every `Mutex`/`RwLock` declaration outside
//!    the conc shim has a rank in [`rules::LOCK_RANKS`].
//! 5. **unsafe-audit** — every `unsafe` block/impl/fn carries a
//!    `// SAFETY:` comment arguing its soundness.
//! 6. **truncation-cast** — no `<len>() as u32`/`u16` casts in the
//!    codec crates (net, wal, colz); lengths go through `try_from`.
//! 7. **codec-coverage** — every `NetMsg` wire variant appears in the
//!    codec round-trip suite (`crates/net/tests/codec_roundtrip.rs`).
//! 8. **no-boxed-errors** — no `Box<dyn Error>` in `pub` APIs; public
//!    surfaces expose typed error enums.
//!
//! The analysis is deliberately lexical/syntactic: no macro expansion,
//! no type information. That keeps the checker dependency-free, fast,
//! and byte-for-byte deterministic — and the invariants it enforces
//! are chosen to be decidable at that level (the approximations are
//! documented in DESIGN.md §13). The deeper properties (actual
//! deadlock freedom, flush-before-apply under every interleaving) are
//! verified dynamically by the `semtree-conc` model suite; this gate
//! keeps the static shape of the code inside what that model covers.

pub mod allow;
pub mod callgraph;
pub mod lexer;
pub mod lockflow;
pub mod parse;
pub mod report;
pub mod rules;

use std::fs;
use std::path::{Path, PathBuf};

use rules::Finding;

/// Result of checking a workspace.
#[derive(Debug)]
pub struct Outcome {
    /// Surviving diagnostics (after the allowlist); empty means pass.
    pub findings: Vec<Finding>,
    /// Production files scanned.
    pub files_checked: usize,
    /// Size-of-the-code numbers per crate, ascending crate name, then
    /// the benchmark package (`perfbench`), which is counted only.
    pub census: Vec<CrateCensus>,
}

/// How much code one crate is — the tracked "less code" numbers the
/// JSON report carries next to the findings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrateCensus {
    /// Crate directory name under `crates/`, or `perfbench`.
    pub crate_name: String,
    /// Lines in every `.rs` file under the crate's `src/` (tests,
    /// comments and blanks included — `wc -l`).
    pub lines: usize,
    /// Lines starting (after indentation) with
    /// `pub fn|struct|enum|trait|const|type`.
    pub pub_items: usize,
    /// Locks the crate has ranked in [`rules::LOCK_RANKS`].
    pub lock_ranks: usize,
    /// Sum of the crate's `check.allow` counts.
    pub allowed: usize,
}

impl Outcome {
    /// Did the gate pass?
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Errors from the check driver itself (I/O, malformed allowlist) —
/// distinct from lint findings.
#[derive(Debug)]
pub enum CheckError {
    /// Filesystem problem walking or reading the workspace.
    Io(PathBuf, std::io::Error),
    /// `check.allow` is malformed.
    Allowlist(String),
    /// The workspace layout is not what the checker expects.
    Layout(String),
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckError::Io(path, e) => write!(f, "{}: {e}", path.display()),
            CheckError::Allowlist(msg) => write!(f, "{msg}"),
            CheckError::Layout(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CheckError {}

/// A production source file queued for checking.
pub struct SourceFile {
    /// Workspace-relative path (diagnostics use this).
    pub rel: String,
    /// Crate directory name under `crates/` (for the lock-rank table).
    pub crate_name: String,
    /// Full file contents.
    pub source: String,
}

/// Run every single- and cross-file rule over in-memory sources and
/// return the raw findings (no allowlist, no codec-coverage — those
/// need the workspace on disk; see [`check_workspace`]). This is the
/// seam the golden tests inject synthetic violations through.
pub fn analyze(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut parsed = Vec::with_capacity(files.len());
    for file in files {
        let toks = lexer::lex(&file.source);
        findings.extend(rules::no_panics(&file.rel, &toks));
        findings.extend(rules::lock_order(&file.crate_name, &file.rel, &toks));
        findings.extend(rules::no_boxed_errors(&file.rel, &toks));
        findings.extend(rules::truncation_casts(&file.crate_name, &file.rel, &toks));
        let p = parse::ParsedFile::parse(&file.rel, &file.crate_name, &file.source);
        findings.extend(rules::undeclared_locks(
            &file.crate_name,
            &file.rel,
            &p.lock_decls,
        ));
        findings.extend(rules::unsafe_audit(
            &file.rel,
            &file.source,
            &p.unsafe_sites,
        ));
        parsed.push(p);
    }
    let graph = callgraph::CallGraph::build(&parsed);
    findings.extend(lockflow::analyze(&parsed, &graph));
    findings
}

/// Every `(crate, lock)` the parser discovers in non-exempt crates —
/// the ground truth the self-sync test holds [`rules::LOCK_RANKS`] to.
pub fn lock_census(files: &[SourceFile]) -> Vec<(String, String)> {
    let mut census = Vec::new();
    for file in files {
        if rules::LOCK_DISCOVERY_EXEMPT_CRATES.contains(&file.crate_name.as_str()) {
            continue;
        }
        let p = parse::ParsedFile::parse(&file.rel, &file.crate_name, &file.source);
        for decl in &p.lock_decls {
            census.push((file.crate_name.clone(), decl.name.clone()));
        }
    }
    census.sort();
    census.dedup();
    census
}

/// Count lines and public items per crate and attribute lock ranks and
/// allowlist counts to their crate. `files` must be sorted by path
/// (as [`collect_sources`] returns them).
pub fn census(files: &[SourceFile], entries: &[allow::AllowEntry]) -> Vec<CrateCensus> {
    const PUB_ITEMS: [&str; 6] = ["fn ", "struct ", "enum ", "trait ", "const ", "type "];
    let mut out: Vec<CrateCensus> = Vec::new();
    for file in files {
        let name = &file.crate_name;
        if out.last().map(|c| &c.crate_name) != Some(name) {
            let prefix = format!("crates/{name}/");
            let listed = entries.iter().filter(|e| e.path.starts_with(&prefix));
            out.push(CrateCensus {
                crate_name: name.clone(),
                lines: 0,
                pub_items: 0,
                lock_ranks: rules::LOCK_RANKS.iter().filter(|r| r.0 == name).count(),
                allowed: listed.map(|e| e.count).sum(),
            });
        }
        let Some(entry) = out.last_mut() else {
            continue;
        };
        entry.lines += file.source.lines().count();
        entry.pub_items += file
            .source
            .lines()
            .filter_map(|line| line.trim_start().strip_prefix("pub "))
            .filter(|rest| PUB_ITEMS.iter().any(|kind| rest.starts_with(kind)))
            .count();
    }
    out
}

/// Check the workspace rooted at `root` (the directory containing
/// `crates/` and `check.allow`).
pub fn check_workspace(root: &Path) -> Result<Outcome, CheckError> {
    let files = collect_sources(root)?;
    let mut findings = analyze(&files);

    // codec-coverage is a two-file property: msg.rs variants vs the
    // round-trip suite (an integration test, so outside `src/`).
    let msg_rel = "crates/net/src/msg.rs";
    let test_rel = "crates/net/tests/codec_roundtrip.rs";
    let msg_src = files
        .iter()
        .find(|f| f.rel == msg_rel)
        .map(|f| f.source.clone())
        .ok_or_else(|| CheckError::Layout(format!("{msg_rel} not found")))?;
    let test_src = match fs::read_to_string(root.join(test_rel)) {
        Ok(s) => s,
        Err(e) => return Err(CheckError::Io(root.join(test_rel), e)),
    };
    findings.extend(rules::codec_coverage(
        msg_rel,
        &lexer::lex(&msg_src),
        test_rel,
        &lexer::lex(&test_src),
    ));

    // Burn the allowlist down against the raw findings.
    let allow_path = root.join("check.allow");
    let entries = if allow_path.exists() {
        let src = fs::read_to_string(&allow_path).map_err(|e| CheckError::Io(allow_path, e))?;
        allow::parse(&src).map_err(CheckError::Allowlist)?
    } else {
        Vec::new()
    };
    let findings = allow::apply(&entries, findings);

    // The benchmark is a package of its own outside `crates/`: it is
    // counted, after the crates, and never linted.
    let mut rows = census(&files, &entries);
    let mut perfbench = Vec::new();
    let perfbench_src = root.join("perfbench").join("src");
    if perfbench_src.is_dir() {
        read_sources(root, &perfbench_src, "perfbench", &mut perfbench)?;
    }
    rows.extend(census(&perfbench, &[]));

    Ok(Outcome {
        findings,
        files_checked: files.len(),
        census: rows,
    })
}

/// Every `.rs` file under `crates/*/src`, recursively. Integration
/// `tests/` directories are excluded by construction (they are siblings
/// of `src`), and in-file `#[cfg(test)]` code is masked by the lexer.
pub fn collect_sources(root: &Path) -> Result<Vec<SourceFile>, CheckError> {
    let crates_dir = root.join("crates");
    let mut out = Vec::new();
    let entries = fs::read_dir(&crates_dir).map_err(|e| CheckError::Io(crates_dir.clone(), e))?;
    let mut crate_dirs: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    if crate_dirs.is_empty() {
        return Err(CheckError::Layout(format!(
            "no crates found under {}",
            crates_dir.display()
        )));
    }
    for crate_dir in crate_dirs {
        let crate_name = crate_dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let src = crate_dir.join("src");
        if !src.is_dir() {
            continue;
        }
        read_sources(root, &src, &crate_name, &mut out)?;
    }
    out.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(out)
}

/// Read every `.rs` file under `dir`, in path order, as `crate_name`'s.
fn read_sources(
    root: &Path,
    dir: &Path,
    crate_name: &str,
    out: &mut Vec<SourceFile>,
) -> Result<(), CheckError> {
    walk_rs(dir, &mut |path| {
        let source = fs::read_to_string(path).map_err(|e| CheckError::Io(path.to_path_buf(), e))?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        out.push(SourceFile {
            rel,
            crate_name: crate_name.to_string(),
            source,
        });
        Ok(())
    })
}

fn walk_rs(
    dir: &Path,
    visit: &mut impl FnMut(&Path) -> Result<(), CheckError>,
) -> Result<(), CheckError> {
    let entries = fs::read_dir(dir).map_err(|e| CheckError::Io(dir.to_path_buf(), e))?;
    let mut paths: Vec<PathBuf> = entries.filter_map(Result::ok).map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            walk_rs(&path, visit)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            visit(&path)?;
        }
    }
    Ok(())
}
