//! The workspace invariants `semtree-check` enforces.
//!
//! Each rule is a pure function from lexed tokens to findings, so the
//! acceptance tests can run them against modified in-memory sources
//! without touching the tree.

use crate::lexer::{matching_brace, test_mask, Kind, Tok};

/// One diagnostic: a rule violation anchored to a file and line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-indexed line the violation starts on.
    pub line: u32,
    /// Stable rule identifier (`no-panics`, `lock-order`, ...).
    pub rule: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// The declared lock hierarchy. Locks must be acquired in strictly
/// ascending rank within a function; the ordering across crates is
/// `cluster → dist → net → wal → distance → reactor` (see DESIGN.md
/// §"Concurrency model & verification"). Ranks are spaced so new locks
/// can slot in without renumbering.
pub const LOCK_RANKS: &[(&str, &str, u32)] = &[
    // crates/cluster — a node's `handler`, held while a request runs on
    // it, so below everything that request may take. Only the node's own
    // thread takes it blocking, holding nothing; `try_lock`, by an idle
    // node's caller (possibly a handler running another in place), is
    // the only nested acquisition, and it never waits.
    ("cluster", "handler", 9),
    ("cluster", "nodes", 10),
    ("cluster", "handles", 11),
    ("cluster", "router", 12),
    ("cluster", "factory", 13),
    ("cluster", "generation", 14),
    // crates/dist — the pipelined client. `reader` is the read half of
    // its socket, held by whichever waiter is reading — across the
    // blocking `read`, which is the design: one thread at a time
    // re-assembles replies. `outbox` holds the submitted frames not yet
    // written, held across the `write` that flushes them; a waiter
    // flushes it *before* taking `reader`, and `reader` is never taken
    // under it. Under both only `replies`, the correlation table, which
    // submitters and waiters take briefly and call nothing ranked while
    // holding.
    ("dist", "reader", 18),
    ("dist", "outbox", 19),
    ("dist", "replies", 20),
    // The process's registry of the partition trees its actors host,
    // read lock-free by every other thread. A leaf lock, shared by
    // lookups: register/lookup copy an Arc in and out and call nothing
    // ranked while holding it.
    ("dist", "read_handles", 21),
    // crates/net
    ("net", "peers", 31),
    ("net", "conns", 32),
    ("net", "pending", 33),
    ("net", "writer", 34),
    ("net", "shutdown_rx", 35),
    // crates/wal
    ("wal", "inner", 41),
    // crates/colz holds no locks at all: every codec is a pure function
    // over byte slices, so the crate is a lock-free leaf of the
    // hierarchy — it may be called with any rank held.
    // crates/par holds no locks: workers claim chunks through one
    // atomic cursor.
    // crates/distance
    ("distance", "shards", 60),
    // crates/reactor — the serving fabric's locks rank below everything
    // else: executors call into the tree (and through it every ranked
    // subsystem) only while holding *no* reactor lock.
    ("reactor", "inner", 70),
    ("reactor", "completions", 71),
    // Each shard's socket-handoff mailbox. A leaf: shard 0 pushes an
    // accepted socket and the owning shard drains it; neither side
    // calls anything ranked while holding it.
    ("reactor", "inbox", 72),
];

/// Locks that are *allowed* to be held across blocking socket IO: the
/// per-connection write serialization leaves. Holding `net::writer`
/// across `write_frame` is the design (one frame at a time per
/// socket); the lock guards the stream itself and nothing ranked is
/// ever taken under it.
pub const IO_LOCK_EXEMPT: &[(&str, &str)] = &[("net", "writer")];

fn rank_of(crate_name: &str, field: &str) -> Option<u32> {
    LOCK_RANKS
        .iter()
        .find(|&&(c, f, _)| c == crate_name && f == field)
        .map(|&(_, _, r)| r)
}

// ---------------------------------------------------------------------
// Rule 1: no `unwrap()` / `expect()` / `panic!` in non-test code.
// ---------------------------------------------------------------------

/// Flag every `.unwrap()`, `.expect(`, and `panic!` outside test code.
/// Known-justified sites are burned down via `check.allow`, not here.
pub fn no_panics(path: &str, toks: &[Tok]) -> Vec<Finding> {
    let mask = test_mask(toks);
    let mut findings = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if mask[i] || t.kind != Kind::Ident {
            continue;
        }
        let hit = match t.text.as_str() {
            "unwrap" | "expect" => {
                i > 0
                    && toks[i - 1].is_punct('.')
                    && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            }
            "panic" => toks.get(i + 1).is_some_and(|n| n.is_punct('!')),
            _ => false,
        };
        if hit {
            let what = if t.text == "panic" {
                "panic!".to_string()
            } else {
                format!(".{}()", t.text)
            };
            findings.push(Finding {
                path: path.to_string(),
                line: t.line,
                rule: "no-panics",
                message: format!(
                    "{what} in non-test code — return a typed error, or add a \
                     justified entry to check.allow"
                ),
            });
        }
    }
    findings
}

// ---------------------------------------------------------------------
// Rule 2: lock acquisitions follow the declared hierarchy.
// ---------------------------------------------------------------------

/// A detected lock acquisition in the token stream.
pub(crate) struct Acquisition {
    /// Index of the `lock`/`read`/`write` (or `S::lock`-style callee)
    /// token.
    pub(crate) field: String,
    pub(crate) rank: u32,
    pub(crate) line: u32,
    /// Token index just past the acquisition's closing `)`.
    pub(crate) end: usize,
}

/// Detect `self.<field>.lock()/.read()/.write()` and
/// `S::lock(&self.<field>)`-shaped acquisitions of ranked fields.
/// Returns `None` when token `i` is not such an acquisition.
pub(crate) fn acquisition_at(crate_name: &str, toks: &[Tok], i: usize) -> Option<Acquisition> {
    let t = &toks[i];
    if t.kind != Kind::Ident {
        return None;
    }
    let is_method = matches!(t.text.as_str(), "lock" | "read" | "write");
    if !is_method {
        return None;
    }
    let open = i + 1;
    if !toks.get(open).is_some_and(|n| n.is_punct('(')) {
        return None;
    }
    let close = matching_paren(toks, open)?;
    // Shape A: `<field> . lock ( )` — the receiver field sits two back.
    if i >= 2 && toks[i - 1].is_punct('.') && toks[i - 2].kind == Kind::Ident {
        let field = &toks[i - 2].text;
        if let Some(rank) = rank_of(crate_name, field) {
            return Some(Acquisition {
                field: field.clone(),
                rank,
                line: t.line,
                end: close + 1,
            });
        }
    }
    // Shape B: `S :: lock ( & self . <field> )` — shim-generic code.
    // The field is the last identifier reached through a `.` inside the
    // argument list.
    if i >= 2 && toks[i - 1].is_punct(':') && toks[i - 2].is_punct(':') {
        let mut field: Option<&str> = None;
        for j in (open + 1)..close {
            if toks[j].kind == Kind::Ident && toks[j - 1].is_punct('.') {
                field = Some(&toks[j].text);
            }
        }
        if let Some(field) = field {
            if let Some(rank) = rank_of(crate_name, field) {
                return Some(Acquisition {
                    field: field.to_string(),
                    rank,
                    line: t.line,
                    end: close + 1,
                });
            }
        }
    }
    None
}

fn matching_paren(toks: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// A guard currently held, for nesting checks.
struct HeldGuard {
    field: String,
    rank: u32,
    line: u32,
    /// Brace depth of the block the guard lives in; it drops when the
    /// block closes.
    depth: u32,
}

/// Flag nested acquisitions that violate the rank order: while a guard
/// of rank `r` is live, acquiring any lock of rank `<= r` is an error
/// (equal rank means re-acquiring the same level — self-deadlock for a
/// mutex).
///
/// Guard liveness is decided lexically: an acquisition whose call is
/// immediately followed by `;` inside a `let` statement binds a guard
/// that lives to the end of the enclosing block; anything else (chained
/// `.len()`, match scrutinee, argument position) is a temporary that
/// drops at the end of the statement.
pub fn lock_order(crate_name: &str, path: &str, toks: &[Tok]) -> Vec<Finding> {
    let mask = test_mask(toks);
    let mut findings = Vec::new();
    let mut held: Vec<HeldGuard> = Vec::new();
    let mut depth: u32 = 0;
    let mut stmt_start = 0usize; // token index where the current statement began
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('{') {
            depth += 1;
            stmt_start = i + 1;
        } else if t.is_punct('}') {
            held.retain(|g| g.depth < depth);
            depth = depth.saturating_sub(1);
            stmt_start = i + 1;
        } else if t.is_punct(';') {
            stmt_start = i + 1;
        } else if !mask[i] {
            if let Some(acq) = acquisition_at(crate_name, toks, i) {
                // Ordering check against every live guard.
                for g in &held {
                    if acq.rank <= g.rank && acq.field != g.field {
                        findings.push(Finding {
                            path: path.to_string(),
                            line: acq.line,
                            rule: "lock-order",
                            message: format!(
                                "acquired `{}` (rank {}) while holding `{}` (rank {}, \
                                 taken at line {}) — the hierarchy requires strictly \
                                 ascending ranks (cluster → dist → net → wal → par → reactor)",
                                acq.field, acq.rank, g.field, g.rank, g.line
                            ),
                        });
                    } else if acq.field == g.field {
                        findings.push(Finding {
                            path: path.to_string(),
                            line: acq.line,
                            rule: "lock-order",
                            message: format!(
                                "re-acquired `{}` (rank {}) while already holding it \
                                 (taken at line {}) — self-deadlock",
                                acq.field, acq.rank, g.line
                            ),
                        });
                    }
                }
                // Liveness: `let ... = <acq>;` binds a guard for the
                // rest of the block.
                let is_binding = toks[stmt_start..i].iter().any(|t| t.is_ident("let"))
                    && toks.get(acq.end).is_some_and(|n| n.is_punct(';'));
                if is_binding {
                    held.push(HeldGuard {
                        field: acq.field,
                        rank: acq.rank,
                        line: acq.line,
                        depth,
                    });
                }
                i = acq.end;
                continue;
            }
        }
        i += 1;
    }
    findings
}

// ---------------------------------------------------------------------
// Rule 3: every NetMsg variant has codec round-trip coverage.
// ---------------------------------------------------------------------

/// Parse the variant names of `pub enum NetMsg` out of `msg.rs` tokens.
pub fn net_msg_variants(toks: &[Tok]) -> Vec<(String, u32)> {
    let mut variants = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("enum") && toks.get(i + 1).is_some_and(|t| t.is_ident("NetMsg")) {
            // Skip generics to the enum body.
            let mut j = i + 2;
            while j < toks.len() && !toks[j].is_punct('{') {
                j += 1;
            }
            let close = match matching_brace(toks, j) {
                Some(c) => c,
                None => break,
            };
            // Walk the body at depth 1; a variant name is an identifier
            // directly inside the enum braces, and its optional
            // `{...}`/`(...)` body is skipped wholesale.
            let mut k = j + 1;
            while k < close {
                let t = &toks[k];
                if t.kind == Kind::Ident {
                    if t.text == "derive" || t.text == "doc" {
                        k += 1;
                        continue;
                    }
                    variants.push((t.text.clone(), t.line));
                    // Skip to the comma ending this variant, honoring
                    // nested braces/parens/brackets.
                    let mut d = 0i32;
                    while k < close {
                        let u = &toks[k];
                        if u.is_punct('{') || u.is_punct('(') || u.is_punct('[') {
                            d += 1;
                        } else if u.is_punct('}') || u.is_punct(')') || u.is_punct(']') {
                            d -= 1;
                        } else if u.is_punct(',') && d == 0 {
                            break;
                        }
                        k += 1;
                    }
                } else if t.is_punct('#') && toks.get(k + 1).is_some_and(|n| n.is_punct('[')) {
                    // Variant attribute: skip it.
                    let mut d = 0i32;
                    k += 1;
                    while k < close {
                        if toks[k].is_punct('[') {
                            d += 1;
                        } else if toks[k].is_punct(']') {
                            d -= 1;
                            if d == 0 {
                                break;
                            }
                        }
                        k += 1;
                    }
                }
                k += 1;
            }
            return variants;
        }
        i += 1;
    }
    variants
}

/// Require every `NetMsg` variant (parsed from `msg_toks`) to be
/// mentioned as `NetMsg::<Variant>` in the round-trip test file.
pub fn codec_coverage(
    msg_path: &str,
    msg_toks: &[Tok],
    test_path: &str,
    test_toks: &[Tok],
) -> Vec<Finding> {
    let variants = net_msg_variants(msg_toks);
    let mut findings = Vec::new();
    if variants.is_empty() {
        findings.push(Finding {
            path: msg_path.to_string(),
            line: 1,
            rule: "codec-coverage",
            message: "could not locate `enum NetMsg` — the codec-coverage rule \
                      needs updating"
                .to_string(),
        });
        return findings;
    }
    for (variant, line) in variants {
        let covered = test_toks.windows(4).any(|w| {
            w[0].is_ident("NetMsg")
                && w[1].is_punct(':')
                && w[2].is_punct(':')
                && w[3].is_ident(&variant)
        });
        if !covered {
            findings.push(Finding {
                path: msg_path.to_string(),
                line,
                rule: "codec-coverage",
                message: format!(
                    "NetMsg::{variant} has no round-trip case in {test_path} — \
                     every wire variant must be encode/decode tested"
                ),
            });
        }
    }
    findings
}

// ---------------------------------------------------------------------
// Rule 4: no `Box<dyn Error>` in public APIs.
// ---------------------------------------------------------------------

/// Flag `Box<dyn ...Error...>` appearing in `pub` items: public crate
/// APIs must expose typed errors.
pub fn no_boxed_errors(path: &str, toks: &[Tok]) -> Vec<Finding> {
    let mask = test_mask(toks);
    let mut findings = Vec::new();
    for i in 0..toks.len() {
        if mask[i] || !toks[i].is_ident("Box") {
            continue;
        }
        if !toks.get(i + 1).is_some_and(|t| t.is_punct('<')) {
            continue;
        }
        if !toks.get(i + 2).is_some_and(|t| t.is_ident("dyn")) {
            continue;
        }
        // A boxed closure (`Box<dyn FnOnce(Result<_, ClusterError>)>`)
        // is a completion callback, not an error type — the typed error
        // lives inside its signature, which is exactly what this rule
        // wants. Only bare boxed trait objects are suspect.
        if toks
            .get(i + 3)
            .is_some_and(|t| t.is_ident("Fn") || t.is_ident("FnMut") || t.is_ident("FnOnce"))
        {
            continue;
        }
        // Scan the generic argument to its closing `>` looking for an
        // Error-ish trait name.
        let mut depth = 0i32;
        let mut has_error = false;
        let mut j = i + 1;
        while j < toks.len() {
            let t = &toks[j];
            if t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('>') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if t.kind == Kind::Ident && t.text.ends_with("Error") {
                has_error = true;
            }
            j += 1;
        }
        if !has_error {
            continue;
        }
        // Only public items count: walk back to the item keyword and
        // check for a bare `pub` (pub(crate)/pub(super) are internal).
        if item_is_public(toks, i) {
            findings.push(Finding {
                path: path.to_string(),
                line: toks[i].line,
                rule: "no-boxed-errors",
                message: "`Box<dyn Error>` in a public API — expose a typed error \
                          enum instead"
                    .to_string(),
            });
        }
    }
    findings
}

/// Walk back from token `at` to the nearest item keyword and report
/// whether that item is `pub` (bare, not `pub(...)`).
fn item_is_public(toks: &[Tok], at: usize) -> bool {
    let mut i = at;
    while i > 0 {
        i -= 1;
        let t = &toks[i];
        if t.kind == Kind::Ident
            && matches!(
                t.text.as_str(),
                "fn" | "type" | "struct" | "enum" | "trait" | "impl" | "static" | "const"
            )
        {
            if i == 0 {
                return false;
            }
            if toks[i - 1].is_ident("pub") {
                return true;
            }
            // `pub ( crate ) fn` — restricted visibility, not public.
            if toks[i - 1].is_punct(')') {
                let mut k = i - 1;
                while k > 0 && !toks[k].is_punct('(') {
                    k -= 1;
                }
                return false_if_restricted(toks, k);
            }
            return false;
        }
        // Don't walk past a statement/block boundary without finding an
        // item keyword — the Box is in an expression position then, and
        // expression-position boxes inside private fns were already
        // excluded by the keyword search failing.
        if t.is_punct('{') || t.is_punct('}') || t.is_punct(';') {
            return false;
        }
    }
    false
}

fn false_if_restricted(toks: &[Tok], open_paren: usize) -> bool {
    // `pub(crate)` etc. — treat any parenthesized visibility as
    // non-public API surface.
    open_paren == 0 || !toks[open_paren - 1].is_ident("pub")
}

// ---------------------------------------------------------------------
// Rule 5: every Mutex/RwLock declaration is in the rank hierarchy.
// ---------------------------------------------------------------------

/// Crates whose lock declarations are not subject to the hierarchy:
/// `conc` *defines* the Mutex/RwLock wrappers and the model-checker
/// internals, and `check` is the gate itself.
pub const LOCK_DISCOVERY_EXEMPT_CRATES: &[&str] = &["conc", "check"];

/// Flag `Mutex`/`RwLock` declarations (struct fields and `let`-bound
/// locals, as discovered by the parser) that have no entry in
/// [`LOCK_RANKS`] — new locks cannot dodge the hierarchy silently.
pub fn undeclared_locks(
    crate_name: &str,
    path: &str,
    decls: &[crate::parse::LockDecl],
) -> Vec<Finding> {
    if LOCK_DISCOVERY_EXEMPT_CRATES.contains(&crate_name) {
        return Vec::new();
    }
    decls
        .iter()
        .filter(|d| rank_of(crate_name, &d.name).is_none())
        .map(|d| Finding {
            path: path.to_string(),
            line: d.line,
            rule: "undeclared-lock",
            message: format!(
                "{} `{}` holds a Mutex/RwLock but has no rank in LOCK_RANKS \
                 (crates/check/src/rules.rs) — every lock must join the declared \
                 hierarchy",
                if d.is_field { "field" } else { "local" },
                d.name
            ),
        })
        .collect()
}

// ---------------------------------------------------------------------
// Rule 6: every `unsafe` block/impl/fn carries a `// SAFETY:` comment.
// ---------------------------------------------------------------------

/// Require a `// SAFETY:` comment on (or directly above) every
/// non-test `unsafe` site. The comment must state the argument for
/// soundness; its presence is checked on the raw source because the
/// lexer drops comments.
pub fn unsafe_audit(path: &str, source: &str, sites: &[crate::parse::UnsafeSite]) -> Vec<Finding> {
    let lines: Vec<&str> = source.lines().collect();
    let mut findings = Vec::new();
    for site in sites {
        let at = site.line as usize - 1; // 0-indexed
        let mut justified = lines.get(at).is_some_and(|l| l.contains("SAFETY:"));
        // Walk up through the contiguous run of comments, attributes
        // and blank lines directly above the site.
        let mut j = at;
        while !justified && j > 0 {
            j -= 1;
            let text = lines[j].trim_start();
            if text.starts_with("//") || text.starts_with("#[") || text.is_empty() {
                justified = text.contains("SAFETY:");
                if justified {
                    break;
                }
            } else {
                break;
            }
        }
        if !justified {
            findings.push(Finding {
                path: path.to_string(),
                line: site.line,
                rule: "unsafe-audit",
                message: format!(
                    "`unsafe` {} without a `// SAFETY:` comment — state why every \
                     invariant the unsafe operation relies on holds",
                    site.kind
                ),
            });
        }
    }
    findings
}

// ---------------------------------------------------------------------
// Rule 7: no truncating `as` casts on length expressions in codec
// paths.
// ---------------------------------------------------------------------

/// Crates whose byte-level codecs must never silently truncate a
/// length: wire framing, WAL records, columnar blocks.
const CODEC_CRATES: &[&str] = &["net", "wal", "colz"];

/// Identifiers that read as a length/size computation.
const LEN_IDENTS: &[&str] = &["len", "encoded_len", "wire_size"];

/// Flag `<len-expr> as u32` / `as u16` in codec crates: a payload
/// larger than the target type silently wraps and corrupts the frame.
/// Use `u32::try_from(..)` with a typed error instead (see
/// `net::frame::write_frame` for the pattern).
pub fn truncation_casts(crate_name: &str, path: &str, toks: &[Tok]) -> Vec<Finding> {
    if !CODEC_CRATES.contains(&crate_name) {
        return Vec::new();
    }
    let mask = test_mask(toks);
    let mut findings = Vec::new();
    for i in 0..toks.len() {
        if mask[i] || !toks[i].is_ident("as") {
            continue;
        }
        let Some(target) = toks.get(i + 1) else {
            continue;
        };
        if !(target.is_ident("u32") || target.is_ident("u16")) {
            continue;
        }
        // The cast source must end in `<len-ident>( .. )`.
        if i == 0 || !toks[i - 1].is_punct(')') {
            continue;
        }
        let Some(open) = backward_matching_paren(toks, i - 1) else {
            continue;
        };
        if open == 0 {
            continue;
        }
        let callee = &toks[open - 1];
        if callee.kind == Kind::Ident && LEN_IDENTS.contains(&callee.text.as_str()) {
            findings.push(Finding {
                path: path.to_string(),
                line: toks[i].line,
                rule: "truncation-cast",
                message: format!(
                    "`{}() as {}` silently truncates oversized values in a codec \
                     path — use `{}::try_from(..)` and return a typed error",
                    callee.text, target.text, target.text
                ),
            });
        }
    }
    findings
}

/// Index of the `(` matching the `)` at `close`, scanning backwards.
fn backward_matching_paren(toks: &[Tok], close: usize) -> Option<usize> {
    let mut depth = 0i32;
    for i in (0..=close).rev() {
        if toks[i].is_punct(')') {
            depth += 1;
        } else if toks[i].is_punct('(') {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn no_panics_flags_production_sites_only() {
        let src = r#"
            fn prod(x: Option<u32>) -> u32 {
                let a = x.unwrap();
                let b = x.expect("msg");
                if a == 0 { panic!("boom"); }
                b
            }
            #[cfg(test)]
            mod tests {
                fn t(x: Option<u32>) { x.unwrap(); panic!("fine in tests"); }
            }
        "#;
        let f = no_panics("lib.rs", &lex(src));
        assert_eq!(f.len(), 3, "{f:?}");
        assert_eq!(f[0].line, 3);
        assert_eq!(f[1].line, 4);
        assert_eq!(f[2].line, 5);
    }

    #[test]
    fn no_panics_ignores_unwrap_or_else_and_comments() {
        let src = r#"
            fn prod(x: std::sync::Mutex<u32>) -> u32 {
                // x.unwrap() would panic! here
                *x.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
            }
        "#;
        assert!(no_panics("lib.rs", &lex(src)).is_empty());
    }

    #[test]
    fn lock_order_accepts_ascending_and_flags_descending() {
        let ok = r#"
            fn fine(&self) {
                let peers = self.peers.read();
                let mut conns = self.conns.lock();
                drop((peers, conns));
            }
        "#;
        assert!(lock_order("net", "fabric.rs", &lex(ok)).is_empty());

        let bad = r#"
            fn broken(&self) {
                let mut conns = self.conns.lock();
                let peers = self.peers.read();
                drop((peers, conns));
            }
        "#;
        let f = lock_order("net", "fabric.rs", &lex(bad));
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 4);
        assert!(f[0].message.contains("`peers` (rank 31)"));
        assert!(f[0].message.contains("`conns` (rank 32"));
    }

    #[test]
    fn lock_order_treats_chained_calls_as_temporaries() {
        // peers guard is dropped at end of statement; taking conns after
        // is fine even though ranks would forbid the reverse nesting.
        let src = r#"
            fn fine(&self) {
                let n = self.conns.lock().len();
                let p = self.peers.read().len();
                drop((n, p));
            }
        "#;
        assert!(lock_order("net", "fabric.rs", &lex(src)).is_empty());
    }

    #[test]
    fn lock_order_understands_shim_generic_acquisitions() {
        let bad = r#"
            fn broken(&self) {
                let mut completions = S::lock(&self.completions);
                let mut inner = S::lock(&self.inner);
            }
        "#;
        let f = lock_order("reactor", "reactor.rs", &lex(bad));
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("`inner` (rank 70)"));
    }

    #[test]
    fn lock_order_flags_self_deadlock() {
        let bad = r#"
            fn broken(&self) {
                let a = self.inner.lock();
                let b = self.inner.lock();
            }
        "#;
        let f = lock_order("wal", "log.rs", &lex(bad));
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("self-deadlock"));
    }

    #[test]
    fn lock_order_releases_guards_at_block_end() {
        let src = r#"
            fn fine(&self) {
                {
                    let mut conns = self.conns.lock();
                    drop(conns);
                }
                let peers = self.peers.read();
                drop(peers);
            }
        "#;
        assert!(lock_order("net", "fabric.rs", &lex(src)).is_empty());
    }

    #[test]
    fn io_reads_are_not_lock_acquisitions() {
        let src = r#"
            fn fine(&self, stream: &mut TcpStream) {
                let mut conns = self.conns.lock();
                let n = stream.read(&mut buf);
            }
        "#;
        assert!(lock_order("net", "fabric.rs", &lex(src)).is_empty());
    }

    #[test]
    fn variants_parse_and_coverage_reports_gaps() {
        let msg = r#"
            pub enum NetMsg<B, R> {
                Hello { process_index: u32, listen_port: u16 },
                Request { call_id: u64, target: u32, body: B },
                Shutdown,
                Rejoin { partitions: Vec<u32> },
            }
        "#;
        let toks = lex(msg);
        let names: Vec<String> = net_msg_variants(&toks)
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(names, ["Hello", "Request", "Shutdown", "Rejoin"]);

        let tests = r#"
            fn cases() { let _ = (NetMsg::Hello { process_index: 0, listen_port: 0 }, NetMsg::Shutdown); }
        "#;
        let f = codec_coverage("msg.rs", &toks, "codec_roundtrip.rs", &lex(tests));
        let missing: Vec<&str> = f
            .iter()
            .map(|f| f.message.split_whitespace().next().unwrap())
            .collect();
        assert_eq!(missing, ["NetMsg::Request", "NetMsg::Rejoin"]);
    }

    #[test]
    fn undeclared_locks_flags_unranked_fields_only() {
        let parsed = crate::parse::ParsedFile::parse(
            "crates/net/src/fabric.rs",
            "net",
            r#"
            struct Conn {
                writer: Mutex<TcpStream>,
                rogue: Mutex<u32>,
            }
            "#,
        );
        let f = undeclared_locks("net", "crates/net/src/fabric.rs", &parsed.lock_decls);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("`rogue`"));

        let conc = crate::parse::ParsedFile::parse(
            "crates/conc/src/sync.rs",
            "conc",
            "struct Mutex<T> { inner: std::sync::Mutex<T> }",
        );
        assert!(undeclared_locks("conc", "crates/conc/src/sync.rs", &conc.lock_decls).is_empty());
    }

    #[test]
    fn unsafe_audit_accepts_safety_comments_above_or_inline() {
        let ok = r#"
fn f() {
    // SAFETY: fds points to len valid pollfds for the whole call.
    let rc = unsafe { poll(fds, len, timeout) };
}
fn g() {
    let rc = unsafe { poll(a, b, c) }; // SAFETY: same as above.
}
"#;
        let parsed = crate::parse::ParsedFile::parse("sys.rs", "reactor", ok);
        assert!(unsafe_audit("sys.rs", ok, &parsed.unsafe_sites).is_empty());

        let bad = "fn f() {\n    let rc = unsafe { poll(a, b, c) };\n}\n";
        let parsed = crate::parse::ParsedFile::parse("sys.rs", "reactor", bad);
        let f = unsafe_audit("sys.rs", bad, &parsed.unsafe_sites);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 2);
        assert!(f[0].message.contains("SAFETY"));
    }

    #[test]
    fn truncation_casts_flag_len_casts_in_codec_crates_only() {
        let src = r#"
            fn encode(payload: &[u8], frame: &mut Vec<u8>) {
                (payload.len() as u32).encode(frame);
                let ok = u32::try_from(payload.len());
                let id = counter.fetch_add(1, Ordering::SeqCst) as u32;
                let bits = (i % 3) as u32;
            }
        "#;
        let f = truncation_casts("wal", "log.rs", &lex(src));
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 3);
        assert!(f[0].message.contains("try_from"));
        // Same source outside a codec crate: not a finding.
        assert!(truncation_casts("core", "lib.rs", &lex(src)).is_empty());
    }

    #[test]
    fn boxed_errors_flagged_only_in_public_items() {
        let src = r#"
            pub fn bad() -> Result<(), Box<dyn std::error::Error>> { Ok(()) }
            fn private_ok() -> Result<(), Box<dyn std::error::Error>> { Ok(()) }
            pub(crate) fn crate_ok() -> Result<(), Box<dyn std::error::Error>> { Ok(()) }
            pub fn fine() -> Result<(), Box<dyn Fn() -> u32>> { Ok(()) }
        "#;
        let f = no_boxed_errors("lib.rs", &lex(src));
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 2);
    }
}
