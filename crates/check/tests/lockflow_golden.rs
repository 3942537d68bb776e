//! Golden tests for the interprocedural rules: each injects a
//! violation into in-memory sources (crate names real, code synthetic)
//! and asserts the finding — rule id, location, and for the flow rules
//! the full file:line call chain.

use std::collections::BTreeSet;
use std::path::PathBuf;

use semtree_check::{analyze, collect_sources, lock_census, rules, SourceFile};

fn src(rel: &str, crate_name: &str, source: &str) -> SourceFile {
    SourceFile {
        rel: rel.to_string(),
        crate_name: crate_name.to_string(),
        source: source.to_string(),
    }
}

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/check sits two levels below the workspace root")
        .to_path_buf()
}

#[test]
fn rank_inversion_across_a_call_reports_the_full_chain() {
    // conns (rank 32) is held across a call into a helper that takes
    // peers (rank 31) — invisible to the per-function rule, caught by
    // the interprocedural one.
    let files = [src(
        "crates/net/src/hub.rs",
        "net",
        r#"
struct Hub { conns: Mutex<u32>, peers: RwLock<u32> }
impl Hub {
    fn outer(&self) {
        let table = self.conns.lock();
        self.resolve_peer();
        drop(table);
    }
    fn resolve_peer(&self) {
        let p = self.peers.read();
        drop(p);
    }
}
"#,
    )];
    let findings: Vec<_> = analyze(&files)
        .into_iter()
        .filter(|f| f.rule == "lock-flow")
        .collect();
    assert_eq!(findings.len(), 1, "{findings:#?}");
    let f = &findings[0];
    assert_eq!(f.path, "crates/net/src/hub.rs");
    // The chain walks acquisition → call → acquisition with file:line
    // steps.
    assert!(
        f.message
            .contains("crates/net/src/hub.rs:5 acquires `conns`"),
        "{}",
        f.message
    );
    assert!(
        f.message
            .contains("crates/net/src/hub.rs:6 calls `resolve_peer`"),
        "{}",
        f.message
    );
    assert!(f.message.contains("acquires `peers`"), "{}", f.message);
    assert!(f.message.contains("rank 31"), "{}", f.message);
    assert!(f.message.contains("rank 32"), "{}", f.message);
}

#[test]
fn lock_held_across_recv_reports_direct_and_via_call_chain() {
    // Direct: guard live across rx.recv() in the same function.
    let direct = [src(
        "crates/net/src/hub.rs",
        "net",
        r#"
struct Hub { conns: Mutex<u32> }
impl Hub {
    fn pump(&self, rx: &Receiver<u32>) {
        let table = self.conns.lock();
        let _ = rx.recv();
        drop(table);
    }
}
"#,
    )];
    let findings: Vec<_> = analyze(&direct)
        .into_iter()
        .filter(|f| f.rule == "lock-blocking")
        .collect();
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert!(
        findings[0].message.contains("`recv`"),
        "{}",
        findings[0].message
    );
    assert!(
        findings[0].message.contains("`conns`"),
        "{}",
        findings[0].message
    );

    // Interprocedural: the guard is held in the caller, the recv sits
    // in the callee — the finding carries the chain.
    let chained = [src(
        "crates/net/src/hub.rs",
        "net",
        r#"
struct Hub { conns: Mutex<u32> }
impl Hub {
    fn outer(&self, rx: &Receiver<u32>) {
        let table = self.conns.lock();
        self.wait_for_reply(rx);
        drop(table);
    }
    fn wait_for_reply(&self, rx: &Receiver<u32>) {
        let _ = rx.recv();
    }
}
"#,
    )];
    let findings: Vec<_> = analyze(&chained)
        .into_iter()
        .filter(|f| f.rule == "lock-blocking")
        .collect();
    assert_eq!(findings.len(), 1, "{findings:#?}");
    let f = &findings[0];
    assert!(
        f.message
            .contains("crates/net/src/hub.rs:5 acquires `conns`"),
        "{}",
        f.message
    );
    assert!(
        f.message
            .contains("crates/net/src/hub.rs:6 calls `wait_for_reply`"),
        "{}",
        f.message
    );
    assert!(f.message.contains("`recv`"), "{}", f.message);
}

#[test]
fn undeclared_mutex_field_is_caught() {
    let files = [src(
        "crates/net/src/hub.rs",
        "net",
        "struct Hub { registry: Mutex<Vec<u32>> }\n",
    )];
    let findings: Vec<_> = analyze(&files)
        .into_iter()
        .filter(|f| f.rule == "undeclared-lock")
        .collect();
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert_eq!(findings[0].line, 1);
    assert!(
        findings[0].message.contains("`registry`"),
        "{}",
        findings[0].message
    );
}

#[test]
fn unsafe_without_safety_comment_is_caught_and_commented_is_clean() {
    let bare = [src(
        "crates/reactor/src/sys2.rs",
        "reactor",
        r#"
fn f(p: *const u8) -> u8 {
    unsafe { *p }
}
"#,
    )];
    let findings: Vec<_> = analyze(&bare)
        .into_iter()
        .filter(|f| f.rule == "unsafe-audit")
        .collect();
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert_eq!(findings[0].line, 3);

    let commented = [src(
        "crates/reactor/src/sys2.rs",
        "reactor",
        r#"
fn f(p: *const u8) -> u8 {
    // SAFETY: the caller guarantees `p` points into a live buffer.
    unsafe { *p }
}
"#,
    )];
    let findings: Vec<_> = analyze(&commented)
        .into_iter()
        .filter(|f| f.rule == "unsafe-audit")
        .collect();
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn truncating_len_cast_is_caught_in_codec_crates_only() {
    let body = r#"
fn encode(buf: &[u8], out: &mut Vec<u8>) {
    let n = buf.len() as u32;
    out.push(n as u8);
}
"#;
    let in_codec = [src("crates/net/src/codec2.rs", "net", body)];
    let findings: Vec<_> = analyze(&in_codec)
        .into_iter()
        .filter(|f| f.rule == "truncation-cast")
        .collect();
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert_eq!(findings[0].line, 3);

    // The same code outside the codec crates is fine (lengths there
    // are not wire-framing).
    let elsewhere = [src("crates/core/src/x.rs", "core", body)];
    let findings: Vec<_> = analyze(&elsewhere)
        .into_iter()
        .filter(|f| f.rule == "truncation-cast")
        .collect();
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn shim_wait_naming_its_lock_is_exempt_from_lock_blocking() {
    // The conc shim's condvar wait releases the mutex it names
    // atomically — holding `inner` across S::wait(.., &self.inner) is
    // the intended pattern, not a blocked holder.
    let files = [src(
        "crates/reactor/src/queue2.rs",
        "reactor",
        r#"
struct Q { inner: Mutex<u32>, cv: Condvar }
impl Q {
    fn pop(&self) -> u32 {
        let mut st = self.inner.lock();
        st = S::wait(&self.cv, st, &self.inner);
        drop(st);
        0
    }
}
"#,
    )];
    let findings: Vec<_> = analyze(&files)
        .into_iter()
        .filter(|f| f.rule == "lock-blocking")
        .collect();
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn guard_returning_helper_propagates_the_acquisition_to_callers() {
    // The lock_replies pattern: a helper returns the guard, so the
    // caller's `let` binding holds the lock — here across a recv.
    let files = [src(
        "crates/dist/src/client.rs",
        "dist",
        r#"
fn lock_replies(replies: &Mutex<u32>) -> std::sync::MutexGuard<'_, u32> {
    replies.lock()
}
fn outer(replies: &Mutex<u32>, rx: &Receiver<u32>) {
    let st = lock_replies(replies);
    let _ = rx.recv();
    drop(st);
}
"#,
    )];
    let findings: Vec<_> = analyze(&files)
        .into_iter()
        .filter(|f| f.rule == "lock-blocking")
        .collect();
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert!(
        findings[0].message.contains("`replies`"),
        "{}",
        findings[0].message
    );
    assert!(
        findings[0].message.contains("`recv`"),
        "{}",
        findings[0].message
    );
}

#[test]
fn lock_ranks_exactly_match_the_discovered_census() {
    // Self-sync: every (crate, lock) the parser discovers in the real
    // tree has a rank, and every rank entry corresponds to a real
    // declaration — LOCK_RANKS can go stale in neither direction.
    let files = collect_sources(&workspace_root()).expect("workspace sources");
    let discovered: BTreeSet<(String, String)> = lock_census(&files).into_iter().collect();
    let ranked: BTreeSet<(String, String)> = rules::LOCK_RANKS
        .iter()
        .map(|&(c, f, _)| (c.to_string(), f.to_string()))
        .collect();
    assert_eq!(
        ranked, discovered,
        "LOCK_RANKS out of sync with the locks actually declared in the tree"
    );
}
