//! Machine-readable output: a SARIF-shaped JSON report for CI
//! artifacts/annotations, and `--explain` texts for every rule.

use crate::rules::Finding;
use crate::Outcome;

/// Render the outcome as a SARIF-shaped JSON document (subset:
/// `runs[0].tool.driver` + one `results` entry per finding with
/// `ruleId`, `level`, `message.text`, and one physical location; the
/// run's `properties` carry `filesChecked` and the per-crate `census`).
/// Dependency-free, deterministic, and stable enough for CI to parse.
#[must_use]
pub fn to_json(outcome: &Outcome) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"version\": \"2.1.0\",\n  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\"driver\": {\"name\": \"semtree-check\", \"rules\": [");
    for (i, (rule, _)) in RULE_EXPLANATIONS.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("{{\"id\": {}}}", json_string(rule)));
    }
    out.push_str("]}},\n");
    out.push_str(&format!(
        "      \"properties\": {{\"filesChecked\": {}, \"census\": {{",
        outcome.files_checked
    ));
    for (i, c) in outcome.census.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "{}: {{\"lines\": {}, \"pubItems\": {}, \"lockRanks\": {}, \"allowed\": {}}}",
            json_string(&c.crate_name),
            c.lines,
            c.pub_items,
            c.lock_ranks,
            c.allowed
        ));
    }
    out.push_str("}},\n");
    out.push_str("      \"results\": [\n");
    for (i, f) in outcome.findings.iter().enumerate() {
        out.push_str("        ");
        out.push_str(&result_json(f));
        if i + 1 < outcome.findings.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("      ]\n    }\n  ]\n}\n");
    out
}

/// The census as an aligned text table with a totals row — what a CI
/// log shows, so each change's delta can be read off two runs.
#[must_use]
pub fn census_table(outcome: &Outcome) -> String {
    let row = |name: &str, cells: [usize; 4]| {
        let [lines, pub_items, lock_ranks, allowed] = cells;
        format!("{name:<10} {lines:>7} {pub_items:>9} {lock_ranks:>10} {allowed:>10}\n")
    };
    let mut out = format!(
        "{:<10} {:>7} {:>9} {:>10} {:>10}\n",
        "crate", "lines", "pub items", "lock ranks", "allowances"
    );
    let mut total = [0; 4];
    for c in &outcome.census {
        let cells = [c.lines, c.pub_items, c.lock_ranks, c.allowed];
        for (sum, cell) in total.iter_mut().zip(cells) {
            *sum += cell;
        }
        out.push_str(&row(&c.crate_name, cells));
    }
    out.push_str(&row("total", total));
    out
}

fn result_json(f: &Finding) -> String {
    format!(
        "{{\"ruleId\": {}, \"level\": \"error\", \"message\": {{\"text\": {}}}, \
         \"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": \
         {{\"uri\": {}}}, \"region\": {{\"startLine\": {}}}}}}}]}}",
        json_string(f.rule),
        json_string(&f.message),
        json_string(&f.path),
        f.line
    )
}

/// Escape a string for JSON.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Rule id → what it checks, why, and how to fix a finding.
pub const RULE_EXPLANATIONS: &[(&str, &str)] = &[
    (
        "no-panics",
        "No `.unwrap()`, `.expect()`, or `panic!` in production code. Panics tear \
         down worker threads mid-protocol and skip the typed error paths the \
         cluster relies on for recovery. Fix: return a typed error; if the site is \
         provably infallible, add an exact-count entry to check.allow naming the \
         invariant.",
    ),
    (
        "lock-order",
        "Within one function, ranked locks must be acquired in strictly ascending \
         rank order (cluster → dist → net → wal → par → distance → reactor; see \
         LOCK_RANKS in crates/check/src/rules.rs). Two threads nesting the same \
         pair in opposite orders deadlock. Fix: reorder the acquisitions or narrow \
         the first guard's scope so they never overlap.",
    ),
    (
        "lock-flow",
        "The interprocedural version of lock-order: a `let`-bound guard held across \
         a call constrains every function reachable through resolved call edges. A \
         finding shows the full acquisition-to-violation call chain as file:line \
         steps. Fix: release the guard before the call, or re-rank the locks so the \
         nesting ascends.",
    ),
    (
        "lock-blocking",
        "No ranked lock may be held across a blocking operation (`recv`, `join()`, \
         `read_frame`/`write_frame`/`accept`/`poll_fds` socket IO, `sleep`, or a \
         condvar wait outside the shim). A blocked holder stalls every thread that \
         needs the lock; under the model checker these sites are unexplorable. \
         Shim waits (`S::wait(&cv, guard, &mutex)`) that name the lock in their \
         arguments are exempt — they release it atomically — as are the declared \
         IO-serialization leaves in IO_LOCK_EXEMPT. Fix: drop the guard first \
         (take what you need out of the lock, then block).",
    ),
    (
        "undeclared-lock",
        "Every `Mutex`/`RwLock` declaration (struct field or `let` local) outside \
         the conc shim must have a rank in LOCK_RANKS. Unranked locks are \
         invisible to lock-order and lock-flow, so a new lock silently escapes the \
         deadlock gate. Fix: add a `(crate, field, rank)` entry at the right place \
         in the hierarchy (ranks are spaced for insertions).",
    ),
    (
        "unsafe-audit",
        "Every `unsafe` block/impl/fn needs a `// SAFETY:` comment on or directly \
         above it stating why the invariants the operation relies on hold. \
         Workspace policy denies unsafe_code everywhere except module-scoped \
         allows (reactor::sys), so sites are rare and each one must carry its \
         soundness argument. Fix: write the argument, or remove the unsafe.",
    ),
    (
        "truncation-cast",
        "In the codec crates (net, wal, colz), casting a length expression with \
         `as u32`/`as u16` silently wraps when the value outgrows the target and \
         corrupts the frame on disk or on the wire. Fix: `u32::try_from(..)` with \
         a typed error (see net::frame::write_frame).",
    ),
    (
        "codec-coverage",
        "Every `NetMsg` wire variant must appear in the codec round-trip suite \
         (crates/net/tests/codec_roundtrip.rs). An untested variant can ship an \
         asymmetric encode/decode and break cross-version clusters. Fix: add a \
         round-trip case for the new variant.",
    ),
    (
        "no-boxed-errors",
        "Public APIs must expose typed error enums, not `Box<dyn Error>`. Callers \
         (and the fault-injection tests) match on error variants to decide \
         retry/rejoin behavior. Fix: define or extend the crate's error enum.",
    ),
    (
        "allowlist",
        "check.allow entries carry exact counts that only burn down: more findings \
         than allowed is a regression, fewer means the entry is stale and must \
         shrink. Fix: repair the new violation, or shrink/delete the entry.",
    ),
];

/// The explanation for `rule`, if it exists.
#[must_use]
pub fn explain(rule: &str) -> Option<&'static str> {
    RULE_EXPLANATIONS
        .iter()
        .find(|(id, _)| *id == rule)
        .map(|&(_, text)| text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_shapes() {
        let outcome = Outcome {
            findings: vec![Finding {
                path: "crates/net/src/fabric.rs".to_string(),
                line: 12,
                rule: "lock-order",
                message: "acquired `a` while \"b\" held\nchain".to_string(),
            }],
            files_checked: 3,
            census: vec![crate::CrateCensus {
                crate_name: "net".to_string(),
                lines: 120,
                pub_items: 7,
                lock_ranks: 2,
                allowed: 1,
            }],
        };
        let json = to_json(&outcome);
        assert!(json.contains("\"ruleId\": \"lock-order\""));
        assert!(json.contains("\\\"b\\\""));
        assert!(json.contains("\\n"));
        assert!(json.contains("\"startLine\": 12"));
        assert!(json.contains("\"filesChecked\": 3"));
        assert!(json.contains(
            "\"census\": {\"net\": {\"lines\": 120, \"pubItems\": 7, \"lockRanks\": 2, \"allowed\": 1}}"
        ));
        assert_eq!(
            census_table(&outcome),
            "crate        lines pub items lock ranks allowances\n\
             net            120         7          2          1\n\
             total          120         7          2          1\n"
        );
        // Every reported rule id has an explanation.
        assert!(explain("lock-flow").is_some());
        assert!(explain("nope").is_none());
    }

    #[test]
    fn every_rule_id_documented() {
        for rule in [
            "no-panics",
            "lock-order",
            "lock-flow",
            "lock-blocking",
            "undeclared-lock",
            "unsafe-audit",
            "truncation-cast",
            "codec-coverage",
            "no-boxed-errors",
            "allowlist",
        ] {
            assert!(explain(rule).is_some(), "{rule} missing explanation");
        }
    }
}
