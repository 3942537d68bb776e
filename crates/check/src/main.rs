//! CLI driver: `cargo run -p semtree-check [--root DIR] [--json PATH]
//! [--explain RULE]`.
//!
//! Exit codes: 0 clean, 1 findings, 2 driver error (I/O, malformed
//! allowlist, unexpected layout). With `--json PATH` the outcome is
//! also written as a SARIF-shaped report for CI artifacts, and when
//! `GITHUB_ACTIONS` is set each finding is echoed as a
//! `::error file=..,line=..::` workflow annotation.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = workspace_root();
    let mut json_path: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => {
                    eprintln!("semtree-check: --root needs a directory");
                    return ExitCode::from(2);
                }
            },
            "--json" => match args.next() {
                Some(path) => json_path = Some(PathBuf::from(path)),
                None => {
                    eprintln!("semtree-check: --json needs an output path");
                    return ExitCode::from(2);
                }
            },
            "--explain" => {
                return match args.next() {
                    Some(rule) => match semtree_check::report::explain(&rule) {
                        Some(text) => {
                            println!("{rule}\n\n{text}");
                            ExitCode::SUCCESS
                        }
                        None => {
                            eprintln!(
                                "semtree-check: unknown rule `{rule}` (known: {})",
                                rule_list()
                            );
                            ExitCode::from(2)
                        }
                    },
                    None => {
                        eprintln!("semtree-check: --explain needs a rule id ({})", rule_list());
                        ExitCode::from(2)
                    }
                };
            }
            "--help" | "-h" => {
                println!(
                    "semtree-check: workspace invariant lint gate\n\
                     \n\
                     usage: cargo run -p semtree-check [-- OPTIONS]\n\
                     \n\
                     options:\n\
                     \x20 --root DIR      workspace root (default: two levels above this crate)\n\
                     \x20 --json PATH     also write a SARIF-shaped JSON report to PATH\n\
                     \x20 --explain RULE  print what a rule checks and how to fix findings\n\
                     \n\
                     Rules: {}.\n\
                     Justified exceptions live in check.allow (exact counts, burndown-only).",
                    rule_list()
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("semtree-check: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }

    let outcome = match semtree_check::check_workspace(&root) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("semtree-check: error: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &json_path {
        let json = semtree_check::report::to_json(&outcome);
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("semtree-check: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    print!("{}", semtree_check::report::census_table(&outcome));
    if outcome.is_clean() {
        println!(
            "semtree-check: {} files clean ({})",
            outcome.files_checked,
            rule_list()
        );
        return ExitCode::SUCCESS;
    }

    let annotate = std::env::var_os("GITHUB_ACTIONS").is_some();
    for finding in &outcome.findings {
        eprintln!("{finding}");
        if annotate {
            println!(
                "::error file={},line={},title=semtree-check {}::{}",
                finding.path,
                finding.line,
                finding.rule,
                annotation_escape(&finding.message)
            );
        }
    }
    eprintln!(
        "semtree-check: {} violation(s) across {} files",
        outcome.findings.len(),
        outcome.files_checked
    );
    ExitCode::FAILURE
}

/// Comma-separated list of every rule id, for help/error text.
fn rule_list() -> String {
    semtree_check::report::RULE_EXPLANATIONS
        .iter()
        .map(|&(id, _)| id)
        .collect::<Vec<_>>()
        .join(", ")
}

/// GitHub workflow-command message escaping (newlines and `%` must be
/// percent-encoded or the annotation is cut at the first newline).
fn annotation_escape(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

/// The workspace root: this crate's manifest dir is `crates/check`, two
/// levels below it. Falls back to the current directory (correct when
/// invoked from the workspace root without cargo).
fn workspace_root() -> PathBuf {
    match std::env::var_os("CARGO_MANIFEST_DIR") {
        Some(dir) => {
            let manifest = PathBuf::from(dir);
            manifest
                .parent()
                .and_then(|p| p.parent())
                .map(PathBuf::from)
                .unwrap_or(manifest)
        }
        None => PathBuf::from("."),
    }
}
