//! Harness-rot guard: every workload at `--smoke` size, untraced and
//! traced, must print a result line that fits the contract and names
//! exactly the metrics `BENCHMARK.json` lists.

use std::process::Command;

fn run(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_semtree-perfbench"))
        .args(args)
        .output()
        .expect("the benchmark binary runs");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8(out.stdout).expect("UTF-8 output"),
    )
}

/// Names listed under `key` in `BENCHMARK.json`, in order. A tiny
/// scanner is enough here: the file's own shape is checked by the unit
/// test that compares it with the emitter's tables.
fn listed(key: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json is readable");
    let start = text.find(&format!("\"{key}\"")).expect("key present");
    let section = &text[start..];
    let section = &section[..section.find(']').expect("list closes")];
    section
        .split("\"name\":")
        .skip(1)
        .map(|rest| {
            let rest = rest.trim_start().trim_start_matches('"');
            rest[..rest.find('"').expect("name closes")].to_string()
        })
        .collect()
}

/// The metric names of a result line, in order, after checking the
/// line's shape.
fn check_result_line(line: &str) -> Vec<String> {
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    assert!(line.contains("\"failed\": 0, \"metrics\": {"), "{line}");
    assert!(!line.contains("null"), "every value is a number: {line}");
    let metrics = &line[line.find("\"metrics\": {").expect("metrics") + 12..];
    metrics
        .split("\": {\"value\": ")
        .map(|piece| piece.rsplit('"').next().unwrap_or("").to_string())
        .filter(|name| !name.is_empty())
        .take(metrics.matches("\"value\"").count())
        .collect()
}

#[test]
fn every_workload_smokes_untraced_and_one_traced() {
    // The listed workloads and the unlisted one that runs by name.
    let mut workloads = listed("workloads");
    assert_eq!(workloads.len(), 4);
    workloads.push("ingest_durable".to_string());
    for (i, workload) in workloads.iter().enumerate() {
        // One traced run is enough to cover the probes; they do not
        // depend on the workload.
        let traced = i == 0;
        let (code, out) = run(&[
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0.2",
            "--trace",
            if traced { "1" } else { "0" },
            "--smoke",
        ]);
        assert_eq!(code, 0, "{workload}: {out}");
        let mut lines = out.lines().rev();
        let result = lines.next().expect("a result line");
        let env = lines.next().expect("an environment line");
        assert!(env.starts_with("{\"env\": {"), "{env}");
        for key in [
            "git_commit",
            "rustc",
            "nproc",
            "pinned_cpu",
            "wal_fs",
            "seed",
        ] {
            assert!(env.contains(&format!("\"{key}\": ")), "{key} in {env}");
        }
        let expected = listed(if traced { "per_layer" } else { "end_to_end" });
        assert_eq!(check_result_line(result), expected, "{workload}");
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "knn_local", "--trace", "2"][..],
        &["--seed"][..],
        &[][..],
    ] {
        let (code, out) = run(args);
        assert_ne!(code, 0, "{args:?}");
        assert!(out.is_empty(), "{args:?} printed {out}");
    }
}
