//! `--compare A B`: two sets of run files (captured standard output of
//! this binary, one or more runs per file) set against each other.
//!
//! Per workload and metric it prints both medians and quartiles and,
//! for end-to-end metrics, a verdict against the bound in
//! `BENCHMARK.json`: `pass` when B's median is no worse than A's by more
//! than the bound, `fail` when it is, and `unresolved` when either
//! set's own spread (quartile distance over median) exceeds the bound —
//! unless every run of B reads better than every run of A.

use std::collections::BTreeMap;
use std::path::Path;

use crate::error::{BenchError, Result};
use crate::json::Json;

/// `(workload, metric) → values`, one per run.
pub type RunSet = BTreeMap<(String, String), Vec<f64>>;

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (exclusive method). `None` under two values.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Median of `values`. `None` when empty.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let mid = data.len() / 2;
    match data.len() {
        0 => None,
        n if n % 2 == 1 => Some(data[mid]),
        _ => Some((data[mid - 1] + data[mid]) / 2.0),
    }
}

/// Fold the runs found in `text` (this binary's standard output) into
/// `set`: each result line belongs to the environment line before it.
pub fn absorb_runs(text: &str, set: &mut RunSet) {
    let mut workload: Option<String> = None;
    for line in text.lines() {
        let Ok(doc) = Json::parse(line) else {
            continue;
        };
        if let Some(env) = doc.get("env") {
            workload = env
                .get("workload")
                .and_then(Json::as_str)
                .map(str::to_string);
        } else if let (Some(metrics), Some(w)) =
            (doc.get("metrics").and_then(Json::as_obj), &workload)
        {
            for (name, m) in metrics {
                if let Some(v) = m.get("value").and_then(Json::as_f64) {
                    set.entry((w.clone(), name.clone())).or_default().push(v);
                }
            }
        }
    }
}

fn read_set(dir: &Path) -> Result<RunSet> {
    let mut set = RunSet::new();
    let mut paths: Vec<_> = std::fs::read_dir(dir)?
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_file())
        .collect();
    paths.sort();
    for path in paths {
        absorb_runs(&std::fs::read_to_string(path)?, &mut set);
    }
    if set.is_empty() {
        return Err(BenchError::Parse(format!(
            "{} holds no run output",
            dir.display()
        )));
    }
    Ok(set)
}

/// How `BENCHMARK.json` wants a metric judged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rule {
    /// `true` when larger values are better.
    pub higher_is_better: bool,
    /// Allowed worsening as a share of A's median; `None` for per-layer
    /// metrics, which have no bound.
    pub bound: Option<f64>,
}

/// The judging rules by metric name.
///
/// # Errors
/// Fails when the document is not shaped like `BENCHMARK.json`.
pub fn rules(benchmark: &Json) -> Result<BTreeMap<String, Rule>> {
    let mut out = BTreeMap::new();
    for key in ["end_to_end", "per_layer"] {
        let list = benchmark
            .get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| BenchError::Parse(format!("BENCHMARK.json has no {key} list")))?;
        for m in list {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| BenchError::Parse(format!("a {key} metric has no name")))?;
            out.insert(
                name.to_string(),
                Rule {
                    higher_is_better: m.get("better").and_then(Json::as_str) == Some("higher"),
                    bound: m.get("bound").and_then(Json::as_f64),
                },
            );
        }
    }
    Ok(out)
}

/// The outcome of one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is no worse than A by more than the bound.
    Pass,
    /// B is worse than A by more than the bound.
    Fail,
    /// A set's own spread exceeds the bound; the medians prove nothing.
    Unresolved,
    /// No bound applies (per-layer metric) or a set is too small.
    NotJudged,
}

/// Judge B against A under `rule`; also returns the worsening (positive
/// = B worse, as a share of A's median) and the wider of the two
/// spreads.
#[must_use]
pub fn judge(a: &[f64], b: &[f64], rule: Rule) -> (Verdict, f64, f64) {
    let (Some(ma), Some(mb)) = (median(a), median(b)) else {
        return (Verdict::NotJudged, f64::NAN, f64::NAN);
    };
    let worsening = if rule.higher_is_better {
        (ma - mb) / ma
    } else {
        (mb - ma) / ma
    };
    let spread = |v: &[f64], m: f64| quartiles(v).map(|q| (q[2] - q[0]) / m.abs());
    let (Some(sa), Some(sb)) = (spread(a, ma), spread(b, mb)) else {
        return (Verdict::NotJudged, worsening, f64::NAN);
    };
    let widest = sa.max(sb);
    let Some(bound) = rule.bound else {
        return (Verdict::NotJudged, worsening, widest);
    };
    let b_always_better = if rule.higher_is_better {
        b.iter().copied().fold(f64::INFINITY, f64::min)
            > a.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    } else {
        b.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            < a.iter().copied().fold(f64::INFINITY, f64::min)
    };
    let verdict = if widest > bound && !b_always_better {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Fail
    } else {
        Verdict::Pass
    };
    (verdict, worsening, widest)
}

/// Compare the run files in directory `a` with those in `b`; exit code
/// 0 when no end-to-end row fails or is unresolved, 1 otherwise.
///
/// # Errors
/// Fails when a directory or `BENCHMARK.json` cannot be read.
pub fn run(a: &Path, b: &Path) -> Result<u8> {
    let benchmark = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let rules = rules(&Json::parse(&std::fs::read_to_string(benchmark)?)?)?;
    let (set_a, set_b) = (read_set(a)?, read_set(b)?);
    println!(
        "{:<16} {:<30} {:>4} {:>13} {:>13} {:>13} {:>13} {:>8} {:>7} {:>6}  verdict",
        "workload",
        "metric",
        "n",
        "A median",
        "A q1..q3",
        "B median",
        "B q1..q3",
        "B worse",
        "spread",
        "bound"
    );
    let mut bad = 0;
    for ((workload, metric), va) in &set_a {
        let Some(vb) = set_b.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let rule = rules.get(metric).copied().unwrap_or(Rule {
            higher_is_better: false,
            bound: None,
        });
        let (verdict, worsening, spread) = judge(va, vb, rule);
        let iqr = |v: &[f64]| quartiles(v).map_or(f64::NAN, |q| q[2] - q[0]);
        let word = match verdict {
            Verdict::Pass => "pass",
            Verdict::Fail => "FAIL",
            Verdict::Unresolved => "unresolved",
            Verdict::NotJudged => "-",
        };
        bad += u8::from(matches!(verdict, Verdict::Fail | Verdict::Unresolved));
        println!(
            "{:<16} {:<30} {:>4} {:>13.4} {:>13.4} {:>13.4} {:>13.4} {:>+8.4} {:>7.4} {:>6}  {}",
            workload,
            metric,
            format!("{}/{}", va.len(), vb.len()),
            median(va).unwrap_or(f64::NAN),
            iqr(va),
            median(vb).unwrap_or(f64::NAN),
            iqr(vb),
            worsening,
            spread,
            rule.bound.map_or("-".to_string(), |b| format!("{b}")),
            word
        );
    }
    Ok(u8::from(bad > 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Rule = Rule {
        higher_is_better: false,
        bound: Some(0.10),
    };
    const HIGHER: Rule = Rule {
        higher_is_better: true,
        bound: Some(0.10),
    };

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let q = quartiles(&[10.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]).unwrap();
        assert_eq!(q, [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]).unwrap(),
            [1.5, 4.0, 12.0]
        );
        // statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
        assert_eq!(quartiles(&[3.0, 5.0]).unwrap(), [2.5, 4.0, 5.5]);
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn verdicts() {
        let calm = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [100.2, 100.9, 99.1, 100.4, 99.6];
        let slower = [115.0, 116.0, 114.0, 115.5, 114.5];
        let noisy = [80.0, 120.0, 100.0, 70.0, 130.0];
        assert_eq!(judge(&calm, &same, LOWER).0, Verdict::Pass);
        assert_eq!(judge(&calm, &slower, LOWER).0, Verdict::Fail);
        // Higher-is-better flips the direction: 15 % more is a gain.
        assert_eq!(judge(&calm, &slower, HIGHER).0, Verdict::Pass);
        assert_eq!(judge(&slower, &calm, HIGHER).0, Verdict::Fail);
        assert_eq!(judge(&calm, &noisy, LOWER).0, Verdict::Unresolved);
        // Wide spread, but every B run beats every A run: resolved.
        let much_faster = [10.0, 30.0, 20.0, 5.0, 40.0];
        assert_eq!(judge(&calm, &much_faster, LOWER).0, Verdict::Pass);
        let unbounded = Rule {
            higher_is_better: false,
            bound: None,
        };
        assert_eq!(judge(&calm, &slower, unbounded).0, Verdict::NotJudged);
        let (_, worsening, _) = judge(&calm, &slower, LOWER);
        assert!((worsening - 0.15).abs() < 1e-9);
    }

    #[test]
    fn runs_are_read_from_captured_output() {
        let text = concat!(
            "noise\n",
            "{\"env\": {\"workload\": \"knn_local\", \"seed\": 1}}\n",
            "{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": ",
            "{\"p50_us\": {\"value\": 6.5, \"unit\": \"us\"}}}\n",
            "{\"env\": {\"workload\": \"knn_local\", \"seed\": 2}}\n",
            "{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": ",
            "{\"p50_us\": {\"value\": 7.5, \"unit\": \"us\"}}}\n",
        );
        let mut set = RunSet::new();
        absorb_runs(text, &mut set);
        assert_eq!(
            set.get(&("knn_local".to_string(), "p50_us".to_string())),
            Some(&vec![6.5, 7.5])
        );
    }

    #[test]
    fn rules_come_from_benchmark_json() {
        let doc = Json::parse(
            "{\"end_to_end\": [{\"name\": \"ops_per_s\", \"better\": \"higher\", \"bound\": 0.1}], \
             \"per_layer\": [{\"name\": \"kdtree.knn_ns\", \"better\": \"lower\"}]}",
        )
        .unwrap();
        let r = rules(&doc).unwrap();
        assert_eq!(r["ops_per_s"], HIGHER);
        assert_eq!(r["kdtree.knn_ns"].bound, None);
        assert!(rules(&Json::parse("{}").unwrap()).is_err());
    }
}
