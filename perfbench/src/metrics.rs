//! The metric names and units this binary emits. `BENCHMARK.json` lists
//! the same names; a test keeps the two in step.

use crate::error::{BenchError, Result};
use crate::json::Json;

/// One emitted metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name as it appears in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as it appears in `BENCHMARK.json`.
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// The workloads `BENCHMARK.json` lists, in the order `--workload all`
/// runs them.
pub const WORKLOADS: &[&str] = &["doc_retrieval", "knn_local", "knn_partitioned", "serve_knn"];

/// Runnable by name, same metrics, but not listed in `BENCHMARK.json`:
/// every snapshot of the durable tree fsyncs, so on a shared disk its
/// numbers are the host's, and no bound the contract allows holds them.
pub const UNLISTED_WORKLOADS: &[&str] = &["ingest_durable"];

/// What a user of the system sees (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s"),
    def("ops_per_s", "1/s"),
    def("p50_us", "us"),
    def("p99_us", "us"),
    def("rss_bytes_per_point", "B"),
];

/// Single layers, measured from outside (`--trace 1`).
pub const PER_LAYER: &[MetricDef] = &[
    def("trace.overhead_ratio", "ratio"),
    def("trace.op_self_us", "us"),
    def("trace.op_layer_us", "us"),
    def("trace.spans", "count"),
    def("nlp.extract_us_per_sentence", "us"),
    def("nlp.triples_extracted", "count"),
    def("distance.triple_ns", "ns"),
    def("distance.evals_build", "count"),
    def("distance.memo_pairs", "count"),
    def("fastmap.embed_s", "s"),
    def("fastmap.project_us", "us"),
    def("core.knn_us", "us"),
    def("core.query_triple_us", "us"),
    def("core.retrieve_self_us", "us"),
    def("kdtree.knn_ns", "ns"),
    def("kdtree.versioned_knn_ns", "ns"),
    def("kdtree.range_ns", "ns"),
    def("kdtree.insert_ns", "ns"),
    def("kdtree.bulk_load_s", "s"),
    def("kdtree.nodes_visited_per_knn", "count"),
    def("kdtree.distance_evals_per_knn", "count"),
    def("kdtree.leaf_scan_share", "ratio"),
    def("par.euclidean_sq_ns", "ns"),
    def("dist.query_knn_us", "us"),
    def("dist.leaf_scan_share", "ratio"),
    def("dist.range_us", "us"),
    def("dist.knn_batch_us_per_query", "us"),
    def("dist.insert_us", "us"),
    def("dist.reads_retried", "count"),
    def("dist.m4_query_knn_us", "us"),
    def("dist.m4_leaf_scan_share", "ratio"),
    def("dist.m4_insert_us", "us"),
    def("cluster.messages_per_knn", "count"),
    def("cluster.bytes_per_knn", "B"),
    def("cluster.hop_us", "us"),
    def("net.encode_req_ns", "ns"),
    def("net.decode_req_ns", "ns"),
    def("net.encode_resp_ns", "ns"),
    def("net.decode_resp_ns", "ns"),
    def("net.frame_bytes_per_knn", "B"),
    def("reactor.echo_us_per_op", "us"),
    def("reactor.echo_p99_us", "us"),
    def("serve.op_us", "us"),
    def("serve.rtt_depth1_us", "us"),
    def("serve.server_p50_us", "us"),
    def("serve.server_p99_us", "us"),
    def("serve.shed", "count"),
    def("serve.fabric_share", "ratio"),
    def("serve.unexplained_share", "ratio"),
    def("wal.append_us", "us"),
    def("wal.snapshot_ms", "ms"),
    def("wal.load_ms", "ms"),
    def("wal.disk_bytes_per_point", "B"),
    def("wal.cold_bytes_per_point", "B"),
    def("colz.encode_mb_per_s", "MB/s"),
    def("colz.decode_mb_per_s", "MB/s"),
    def("colz.ratio", "ratio"),
    def("dist.durable_insert_us", "us"),
    def("dist.wal_share", "ratio"),
    def("dist.read_under_write_us", "us"),
    def("dist.recover_ms", "ms"),
    def("dist.snapshot_stall_max_ms", "ms"),
];

/// Measured values by metric name, in the order they were taken.
pub type Values = Vec<(&'static str, f64)>;

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the metrics being every entry of `defs` exactly once.
///
/// # Errors
/// Fails when a defined metric was not measured, a measured value has
/// no definition, or a name was measured twice.
pub fn result_line(
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &[(&'static str, f64)],
) -> Result<Json> {
    if let Some((stray, _)) = values
        .iter()
        .find(|(name, _)| !defs.iter().any(|d| d.name == *name))
    {
        return Err(BenchError::Layer(format!("metric {stray} is not defined")));
    }
    let mut metrics = Vec::with_capacity(defs.len());
    for d in defs {
        let mut found = values.iter().filter(|(name, _)| *name == d.name);
        let (Some((_, value)), None) = (found.next(), found.next()) else {
            return Err(BenchError::Layer(format!(
                "metric {} must be measured exactly once",
                d.name
            )));
        };
        metrics.push((
            d.name,
            Json::obj([("value", Json::Num(*value)), ("unit", Json::str(d.unit))]),
        ));
    }
    Ok(Json::obj([
        ("correct", Json::Bool(failed == 0 && attempted > 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::obj(metrics)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
    }

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn benchmark_json_and_the_emitter_list_the_same_metrics() {
        let doc = benchmark_json();
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let ours: Vec<(String, String)> = defs
                .iter()
                .map(|d| (d.name.to_string(), d.unit.to_string()))
                .collect();
            assert_eq!(listed(&doc, key), ours, "{key}");
        }
        let workloads: Vec<String> = listed(&doc, "workloads").into_iter().map(|w| w.0).collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(d.name), "{}", d.name);
            assert!(!d.unit.is_empty() && d.unit.len() <= 16, "{}", d.name);
            assert!(
                d.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                d.unit
            );
            assert!(seen.insert(d.name), "{} listed twice", d.name);
        }
        for w in WORKLOADS.iter().chain(UNLISTED_WORKLOADS) {
            assert!(name_ok(w) && seen.insert(w));
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn result_line_emits_every_defined_metric_exactly_once() {
        let values: Values = END_TO_END
            .iter()
            .enumerate()
            .map(|(i, d)| (d.name, i as f64 + 0.5))
            .collect();
        let line = result_line(10, 0, END_TO_END, &values).unwrap();
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        let metrics = line.get("metrics").and_then(Json::as_obj).unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        for (d, (name, m)) in END_TO_END.iter().zip(metrics) {
            assert_eq!(d.name, name);
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(d.unit));
            assert!(m.get("value").and_then(Json::as_f64).is_some());
        }
        assert!(!line.render().contains('\n'));

        // Missing, duplicated and undefined values are all refused.
        assert!(result_line(10, 0, END_TO_END, &values[1..]).is_err());
        let mut twice = values.clone();
        twice.push(values[0]);
        assert!(result_line(10, 0, END_TO_END, &twice).is_err());
        let mut stray = values.clone();
        stray.push(("made_up", 1.0));
        assert!(result_line(10, 0, END_TO_END, &stray).is_err());
        // Any failed op makes the run incorrect.
        let failed = result_line(10, 1, END_TO_END, &values).unwrap();
        assert_eq!(failed.get("correct"), Some(&Json::Bool(false)));
    }
}
