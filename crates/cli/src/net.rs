//! Multi-process deployment commands: `serve`, `worker`, `net-query`.
//!
//! These run the distributed tree over real TCP (`semtree-net`) on raw
//! vector points — the transport demo, separate from the semantic
//! `index`/`query` pipeline. A deployment is one `serve` process plus
//! `--workers` many `worker` processes; `net-query` is the client.
//!
//! `serve` prints two machine-readable lines before blocking:
//!
//! ```text
//! cluster-addr: 127.0.0.1:40001   (workers join here)
//! client-addr: 127.0.0.1:40002    (net-query connects here)
//! ```

use std::io::Write as _;
use std::net::{Ipv4Addr, SocketAddr, TcpListener};
use std::path::Path;
use std::time::Duration;

use semtree_cluster::CostModel;
use semtree_dist::{
    build_tree, inspect_wal, join_cluster, serve_clients_with, serve_cluster, CapacityPolicy,
    DistConfig, NetClient, ServeOptions,
};

use crate::args::ParsedArgs;

/// Deterministic sample used to choose the fan-out splits: `n` points in
/// `[0, 100)^dims` from a splitmix64 stream. Exposed so a client process
/// can reconstruct the exact reference tree the server built.
#[must_use]
pub fn demo_sample(dims: usize, n: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    (0..n)
        .map(|_| {
            (0..dims)
                .map(|_| (next() >> 11) as f64 / (1u64 << 53) as f64 * 100.0)
                .collect()
        })
        .collect()
}

fn parse_addr(text: &str) -> Result<SocketAddr, String> {
    text.parse()
        .map_err(|e| format!("invalid address '{text}': {e}"))
}

fn parse_point(text: &str) -> Result<Vec<f64>, String> {
    text.split(',')
        .map(|c| {
            c.trim()
                .parse()
                .map_err(|e| format!("invalid coordinate '{c}': {e}"))
        })
        .collect()
}

/// Parse a semicolon-separated list of comma-separated points:
/// `"1,2;3,4"` → `[[1.0, 2.0], [3.0, 4.0]]`.
fn parse_points(text: &str) -> Result<Vec<Vec<f64>>, String> {
    text.split(';').map(parse_point).collect()
}

fn parse_config(parsed: &ParsedArgs) -> Result<DistConfig, String> {
    let dims = parsed.get_usize("dims", 2)?;
    let bucket = parsed.get_usize("bucket", 32)?;
    let partitions = parsed.get_usize("partitions", 3)?;
    let max_partitions = parsed.get_usize("max-partitions", partitions.max(64))?;
    let mut config = DistConfig::new(dims)
        .with_bucket_size(bucket)
        .with_max_partitions(max_partitions);
    if let Some(cap) = parsed.get("capacity") {
        let cap: usize = cap
            .parse()
            .map_err(|e| format!("invalid --capacity value '{cap}': {e}"))?;
        config = config.with_capacity(CapacityPolicy::MaxPoints(cap));
    }
    Ok(config)
}

/// `semtree serve`: host the coordinator — root partition, worker
/// membership, and the client query port. Blocks until a client sends
/// a shutdown request, then tears the whole deployment down.
pub fn serve(parsed: &ParsedArgs) -> Result<String, String> {
    let cluster_port = parsed.get_usize("cluster-port", 0)? as u16;
    let client_port = parsed.get_usize("client-port", 0)? as u16;
    let workers = parsed.get_usize("workers", 2)?;
    let partitions = parsed.get_usize("partitions", 3)?;
    let sample_size = parsed.get_usize("sample", 256)?;
    let seed = parsed.get_u64("seed", 42)?;
    let timeout = Duration::from_secs(parsed.get_u64("timeout", 30)?);
    let config = parse_config(parsed)?;

    let fabric = serve_cluster(
        SocketAddr::from((Ipv4Addr::LOCALHOST, cluster_port)),
        &config,
        CostModel::zero(),
    )
    .map_err(|e| e.to_string())?;
    println!("cluster-addr: {}", fabric.listen_addr());
    let _ = std::io::stdout().flush();

    fabric
        .wait_for_workers(workers, timeout)
        .map_err(|e| e.to_string())?;
    println!("workers-joined: {workers}");

    let sample = demo_sample(config.dims(), sample_size, seed);
    let tree = build_tree(
        &fabric,
        config,
        partitions,
        &sample,
        parsed.get("wal-dir").map(Path::new),
    )
    .map_err(|e| e.to_string())?;

    let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, client_port))
        .map_err(|e| format!("cannot bind client port: {e}"))?;
    println!(
        "client-addr: {}",
        listener.local_addr().map_err(|e| e.to_string())?
    );
    let _ = std::io::stdout().flush();

    let defaults = ServeOptions::default();
    let options = ServeOptions::default()
        .with_executors(parsed.get_usize("serve-workers", defaults.executors)?)
        .with_global_depth(parsed.get_usize("serve-queue", defaults.global_depth)?)
        .with_per_conn_depth(parsed.get_usize("serve-depth", defaults.per_conn_depth)?)
        .with_reactors(parsed.get_usize("serve-reactors", defaults.reactors)?);
    serve_clients_with(&listener, &tree, &options).map_err(|e| e.to_string())?;
    let inserted = tree.len();
    tree.shutdown();
    Ok(format!(
        "served {partitions} partitions across {workers} workers; \
         {inserted} points inserted; shut down\n"
    ))
}

/// `semtree worker`: join a deployment and host partitions until the
/// coordinator shuts down.
pub fn worker(parsed: &ParsedArgs) -> Result<String, String> {
    let addr = parse_addr(parsed.require("join")?)?;
    let timeout = Duration::from_secs(parsed.get_u64("timeout", 30)?);
    let wal_dir = parsed.get("wal-dir").map(Path::new);
    let handle =
        join_cluster(addr, CostModel::zero(), timeout, wal_dir).map_err(|e| e.to_string())?;
    println!(
        "worker: process {} listening on {}",
        handle.process_index(),
        handle.listen_addr()
    );
    let recovered = handle.recovered_partitions();
    if !recovered.is_empty() {
        // Machine-readable: restart orchestration waits for this line
        // before resuming the workload.
        println!(
            "recovered-partitions: {}",
            recovered
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(",")
        );
    }
    let _ = std::io::stdout().flush();
    handle.run_until_shutdown();
    Ok("worker: shut down\n".to_string())
}

/// Human name of a snapshot payload format byte.
fn format_name(format: u8) -> &'static str {
    match format {
        1 => "columnar",
        _ => "unknown",
    }
}

/// `semtree recover`: offline, read-only inspect-and-replay of a WAL
/// directory — verifies every checksum and reports what a restarted
/// worker would recover. `--stats` adds per-partition snapshot
/// compression (on-disk vs raw point bytes); `--json` emits the whole
/// report machine-readably instead.
pub fn recover(parsed: &ParsedArgs) -> Result<String, String> {
    let dir = parsed.require("wal-dir")?;
    let inspection = inspect_wal(Path::new(dir))?;
    if parsed.flag("json") {
        return Ok(recover_json(&inspection));
    }
    let mut out = inspection.report.to_string();
    out.push_str(&format!(
        "replayed: {} partitions\n",
        inspection.partitions.len()
    ));
    for (pid, p) in &inspection.partitions {
        out.push_str(&format!(
            "  partition {pid}: {} points, {} leaves, {} routing nodes ({} edge), links → {:?}\n",
            p.points, p.leaves, p.routing, p.edge_nodes, p.remote_children
        ));
    }
    if parsed.flag("stats") {
        out.push_str("snapshot compression:\n");
        if inspection.compression.is_empty() {
            out.push_str("  (no snapshots)\n");
        }
        for c in &inspection.compression {
            let ratio = c
                .ratio()
                .map_or_else(|| "no points".to_string(), |r| format!("ratio {r:.2}x"));
            out.push_str(&format!(
                "  partition {}: {} ({} bytes on disk, {} raw point bytes, {ratio})\n",
                c.partition,
                format_name(c.format),
                c.stored_bytes,
                c.raw_bytes,
            ));
        }
    }
    Ok(out)
}

/// The `recover --json` report: the inspection as one JSON document.
fn recover_json(inspection: &semtree_dist::WalInspection) -> String {
    let report = &inspection.report;
    let partitions: Vec<String> = inspection
        .partitions
        .iter()
        .map(|(pid, p)| {
            let links: Vec<String> = p.remote_children.iter().map(ToString::to_string).collect();
            format!(
                "{{\"partition\": {pid}, \"points\": {}, \"leaves\": {}, \"routing\": {}, \
                 \"edge_nodes\": {}, \"remote_children\": [{}]}}",
                p.points,
                p.leaves,
                p.routing,
                p.edge_nodes,
                links.join(", ")
            )
        })
        .collect();
    let compression: Vec<String> = inspection
        .compression
        .iter()
        .map(|c| {
            let ratio = c
                .ratio()
                .map_or_else(|| "null".to_string(), |r| format!("{r:.4}"));
            format!(
                "{{\"partition\": {}, \"format\": \"{}\", \"stored_bytes\": {}, \
                 \"raw_bytes\": {}, \"ratio\": {ratio}}}",
                c.partition,
                format_name(c.format),
                c.stored_bytes,
                c.raw_bytes,
            )
        })
        .collect();
    format!(
        "{{\n  \"segments\": {},\n  \"segment_disk_bytes\": {},\n  \
         \"snapshot_disk_bytes\": {},\n  \"records\": {},\n  \"live_records\": {},\n  \
         \"partitions\": [{}],\n  \"snapshots\": [{}]\n}}\n",
        report.segments,
        report.segment_disk_bytes,
        report.snapshot_disk_bytes,
        report.records,
        report.live_records,
        partitions.join(", "),
        compression.join(", ")
    )
}

/// `semtree net-query`: one operation against a `serve` process.
pub fn net_query(parsed: &ParsedArgs) -> Result<String, String> {
    let addr = parse_addr(parsed.require("addr")?)?;
    let timeout = Duration::from_secs(parsed.get_u64("timeout", 10)?);
    let mut client = NetClient::connect(addr, timeout).map_err(|e| e.to_string())?;
    let op = parsed.get("op").unwrap_or("stats");
    match op {
        "insert" => {
            let point = parse_point(parsed.require("point")?)?;
            let payload = parsed.get_u64("payload", 0)?;
            client.insert(&point, payload).map_err(|e| e.to_string())?;
            Ok(format!("inserted {point:?} (payload {payload})\n"))
        }
        "knn" => {
            let point = parse_point(parsed.require("point")?)?;
            let k = parsed.get_usize("k", 5)?;
            let hits = client.knn(&point, k).map_err(|e| e.to_string())?;
            let mut out = format!("{k}-NN around {point:?}:\n");
            for (dist, payload) in hits {
                out.push_str(&format!("  d={dist:.4}  payload={payload}\n"));
            }
            Ok(out)
        }
        "knn-batch" => {
            let points = parse_points(parsed.require("points")?)?;
            let k = parsed.get_usize("k", 5)?;
            let batches = client.knn_batch(&points, k).map_err(|e| e.to_string())?;
            let mut out = format!("{k}-NN batch of {} queries:\n", points.len());
            for (point, hits) in points.iter().zip(batches) {
                out.push_str(&format!("query {point:?}:\n"));
                for (dist, payload) in hits {
                    out.push_str(&format!("  d={dist:.4}  payload={payload}\n"));
                }
            }
            Ok(out)
        }
        "range" => {
            let point = parse_point(parsed.require("point")?)?;
            let radius: f64 = {
                let r = parsed.require("radius")?;
                r.parse()
                    .map_err(|e| format!("invalid --radius value '{r}': {e}"))?
            };
            let hits = client.range(&point, radius).map_err(|e| e.to_string())?;
            let mut out = format!("range {radius} around {point:?}: {} hits\n", hits.len());
            for (dist, payload) in hits {
                out.push_str(&format!("  d={dist:.4}  payload={payload}\n"));
            }
            Ok(out)
        }
        "stats" => {
            let stats = client.stats().map_err(|e| e.to_string())?;
            let mut out = format!("{} partitions:\n", stats.len());
            for (pid, p) in stats {
                out.push_str(&format!(
                    "  partition {pid}: {} points, {} leaves, {} routing nodes ({} edge), links → {:?}\n",
                    p.points, p.leaves, p.routing, p.edge_nodes, p.remote_children
                ));
            }
            Ok(out)
        }
        "verify" => {
            let violations = client.verify().map_err(|e| e.to_string())?;
            if violations.is_empty() {
                Ok("healthy\n".to_string())
            } else {
                Ok(violations
                    .into_iter()
                    .map(|v| format!("violation: {v}\n"))
                    .collect())
            }
        }
        "metrics" => {
            let m = client.metrics().map_err(|e| e.to_string())?;
            let histogram = m
                .read_retries
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(" ");
            let shards = m.reactor_shards.min(m.shard_served.len() as u64) as usize;
            let per_shard = |counts: &[u64]| {
                counts[..shards]
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            Ok(format!(
                "messages: {}\nbytes: {}\nresponse-bytes: {}\nspawned-nodes: {}\n\
                 latency-count: {}\np50-us: {:.1}\np99-us: {:.1}\np999-us: {:.1}\n\
                 reads-retried: {}\nread-retry-histogram: {histogram}\nreads-crossed: {}\n\
                 reactor-shards: {}\nshard-served: {}\nshard-shed: {}\n",
                m.messages,
                m.bytes,
                m.response_bytes,
                m.spawned_nodes,
                m.latency_count,
                m.p50_nanos as f64 / 1000.0,
                m.p99_nanos as f64 / 1000.0,
                m.p999_nanos as f64 / 1000.0,
                m.reads_retried,
                m.reads_crossed,
                m.reactor_shards,
                per_shard(&m.shard_served),
                per_shard(&m.shard_shed),
            ))
        }
        "shutdown" => {
            client.shutdown().map_err(|e| e.to_string())?;
            Ok("deployment shut down\n".to_string())
        }
        other => Err(format!(
            "unknown --op '{other}' (insert, knn, knn-batch, range, stats, verify, metrics, \
             shutdown)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_sample_is_deterministic_and_in_range() {
        let a = demo_sample(3, 50, 7);
        let b = demo_sample(3, 50, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 50);
        for p in &a {
            assert_eq!(p.len(), 3);
            for &c in p {
                assert!((0.0..100.0).contains(&c));
            }
        }
        assert_ne!(demo_sample(3, 50, 8), a, "seed changes the sample");
    }

    #[test]
    fn point_and_addr_parsing() {
        assert_eq!(parse_point("1.0, 2.5,3").unwrap(), vec![1.0, 2.5, 3.0]);
        assert!(parse_point("1.0,x").is_err());
        assert!(parse_addr("127.0.0.1:9000").is_ok());
        assert!(parse_addr("not-an-addr").is_err());
    }

    #[test]
    fn recover_reports_compression_stats_and_json() {
        use semtree_dist::{build_local_durable, Query, QueryOutcome, WalOptions};

        let dir =
            std::env::temp_dir().join(format!("semtree-cli-recover-stats-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = DistConfig::new(2).with_bucket_size(8);
        let options = WalOptions::default();
        let tree = build_local_durable(config, CostModel::zero(), 1, &[], &dir, options)
            .expect("durable tree");
        for i in 0..400u64 {
            // A palette-heavy workload, so the snapshot compresses well.
            tree.query(Query::insert(
                &[(i % 5) as f64 * 0.25, (i % 7) as f64 * 0.5],
                i,
            ))
            .and_then(QueryOutcome::inserted)
            .expect("insert");
        }
        tree.shutdown();
        // The build snapshots the empty partition; a snapshot holding
        // points is one the cadence took mid-run.
        let inspection = inspect_wal(&dir).expect("inspect");
        assert!(
            inspection.compression[0].raw_bytes > 0,
            "no snapshot mid-run"
        );

        let run = |args: &[&str]| {
            let parsed =
                crate::args::parse_args(&args.iter().map(|s| (*s).to_string()).collect::<Vec<_>>())
                    .expect("parse");
            recover(&parsed).expect("recover")
        };
        let wal_dir = dir.to_string_lossy().into_owned();

        let plain = run(&["recover", "--wal-dir", &wal_dir]);
        assert!(plain.contains("replayed: 1 partitions"), "{plain}");
        assert!(!plain.contains("snapshot compression"), "{plain}");

        let stats = run(&["recover", "--wal-dir", &wal_dir, "--stats"]);
        assert!(stats.contains("snapshot compression:"), "{stats}");
        assert!(stats.contains("columnar"), "{stats}");
        assert!(stats.contains("ratio"), "{stats}");

        let json = run(&["recover", "--wal-dir", &wal_dir, "--json"]);
        assert!(json.contains("\"snapshots\": [{\"partition\": 0"), "{json}");
        assert!(json.contains("\"format\": \"columnar\""), "{json}");
        assert!(json.contains("\"ratio\": "), "{json}");
        // Stays a JSON document: balanced braces, no trailing garbage.
        assert!(json.trim_end().starts_with('{') && json.trim_end().ends_with('}'));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_reports_a_routing_only_partition_as_holding_no_points() {
        use semtree_dist::{build_local_durable, WalOptions};

        let dir = std::env::temp_dir().join(format!(
            "semtree-cli-recover-routing-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        // Three partitions over a sample: a routing-only root and two
        // data partitions, each snapshotted as the tree is built.
        let sample = demo_sample(2, 64, 9);
        let tree = build_local_durable(
            DistConfig::new(2).with_bucket_size(8),
            CostModel::zero(),
            3,
            &sample,
            &dir,
            WalOptions::default(),
        )
        .expect("durable tree");
        tree.shutdown();

        let inspection = inspect_wal(&dir).expect("inspect");
        let routing: Vec<_> = inspection
            .compression
            .iter()
            .filter(|c| c.raw_bytes == 0)
            .collect();
        assert_eq!(routing.len(), 1, "{:?}", inspection.compression);
        assert!(routing[0].stored_bytes > 0);
        assert_eq!(routing[0].ratio(), None);

        let run = |args: &[&str]| {
            let parsed =
                crate::args::parse_args(&args.iter().map(|s| (*s).to_string()).collect::<Vec<_>>())
                    .expect("parse");
            recover(&parsed).expect("recover")
        };
        let wal_dir = dir.to_string_lossy().into_owned();
        let stats = run(&["recover", "--wal-dir", &wal_dir, "--stats"]);
        let line = format!(
            "  partition {}: columnar ({} bytes on disk, 0 raw point bytes, no points)\n",
            routing[0].partition, routing[0].stored_bytes
        );
        assert!(stats.contains(&line), "{stats}");
        assert!(!stats.contains("ratio 0.00x"), "{stats}");

        let json = run(&["recover", "--wal-dir", &wal_dir, "--json"]);
        assert_eq!(json.matches("\"ratio\": null").count(), 1, "{json}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn points_parsing() {
        assert_eq!(
            parse_points("1,2; 3,4").unwrap(),
            vec![vec![1.0, 2.0], vec![3.0, 4.0]]
        );
        assert_eq!(parse_points("5.5,6").unwrap(), vec![vec![5.5, 6.0]]);
        assert!(parse_points("1,2;bad").is_err());
    }
}
