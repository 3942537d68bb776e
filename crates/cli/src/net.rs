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

use std::collections::VecDeque;
use std::io::{self, Write as _};
use std::net::{Ipv4Addr, SocketAddr, TcpListener};
use std::path::Path;
use std::time::{Duration, Instant};

use semtree_cluster::{CostModel, LatencyHistogram, LatencySnapshot};
use semtree_dist::{
    build_tree, inspect_wal, join_cluster, serve_clients_with, serve_cluster, CapacityPolicy,
    ClientMetrics, ClientResp, DistConfig, NetClient, PendingReply, PipelinedClient, ServeOptions,
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
/// compression (on-disk vs decoded bytes); `--json` emits the whole
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
            out.push_str(&format!(
                "  partition {}: {} ({} bytes on disk, {} decoded, ratio {:.2}x)\n",
                c.partition,
                format_name(c.format),
                c.stored_bytes,
                c.decoded_bytes,
                c.ratio()
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
            format!(
                "{{\"partition\": {}, \"format\": \"{}\", \"stored_bytes\": {}, \
                 \"decoded_bytes\": {}, \"ratio\": {:.4}}}",
                c.partition,
                format_name(c.format),
                c.stored_bytes,
                c.decoded_bytes,
                c.ratio()
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

/// One connection thread's tally.
#[derive(Default)]
struct ConnReport {
    completed: u64,
    shed: u64,
    errors: u64,
    latency: LatencySnapshot,
}

/// Settle one in-flight reply into the tally. Only successful answers
/// count toward throughput and latency; sheds and failures are tallied
/// separately.
fn settle(
    started: Instant,
    outcome: io::Result<ClientResp>,
    hist: &LatencyHistogram,
    report: &mut ConnReport,
) {
    match outcome {
        Ok(ClientResp::Overloaded) => report.shed += 1,
        Ok(ClientResp::Error(_)) | Err(_) => report.errors += 1,
        Ok(_) => {
            report.completed += 1;
            let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            hist.record(nanos);
        }
    }
}

/// Settle every reply in `window` that has already arrived, in arrival
/// order rather than submission order. Returns how many were settled.
/// The server completes out of order, so FIFO settling would leave
/// finished replies occupying window slots — and the pipeline stalled —
/// while the oldest request is still running. The client reads replies
/// only when asked, so the first slot still in flight looks at the
/// socket (once, filing whatever has arrived for any slot) and the
/// slots behind it take what that read filed.
fn harvest_ready(
    window: &mut VecDeque<(Instant, PendingReply)>,
    hist: &LatencyHistogram,
    report: &mut ConnReport,
) -> usize {
    let mut settled = 0;
    let mut probed = false;
    let mut i = 0;
    while i < window.len() {
        let pending = &window[i].1;
        let taken = if probed {
            pending.take_filed()
        } else {
            pending.try_take()
        };
        match taken {
            Some(outcome) => {
                let Some((started, _)) = window.remove(i) else {
                    break;
                };
                settle(started, outcome, hist, report);
                settled += 1;
            }
            None => {
                probed = true;
                i += 1;
            }
        }
    }
    settled
}

/// Drive `count` requests through one pipelined connection, keeping at
/// most `depth` in flight.
#[allow(clippy::too_many_arguments)]
fn drive_connection(
    addr: SocketAddr,
    timeout: Duration,
    op: &str,
    count: usize,
    depth: usize,
    k: usize,
    batch: usize,
    pool: &[Vec<f64>],
) -> Result<ConnReport, String> {
    let mut client = PipelinedClient::connect(addr, timeout).map_err(|e| e.to_string())?;
    let hist = LatencyHistogram::new_in();
    let mut report = ConnReport::default();
    let mut window: VecDeque<(Instant, PendingReply)> = VecDeque::new();
    for i in 0..count {
        while window.len() >= depth {
            // Prefer replies that already arrived; only when none are
            // ready does the thread block on the oldest one.
            if harvest_ready(&mut window, &hist, &mut report) > 0 {
                continue;
            }
            let Some((started, pending)) = window.pop_front() else {
                break;
            };
            settle(
                started,
                pending.wait_timeout(Duration::from_secs(30)),
                &hist,
                &mut report,
            );
        }
        let point = &pool[i % pool.len()];
        let started = Instant::now();
        let submitted = if op == "knn-batch" {
            let points: Vec<Vec<f64>> = (0..batch)
                .map(|j| pool[(i + j) % pool.len()].clone())
                .collect();
            client.knn_batch(&points, k)
        } else {
            client.knn(point, k)
        };
        match submitted {
            Ok(pending) => window.push_back((started, pending)),
            Err(e) => return Err(format!("submit failed after {i} requests: {e}")),
        }
    }
    for (started, pending) in window {
        settle(
            started,
            pending.wait_timeout(Duration::from_secs(30)),
            &hist,
            &mut report,
        );
    }
    report.latency = hist.snapshot();
    Ok(report)
}

/// Append one record to a JSON array file, creating it if needed. The
/// file stays valid JSON after every append.
fn append_json_record(path: &str, record: &str) -> Result<(), String> {
    let fresh = format!("[\n  {record}\n]\n");
    let content = match std::fs::read_to_string(path) {
        Err(_) => fresh,
        Ok(text) if text.trim().is_empty() => fresh,
        Ok(text) => {
            let head = text
                .trim_end()
                .strip_suffix(']')
                .ok_or_else(|| format!("{path} is not a JSON array"))?
                .trim_end()
                .to_string();
            if head.ends_with('[') {
                format!("{head}\n  {record}\n]\n")
            } else {
                format!("{head},\n  {record}\n]\n")
            }
        }
    };
    std::fs::write(path, content).map_err(|e| format!("cannot write {path}: {e}"))
}

/// One loadgen cell (a fixed connections × depth combination), fully
/// measured: the merged client-side tally, wall time, and the server's
/// per-reactor-shard served/shed deltas over the run.
struct CellResult {
    total: ConnReport,
    elapsed: Duration,
    reactor_shards: u64,
    shard_served: Vec<u64>,
    shard_shed: Vec<u64>,
}

/// Fetch a metrics snapshot for shard-delta accounting. Best-effort:
/// an older server without the Metrics op degrades to zeroed shards.
fn shard_snapshot(addr: SocketAddr, timeout: Duration) -> ClientMetrics {
    NetClient::connect(addr, timeout)
        .and_then(|mut c| c.metrics())
        .unwrap_or_default()
}

/// Run C connections × D in-flight requests each against `addr`,
/// bracketed by server metrics snapshots so the record attributes the
/// traffic to the reactor shards that handled it.
#[allow(clippy::too_many_arguments)]
fn run_cell(
    addr: SocketAddr,
    timeout: Duration,
    op: &str,
    connections: usize,
    depth: usize,
    requests: usize,
    k: usize,
    batch: usize,
    pool: &[Vec<f64>],
) -> Result<CellResult, String> {
    let before = shard_snapshot(addr, timeout);
    let started = Instant::now();
    let reports: Vec<Result<ConnReport, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                let count = requests / connections + usize::from(c < requests % connections);
                scope.spawn(move || {
                    drive_connection(addr, timeout, op, count, depth, k, batch, pool)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(result) => result,
                Err(_) => Err("connection thread panicked".to_string()),
            })
            .collect()
    });
    let elapsed = started.elapsed();
    let after = shard_snapshot(addr, timeout);

    let mut total = ConnReport::default();
    for report in reports {
        let report = report?;
        total.completed += report.completed;
        total.shed += report.shed;
        total.errors += report.errors;
        total.latency.merge(&report.latency);
    }
    let shards = after.reactor_shards.min(after.shard_served.len() as u64) as usize;
    let delta = |a: &[u64], b: &[u64]| -> Vec<u64> {
        (0..shards).map(|s| a[s].saturating_sub(b[s])).collect()
    };
    Ok(CellResult {
        total,
        elapsed,
        reactor_shards: after.reactor_shards,
        shard_served: delta(&after.shard_served, &before.shard_served),
        shard_shed: delta(&after.shard_shed, &before.shard_shed),
    })
}

/// Render one u64 slice as a JSON array.
fn json_u64s(values: &[u64]) -> String {
    let items: Vec<String> = values.iter().map(ToString::to_string).collect();
    format!("[{}]", items.join(", "))
}

/// `semtree loadgen`: sustained pipelined load against a running
/// `serve` process — C connections × D in-flight requests each —
/// reporting throughput, client-observed latency quantiles, and the
/// server's per-reactor-shard served/shed attribution. `--sweep` runs
/// the connection-count curve C ∈ {1, 8, 64, 256} at the given depth
/// instead of a single cell.
pub fn loadgen(parsed: &ParsedArgs) -> Result<String, String> {
    let addr = parse_addr(parsed.require("addr")?)?;
    let timeout = Duration::from_secs(parsed.get_u64("timeout", 10)?);
    let depth = parsed.get_usize("depth", 8)?.max(1);
    let requests = parsed.get_usize("requests", 1000)?;
    let k = parsed.get_usize("k", 5)?;
    let batch = parsed.get_usize("batch", 8)?.max(1);
    let dims = parsed.get_usize("dims", 2)?;
    let preload = parsed.get_usize("preload", 0)?;
    let seed = parsed.get_u64("seed", 42)?;
    let label = parsed.get("label").unwrap_or("loadgen").to_string();
    let op = parsed.get("op").unwrap_or("knn").to_string();
    if op != "knn" && op != "knn-batch" {
        return Err(format!("unknown --op '{op}' (knn, knn-batch)"));
    }
    let sweep = parsed.flag("sweep");
    let connection_counts: Vec<usize> = if sweep {
        vec![1, 8, 64, 256]
    } else {
        vec![parsed.get_usize("connections", 1)?.max(1)]
    };

    if preload > 0 {
        let mut client = NetClient::connect(addr, timeout).map_err(|e| e.to_string())?;
        for (i, point) in demo_sample(dims, preload, seed ^ 0x5EED).iter().enumerate() {
            client
                .insert(point, i as u64)
                .map_err(|e| format!("preload insert {i} failed: {e}"))?;
        }
    }

    let pool = demo_sample(dims, 256, seed);
    let mut out = String::new();
    for connections in connection_counts {
        let cell = run_cell(
            addr,
            timeout,
            &op,
            connections,
            depth,
            requests,
            k,
            batch,
            &pool,
        )?;
        let qps = cell.total.completed as f64 / cell.elapsed.as_secs_f64().max(1e-9);
        let p50_us = cell.total.latency.p50_nanos() as f64 / 1000.0;
        let p99_us = cell.total.latency.p99_nanos() as f64 / 1000.0;
        let p999_us = cell.total.latency.p999_nanos() as f64 / 1000.0;
        let shard_qps: Vec<u64> = cell
            .shard_served
            .iter()
            .map(|&served| (served as f64 / cell.elapsed.as_secs_f64().max(1e-9)) as u64)
            .collect();

        if let Some(path) = parsed.get("json") {
            let record = format!(
                "{{\"name\": \"{label}\", \"op\": \"{op}\", \"connections\": {connections}, \
                 \"depth\": {depth}, \"requests\": {requests}, \"qps\": {qps:.1}, \
                 \"p50_us\": {p50_us:.1}, \"p99_us\": {p99_us:.1}, \"p999_us\": {p999_us:.1}, \
                 \"shed\": {}, \"errors\": {}, \"reactor_shards\": {}, \
                 \"shard_qps\": {}, \"shard_served\": {}, \"shard_shed\": {}}}",
                cell.total.shed,
                cell.total.errors,
                cell.reactor_shards,
                json_u64s(&shard_qps),
                json_u64s(&cell.shard_served),
                json_u64s(&cell.shard_shed),
            );
            append_json_record(path, &record)?;
        }

        out.push_str(&format!(
            "op: {op}\nconnections: {connections}\ndepth: {depth}\nrequests: {requests}\n\
             completed: {}\nqps: {qps:.1}\np50-us: {p50_us:.1}\np99-us: {p99_us:.1}\n\
             p999-us: {p999_us:.1}\nshed: {}\nerrors: {}\nreactor-shards: {}\n\
             shard-served: {:?}\nshard-shed: {:?}\n",
            cell.total.completed,
            cell.total.shed,
            cell.total.errors,
            cell.reactor_shards,
            cell.shard_served,
            cell.shard_shed,
        ));
    }
    Ok(out)
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
        let options = WalOptions::default().with_snapshot_every(64);
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
    fn points_parsing() {
        assert_eq!(
            parse_points("1,2; 3,4").unwrap(),
            vec![vec![1.0, 2.0], vec![3.0, 4.0]]
        );
        assert_eq!(parse_points("5.5,6").unwrap(), vec![vec![5.5, 6.0]]);
        assert!(parse_points("1,2;bad").is_err());
    }
}
