//! The real thing: one coordinator and two worker **OS processes**
//! connected over loopback TCP, serving a 3-partition distributed tree
//! whose results must be byte-identical to an in-process reference.

use std::io::{BufRead, BufReader, Lines};
use std::net::SocketAddr;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

use semtree_cli::demo_sample;
use semtree_cluster::CostModel;
use semtree_dist::{DistConfig, DistSemTree, NetClient, Query, QueryOutcome};

fn ref_insert(tree: &DistSemTree, point: &[f64], payload: u64) {
    tree.query(Query::insert(point, payload))
        .and_then(QueryOutcome::inserted)
        .expect("reference insert");
}

fn ref_pairs(tree: &DistSemTree, query: Query) -> Vec<(f64, u64)> {
    tree.query(query)
        .and_then(QueryOutcome::neighbors)
        .expect("reference query")
        .into_iter()
        .map(|n| (n.dist, n.payload))
        .collect()
}

const DIMS: usize = 2;
const BUCKET: usize = 8;
const PARTITIONS: usize = 3;
const SAMPLE_SIZE: usize = 64;
const SEED: u64 = 9;

/// Kills the spawned processes when the test panics mid-way.
struct Reaper(Vec<Child>);

impl Drop for Reaper {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

fn spawn(args: &[&str]) -> (Child, Lines<BufReader<ChildStdout>>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_semtree"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn semtree");
    let stdout = child.stdout.take().expect("piped stdout");
    (child, BufReader::new(stdout).lines())
}

fn expect_line(lines: &mut Lines<BufReader<ChildStdout>>, prefix: &str) -> String {
    for line in lines {
        let line = line.expect("child stdout");
        if let Some(rest) = line.strip_prefix(prefix) {
            return rest.trim().to_string();
        }
    }
    panic!("child exited before printing '{prefix}'");
}

fn test_points(n: usize) -> Vec<(Vec<f64>, u64)> {
    demo_sample(DIMS, n, SEED ^ 0xdead_beef)
        .into_iter()
        .zip(0..)
        .collect()
}

#[test]
fn coordinator_and_two_worker_processes_serve_identical_results() {
    let (serve, mut serve_lines) = spawn(&[
        "serve",
        "--workers",
        "2",
        "--partitions",
        &PARTITIONS.to_string(),
        "--dims",
        &DIMS.to_string(),
        "--bucket",
        &BUCKET.to_string(),
        "--sample",
        &SAMPLE_SIZE.to_string(),
        "--seed",
        &SEED.to_string(),
    ]);
    let mut reaper = Reaper(vec![serve]);

    let cluster_addr = expect_line(&mut serve_lines, "cluster-addr:");
    for _ in 0..2 {
        let (worker, mut worker_lines) = spawn(&["worker", "--join", &cluster_addr]);
        reaper.0.push(worker);
        let banner = expect_line(&mut worker_lines, "worker: process");
        // Keep draining in the background so the worker never blocks on a
        // full stdout pipe.
        std::thread::spawn(move || for _ in worker_lines.by_ref() {});
        assert!(!banner.is_empty());
    }
    let client_addr: SocketAddr = expect_line(&mut serve_lines, "client-addr:")
        .parse()
        .expect("client address");
    std::thread::spawn(move || for _ in serve_lines.by_ref() {});

    // The in-process reference: same config, same fan-out sample, same
    // insertion order — everything downstream must match bit for bit.
    let config = DistConfig::new(DIMS).with_bucket_size(BUCKET);
    let sample = demo_sample(DIMS, SAMPLE_SIZE, SEED);
    let reference = DistSemTree::with_fanout(config, CostModel::zero(), PARTITIONS, &sample);

    let mut client = NetClient::connect(client_addr, Duration::from_secs(10)).expect("connect");
    let points = test_points(200);
    for (point, payload) in &points {
        client.insert(point, *payload).expect("net insert");
        ref_insert(&reference, point, *payload);
    }

    let queries = points.iter().step_by(23);
    let answered_queries = 2 * queries.len() as u64;
    for (query, _) in queries {
        let got = client.knn(query, 7).expect("net knn");
        let want = ref_pairs(&reference, Query::knn(query, 7));
        assert_eq!(got, want, "knn around {query:?}");

        let got = client.range(query, 15.0).expect("net range");
        let want = ref_pairs(&reference, Query::range(query, 15.0));
        assert_eq!(got, want, "range around {query:?}");
    }

    let stats = client.stats().expect("net stats");
    assert_eq!(stats.len(), PARTITIONS);
    assert_eq!(
        stats.iter().map(|(_, p)| p.points).sum::<usize>(),
        points.len()
    );
    // The root partition lives on the coordinator (process 0); the data
    // partitions live on the two worker processes.
    let processes: std::collections::BTreeSet<u32> =
        stats.iter().map(|&(pid, _)| pid >> 16).collect();
    assert_eq!(
        processes.into_iter().collect::<Vec<_>>(),
        vec![0, 1, 2],
        "partitions must span all three OS processes"
    );

    assert_eq!(client.verify().expect("net verify"), Vec::<String>::new());

    let metrics = client.metrics().expect("net metrics");
    let (messages, bytes) = (metrics.messages, metrics.bytes);
    assert!(messages > 0);
    assert!(
        bytes > messages * 4,
        "byte count must reflect actual encoded frames, got {bytes} over {messages} messages"
    );
    assert!(
        metrics.response_bytes > 0,
        "the k-NN answers must have been metered on the way back"
    );
    // Every client-port request answered before this one — the inserts,
    // the k-NN and range queries, stats and verify — and nothing else.
    assert_eq!(
        metrics.latency_count,
        points.len() as u64 + answered_queries + 2,
        "each served request lands in the latency histogram exactly once"
    );
    assert!(metrics.p99_nanos >= metrics.p50_nanos);
    assert_eq!(metrics.reactor_shards, 1, "--serve-reactors defaults to 1");
    assert_eq!(
        metrics.shard_shed.iter().sum::<u64>(),
        0,
        "nothing was shed"
    );

    client.shutdown().expect("net shutdown");
    for child in &mut reaper.0 {
        let status = child.wait().expect("child exit");
        assert!(status.success(), "child exited with {status}");
    }
    reaper.0.clear();
    reference.shutdown();
}
