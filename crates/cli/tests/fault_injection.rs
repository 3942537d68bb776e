//! The durability headline: `kill -9` a worker process mid-workload,
//! restart it against the same `--wal-dir`, and require the recovered
//! cluster's k-NN answers to be **byte-identical** to an uncrashed
//! in-process reference over the same insertion history.

use std::io::{BufRead, BufReader, Lines};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use semtree_cli::demo_sample;
use semtree_cluster::CostModel;
use semtree_dist::{
    CapacityPolicy, ClientResp, DistConfig, DistSemTree, NetClient, PipelinedClient, Query,
    QueryOutcome,
};

fn ref_insert(tree: &DistSemTree, point: &[f64], payload: u64) {
    tree.query(Query::insert(point, payload))
        .and_then(QueryOutcome::inserted)
        .expect("reference insert");
}

fn ref_knn_pairs(tree: &DistSemTree, query: &[f64], k: usize) -> Vec<(f64, u64)> {
    tree.query(Query::knn(query, k))
        .and_then(QueryOutcome::neighbors)
        .expect("reference knn")
        .into_iter()
        .map(|n| (n.dist, n.payload))
        .collect()
}

const DIMS: usize = 2;
const BUCKET: usize = 8;
const PARTITIONS: usize = 3;
const SAMPLE_SIZE: usize = 64;
const SEED: u64 = 11;
const CAPACITY: usize = 70;

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

/// WAL location: `SEMTREE_FAULT_WAL_DIR` when set (CI uploads it as an
/// artifact on failure), a per-process temp dir otherwise. Each test
/// gets its own `label` subdirectory so concurrently running tests
/// never clean up each other's WALs.
fn wal_dir(label: &str) -> PathBuf {
    let base = match std::env::var_os("SEMTREE_FAULT_WAL_DIR") {
        Some(dir) => PathBuf::from(dir),
        None => std::env::temp_dir().join(format!("semtree-fault-wal-{}", std::process::id())),
    };
    base.join(label)
}

#[test]
fn sigkilled_worker_recovers_and_serves_identical_results() {
    let wal = wal_dir("sigkill");
    let _ = std::fs::remove_dir_all(&wal);
    let wal_arg = wal.to_string_lossy().into_owned();

    let (serve, mut serve_lines) = spawn(&[
        "serve",
        "--workers",
        "1",
        "--partitions",
        &PARTITIONS.to_string(),
        "--dims",
        &DIMS.to_string(),
        "--bucket",
        &BUCKET.to_string(),
        "--capacity",
        &CAPACITY.to_string(),
        "--sample",
        &SAMPLE_SIZE.to_string(),
        "--seed",
        &SEED.to_string(),
    ]);
    let mut reaper = Reaper(vec![serve]);

    let cluster_addr = expect_line(&mut serve_lines, "cluster-addr:");
    let (worker, mut worker_lines) =
        spawn(&["worker", "--join", &cluster_addr, "--wal-dir", &wal_arg]);
    reaper.0.push(worker);
    expect_line(&mut worker_lines, "worker: process");
    std::thread::spawn(move || for _ in worker_lines.by_ref() {});

    let client_addr: SocketAddr = expect_line(&mut serve_lines, "client-addr:")
        .parse()
        .expect("client address");
    std::thread::spawn(move || for _ in serve_lines.by_ref() {});

    // The uncrashed reference: same config, fan-out sample, and insertion
    // order — the recovered cluster must match it bit for bit.
    let config = DistConfig::new(DIMS)
        .with_bucket_size(BUCKET)
        .with_max_partitions(PARTITIONS.max(64))
        .with_capacity(CapacityPolicy::MaxPoints(CAPACITY));
    let sample = demo_sample(DIMS, SAMPLE_SIZE, SEED);
    let reference = DistSemTree::with_fanout(config, CostModel::zero(), PARTITIONS, &sample);

    let mut client = NetClient::connect(client_addr, Duration::from_secs(10)).expect("connect");
    let points: Vec<(Vec<f64>, u64)> = demo_sample(DIMS, 260, SEED ^ 0xfau64)
        .into_iter()
        .zip(0..)
        .collect();
    let (batch1, batch2) = points.split_at(160);

    for (point, payload) in batch1 {
        client.insert(point, *payload).expect("pre-crash insert");
        ref_insert(&reference, point, *payload);
    }

    // SIGKILL the worker at a quiescent point: every acknowledged insert
    // is already in its WAL, and nothing is in flight.
    let worker = &mut reaper.0[1];
    worker.kill().expect("SIGKILL worker");
    worker.wait().expect("reap worker");

    // Restart it against the same WAL directory. It must replay its
    // partitions and rejoin under its old process index and routes.
    let (revived, mut revived_lines) =
        spawn(&["worker", "--join", &cluster_addr, "--wal-dir", &wal_arg]);
    reaper.0.push(revived);
    let recovered = expect_line(&mut revived_lines, "recovered-partitions:");
    assert!(
        !recovered.is_empty(),
        "restarted worker must report recovered partitions"
    );
    std::thread::spawn(move || for _ in revived_lines.by_ref() {});

    // The coordinator evicts its dead connection during the rejoin
    // handshake; retry the first post-restart insert until the revived
    // routes answer.
    let deadline = Instant::now() + Duration::from_secs(20);
    let (first_point, first_payload) = &batch2[0];
    loop {
        match client.insert(first_point, *first_payload) {
            Ok(()) => break,
            Err(e) => {
                assert!(Instant::now() < deadline, "insert never recovered: {e}");
                std::thread::sleep(Duration::from_millis(100));
                client = NetClient::connect(client_addr, Duration::from_secs(10))
                    .expect("reconnect client");
            }
        }
    }
    ref_insert(&reference, first_point, *first_payload);
    for (point, payload) in &batch2[1..] {
        client.insert(point, *payload).expect("post-crash insert");
        ref_insert(&reference, point, *payload);
    }

    // Byte-identical k-NN across the crash: exact f64 distances, exact
    // payloads, exact order.
    for (query, _) in points.iter().step_by(17) {
        let got = client.knn(query, 9).expect("net knn");
        let want = ref_knn_pairs(&reference, query, 9);
        assert_eq!(got, want, "knn around {query:?}");
    }

    let stats = client.stats().expect("net stats");
    assert_eq!(
        stats.iter().map(|(_, p)| p.points).sum::<usize>(),
        points.len(),
        "no acknowledged point may be lost across the crash"
    );
    assert_eq!(client.verify().expect("net verify"), Vec::<String>::new());

    // The offline inspector agrees with what the live recovery rebuilt.
    let report = Command::new(env!("CARGO_BIN_EXE_semtree"))
        .args(["recover", "--wal-dir", &wal_arg])
        .output()
        .expect("run semtree recover");
    assert!(
        report.status.success(),
        "recover exited with {}",
        report.status
    );
    let report = String::from_utf8_lossy(&report.stdout);
    assert!(report.contains("process-index: 1"), "{report}");
    assert!(report.contains("replayed:"), "{report}");

    client.shutdown().expect("net shutdown");
    // Child 1 is the SIGKILLed worker (already reaped); the coordinator
    // and the revived worker must exit cleanly.
    for child in &mut reaper.0 {
        let _ = child.wait();
    }
    reaper.0.clear();
    reference.shutdown();
    let _ = std::fs::remove_dir_all(&wal);
}

/// SIGKILL a worker while a pipelined client has a window of requests
/// in flight: every outstanding reply must resolve as a typed answer or
/// error (never a hang), and after the worker rejoins from its WAL the
/// same pipelined connection must produce byte-identical k-NN results.
#[test]
fn sigkill_with_pipelined_requests_in_flight_yields_typed_errors_then_recovers() {
    let wal = wal_dir("pipelined");
    let _ = std::fs::remove_dir_all(&wal);
    let wal_arg = wal.to_string_lossy().into_owned();

    let (serve, mut serve_lines) = spawn(&[
        "serve",
        "--workers",
        "1",
        "--partitions",
        &PARTITIONS.to_string(),
        "--dims",
        &DIMS.to_string(),
        "--bucket",
        &BUCKET.to_string(),
        "--capacity",
        &CAPACITY.to_string(),
        "--sample",
        &SAMPLE_SIZE.to_string(),
        "--seed",
        &SEED.to_string(),
    ]);
    let mut reaper = Reaper(vec![serve]);

    let cluster_addr = expect_line(&mut serve_lines, "cluster-addr:");
    let (worker, mut worker_lines) =
        spawn(&["worker", "--join", &cluster_addr, "--wal-dir", &wal_arg]);
    reaper.0.push(worker);
    expect_line(&mut worker_lines, "worker: process");
    std::thread::spawn(move || for _ in worker_lines.by_ref() {});

    let client_addr: SocketAddr = expect_line(&mut serve_lines, "client-addr:")
        .parse()
        .expect("client address");
    std::thread::spawn(move || for _ in serve_lines.by_ref() {});

    let config = DistConfig::new(DIMS)
        .with_bucket_size(BUCKET)
        .with_max_partitions(PARTITIONS.max(64))
        .with_capacity(CapacityPolicy::MaxPoints(CAPACITY));
    let sample = demo_sample(DIMS, SAMPLE_SIZE, SEED);
    let reference = DistSemTree::with_fanout(config, CostModel::zero(), PARTITIONS, &sample);

    let mut seeder = NetClient::connect(client_addr, Duration::from_secs(10)).expect("connect");
    let points: Vec<(Vec<f64>, u64)> = demo_sample(DIMS, 160, SEED ^ 0xb0u64)
        .into_iter()
        .zip(0..)
        .collect();
    for (point, payload) in &points {
        seeder.insert(point, *payload).expect("seed insert");
        ref_insert(&reference, point, *payload);
    }

    let queries = demo_sample(DIMS, 24, SEED ^ 0xc1u64);
    let expected: Vec<Vec<(f64, u64)>> = queries
        .iter()
        .map(|q| ref_knn_pairs(&reference, q, 9))
        .collect();

    // Fill the pipeline, then SIGKILL the worker with the window still
    // in flight. Eight requests is enough depth to prove typed-error
    // delivery; each one routed to the dead worker can cost an executor
    // a full dial timeout, so a deeper window only slows the test.
    let mut pipelined =
        PipelinedClient::connect(client_addr, Duration::from_secs(10)).expect("pipelined connect");
    let in_flight = 8;
    let pending: Vec<_> = queries
        .iter()
        .take(in_flight)
        .map(|q| pipelined.knn(q, 9).expect("submit"))
        .collect();
    // Send contract: submits queue in the client's outbox until a flush
    // point, and the first wait comes after the kill; flush so the
    // window is on the wire when the worker dies.
    pipelined.flush().expect("flush");
    let worker = &mut reaper.0[1];
    worker.kill().expect("SIGKILL worker");
    worker.wait().expect("reap worker");

    // Every in-flight request resolves — as its answer (raced ahead of
    // the kill) or a typed error — within the deadline. No hangs, no
    // mis-correlated replies.
    for (i, reply) in pending.into_iter().enumerate() {
        match reply.wait_timeout(Duration::from_secs(30)) {
            Ok(ClientResp::Neighbors(got)) => {
                assert_eq!(got, expected[i], "a reply answered someone else's query");
            }
            Ok(ClientResp::Error(_)) | Err(_) => {}
            Ok(other) => panic!("query {i}: unexpected reply {other:?}"),
        }
    }

    // Revive the worker from its WAL; it must rejoin under its old
    // routes.
    let (revived, mut revived_lines) =
        spawn(&["worker", "--join", &cluster_addr, "--wal-dir", &wal_arg]);
    reaper.0.push(revived);
    let recovered = expect_line(&mut revived_lines, "recovered-partitions:");
    assert!(
        !recovered.is_empty(),
        "revived worker must recover from WAL"
    );
    std::thread::spawn(move || for _ in revived_lines.by_ref() {});

    // Poll over a fresh pipelined connection until the revived routes
    // answer again (each failed probe can burn a full dial timeout, so
    // the deadline is generous).
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut pipelined = loop {
        let mut candidate = PipelinedClient::connect(client_addr, Duration::from_secs(10))
            .expect("pipelined reconnect");
        let probe = candidate
            .knn(&queries[0], 9)
            .and_then(|p| p.wait_timeout(Duration::from_secs(10)));
        match probe {
            Ok(ClientResp::Neighbors(got)) if got == expected[0] => break candidate,
            outcome => {
                assert!(
                    Instant::now() < deadline,
                    "pipelined knn never recovered: {outcome:?}"
                );
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    };

    // Byte-identical answers across the crash, over one pipelined
    // window.
    let replies: Vec<_> = queries
        .iter()
        .map(|q| pipelined.knn(q, 9).expect("post-recovery submit"))
        .collect();
    for (i, reply) in replies.into_iter().enumerate() {
        let got = reply.wait_neighbors().expect("post-recovery reply");
        assert_eq!(got, expected[i], "knn around {:?}", queries[i]);
    }
    drop(pipelined);

    seeder.shutdown().expect("net shutdown");
    for child in &mut reaper.0 {
        let _ = child.wait();
    }
    reaper.0.clear();
    reference.shutdown();
    let _ = std::fs::remove_dir_all(&wal);
}
