//! Serving-fabric integration: the reactor-backed client port under
//! pipelining, mixed v1/v2 clients, and deliberate overload.
//!
//! A real `DistSemTree` is served over loopback TCP by
//! `serve_clients_with`; clients drive it with the pipelined
//! (correlation-id) protocol and assert answers are byte-identical to
//! querying the tree directly — out-of-order completion must never
//! mis-deliver a reply.

use std::io::Write;
use std::net::TcpListener;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use semtree_cluster::CostModel;
use semtree_dist::{
    serve_clients_with, ClientReq, ClientResp, DistConfig, DistSemTree, NetClient, PipelinedClient,
    Query, QueryOutcome, ServeOptions,
};
use semtree_integration::sample_points;
use semtree_net::{append_frame, decode_exact, read_frame, split_frame_v2, Encode};
use semtree_reactor::{DRAIN_BUDGET, INLINE_MAX_K};

/// A populated single-process tree plus the expected k-NN answer for
/// each query, computed directly (no network) before serving starts.
fn tree_with_reference(
    n_points: usize,
    queries: &[Vec<f64>],
    k: usize,
) -> (DistSemTree, Vec<Vec<(f64, u64)>>) {
    let config = DistConfig::new(2)
        .with_bucket_size(16)
        .with_max_partitions(16);
    let tree = DistSemTree::single(config, CostModel::zero());
    for (i, p) in sample_points(2, n_points, 11).iter().enumerate() {
        tree.query(Query::insert(p, i as u64))
            .and_then(QueryOutcome::inserted)
            .expect("insert");
    }
    let expected = queries
        .iter()
        .map(|q| in_process_knn(&tree, q, k))
        .collect();
    (tree, expected)
}

/// Serve `tree` on an ephemeral port in a background thread; returns
/// the address and the join handle (which yields the tree back once a
/// shutdown request lands).
fn spawn_server(
    tree: DistSemTree,
    options: ServeOptions,
) -> (std::net::SocketAddr, std::thread::JoinHandle<DistSemTree>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let handle = std::thread::spawn(move || {
        serve_clients_with(&listener, &tree, &options).expect("serve");
        tree
    });
    (addr, handle)
}

fn shutdown(addr: std::net::SocketAddr, handle: std::thread::JoinHandle<DistSemTree>) {
    let client = NetClient::connect(addr, Duration::from_secs(5)).expect("connect");
    client.shutdown().expect("shutdown");
    let tree = handle.join().expect("server thread");
    tree.shutdown();
}

#[test]
fn pipelined_replies_complete_out_of_order_but_never_mismatched() {
    let k = 4;
    let queries = sample_points(2, 48, 23);
    let (tree, expected) = tree_with_reference(600, &queries, k);
    let (addr, handle) = spawn_server(tree, ServeOptions::default());

    // Interleave cheap single-point queries with expensive batched ones
    // on ONE connection, all in flight at once: completions come back
    // out of order, and every reply must still match ITS query.
    let mut client = PipelinedClient::connect(addr, Duration::from_secs(5)).expect("connect");
    let batch_all: Vec<Vec<f64>> = queries.clone();
    let mut pending = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        if i % 5 == 0 {
            pending.push((None, client.knn_batch(&batch_all, k).expect("submit batch")));
        }
        pending.push((Some(i), client.knn(q, k).expect("submit knn")));
    }
    assert!(client.submitted() > queries.len() as u64);
    for (which, reply) in pending {
        match which {
            Some(i) => {
                let got = reply.wait_neighbors().expect("knn reply");
                assert_eq!(got, expected[i], "query {i} got someone else's answer");
            }
            None => {
                let got = reply.wait_batches().expect("batch reply");
                assert_eq!(got, expected, "batched answers must match the reference");
            }
        }
    }

    // A v1 (sequential) client shares the same port and still agrees.
    let mut v1 = NetClient::connect(addr, Duration::from_secs(5)).expect("v1 connect");
    for (i, q) in queries.iter().take(8).enumerate() {
        assert_eq!(v1.knn(q, k).expect("v1 knn"), expected[i]);
    }

    shutdown(addr, handle);
}

/// Pipeline `burst` copies of an expensive batched k-NN on one
/// connection and tally `(served, shed)`: every reply must be either the
/// full batch answer or a typed `Overloaded`.
fn overload_burst(
    client: &mut PipelinedClient,
    heavy: &[Vec<f64>],
    k: usize,
    burst: u64,
) -> (u64, u64) {
    let pending: Vec<_> = (0..burst)
        .map(|_| client.knn_batch(heavy, k).expect("submit"))
        .collect();
    let (mut served, mut shed) = (0u64, 0u64);
    for reply in pending {
        match reply.wait().expect("reply") {
            ClientResp::NeighborBatches(batches) => {
                assert_eq!(batches.len(), heavy.len());
                served += 1;
            }
            ClientResp::Overloaded => shed += 1,
            other => panic!("unexpected reply under overload: {other:?}"),
        }
    }
    assert_eq!(served + shed, burst);
    assert!(served >= 1, "admitted requests must still be answered");
    assert!(
        shed >= 1,
        "a {burst}-deep burst through a 1-slot queue must shed (served {served})"
    );
    (served, shed)
}

#[test]
fn queue_overflow_sheds_typed_overloaded_replies() {
    let k = 8;
    let queries = sample_points(2, 8, 31);
    let (tree, _) = tree_with_reference(3_000, &queries, k);
    // One executor, one admission slot: a pipelined burst of expensive
    // batch queries MUST overflow the global queue.
    let options = ServeOptions {
        executors: 1,
        global_depth: 1,
        per_conn_depth: 64,
        ..ServeOptions::default()
    };
    let (addr, handle) = spawn_server(tree, options);

    let mut client = PipelinedClient::connect(addr, Duration::from_secs(5)).expect("connect");
    let burst = 48;
    let (_, shed) = overload_burst(&mut client, &sample_points(2, 512, 47), k, burst);

    // The shed connection is still usable for regular traffic.
    let q = &queries[0];
    let again = client.knn(q, k).expect("post-shed submit");
    assert!(again.wait_neighbors().is_ok() || shed == burst);

    shutdown(addr, handle);
}

/// v1 (sequential, uncorrelated) and v2 (pipelined, correlated) framing
/// interleaved on the same multi-shard port: responses must route
/// by connection and correlation id, never by arrival order.
#[test]
fn v1_and_v2_clients_interleave_on_a_sharded_epoll_port() {
    let k = 4;
    let queries = sample_points(2, 24, 67);
    let (tree, expected) = tree_with_reference(500, &queries, k);
    let options = ServeOptions::default().with_reactors(2);
    let (addr, handle) = spawn_server(tree, options);

    let mut v2 = PipelinedClient::connect(addr, Duration::from_secs(5)).expect("v2 connect");
    let mut v1 = NetClient::connect(addr, Duration::from_secs(5)).expect("v1 connect");
    let mut pending = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        // Submit pipelined, then complete a v1 round trip while the v2
        // request is still in flight, then harvest — every iteration
        // interleaves the two framings in both directions.
        pending.push((i, v2.knn(q, k).expect("v2 submit")));
        assert_eq!(v1.knn(q, k).expect("v1 knn"), expected[i], "v1 query {i}");
        if i % 3 == 0 {
            let (j, reply) = pending.remove(0);
            let got = reply.wait_neighbors().expect("v2 reply");
            assert_eq!(got, expected[j], "v2 query {j}");
        }
    }
    for (j, reply) in pending {
        let got = reply.wait_neighbors().expect("v2 reply");
        assert_eq!(got, expected[j], "v2 query {j}");
    }

    shutdown(addr, handle);
}

/// One connection bursting far past the per-iteration drain budget must
/// not starve a well-behaved sequential client on the same shard: the
/// reactor admits at most `DRAIN_BUDGET` frames per connection per
/// iteration and re-pumps the remainder, so the light client's requests
/// interleave instead of queueing behind the whole flood.
#[test]
fn saturated_pipelined_connection_cannot_starve_a_light_one() {
    let k = 3;
    let queries = sample_points(2, 16, 71);
    let (tree, expected) = tree_with_reference(400, &queries, k);
    let flood = 6 * DRAIN_BUDGET;
    // A single reactor shard (both connections share its event loop)
    // with a per-connection window large enough to accept the whole
    // flood — fairness must come from the drain budget, not admission
    // backpressure.
    let options = ServeOptions::default()
        .with_reactors(1)
        .with_per_conn_depth(flood)
        .with_global_depth(4 * flood);
    let (addr, handle) = spawn_server(tree, options);

    let mut flooder = PipelinedClient::connect(addr, Duration::from_secs(5)).expect("connect");
    let burst: Vec<_> = (0..flood)
        .map(|i| {
            flooder
                .knn(&queries[i % queries.len()], k)
                .expect("flood submit")
        })
        .collect();
    assert!(
        burst.len() > DRAIN_BUDGET,
        "the burst must exceed one drain budget to exercise re-pumping"
    );

    // While the flood is in flight, a v1 client completes full round
    // trips; if the reactor drained the flooder's socket to exhaustion
    // before servicing other connections, these would stall behind
    // hundreds of queued executions.
    let mut light = NetClient::connect(addr, Duration::from_secs(5)).expect("light connect");
    for (i, q) in queries.iter().enumerate() {
        assert_eq!(
            light.knn(q, k).expect("light knn"),
            expected[i],
            "query {i}"
        );
    }

    for (i, reply) in burst.into_iter().enumerate() {
        let got = reply.wait_neighbors().expect("flood reply");
        assert_eq!(got, expected[i % expected.len()], "flood query {i}");
    }

    shutdown(addr, handle);
}

/// Deliberate overload through the multi-shard path: the global
/// admission bound sheds with typed `Overloaded` replies, the shed
/// counters attribute every shed to the owning shard, and the
/// connection stays usable.
#[test]
fn multi_shard_epoll_path_sheds_and_attributes_overload() {
    let k = 8;
    let queries = sample_points(2, 8, 79);
    let (tree, _) = tree_with_reference(3_000, &queries, k);
    let options = ServeOptions::default()
        .with_reactors(2)
        .with_executors(1)
        .with_global_depth(1)
        .with_per_conn_depth(64);
    let (addr, handle) = spawn_server(tree, options);

    let mut client = PipelinedClient::connect(addr, Duration::from_secs(5)).expect("connect");
    let (served, shed) = overload_burst(&mut client, &sample_points(2, 512, 83), k, 48);

    // The per-shard counters must account for exactly the sheds this
    // (only) client observed, and the topology must report both shards.
    let metrics = client.submit(&ClientReq::Metrics).expect("submit metrics");
    match metrics.wait().expect("metrics reply") {
        ClientResp::Metrics(m) => {
            assert_eq!(m.reactor_shards, 2, "both reactor shards must report");
            assert_eq!(
                m.shard_shed.iter().sum::<u64>(),
                shed,
                "every shed must be attributed to its owning shard"
            );
            assert!(
                m.shard_served.iter().sum::<u64>() >= served,
                "served counters must cover the completed burst"
            );
        }
        other => panic!("expected Metrics, got {other:?}"),
    }

    shutdown(addr, handle);
}

/// Hostile input on the client port: wrong-dimension and non-finite
/// points (alone or inside a batch) and negative, NaN or infinite radii
/// each come back as a typed `invalid request` error — and none of them
/// reaches a partition actor, whose internal asserts would kill it: after
/// every bad request an insert and a k-NN still succeed and the tree
/// verifies clean.
#[test]
fn hostile_requests_get_typed_errors_and_the_partition_survives() {
    let (tree, _) = tree_with_reference(40, &[], 1);
    let (addr, handle) = spawn_server(tree, ServeOptions::default());
    let mut raw = PipelinedClient::connect(addr, Duration::from_secs(5)).expect("connect");
    let mut client = NetClient::connect(addr, Duration::from_secs(5)).expect("connect");

    let insert = |point: &[f64]| ClientReq::Insert {
        point: point.to_vec(),
        payload: 0,
    };
    let knn = |point: &[f64]| ClientReq::Knn {
        point: point.to_vec(),
        k: 3,
    };
    let range = |point: &[f64], radius| ClientReq::Range {
        point: point.to_vec(),
        radius,
    };
    let hostile = [
        insert(&[1.0, 2.0, 3.0]),
        insert(&[f64::NAN, 2.0]),
        knn(&[1.0]),
        knn(&[f64::INFINITY, 0.0]),
        ClientReq::KnnBatch {
            points: vec![vec![1.0, 2.0], vec![1.0, 2.0, 3.0]],
            k: 3,
        },
        range(&[], 1.0),
        range(&[1.0, 2.0], -1.0),
        range(&[1.0, 2.0], f64::NAN),
        range(&[1.0, 2.0], f64::INFINITY),
    ];
    for (i, req) in hostile.iter().enumerate() {
        match raw.submit(req).expect("submit").wait().expect("reply") {
            ClientResp::Error(msg) => {
                assert!(msg.contains("invalid request"), "{req:?} → {msg}");
            }
            other => panic!("{req:?} must be rejected, got {other:?}"),
        }
        let payload = 1_000 + i as u64;
        let probe = [200.0 + i as f64, 200.0];
        client
            .insert(&probe, payload)
            .expect("insert after a bad request");
        let hits = client.knn(&probe, 1).expect("knn after a bad request");
        assert_eq!(hits, vec![(0.0, payload)], "after {req:?}");
        assert_eq!(
            client.verify().expect("verify"),
            Vec::<String>::new(),
            "after {req:?}"
        );
    }

    shutdown(addr, handle);
}

#[test]
fn metrics_over_the_wire_report_latency_quantiles() {
    let k = 3;
    let queries = sample_points(2, 32, 53);
    let (tree, _) = tree_with_reference(400, &queries, k);
    let (addr, handle) = spawn_server(tree, ServeOptions::default());

    let mut client = PipelinedClient::connect(addr, Duration::from_secs(5)).expect("connect");
    let pending: Vec<_> = queries
        .iter()
        .map(|q| client.knn(q, k).expect("submit"))
        .collect();
    for reply in pending {
        reply.wait_neighbors().expect("knn reply");
    }
    let metrics = client.submit(&ClientReq::Metrics).expect("submit metrics");
    match metrics.wait().expect("metrics reply") {
        ClientResp::Metrics(m) => {
            assert!(
                m.latency_count >= queries.len() as u64,
                "every served request must be recorded, got {}",
                m.latency_count
            );
            assert!(m.p50_nanos > 0, "median latency cannot be zero nanoseconds");
            assert!(m.p99_nanos >= m.p50_nanos, "quantiles must be monotone");
        }
        other => panic!("expected Metrics, got {other:?}"),
    }

    shutdown(addr, handle);
}

/// In-process k-NN as the `(distance, payload)` pairs the wire carries.
fn in_process_knn(tree: &DistSemTree, q: &[f64], k: usize) -> Vec<(f64, u64)> {
    tree.query(Query::knn(q, k))
        .and_then(QueryOutcome::neighbors)
        .expect("in-process knn")
        .into_iter()
        .map(|h| (h.dist, h.payload))
        .collect()
}

fn bits(hits: &[(f64, u64)]) -> Vec<(u64, u64)> {
    hits.iter().map(|&(d, p)| (d.to_bits(), p)).collect()
}

/// What is answered on the reactor shard (`k` up to `INLINE_MAX_K`) and
/// what an executor answers (`k` one above) are both the bytes
/// `DistSemTree::query` gives in-process, on a single-partition tree
/// and on a partitioned one whose reads cross borders in place.
#[test]
fn inline_and_executor_answers_are_the_in_process_bytes() {
    let queries = sample_points(2, 40, 89);
    let points = sample_points(2, 1_200, 11);
    let config = DistConfig::new(2)
        .with_bucket_size(16)
        .with_max_partitions(16);
    for partitions in [1, 4] {
        let tree = if partitions == 1 {
            DistSemTree::single(config.clone(), CostModel::zero())
        } else {
            DistSemTree::with_fanout(
                config.clone(),
                CostModel::zero(),
                partitions,
                &points[..200],
            )
        };
        for (i, p) in points.iter().enumerate() {
            tree.query(Query::insert(p, i as u64)).expect("insert");
        }
        let ks = [1, INLINE_MAX_K, INLINE_MAX_K + 1];
        let expected: Vec<Vec<Vec<(f64, u64)>>> = ks
            .iter()
            .map(|&k| {
                queries
                    .iter()
                    .map(|q| in_process_knn(&tree, q, k))
                    .collect()
            })
            .collect();
        let (addr, handle) = spawn_server(tree, ServeOptions::default());
        let mut client = PipelinedClient::connect(addr, Duration::from_secs(5)).expect("connect");
        for (&k, expected) in ks.iter().zip(&expected) {
            let pending: Vec<_> = queries
                .iter()
                .map(|q| client.knn(q, k).expect("submit"))
                .collect();
            for ((reply, want), q) in pending.into_iter().zip(expected).zip(&queries) {
                let got = reply.wait_neighbors().expect("knn reply");
                assert_eq!(got.len(), k);
                assert_eq!(
                    bits(&got),
                    bits(want),
                    "{partitions} partitions, k {k}, query {q:?}"
                );
            }
        }
        shutdown(addr, handle);
    }
}

/// Which thread answers is decided by what the request says. One
/// connection sends, in a single write, a long batch, a k-NN one above
/// `INLINE_MAX_K`, then k-NNs of `k` ≤ `INLINE_MAX_K` — a wrong-dimension
/// and a NaN one among them. The shard answers the small ones in the
/// turn that admits the batch, so on the wire they all precede the
/// batch's reply, each under its own correlation id, the bad ones as
/// the typed rejection; the larger k-NN, although sent before them,
/// takes the executor hand-off and arrives after them. Every one of
/// them is in the latency histogram and the shard's served count, and
/// the partition outlives the bad input.
#[test]
fn inline_replies_overtake_a_busy_executor_and_are_counted() {
    let k = 4;
    let queries = sample_points(2, 32, 23);
    let (tree, expected) = tree_with_reference(3_000, &queries, k);
    let over = in_process_knn(&tree, &queries[0], INLINE_MAX_K + 1);
    let heavy = sample_points(2, 4_096, 47);
    let options = ServeOptions::default().with_executors(1).with_reactors(1);
    let (addr, handle) = spawn_server(tree, options);

    let mut requests = vec![
        ClientReq::KnnBatch {
            points: heavy.clone(),
            k: 8,
        },
        ClientReq::Knn {
            point: queries[0].clone(),
            k: INLINE_MAX_K + 1,
        },
    ];
    let small = |point: &[f64]| ClientReq::Knn {
        point: point.to_vec(),
        k,
    };
    requests.extend(queries.iter().map(|q| small(q)));
    requests.extend([small(&[1.0]), small(&[f64::NAN, 0.0])]);
    let mut wire = Vec::new();
    for (corr, req) in requests.iter().enumerate() {
        append_frame(&mut wire, Some(corr as u64), &req.to_bytes()).expect("frame");
    }
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    stream.write_all(&wire).expect("send");

    let mut arrival = Vec::new();
    for _ in &requests {
        let payload = read_frame(&mut stream).expect("reply").expect("frame");
        let (corr, body) = split_frame_v2(&payload).expect("v2").expect("correlated");
        let resp: ClientResp = decode_exact(body).expect("decodes");
        match (usize::try_from(corr).expect("corr"), resp) {
            (0, ClientResp::NeighborBatches(batches)) => assert_eq!(batches.len(), heavy.len()),
            (1, ClientResp::Neighbors(got)) => assert_eq!(got, over),
            (i, ClientResp::Neighbors(got)) if i < 2 + queries.len() => {
                assert_eq!(got, expected[i - 2], "query {}", i - 2);
            }
            (i, ClientResp::Error(msg)) if i >= 2 + queries.len() => {
                assert!(msg.contains("invalid request"), "{msg}");
            }
            (i, other) => panic!("request {i}: {other:?}"),
        }
        arrival.push(corr);
    }
    let small_ones: Vec<u64> = (2..requests.len() as u64).collect();
    assert_eq!(
        arrival[..small_ones.len()],
        small_ones,
        "answered in order, on the shard"
    );
    // The k-NN above the bound was sent before all of them and still
    // arrives after: it went through the executor, like the batch.
    let mut executed = arrival[small_ones.len()..].to_vec();
    executed.sort_unstable();
    assert_eq!(executed, [0, 1]);
    drop(stream);

    let mut v1 = NetClient::connect(addr, Duration::from_secs(5)).expect("connect");
    let m = v1.metrics().expect("metrics");
    let sent = requests.len() as u64;
    assert_eq!(m.latency_count, sent, "every request is in the histogram");
    assert_eq!(m.shard_served.iter().sum::<u64>(), sent);
    assert_eq!(m.shard_shed.iter().sum::<u64>(), 0);

    // The partition took no harm from the rejected requests.
    v1.insert(&[500.0, 500.0], 9_999).expect("insert");
    assert_eq!(v1.knn(&[500.0, 500.0], 1).expect("knn"), vec![(0.0, 9_999)]);
    assert_eq!(v1.verify().expect("verify"), Vec::<String>::new());
    shutdown(addr, handle);
}

/// A 4-partition tree served while another client inserts: every k-NN —
/// answered on the shard, or by an executor (`k` above the bound, or the
/// shard's lock-free read gave up) — is the brute-force answer over the
/// inserts acknowledged before it was sent, plus whichever of the
/// inserts in flight meanwhile it happened to see.
#[test]
fn served_knns_beside_an_inserter_match_brute_force_over_the_acknowledged_prefix() {
    let points = sample_points(2, 1_500, 97);
    let queries = sample_points(2, 48, 101);
    let config = DistConfig::new(2)
        .with_bucket_size(8)
        .with_max_partitions(16);
    let tree = DistSemTree::with_fanout(config, CostModel::zero(), 4, &points[..256]);
    assert_eq!(tree.partition_count(), 4);
    let (addr, handle) = spawn_server(tree, ServeOptions::default());

    let dist = |a: &[f64], b: &[f64]| -> f64 {
        let sq: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
        sq.sqrt()
    };
    let acked = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut writer = NetClient::connect(addr, Duration::from_secs(5)).expect("connect");
            for (i, p) in points.iter().enumerate() {
                writer.insert(p, i as u64).expect("insert");
                acked.store(i + 1, Ordering::SeqCst);
            }
        });

        let mut client = PipelinedClient::connect(addr, Duration::from_secs(5)).expect("connect");
        let mut round = 0;
        let mut last = false;
        while !last {
            // One more round once the inserter is done: the full set.
            last = acked.load(Ordering::SeqCst) == points.len();
            let q = &queries[round % queries.len()];
            let k = if round % 3 == 0 { INLINE_MAX_K + 1 } else { 5 };
            round += 1;

            let before = acked.load(Ordering::SeqCst);
            let got = client
                .knn(q, k)
                .and_then(|reply| reply.wait_timeout(Duration::from_secs(30)))
                .expect("knn reply");
            let ClientResp::Neighbors(got) = got else {
                panic!("round {round}: {got:?}");
            };
            // Acknowledged by now, plus the one insert that may be applied
            // and not acknowledged yet.
            let after = (acked.load(Ordering::SeqCst) + 1).min(points.len());

            let mut visible: Vec<usize> = (0..before).collect();
            for &(_, payload) in &got {
                let id = usize::try_from(payload).expect("payload");
                assert!(id < after, "round {round}: point {id} was never inserted");
                if id >= before {
                    visible.push(id);
                }
            }
            let mut brute: Vec<(f64, u64)> = visible
                .iter()
                .map(|&id| (dist(&points[id], q), id as u64))
                .collect();
            brute.sort_by(|a, b| a.0.total_cmp(&b.0));
            brute.truncate(k);
            assert_eq!(
                bits(&got),
                bits(&brute),
                "round {round}: k {k}, {before} acknowledged before, {after} possible after"
            );
        }
        assert!(round > 3, "the reader must overlap the inserter");
    });
    shutdown(addr, handle);
}
