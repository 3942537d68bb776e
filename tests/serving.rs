//! Serving-fabric integration: the reactor-backed client port under
//! pipelining, mixed blocking/pipelined clients, hostile bytes, and
//! deliberate overload.
//!
//! A real `DistSemTree` is served over loopback TCP by
//! `serve_clients_with`; clients drive it with the pipelined
//! (correlation-id) protocol and assert answers are byte-identical to
//! querying the tree directly — out-of-order completion must never
//! mis-deliver a reply.

use std::io::{Read, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use proptest::prelude::*;
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

    // A blocking client shares the same port and still agrees.
    let mut blocking = NetClient::connect(addr, Duration::from_secs(5)).expect("connect");
    for (i, q) in queries.iter().take(8).enumerate() {
        assert_eq!(blocking.knn(q, k).expect("blocking knn"), expected[i]);
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

/// A blocking client (one request in flight) and a pipelined one
/// interleaved on the same multi-shard port: responses must route
/// by connection and correlation id, never by arrival order.
#[test]
fn blocking_and_pipelined_clients_interleave_on_a_sharded_epoll_port() {
    let k = 4;
    let queries = sample_points(2, 24, 67);
    let (tree, expected) = tree_with_reference(500, &queries, k);
    let options = ServeOptions::default().with_reactors(2);
    let (addr, handle) = spawn_server(tree, options);

    let mut pipelined = PipelinedClient::connect(addr, Duration::from_secs(5)).expect("connect");
    let mut blocking = NetClient::connect(addr, Duration::from_secs(5)).expect("connect");
    let mut pending = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        // Submit pipelined, then complete a blocking round trip while
        // that request is still in flight, then harvest — every
        // iteration interleaves the two clients in both directions.
        pending.push((i, pipelined.knn(q, k).expect("submit")));
        // Send contract: the submit only queues; flush so the request is
        // on the wire during the blocking round trip.
        pipelined.flush().expect("flush");
        assert_eq!(blocking.knn(q, k).expect("knn"), expected[i], "query {i}");
        if i % 3 == 0 {
            let (j, reply) = pending.remove(0);
            let got = reply.wait_neighbors().expect("pipelined reply");
            assert_eq!(got, expected[j], "pipelined query {j}");
        }
    }
    for (j, reply) in pending {
        let got = reply.wait_neighbors().expect("pipelined reply");
        assert_eq!(got, expected[j], "pipelined query {j}");
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
    // Send contract: submits queue in the client's outbox, and this
    // flood stays under the 64 KiB cap, so it is on the wire only
    // after an explicit flush.
    flooder.flush().expect("flood flush");

    // While the flood is in flight, a blocking client completes full round
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

/// `points` (payload = index) in a tree of `partitions` partitions.
fn partitioned_tree(partitions: usize, points: &[Vec<f64>]) -> DistSemTree {
    let config = DistConfig::new(2)
        .with_bucket_size(16)
        .with_max_partitions(16);
    let tree = if partitions == 1 {
        DistSemTree::single(config, CostModel::zero())
    } else {
        DistSemTree::with_fanout(config, CostModel::zero(), partitions, &points[..200])
    };
    for (i, p) in points.iter().enumerate() {
        tree.query(Query::insert(p, i as u64)).expect("insert");
    }
    tree
}

/// What is answered on the reactor shard (`k` up to `INLINE_MAX_K`) and
/// what an executor answers (`k` one above) are both the bytes
/// `DistSemTree::query` gives in-process, on a single-partition tree
/// and on a partitioned one whose reads cross borders in place.
#[test]
fn inline_and_executor_answers_are_the_in_process_bytes() {
    let queries = sample_points(2, 40, 89);
    let points = sample_points(2, 1_200, 11);
    for partitions in [1, 4] {
        let tree = partitioned_tree(partitions, &points);
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

/// A k-NN of `k = 0` is the empty answer, on the reactor shard and in a
/// batch alike, on one partition and across four — answered without a
/// walk, so it cannot stall the shard that takes it.
#[test]
fn served_knn_of_zero_is_empty() {
    let points = sample_points(2, 600, 11);
    for partitions in [1, 4] {
        let tree = partitioned_tree(partitions, &points);
        assert!(in_process_knn(&tree, &points[0], 0).is_empty());
        let (addr, handle) = spawn_server(tree, ServeOptions::default());
        let mut client = PipelinedClient::connect(addr, Duration::from_secs(5)).expect("connect");
        let lone = client.knn(&points[0], 0).expect("submit");
        assert_eq!(lone.wait().expect("reply"), ClientResp::Neighbors(vec![]));
        let batch = client.knn_batch(&points[..3], 0).expect("submit");
        assert_eq!(
            batch.wait().expect("reply"),
            ClientResp::NeighborBatches(vec![vec![]; 3])
        );
        shutdown(addr, handle);
    }
}

/// Which thread answers is decided by what the request says. One
/// connection sends, in a single write, a long batch, a k-NN one above
/// `INLINE_MAX_K`, then k-NNs of `k` ≤ `INLINE_MAX_K` — a wrong-dimension
/// and a NaN one among them. The shard answers the small ones inline,
/// in send order, each under its own correlation id, the bad ones as
/// the typed rejection; the batch and the larger k-NN take the executor
/// hand-off. Where those two replies land is not asserted: how the
/// shard's reads split the burst decides where they fall among the
/// inline ones, and the executor answers the k-NN itself (a lock-free
/// read) while the batch waits for the root partition's actor, so
/// either may come first. Every reply is in the latency histogram and
/// the shard's served count, and the partition outlives the bad input.
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
        append_frame(&mut wire, corr as u64, &req.to_bytes()).expect("frame");
    }
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    stream.write_all(&wire).expect("send");

    let mut arrival = Vec::new();
    for _ in &requests {
        let payload = read_frame(&mut stream).expect("reply").expect("frame");
        let (corr, body) = split_frame_v2(&payload).expect("correlated");
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
    let inline: Vec<u64> = arrival.iter().copied().filter(|&corr| corr >= 2).collect();
    let small_ones: Vec<u64> = (2..requests.len() as u64).collect();
    assert_eq!(inline, small_ones, "answered in order, on the shard");
    let mut executed: Vec<u64> = arrival.iter().copied().filter(|&corr| corr < 2).collect();
    executed.sort_unstable();
    assert_eq!(executed, [0, 1], "each executed request answered once");
    drop(stream);

    let mut client = NetClient::connect(addr, Duration::from_secs(5)).expect("connect");
    let m = client.metrics().expect("metrics");
    let sent = requests.len() as u64;
    assert_eq!(m.latency_count, sent, "every request is in the histogram");
    assert_eq!(m.shard_served.iter().sum::<u64>(), sent);
    assert_eq!(m.shard_shed.iter().sum::<u64>(), 0);

    // The partition took no harm from the rejected requests.
    client.insert(&[500.0, 500.0], 9_999).expect("insert");
    assert_eq!(
        client.knn(&[500.0, 500.0], 1).expect("knn"),
        vec![(0.0, 9_999)]
    );
    assert_eq!(client.verify().expect("verify"), Vec::<String>::new());
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

/// What `NetClient`'s typed method for `req` answers, as the reply it
/// unwrapped.
fn via_blocking(client: &mut NetClient, req: &ClientReq) -> ClientResp {
    let reply = match req {
        ClientReq::Insert { point, payload } => {
            client.insert(point, *payload).map(|()| ClientResp::Done)
        }
        ClientReq::Knn { point, k } => client.knn(point, *k).map(ClientResp::Neighbors),
        ClientReq::Range { point, radius } => {
            client.range(point, *radius).map(ClientResp::Neighbors)
        }
        ClientReq::KnnBatch { points, k } => client
            .knn_batch(points, *k)
            .map(ClientResp::NeighborBatches),
        ClientReq::Stats => client.stats().map(ClientResp::Stats),
        ClientReq::Verify => client.verify().map(ClientResp::Violations),
        other => panic!("{other:?} is not part of this comparison"),
    };
    reply.expect("blocking reply")
}

/// Every `NetClient` method is the pipelined submission plus a wait:
/// its answer equals the `PipelinedClient` reply to the same request and
/// what the tree answers in-process, on a single-partition tree and on
/// a partitioned one.
#[test]
fn blocking_client_answers_equal_pipelined_and_in_process() {
    let points = sample_points(2, 600, 11);
    let queries = sample_points(2, 12, 97);
    let (k, radius) = (5, 40.0);
    for partitions in [1, 4] {
        let tree = partitioned_tree(partitions, &points);
        let knn: Vec<_> = queries
            .iter()
            .map(|q| in_process_knn(&tree, q, k))
            .collect();
        let mut cases = vec![
            (
                ClientReq::KnnBatch {
                    points: queries.clone(),
                    k,
                },
                ClientResp::NeighborBatches(knn.clone()),
            ),
            (
                ClientReq::Stats,
                ClientResp::Stats(tree.try_global_stats().expect("stats").partitions),
            ),
            (ClientReq::Verify, ClientResp::Violations(tree.verify())),
        ];
        for (q, hits) in queries.iter().zip(knn) {
            let point = q.clone();
            cases.push((ClientReq::Knn { point, k }, ClientResp::Neighbors(hits)));
            let in_range = tree
                .query(Query::range(q, radius))
                .and_then(QueryOutcome::neighbors)
                .expect("in-process range");
            let hits = in_range.into_iter().map(|h| (h.dist, h.payload)).collect();
            let point = q.clone();
            cases.push((
                ClientReq::Range { point, radius },
                ClientResp::Neighbors(hits),
            ));
        }
        // Last, a write (each client makes it once) and a read that sees it.
        let point = vec![900.0, 900.0];
        let payload = 70_000;
        cases.push((
            ClientReq::Insert {
                point: point.clone(),
                payload,
            },
            ClientResp::Done,
        ));
        cases.push((
            ClientReq::Knn { point, k: 2 },
            ClientResp::Neighbors(vec![(0.0, payload); 2]),
        ));

        let (addr, handle) = spawn_server(tree, ServeOptions::default());
        let mut blocking = NetClient::connect(addr, Duration::from_secs(5)).expect("connect");
        let mut pipelined =
            PipelinedClient::connect(addr, Duration::from_secs(5)).expect("connect");
        for (req, expected) in &cases {
            let piped = pipelined.submit(req).expect("submit").wait();
            assert_eq!(&piped.expect("reply"), expected, "{partitions}: {req:?}");
            assert_eq!(
                &via_blocking(&mut blocking, req),
                expected,
                "{partitions}: {req:?}"
            );
        }
        // Asking moves the latency count; the traffic counters it does not.
        let got = blocking.metrics().expect("metrics");
        let piped = pipelined
            .submit(&ClientReq::Metrics)
            .expect("submit")
            .wait();
        match piped.expect("reply") {
            ClientResp::Metrics(m) => {
                assert_eq!((m.messages, m.bytes), (got.messages, got.bytes));
                assert_eq!(m.latency_count, got.latency_count + 1);
            }
            other => panic!("expected Metrics, got {other:?}"),
        }
        shutdown(addr, handle);
    }
}

/// What a hostile or broken client may put on the client port.
#[derive(Debug, Clone)]
enum Hostile {
    /// A well-formed request framed without the v2 header — what a v1
    /// client sent, and was answered, before the port spoke one
    /// generation.
    BareV1,
    /// A frame whose payload starts like a v2 header and stops short.
    TruncatedHeader(usize),
    /// A length prefix past the frame cap, nothing behind it.
    Oversized(u32),
    /// Bytes, then EOF (they may promise a frame they never finish). The
    /// first payload byte is never the v2 magic, so no run of them
    /// spells a request.
    Random(Vec<u8>),
}

impl Hostile {
    fn wire(&self) -> Vec<u8> {
        let framed = |payload: &[u8]| {
            let mut wire = Vec::new();
            semtree_net::write_frame(&mut wire, payload).expect("frame");
            wire
        };
        match self {
            Hostile::BareV1 => framed(&ClientReq::Stats.to_bytes()),
            Hostile::TruncatedHeader(len) => framed(&semtree_net::encode_frame_v2(7, b"")[..*len]),
            Hostile::Oversized(len) => len.to_be_bytes().to_vec(),
            Hostile::Random(bytes) => {
                let mut bytes = bytes.clone();
                if bytes.get(4) == Some(&semtree_net::FRAME_V2) {
                    bytes[4] = 0;
                }
                bytes
            }
        }
    }
}

fn hostile() -> impl Strategy<Value = Hostile> {
    let cap = u32::try_from(semtree_net::MAX_FRAME_LEN).expect("cap fits");
    prop_oneof![
        Just(Hostile::BareV1),
        (1usize..semtree_net::FRAME_V2_HEADER_LEN).prop_map(Hostile::TruncatedHeader),
        (1u32..1_000_000).prop_map(move |past| Hostile::Oversized(cap + past)),
        prop::collection::vec(0u8..=255u8, 0..200).prop_map(Hostile::Random),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The frame-level contract of the client port: a payload that is
    /// not a v2 frame desynchronises the stream, so that connection is
    /// closed without a reply — and nothing else happens: no panic, no
    /// shed, and a well-behaved connection open all along keeps being
    /// answered.
    #[test]
    fn hostile_streams_are_closed_unanswered_and_harm_nobody(
        streams in prop::collection::vec(hostile(), 1..8),
    ) {
        let queries = sample_points(2, 8, 31);
        let (tree, expected) = tree_with_reference(120, &queries, 3);
        let (addr, handle) = spawn_server(tree, ServeOptions::default());
        let mut bystander = NetClient::connect(addr, Duration::from_secs(5)).expect("connect");
        for (stream, (q, want)) in streams.iter().zip(queries.iter().zip(&expected).cycle()) {
            let mut socket = std::net::TcpStream::connect(addr).expect("connect");
            socket.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
            socket.write_all(&stream.wire()).expect("send");
            if matches!(stream, Hostile::Random(_)) {
                socket.shutdown(std::net::Shutdown::Write).expect("half-close");
            }
            let mut replied = Vec::new();
            // Closed by FIN or, had bytes been left unread, by RST — but
            // closed: the read must not sit out its timeout.
            let closed = match socket.read_to_end(&mut replied) {
                Err(e) => e.kind() == std::io::ErrorKind::ConnectionReset,
                Ok(_) => true,
            };
            prop_assert!(closed, "{stream:?}: still open");
            prop_assert!(replied.is_empty(), "{stream:?}: answered with {replied:?}");
            prop_assert_eq!(&bystander.knn(q, 3).expect("bystander"), want);
        }
        let m = bystander.metrics().expect("metrics");
        prop_assert_eq!(m.shard_shed.iter().sum::<u64>(), 0);
        prop_assert_eq!(m.latency_count, streams.len() as u64, "only the bystander was served");
        shutdown(addr, handle);
    }
}
