//! Serving-fabric integration: the reactor-backed client port under
//! pipelining, mixed v1/v2 clients, and deliberate overload.
//!
//! A real `DistSemTree` is served over loopback TCP by
//! `serve_clients_with`; clients drive it with the pipelined
//! (correlation-id) protocol and assert answers are byte-identical to
//! querying the tree directly — out-of-order completion must never
//! mis-deliver a reply.

use std::net::TcpListener;
use std::time::Duration;

use semtree_cluster::CostModel;
use semtree_dist::{
    serve_clients_with, ClientReq, ClientResp, DistConfig, DistSemTree, NetClient, PipelinedClient,
    Query, QueryOutcome, ServeOptions,
};
use semtree_integration::sample_points;
use semtree_reactor::DRAIN_BUDGET;

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
    let expected: Vec<Vec<(f64, u64)>> = queries
        .iter()
        .map(|q| {
            tree.query(Query::knn(q, k))
                .and_then(QueryOutcome::neighbors)
                .expect("knn")
                .into_iter()
                .map(|h| (h.dist, h.payload))
                .collect()
        })
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
