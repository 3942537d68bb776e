//! Transport parity: the same distributed tree built over the in-process
//! channel fabric and over loopback TCP (three `NetFabric`s in one
//! process) must answer every query identically.

use std::time::Duration;

use semtree_cluster::{ComputeNodeId, CostModel, Transport};
use semtree_dist::{
    build_tree, join_cluster, serve_cluster, CapacityPolicy, DistConfig, DistSemTree, Neighbor,
    Query, QueryOutcome,
};
use semtree_integration::sample_points;

fn insert(tree: &DistSemTree, point: &[f64], payload: u64) {
    tree.query(Query::insert(point, payload))
        .and_then(QueryOutcome::inserted)
        .expect("insert");
}

/// A k-NN or range query's hits as `(distance, payload)` pairs.
fn pairs(tree: &DistSemTree, query: Query) -> Vec<(f64, u64)> {
    tree.query(query)
        .and_then(QueryOutcome::neighbors)
        .expect("read query")
        .into_iter()
        .map(|n: Neighbor<u64>| (n.dist, n.payload))
        .collect()
}

#[test]
fn channel_and_tcp_fabrics_agree_on_every_query() {
    let dims = 2;
    let config = DistConfig::new(dims)
        .with_bucket_size(8)
        .with_max_partitions(16)
        .with_capacity(CapacityPolicy::MaxPoints(120));
    let sample = sample_points(dims, 64, 3);
    let points = sample_points(dims, 250, 77);

    // TCP deployment: a coordinator fabric plus two "worker processes"
    // living in this same test process, joined over 127.0.0.1.
    let fabric = serve_cluster("127.0.0.1:0".parse().unwrap(), &config, CostModel::zero())
        .expect("coordinator");
    let workers: Vec<_> = (0..2)
        .map(|_| {
            join_cluster(
                fabric.listen_addr(),
                CostModel::zero(),
                Duration::from_secs(10),
                None,
            )
            .expect("worker join")
        })
        .collect();
    fabric
        .wait_for_workers(2, Duration::from_secs(10))
        .expect("workers joined");
    let tcp_tree = build_tree(&fabric, config.clone(), 3, &sample, None).expect("tcp tree");

    // The in-process reference over the default channel fabric.
    let channel_tree = DistSemTree::with_fanout(config, CostModel::zero(), 3, &sample);

    for (payload, point) in points.iter().enumerate() {
        insert(&tcp_tree, point, payload as u64);
        insert(&channel_tree, point, payload as u64);
    }

    for query in points.iter().step_by(17) {
        for q in [Query::knn(query, 9), Query::range(query, 12.5)] {
            let (tcp, channel) = (pairs(&tcp_tree, q.clone()), pairs(&channel_tree, q.clone()));
            assert_eq!(tcp, channel, "{q:?}");
        }
    }

    // A batched k-NN over TCP answers exactly like per-query k-NN over
    // the channel fabric — the batch path changes round trips, not
    // results.
    let batch_queries: Vec<Vec<f64>> = points.iter().step_by(17).cloned().collect();
    let batches = tcp_tree
        .query(Query::knn_batch(&batch_queries, 9))
        .and_then(QueryOutcome::neighbor_batches)
        .expect("batched knn");
    assert_eq!(batches.len(), batch_queries.len());
    for (query, batch) in batch_queries.iter().zip(&batches) {
        let channel = pairs(&channel_tree, Query::knn(query, 9));
        let tcp: Vec<(f64, u64)> = batch.iter().map(|n| (n.dist, n.payload)).collect();
        assert_eq!(tcp, channel, "knn batch around {query:?}");
    }

    // Point conservation holds on both sides, and the capacity policy
    // forced build-partition over the wire (partitions beyond the fan-out).
    assert_eq!(tcp_tree.verify(), Vec::<String>::new());
    assert_eq!(channel_tree.verify(), Vec::<String>::new());
    let tcp_stats = tcp_tree.try_global_stats().expect("stats");
    let channel_stats = channel_tree.try_global_stats().expect("stats");
    assert_eq!(tcp_stats.total_points(), points.len());
    assert_eq!(
        tcp_stats.partition_count(),
        channel_stats.partition_count(),
        "build-partition must fire identically on both transports"
    );
    assert!(tcp_stats.partition_count() > 3, "capacity policy fired");

    // TCP metrics account real encoded frame bytes.
    let metrics = fabric.local_fabric().metrics();
    assert!(metrics.messages > 0);
    assert!(metrics.bytes > 0);

    // Coordinator-initiated shutdown reaches the worker fabrics.
    let waiters: Vec<_> = workers
        .into_iter()
        .map(|w| std::thread::spawn(move || w.run_until_shutdown()))
        .collect();
    tcp_tree.shutdown();
    for w in waiters {
        w.join().expect("worker shut down cleanly");
    }
    channel_tree.shutdown();
}

/// `submit_query` dispatched and waited for: the pipelined entry point
/// driven like the blocking one.
fn submit_and_wait(
    tree: &DistSemTree,
    query: Query,
) -> Result<QueryOutcome, semtree_cluster::ClusterError> {
    let (tx, rx) = std::sync::mpsc::channel();
    tree.submit_query(
        query,
        Box::new(move |outcome| tx.send(outcome).expect("receiver alive")),
    );
    rx.recv_timeout(Duration::from_secs(10))
        .expect("submit_query completes exactly once")
}

/// The blocking and pipelined entry points share one request lowering:
/// for every query kind, on a tree answered by the lock-free read path
/// (1 partition) and on one answered through actor mailboxes (4), both
/// return the same outcome — values, order, and error alike.
#[test]
fn query_and_submit_query_agree_on_every_kind() {
    let dims = 2;
    let sample = sample_points(dims, 64, 5);
    let points = sample_points(dims, 200, 91);
    for partitions in [1usize, 4] {
        let config = DistConfig::new(dims)
            .with_bucket_size(8)
            .with_max_partitions(8);
        let tree = DistSemTree::with_fanout(config, CostModel::zero(), partitions, &sample);

        // Insert: half through each entry point, both acknowledge alike
        // and both count.
        for (payload, point) in points.iter().enumerate() {
            let q = Query::insert(point, payload as u64);
            let outcome = if payload % 2 == 0 {
                tree.query(q)
            } else {
                submit_and_wait(&tree, q)
            };
            assert_eq!(outcome, Ok(QueryOutcome::Inserted), "M={partitions}");
        }
        assert_eq!(tree.len(), points.len(), "M={partitions}");

        let probes: Vec<Vec<f64>> = points.iter().step_by(23).cloned().collect();
        let mut reads: Vec<Query> = vec![Query::knn_batch(&probes, 7), Query::knn_batch(&[], 7)];
        for probe in &probes {
            reads.push(Query::knn(probe, 7));
            reads.push(Query::range(probe, 15.0));
            reads.push(Query::range(probe, 0.0));
        }
        // A rejected query takes the same (validation) exit on both.
        reads.push(Query::knn(&[1.0], 7));
        for q in reads {
            let blocking = tree.query(q.clone());
            let pipelined = submit_and_wait(&tree, q.clone());
            assert_eq!(blocking, pipelined, "M={partitions}: {q:?}");
        }

        assert_eq!(tree.verify(), Vec::<String>::new(), "M={partitions}");
        tree.shutdown();
    }
}

/// The paper's crossing message (§III-B.3), across processes: a read
/// walks the root partition where it lives, on the coordinator, and sends
/// every worker partition it enters one sub-walk — a request frame and
/// its reply, two coordinator messages — and nothing to the root
/// partition's actor. A k = 1 k-NN that stays inside one worker
/// partition costs 2; a range that enters both workers at the root's
/// border node costs 4.
#[test]
fn reads_send_one_sub_walk_per_worker_partition_entered() {
    let dims = 2;
    let config = DistConfig::new(dims)
        .with_bucket_size(8)
        .with_max_partitions(16);
    let sample = sample_points(dims, 64, 3);
    let points = sample_points(dims, 250, 77);
    let fabric = serve_cluster("127.0.0.1:0".parse().unwrap(), &config, CostModel::zero())
        .expect("coordinator");
    let workers: Vec<_> = (0..2)
        .map(|_| {
            join_cluster(
                fabric.listen_addr(),
                CostModel::zero(),
                Duration::from_secs(10),
                None,
            )
            .expect("worker join")
        })
        .collect();
    fabric
        .wait_for_workers(2, Duration::from_secs(10))
        .expect("workers joined");
    let tree = build_tree(&fabric, config, 3, &sample, None).expect("tcp tree");
    for (payload, point) in points.iter().enumerate() {
        insert(&tree, point, payload as u64);
    }
    // The root partition on the coordinator, each data partition on a
    // worker of its own.
    let stats = tree.try_global_stats().expect("stats");
    let mut processes: Vec<u32> = stats
        .partitions
        .iter()
        .map(|&(id, _)| ComputeNodeId(id).process())
        .collect();
    processes[1..].sort_unstable();
    assert_eq!(processes, [0, 1, 2]);

    // At a stored point the nearest hit is at distance 0, which prunes
    // every other partition.
    let before = tree.metrics().messages;
    for point in points.iter().take(50) {
        assert_eq!(pairs(&tree, Query::knn(point, 1))[0].0, 0.0, "{point:?}");
    }
    assert_eq!(tree.metrics().messages - before, 2 * 50, "k-NN");

    let before = tree.metrics().messages;
    let everything = pairs(&tree, Query::range(&[50.0, 50.0], 200.0));
    assert_eq!(everything.len(), points.len());
    assert_eq!(tree.metrics().messages - before, 4, "range");

    let waiters: Vec<_> = workers
        .into_iter()
        .map(|w| std::thread::spawn(move || w.run_until_shutdown()))
        .collect();
    tree.shutdown();
    for w in waiters {
        w.join().expect("worker shut down cleanly");
    }
}
