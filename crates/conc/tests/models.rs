//! Model suite: exhaustively explores the workspace's
//! concurrency-critical units under the deterministic scheduler.
//!
//! Runs as a plain binary (`harness = false`) so it can take flags:
//!
//! ```text
//! cargo test -p semtree-conc --test models                      # all targets
//! cargo test -p semtree-conc --test models -- --target gate_handshake
//! cargo test -p semtree-conc --test models -- --target gate_handshake --replay d1,0,2
//! cargo test -p semtree-conc --test models -- --iters 500       # random rounds
//! cargo test -p semtree-conc --test models -- --list
//! ```
//!
//! Every failure prints a seed; `--replay <seed>` re-runs that exact
//! schedule. `SEMTREE_MODEL_SEED` fixes the base seed of the random
//! supplement (echoed on every run, so CI logs are reproducible).

use std::process::ExitCode;
use std::sync::Arc;

use semtree_cluster::{ClusterMetricsG, MembershipGate};
use semtree_conc::explore::{explore, explore_random, replay, Options};
use semtree_conc::model::ModelShim;
use semtree_conc::shim::Shim;
use semtree_distance::MemoizedDistance;
use semtree_kdtree::versioned::{Child, InPlace, NeedsMailbox, Tree, TreeWriter};
use semtree_kdtree::{KdConfig, VersionedKdTree};
use semtree_net::ConnRegistry;
use semtree_reactor::{Push, ServeQueue};

/// Acceptance floor: every target must explore at least this many
/// distinct interleavings.
const MIN_INTERLEAVINGS: usize = 1_000;
/// DFS bound per target (trees here are far larger; the bound keeps the
/// suite's wall-clock sane while staying well above the floor).
const MAX_INTERLEAVINGS: usize = 3_000;
/// Default rounds for the seeded-random supplement sweep.
const DEFAULT_RANDOM_ITERS: usize = 200;

struct Target {
    name: &'static str,
    what: &'static str,
    body: fn(),
    /// Spurious-wakeup injections allowed per execution (only matters
    /// for condvar targets).
    spurious_budget: u32,
}

const TARGETS: &[Target] = &[
    Target {
        name: "gate_handshake",
        what: "MembershipGate wait_until/notify: no lost wakeup, no hang, spurious-safe",
        body: gate_handshake,
        spurious_budget: 1,
    },
    Target {
        name: "metrics_aggregation",
        what: "ClusterMetricsG concurrent record/snapshot: totals exact, snapshots sane",
        body: metrics_aggregation,
        spurious_budget: 0,
    },
    Target {
        name: "mesh_connect_race",
        what: "ConnRegistry rejoin vs stale-reader eviction: fresh connection never dropped",
        body: mesh_connect_race,
        spurious_budget: 0,
    },
    Target {
        name: "memo_shard_race",
        what: "Sharded MemoizedDistance: racing readers agree, symmetric pairs share one entry",
        body: memo_shard_race,
        spurious_budget: 0,
    },
    Target {
        name: "kdtree_read_split",
        what: "Versioned KD-tree optimistic knn vs insert/split: every validated read equals the prefix its version names",
        body: kdtree_read_split,
        spurious_budget: 0,
    },
    Target {
        name: "kdtree_read_duplicate_split",
        what: "Versioned KD-tree optimistic knn vs copies that leave a leaf over-full, then a point that splits it from one read of its chained bucket: every validated read equals the prefix its version names",
        body: kdtree_read_duplicate_split,
        spurious_budget: 0,
    },
    Target {
        name: "kdtree_read_widen",
        what: "Versioned KD-tree optimistic knn vs an insert that widens a leaf's box: a read the old box prunes still equals the prefix its version names",
        body: kdtree_read_widen,
        spurious_budget: 0,
    },
    Target {
        name: "kdtree_read_widen_up",
        what: "Versioned KD-tree optimistic knn vs inserts that widen a routing node's box: a read the old subtree box prunes still equals the prefix its version names",
        body: kdtree_read_widen_up,
        spurious_budget: 0,
    },
    Target {
        name: "partition_read_relink",
        what: "Partition tree optimistic knn vs build-partition relink: the whole pre-relink answer or needs-the-mailbox, never a read missing the evicted leaf",
        body: partition_read_relink,
        spurious_budget: 0,
    },
    Target {
        name: "cross_partition_read_migration",
        what: "In-place crossing vs build-partition into a registered tree: a validated answer is the whole point set through the old leaf or through the new partition, never its pre-adoption tree",
        body: cross_partition_read_migration,
        spurious_budget: 0,
    },
    Target {
        name: "reactor_queue_close",
        what: "ServeQueue admit/complete vs connection close: slots released exactly once, no underflow",
        body: reactor_queue_close,
        spurious_budget: 1,
    },
    Target {
        name: "reactor_shard_wake",
        what: "Shard inbox handoff under coalescing wakes: no socket stranded, no lost wakeup",
        body: reactor_shard_wake,
        spurious_budget: 1,
    },
    Target {
        name: "pipelined_worker_hop",
        what: "ReplyToken executor→demux hop: every slot released exactly once, completions precede their wake",
        body: pipelined_worker_hop,
        spurious_budget: 1,
    },
];

// ---------------------------------------------------------------------
// Target 1: the membership gate's condvar handshake.
// ---------------------------------------------------------------------

/// A waiter blocks on "2 peers joined"; two joiners each bump the count
/// and notify. No interleaving — including spurious wakeups and timeout
/// firings — may lose the wakeup: whenever the wait returns `Ok`, both
/// joins must be visible, and an `Err` is only legal via the explicit
/// logical-timeout choice (never a hang, never a missed notify).
fn gate_handshake() {
    let gate = Arc::new(MembershipGate::<ModelShim>::new());
    let peers = Arc::new(ModelShim::atomic_u64(0));

    let mut joiners = Vec::new();
    for _ in 0..2 {
        let gate = Arc::clone(&gate);
        let peers = Arc::clone(&peers);
        joiners.push(ModelShim::spawn(move || {
            ModelShim::fetch_add(&peers, 1);
            gate.notify();
        }));
    }

    let waiter = {
        let gate = Arc::clone(&gate);
        let peers = Arc::clone(&peers);
        ModelShim::spawn(move || gate.wait_until(1_000_000, || ModelShim::load(&peers) >= 2))
    };

    for j in joiners {
        ModelShim::join(j);
    }
    let outcome = ModelShim::join(waiter);
    if outcome.is_ok() {
        assert_eq!(
            ModelShim::load(&peers),
            2,
            "gate reported ready before both joins landed"
        );
    }
    // An Err outcome means the scheduler chose to fire the logical
    // deadline while peers < 2 — a legal schedule. The predicate
    // re-check inside wait_until makes a *false* timeout (erroring when
    // the condition already held) impossible; gate unit tests cover the
    // sequential form of that guarantee.
}

// ---------------------------------------------------------------------
// Target 2: metrics counter aggregation.
// ---------------------------------------------------------------------

/// Two recorders and a snapshotting reader race; after joining, totals
/// must be exact, and every mid-flight snapshot must stay within the
/// envelope the per-field counters allow.
fn metrics_aggregation() {
    let metrics = Arc::new(ClusterMetricsG::<ModelShim>::new_in());

    let writers: Vec<_> = [(100usize, 5u64), (50, 10)]
        .into_iter()
        .map(|(bytes, delay)| {
            let metrics = Arc::clone(&metrics);
            ModelShim::spawn(move || {
                metrics.record_message(bytes, delay);
                metrics.record_response_bytes(bytes / 2);
            })
        })
        .collect();

    let reader = {
        let metrics = Arc::clone(&metrics);
        ModelShim::spawn(move || {
            let snap = metrics.snapshot();
            // Counters only grow; a snapshot can never exceed the final
            // totals.
            assert!(snap.messages <= 2, "impossible message count");
            assert!(snap.bytes <= 150, "impossible byte count");
            assert!(snap.response_bytes <= 75, "impossible response bytes");
            assert!(snap.simulated_delay_nanos <= 15, "impossible delay");
        })
    };

    for w in writers {
        ModelShim::join(w);
    }
    ModelShim::join(reader);

    let total = metrics.snapshot();
    assert_eq!(total.messages, 2, "a recorded message was lost");
    assert_eq!(total.bytes, 150, "recorded bytes were lost");
    assert_eq!(total.response_bytes, 75, "response bytes were lost");
    assert_eq!(total.simulated_delay_nanos, 15, "delay accounting lost");
}

// ---------------------------------------------------------------------
// Target 3: the peer-mesh connection registry.
// ---------------------------------------------------------------------

/// A rejoin replaces peer 7's connection while the stale reader (still
/// draining the old one) races to evict, and a broadcaster snapshots.
/// The fresh connection must survive every interleaving.
fn mesh_connect_race() {
    let registry: Arc<ConnRegistry<Arc<u32>, ModelShim>> = Arc::new(ConnRegistry::new());
    let old = Arc::new(1u32);
    let fresh = Arc::new(2u32);
    registry.insert(7, Arc::clone(&old));

    let rejoin = {
        let registry = Arc::clone(&registry);
        let fresh = Arc::clone(&fresh);
        ModelShim::spawn(move || {
            // The readmit path: drop the dead incarnation, install the
            // replacement.
            registry.remove(7);
            registry.insert(7, fresh);
        })
    };
    let stale_reader = {
        let registry = Arc::clone(&registry);
        let old = Arc::clone(&old);
        ModelShim::spawn(move || {
            // The dying read_loop: evict only our own connection.
            registry.evict_if(7, |c| Arc::ptr_eq(c, &old))
        })
    };
    let broadcaster = {
        let registry = Arc::clone(&registry);
        ModelShim::spawn(move || {
            // Snapshot for a broadcast; at most one connection to peer 7
            // exists at any instant.
            assert!(registry.values().len() <= 1, "duplicate peer connection");
            registry.len()
        })
    };

    ModelShim::join(rejoin);
    let evicted_old = ModelShim::join(stale_reader);
    ModelShim::join(broadcaster);

    // The identity re-check inside evict_if makes this unconditional:
    // whatever the interleaving, the stale reader can only have removed
    // the OLD connection, so the rejoin's fresh one is still installed.
    let current = registry.get(7).expect("fresh connection was evicted");
    assert!(
        Arc::ptr_eq(&current, &fresh),
        "stale reader evicted the rejoin's replacement (evicted_old={evicted_old})"
    );
}

// ---------------------------------------------------------------------
// Target 6: the lock-sharded distance cache.
// ---------------------------------------------------------------------

/// Three readers race the same sharded cache, two of them asking for
/// the same pair in opposite argument orders. Every interleaving must
/// return the inner function's value, collapse the symmetric pair to a
/// single cache entry, and leave the shards consistent for later reads
/// — the benign compute-twice race may never produce two entries or a
/// wrong value.
fn memo_shard_race() {
    let memo = Arc::new(MemoizedDistance::<_, ModelShim>::new_in(
        |i: usize, j: usize| (i.min(j) * 10 + i.max(j)) as f64,
        1, // two shards, so racing pairs can land on the same lock
    ));

    let workers: Vec<_> = [(0usize, 1usize), (1, 0), (0, 2)]
        .into_iter()
        .map(|(i, j)| {
            let memo = Arc::clone(&memo);
            ModelShim::spawn(move || memo.distance(i, j))
        })
        .collect();
    let vals: Vec<f64> = workers.into_iter().map(ModelShim::join).collect();

    assert_eq!(vals[0], 1.0, "distance(0,1)");
    assert_eq!(vals[1], 1.0, "distance(1,0) must agree with distance(0,1)");
    assert_eq!(vals[2], 2.0, "distance(0,2)");
    // The two argument orders of the racing pair share one key.
    assert_eq!(memo.cached_pairs(), 2, "symmetric pair cached twice");
    assert_eq!(memo.distance(0, 1), 1.0, "cache left inconsistent");
    assert_eq!(memo.shard_count(), 2);
}

// ---------------------------------------------------------------------
// Target 7: the reactor's bounded admission queue.
// ---------------------------------------------------------------------

/// Two connections race a one-slot global queue against a single
/// executor, and each connection closes while its jobs may still be in
/// flight — the queue-full / connection-close race from the serving
/// fabric. No interleaving may release a slot twice (underflow), leak
/// one (global count must drain to zero), or lose track of a push
/// (granted + shed covers every attempt).
fn reactor_queue_close() {
    let queue: Arc<ServeQueue<u32, ModelShim>> = Arc::new(ServeQueue::new(1));
    let granted = Arc::new(ModelShim::atomic_u64(0));

    let producers: Vec<_> = [7u64, 8]
        .into_iter()
        .map(|conn| {
            let queue = Arc::clone(&queue);
            let granted = Arc::clone(&granted);
            ModelShim::spawn(move || {
                let mut shed = 0u64;
                for job in 0..2u32 {
                    match queue.push(conn, job) {
                        Push::Granted => {
                            ModelShim::fetch_add(&granted, 1);
                        }
                        Push::GlobalFull => shed += 1,
                        Push::Closed => panic!("queue closed while still serving"),
                    }
                }
                // The connection goes away with its jobs possibly still
                // queued or executing.
                queue.close_conn(conn);
                shed
            })
        })
        .collect();

    let executor = {
        let queue = Arc::clone(&queue);
        ModelShim::spawn(move || {
            let mut completed = 0u64;
            while let Some((conn, _job)) = queue.pop() {
                // Completion may land before or after close_conn; the
                // global slot must be released exactly once either way.
                queue.complete(conn);
                completed += 1;
            }
            completed
        })
    };

    let shed: u64 = producers.into_iter().map(ModelShim::join).sum();
    queue.shutdown();
    let completed = ModelShim::join(executor);

    assert!(!queue.underflowed(), "a slot release underflowed");
    assert_eq!(
        queue.global_in_flight(),
        0,
        "admitted slots failed to drain"
    );
    assert_eq!(
        ModelShim::load(&granted),
        completed,
        "every granted job must complete exactly once"
    );
    assert_eq!(
        ModelShim::load(&granted) + shed,
        4,
        "every push attempt must be either granted or shed"
    );
    assert_eq!(queue.conn_in_flight(7), 0, "closed conn 7 kept accounting");
    assert_eq!(queue.conn_in_flight(8), 0, "closed conn 8 kept accounting");
}

// ---------------------------------------------------------------------
// Target 8: the versioned KD-tree's optimistic read vs insert/split.
// ---------------------------------------------------------------------

/// One writer inserts three 1-D points into a `bucket_size = 1` tree
/// (the second and third inserts split leaves copy-on-write) while a
/// reader runs a bounded optimistic 2-NN. The seqlock names the state:
/// a read validated at version `2n` must return exactly the answer for
/// the n-insert prefix — never a torn split, never a missing committed
/// point, never a phantom. The expected answers are precomputed
/// constants so the reference adds no schedule points of its own.
fn kdtree_read_split() {
    // Inserts, in order: 2.0 → payload 0, 0.0 → payload 1, 3.0 → 2.
    // 2-NN of query 3.1, by prefix length (payloads, nearest first):
    const EXPECTED: [&[u64]; 4] = [&[], &[0], &[0, 1], &[2, 0]];

    let mut tree = VersionedKdTree::<ModelShim>::new(KdConfig::new(1).with_bucket_size(1));
    let reader = tree.reader();

    let writer = ModelShim::spawn(move || {
        assert!(tree.insert(&[2.0], 0), "arena cannot exhaust here");
        assert!(tree.insert(&[0.0], 1), "arena cannot exhaust here");
        assert!(tree.insert(&[3.0], 2), "arena cannot exhaust here");
        tree
    });

    let observer = {
        let reader = reader.clone();
        ModelShim::spawn(move || {
            // Bounded retries: an unbounded seqlock retry loop would be
            // an unbounded schedule for the explorer. Exhaustion just
            // means every attempt raced the writer — a legal outcome.
            if let Some((hits, stats)) = reader.knn_bounded(&[3.1], 2, 4) {
                assert_eq!(stats.version % 2, 0, "validated against an odd version");
                let prefix = usize::try_from(stats.version / 2).unwrap_or(usize::MAX);
                assert!(
                    prefix <= 3,
                    "version {} names a phantom prefix",
                    stats.version
                );
                let got: Vec<u64> = hits.iter().map(|h| h.payload).collect();
                assert_eq!(
                    got, EXPECTED[prefix],
                    "read validated at version {} must equal its prefix",
                    stats.version
                );
            }
        })
    };

    let tree = ModelShim::join(writer);
    ModelShim::join(observer);

    // Quiescent read: all writes joined, so the first attempt validates
    // and must see the full 3-insert state.
    let (hits, stats) = reader.knn(&[3.1], 2);
    assert_eq!(stats.retries, 0, "no writer left to race");
    assert_eq!(stats.version, 6, "three inserts, one transaction each");
    let got: Vec<u64> = hits.iter().map(|h| h.payload).collect();
    assert_eq!(got, EXPECTED[3]);
    drop(tree);
}

// ---------------------------------------------------------------------
// Target 8': the same race over copies that no plane divides.
// ---------------------------------------------------------------------

/// One writer inserts the point 2.0 three times into a `bucket_size = 1`
/// tree — the root leaf goes over-full with a box that is one point, so
/// it does not split, and the third copy lands in an overflow block —
/// then 0.0, which splits the leaf from one read of both blocks into
/// `{0.0}` and the three copies. A reader runs a bounded optimistic
/// 4-NN meanwhile. A read validated at version `2n` must return exactly
/// the answer for the n-insert prefix: a split that lost the overflow
/// block, or an over-full leaf that published half a split, shows here.
fn kdtree_read_duplicate_split() {
    // Inserts, in order: 2.0 → payloads 0, 1, 2, then 0.0 → 3. 4-NN of
    // query 0.9, by prefix length (nearest first, ties by payload):
    const EXPECTED: [&[u64]; 5] = [&[], &[0], &[0, 1], &[0, 1, 2], &[3, 0, 1, 2]];

    let mut tree = VersionedKdTree::<ModelShim>::new(KdConfig::new(1).with_bucket_size(1));
    let reader = tree.reader();

    let writer = ModelShim::spawn(move || {
        for (x, payload) in [(2.0, 0), (2.0, 1), (2.0, 2), (0.0, 3)] {
            assert!(tree.insert(&[x], payload), "arena cannot exhaust here");
        }
        tree
    });

    let observer = {
        let reader = reader.clone();
        ModelShim::spawn(move || {
            if let Some((hits, stats)) = reader.knn_bounded(&[0.9], 4, 4) {
                assert_eq!(stats.version % 2, 0, "validated against an odd version");
                let prefix = usize::try_from(stats.version / 2).unwrap_or(usize::MAX);
                assert!(
                    prefix <= 4,
                    "version {} names a phantom prefix",
                    stats.version
                );
                let got: Vec<u64> = hits.iter().map(|h| h.payload).collect();
                assert_eq!(
                    got, EXPECTED[prefix],
                    "read validated at version {} must equal its prefix",
                    stats.version
                );
            }
        })
    };

    let tree = ModelShim::join(writer);
    ModelShim::join(observer);

    // Quiescent: one split, the copies in one leaf of the new routing
    // root.
    let (hits, stats) = reader.knn(&[0.9], 4);
    assert_eq!(stats.retries, 0, "no writer left to race");
    assert_eq!(stats.version, 8, "four inserts, one transaction each");
    let got: Vec<u64> = hits.iter().map(|h| h.payload).collect();
    assert_eq!(got, EXPECTED[4]);
    drop(tree);
}

// ---------------------------------------------------------------------
// Target 8a: the versioned KD-tree's optimistic read vs a box widening.
// ---------------------------------------------------------------------

/// A routing root at 5 over the leaves `{0, 1}` and `{9}`. From 4, the
/// 1-NN bound is 3 once the left leaf is scanned, and the right leaf's
/// box `[9, 9]` lies 5 away, so the walk enters the right cell and
/// skips the leaf on its box. The writer inserts 7.5 into that leaf
/// (the box widens to `[7.5, 9]`, still pruned), then 6 (`[6, 9]`: 2
/// away, and 6 is the new nearest) while a reader runs a bounded
/// optimistic 1-NN. A read validated at version `2n` must equal the
/// answer for the n-insert prefix: a box word read from before the
/// widening that version covers would skip the leaf holding its
/// answer.
fn kdtree_read_widen() {
    // 1-NN of query 4.0 by prefix length: payload 1 (at 1.0) until the
    // second insert stores 6.0 as payload 4.
    const EXPECTED: [u64; 3] = [1, 1, 4];

    let mut writer = TreeWriter::<ModelShim>::new(KdConfig::new(1).with_bucket_size(4));
    let leaves = [Child::Local(1), Child::Local(2)];
    assert_eq!(writer.push_routing(0, None, 0, 5.0, leaves), Some(0));
    let left = [(vec![0.0], 0), (vec![1.0], 1)];
    assert_eq!(writer.push_leaf(1, Some((0, true)), &left), Some(1));
    assert_eq!(
        writer.push_leaf(1, Some((0, false)), &[(vec![9.0], 2)]),
        Some(2)
    );
    let tree = Arc::clone(writer.tree());

    let inserter = ModelShim::spawn(move || {
        let nowhere = InPlace::<ModelShim, _>::nowhere();
        for (x, payload) in [(7.5, 3), (6.0, 4)] {
            let stored = writer.insert(0, &[x], payload, &nowhere, &mut Vec::new());
            assert_eq!(stored, Some(Ok(true)), "no split below bucket size 4");
        }
        writer
    });

    let observer = {
        let tree = Arc::clone(&tree);
        ModelShim::spawn(move || {
            let read = tree.read_bounded(4, |t| {
                t.knn(0, &[4.0], 1, None, &InPlace::<ModelShim, _>::nowhere())
            });
            if let Some((answer, stats)) = read {
                assert_eq!(stats.version % 2, 0, "validated against an odd version");
                let prefix = usize::try_from(stats.version / 2).unwrap_or(usize::MAX);
                assert!(
                    prefix <= 2,
                    "version {} names a phantom prefix",
                    stats.version
                );
                let payloads: Vec<u64> = answer.expect("no links").iter().map(|h| h.1).collect();
                assert_eq!(
                    payloads,
                    [EXPECTED[prefix]],
                    "read validated at version {} must equal its prefix",
                    stats.version
                );
            }
        })
    };

    let writer = ModelShim::join(inserter);
    ModelShim::join(observer);

    // Quiescent: both inserts are in, and the widened box lets 6 in.
    let (answer, stats) =
        tree.read(|t| t.knn(0, &[4.0], 1, None, &InPlace::<ModelShim, _>::nowhere()));
    assert_eq!((stats.version, stats.retries), (4, 0));
    assert_eq!(answer, Ok(vec![(2.0, 4)]));
    drop(writer);
}

// ---------------------------------------------------------------------
// Target 8a': the same race one level up, on a routing node's box.
// ---------------------------------------------------------------------

/// `kdtree_read_widen` with the right leaf replaced by a routing node R
/// (plane at 8) over the leaves `{9}` and `{10}`. From 4 the walk enters
/// R's cell and skips the whole subtree on R's box `[9, 10]`. The writer
/// inserts 7.5 into R's left leaf (R widens to `[7.5, 10]`, still
/// pruned), then 6 (`[6, 10]`: 2 away, and 6 is the new nearest) while
/// a reader runs a bounded optimistic 1-NN. A read validated at version
/// `2n` must equal the answer for the n-insert prefix: an R box word
/// read from before the widening that version covers would skip the
/// subtree holding its answer.
fn kdtree_read_widen_up() {
    // 1-NN of query 4.0 by prefix length: payload 1 (at 1.0) until the
    // second insert stores 6.0 as payload 5.
    const EXPECTED: [u64; 3] = [1, 1, 5];

    let mut writer = TreeWriter::<ModelShim>::new(KdConfig::new(1).with_bucket_size(4));
    let sides = [Child::Local(1), Child::Local(2)];
    assert_eq!(writer.push_routing(0, None, 0, 5.0, sides), Some(0));
    let left = [(vec![0.0], 0), (vec![1.0], 1)];
    assert_eq!(writer.push_leaf(1, Some((0, true)), &left), Some(1));
    let leaves = [Child::Local(3), Child::Local(4)];
    assert_eq!(
        writer.push_routing(1, Some((0, false)), 0, 8.0, leaves),
        Some(2)
    );
    assert_eq!(
        writer.push_leaf(2, Some((2, true)), &[(vec![9.0], 2)]),
        Some(3)
    );
    assert_eq!(
        writer.push_leaf(2, Some((2, false)), &[(vec![10.0], 3)]),
        Some(4)
    );
    let tree = Arc::clone(writer.tree());

    let inserter = ModelShim::spawn(move || {
        let nowhere = InPlace::<ModelShim, _>::nowhere();
        for (x, payload) in [(7.5, 4), (6.0, 5)] {
            let stored = writer.insert(0, &[x], payload, &nowhere, &mut Vec::new());
            assert_eq!(stored, Some(Ok(true)), "no split below bucket size 4");
        }
        writer
    });

    let observer = {
        let tree = Arc::clone(&tree);
        ModelShim::spawn(move || {
            let read = tree.read_bounded(4, |t| {
                t.knn(0, &[4.0], 1, None, &InPlace::<ModelShim, _>::nowhere())
            });
            if let Some((answer, stats)) = read {
                assert_eq!(stats.version % 2, 0, "validated against an odd version");
                let prefix = usize::try_from(stats.version / 2).unwrap_or(usize::MAX);
                assert!(
                    prefix <= 2,
                    "version {} names a phantom prefix",
                    stats.version
                );
                let payloads: Vec<u64> = answer.expect("no links").iter().map(|h| h.1).collect();
                assert_eq!(
                    payloads,
                    [EXPECTED[prefix]],
                    "read validated at version {} must equal its prefix",
                    stats.version
                );
            }
        })
    };

    let writer = ModelShim::join(inserter);
    ModelShim::join(observer);

    // Quiescent: both inserts are in, and R's widened box lets 6 in.
    let (answer, stats) =
        tree.read(|t| t.knn(0, &[4.0], 1, None, &InPlace::<ModelShim, _>::nowhere()));
    assert_eq!((stats.version, stats.retries), (4, 0));
    assert_eq!(answer, Ok(vec![(2.0, 5)]));
    drop(writer);
}

// ---------------------------------------------------------------------
// Target 8b: a partition's lock-free reader vs build-partition.
// ---------------------------------------------------------------------

/// A partition whose root routes over two leaves evicts the right one
/// the way its actor does — copy the bucket out (a plain read: the leaf
/// keeps its points), then relink the parent edge to another partition —
/// while a reader without a message fabric runs a bounded optimistic
/// 2-NN whose nearest point lives in that leaf. A validated read is
/// either the complete pre-relink answer or the refusal that sends the
/// query to the mailbox; it never answers from the surviving leaf alone.
fn partition_read_relink() {
    let mut writer = TreeWriter::<ModelShim>::new(KdConfig::new(1).with_bucket_size(2));
    assert_eq!(writer.push_leaf(0, None, &[]), Some(0));
    let mut splits = Vec::new();
    for (payload, x) in [1.0, 2.0, 3.0].into_iter().enumerate() {
        let stored = writer.insert(
            0,
            &[x],
            payload as u64,
            &InPlace::<ModelShim, _>::nowhere(),
            &mut splits,
        );
        assert_eq!(stored, Some(Ok(true)));
    }
    // One split: root → leaves 1 = {1.0, 2.0} and 2 = {3.0}; version 6.
    assert_eq!((splits.len(), writer.tree().nodes()), (1, 3));
    let tree = Arc::clone(writer.tree());

    let evictor = ModelShim::spawn(move || {
        let leaf = writer.tree().node(2).expect("the right leaf");
        let whole = [(vec![3.0], 2)];
        assert_eq!(leaf.bucket(), whole, "detach is a read of the whole bucket");
        let to = Child::Remote {
            partition: 9,
            node: 0,
        };
        assert_eq!(writer.relink(2, to), Ok(1));
        writer
    });

    let observer = {
        let tree = Arc::clone(&tree);
        ModelShim::spawn(move || {
            let read = tree.read_bounded(3, |t| {
                t.knn(0, &[3.1], 2, None, &InPlace::<ModelShim, _>::nowhere())
            });
            if let Some((answer, stats)) = read {
                match answer {
                    Ok(hits) => {
                        let payloads: Vec<u64> = hits.iter().map(|h| h.1).collect();
                        assert_eq!(payloads, [2, 1], "answer lost the evicted leaf");
                        assert_eq!(stats.version, 6, "pre-relink answers predate it");
                    }
                    Err(NeedsMailbox) => assert_eq!(stats.version, 8, "refused early"),
                }
            }
        })
    };

    let writer = ModelShim::join(evictor);
    ModelShim::join(observer);

    // Quiescent: the link is in place and the first attempt validates.
    let (answer, stats) =
        tree.read(|t| t.knn(0, &[3.1], 2, None, &InPlace::<ModelShim, _>::nowhere()));
    assert_eq!(
        (answer, stats.version, stats.retries),
        (Err(NeedsMailbox), 8, 0)
    );
    // The surviving leaf still answers walks that stay on its side.
    let (local, _) = tree.read(|t| t.knn(0, &[1.0], 1, None, &InPlace::<ModelShim, _>::nowhere()));
    assert_eq!(local, Ok(vec![(0.0, 0)]));
    drop(writer);
}

// ---------------------------------------------------------------------
// Target 8c: a lock-free reader crossing into a partition being built.
// ---------------------------------------------------------------------

/// Partition 1 (the tree of `partition_read_relink`) migrates its right
/// leaf to partition 3 the way the two actors do between them: copy the
/// bucket out, build partition 3's tree from it, register that tree over
/// the empty one a fresh actor registers at its first message, and only
/// then relink — one transaction on partition 1. Meanwhile a reader
/// enters partition 1 the way every in-place crossing enters a
/// partition, and crosses into partition 3 wherever it finds the link.
/// Each tree is validated against its own version, so whatever the
/// interleaving a validated answer is the whole point set: through the
/// old leaf or through the new partition — never partition 3's
/// pre-adoption tree, never a point from both sides.
fn cross_partition_read_migration() {
    type Registry = <ModelShim as Shim>::Mutex<Vec<(u32, Arc<Tree<ModelShim>>)>>;
    fn lookup(registry: &Registry, partition: u32) -> Option<Arc<Tree<ModelShim>>> {
        let registered = ModelShim::lock(registry);
        let found = registered.iter().rev().find(|(id, _)| *id == partition);
        found.map(|(_, tree)| Arc::clone(tree))
    }

    let config = KdConfig::new(1).with_bucket_size(2);
    let mut source = TreeWriter::<ModelShim>::new(config);
    assert_eq!(source.push_leaf(0, None, &[]), Some(0));
    let nowhere = InPlace::<ModelShim, _>::nowhere();
    for (payload, x) in [1.0, 2.0, 3.0].into_iter().enumerate() {
        let stored = source.insert(0, &[x], payload as u64, &nowhere, &mut Vec::new());
        assert_eq!(stored, Some(Ok(true)));
    }
    let mut fresh = TreeWriter::<ModelShim>::new(config);
    assert_eq!(fresh.push_leaf(0, None, &[]), Some(0));
    let registry: Arc<Registry> = Arc::new(ModelShim::mutex(vec![
        (1, Arc::clone(source.tree())),
        (3, Arc::clone(fresh.tree())),
    ]));

    let migration = {
        let registry = Arc::clone(&registry);
        ModelShim::spawn(move || {
            let bucket = source.tree().node(2).expect("the right leaf").bucket();
            let mut target = TreeWriter::<ModelShim>::new(config);
            assert_eq!(target.push_leaf(1, None, &bucket), Some(0));
            // Registration first: the link below is what sends readers
            // to look partition 3 up.
            ModelShim::lock(&registry).push((3, Arc::clone(target.tree())));
            let to = Child::Remote {
                partition: 3,
                node: 0,
            };
            assert_eq!(source.relink(2, to), Ok(1));
            (source, target)
        })
    };

    let observer = {
        let registry = Arc::clone(&registry);
        ModelShim::spawn(move || {
            // Bounded like every model read; exhaustion is the refusal.
            let reader = InPlace::new(|p| lookup(&registry, p)).bounded(3);
            let walk = |t: &Tree<ModelShim>| t.knn(0, &[3.1], 2, None, &reader);
            if let Ok(Ok(hits)) = reader.enter((1, 0), &[3.1], walk) {
                let payloads: Vec<u64> = hits.iter().map(|h| h.1).collect();
                assert_eq!(
                    payloads,
                    [2, 1],
                    "after {} crossings the answer is not the point set",
                    reader.crossed()
                );
            }
        })
    };

    let trees = ModelShim::join(migration);
    ModelShim::join(observer);

    // Quiescent: the read crosses once and nothing is left to race.
    let reader = InPlace::new(|p| lookup(&registry, p));
    let walk = |t: &Tree<ModelShim>| t.knn(0, &[3.1], 2, None, &reader);
    let payloads = reader
        .enter((1, 0), &[3.1], walk)
        .map(|walked| walked.map(|hits| hits.iter().map(|h| h.1).collect::<Vec<u64>>()));
    assert_eq!(payloads, Ok(Ok(vec![2, 1])));
    assert_eq!((reader.crossed(), reader.retries()), (1, 0));
    drop(trees);
}

// ---------------------------------------------------------------------
// Target 9: the reactor shard's wake-pipe handoff protocol.
// ---------------------------------------------------------------------

/// Condvar stand-in for one reactor shard's wake pipe. `wake` is the
/// nonblocking byte write of `ShardPort::wake` — a full pipe (`pending`
/// already set) means a wake is already queued, so overwriting is
/// success, exactly the coalescing the real pipe gives. `await_wake` is
/// poller readiness plus the drain-the-pipe read the shard loop
/// performs *before* taking the inbox or completion list. That pairing
/// is load-bearing: producers push-then-wake and the consumer
/// clears-then-drains, so every post strictly precedes the drain that
/// its wake enables. Inverting either side lets a post consume its own
/// wake and strand the item — which the explorer reports as a deadlock.
struct WakePipe<S: Shim> {
    pending: S::Mutex<bool>,
    cv: S::Condvar,
}

impl<S: Shim> WakePipe<S> {
    fn new() -> Self {
        WakePipe {
            pending: S::mutex(false),
            cv: S::condvar(),
        }
    }

    /// The nonblocking wake write: idempotent while a wake is pending.
    fn wake(&self) {
        *S::lock(&self.pending) = true;
        S::notify_all(&self.cv);
    }

    /// Block until a wake is pending, then consume it (drain the pipe).
    fn await_wake(&self) {
        let mut pending = S::lock(&self.pending);
        while !*pending {
            pending = S::wait(&self.cv, pending, &self.pending);
        }
        *pending = false;
    }
}

/// Two accept-side producers each hand a socket to the owning shard —
/// lock-push into its inbox, then poke its wake pipe (`accept_balance`'s
/// cross-shard branch) — while the shard loop sleeps until woken, drains
/// the pipe, and only then takes the inbox. Every interleaving must
/// adopt both sockets exactly once: coalesced wakes (the second write
/// landing while the first is still pending) may collapse two pokes
/// into one, but can never strand a handed-off socket, and the consumer
/// may never hang (a lost wakeup here would park the shard with a live
/// socket in its inbox).
fn reactor_shard_wake() {
    let inbox = Arc::new(ModelShim::mutex(Vec::<u64>::new()));
    let pipe = Arc::new(WakePipe::<ModelShim>::new());

    let producers: Vec<_> = [1u64, 2]
        .into_iter()
        .map(|socket| {
            let inbox = Arc::clone(&inbox);
            let pipe = Arc::clone(&pipe);
            ModelShim::spawn(move || {
                ModelShim::lock(&inbox).push(socket);
                pipe.wake();
            })
        })
        .collect();

    let consumer = {
        let inbox = Arc::clone(&inbox);
        let pipe = Arc::clone(&pipe);
        ModelShim::spawn(move || {
            let mut adopted = Vec::new();
            while adopted.len() < 2 {
                pipe.await_wake();
                // The shard's `mem::take` of its inbox.
                adopted.append(&mut *ModelShim::lock(&inbox));
            }
            adopted
        })
    };

    for p in producers {
        ModelShim::join(p);
    }
    let mut adopted = ModelShim::join(consumer);
    adopted.sort_unstable();
    assert_eq!(
        adopted,
        vec![1, 2],
        "a handed-off socket was stranded or adopted twice"
    );
    assert!(
        ModelShim::lock(&inbox).is_empty(),
        "the drain left a socket behind"
    );
}

// ---------------------------------------------------------------------
// Target 10: the pipelined worker hop's reply token.
// ---------------------------------------------------------------------

/// The shared surface a [`HopToken`] completes into: the admission
/// queue whose slot it owes, the owning shard's completion list, and
/// that shard's wake pipe.
struct HopFabric {
    queue: ServeQueue<u64, ModelShim>,
    completions: <ModelShim as Shim>::Mutex<Vec<(u64, u64)>>,
    shard: WakePipe<ModelShim>,
}

/// `ReplyToken`, transcribed move for move: `complete` disarms, pushes
/// the correlated completion, releases the queue slot, then wakes the
/// owning shard — in that order, so the wake the shard consumes always
/// trails the completion it announces. An armed token dropped without
/// an answer (the service-bug path) still releases its slot and wakes
/// the shard, so the connection cannot wedge.
struct HopToken {
    conn: u64,
    corr: u64,
    fabric: Arc<HopFabric>,
    armed: bool,
}

impl HopToken {
    fn complete(mut self) {
        self.armed = false;
        ModelShim::lock(&self.fabric.completions).push((self.conn, self.corr));
        self.fabric.queue.complete(self.conn);
        self.fabric.shard.wake();
    }
}

impl Drop for HopToken {
    fn drop(&mut self) {
        if self.armed {
            self.fabric.queue.complete(self.conn);
            self.fabric.shard.wake();
        }
    }
}

/// One connection pipelines three requests through the full hop: the
/// executor answers request 0 inline (`Dispatch::Sync`), hands request
/// 1's token across threads to a demux reader that completes it later
/// (`Dispatch::Completed` — the worker hop), and *drops* request 2's
/// token armed (a service bug). The shard consumer sleeps on its wake
/// pipe and drains the completion list until both answered requests
/// land. No interleaving may release a slot twice (underflow), leak one
/// (global count drains to zero even through the dropped token), lose a
/// completion, or hang the shard — the push-completion-before-wake
/// order is what guarantees the drain that consumes a wake sees the
/// completion that wake announced.
fn pipelined_worker_hop() {
    let fabric = Arc::new(HopFabric {
        queue: ServeQueue::new(3),
        completions: ModelShim::mutex(Vec::new()),
        shard: WakePipe::new(),
    });
    // The demux handoff: where the executor parks request 1's token for
    // the reader thread (a `Pending::Call` slot, boiled to its bones).
    let hop_slot = Arc::new(ModelShim::mutex(Option::<HopToken>::None));
    let hop_pipe = Arc::new(WakePipe::<ModelShim>::new());

    let producer = {
        let fabric = Arc::clone(&fabric);
        ModelShim::spawn(move || {
            for corr in 0..3u64 {
                assert_eq!(
                    fabric.queue.push(7, corr),
                    Push::Granted,
                    "three pushes fit a three-slot queue"
                );
            }
        })
    };

    let executor = {
        let fabric = Arc::clone(&fabric);
        let hop_slot = Arc::clone(&hop_slot);
        let hop_pipe = Arc::clone(&hop_pipe);
        ModelShim::spawn(move || {
            for _ in 0..3 {
                let (conn, corr) = fabric.queue.pop().expect("queue is not shut down");
                let token = HopToken {
                    conn,
                    corr,
                    fabric: Arc::clone(&fabric),
                    armed: true,
                };
                match corr {
                    // Dispatch::Sync — answered on this thread.
                    0 => token.complete(),
                    // Dispatch::Completed — carried to the demux reader.
                    1 => {
                        *ModelShim::lock(&hop_slot) = Some(token);
                        hop_pipe.wake();
                    }
                    // The service discarded the token without answering.
                    _ => drop(token),
                }
            }
        })
    };

    let demux = {
        let hop_slot = Arc::clone(&hop_slot);
        let hop_pipe = Arc::clone(&hop_pipe);
        ModelShim::spawn(move || {
            hop_pipe.await_wake();
            let token = ModelShim::lock(&hop_slot)
                .take()
                .expect("the wake trails the parked token");
            token.complete();
        })
    };

    let consumer = {
        let fabric = Arc::clone(&fabric);
        ModelShim::spawn(move || {
            let mut landed = Vec::new();
            while landed.len() < 2 {
                fabric.shard.await_wake();
                landed.append(&mut *ModelShim::lock(&fabric.completions));
            }
            landed
        })
    };

    ModelShim::join(producer);
    ModelShim::join(executor);
    ModelShim::join(demux);
    let mut landed = ModelShim::join(consumer);
    landed.sort_unstable();
    assert_eq!(
        landed,
        vec![(7, 0), (7, 1)],
        "answered completions must land exactly once each"
    );
    assert!(!fabric.queue.underflowed(), "a slot release underflowed");
    assert_eq!(
        fabric.queue.global_in_flight(),
        0,
        "the dropped token must still release its slot"
    );
    assert_eq!(
        fabric.queue.conn_in_flight(7),
        0,
        "per-conn accounting leaked"
    );
}

// ---------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------

struct Cli {
    targets: Vec<String>,
    replay_seed: Option<String>,
    iters: usize,
    list: bool,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        targets: Vec::new(),
        replay_seed: None,
        iters: DEFAULT_RANDOM_ITERS,
        list: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--target" => {
                let name = args.next().ok_or("--target needs a name")?;
                cli.targets.push(name);
            }
            "--replay" => {
                let seed = args.next().ok_or("--replay needs a seed")?;
                cli.replay_seed = Some(seed);
            }
            "--iters" => {
                let n = args.next().ok_or("--iters needs a count")?;
                cli.iters = n.parse().map_err(|e| format!("bad --iters: {e}"))?;
            }
            "--list" => cli.list = true,
            // Flags the default harness accepts; tolerate them so
            // `cargo test -- --nocapture` and friends keep working.
            "--nocapture" | "--quiet" | "-q" | "--show-output" | "--exact" | "--ignored"
            | "--include-ignored" => {}
            "--test-threads" | "--format" | "--color" | "-Z" => {
                let _ = args.next();
            }
            other if !other.starts_with('-') => cli.targets.push(other.to_string()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(cli)
}

fn base_seed() -> u64 {
    match std::env::var("SEMTREE_MODEL_SEED") {
        Ok(raw) => raw
            .trim()
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("SEMTREE_MODEL_SEED must be a u64, got {raw:?}")),
        Err(_) => 0x5EED_7EE5,
    }
}

fn run_target(target: &Target, iters: usize, seed: u64) -> bool {
    let options = Options {
        max_interleavings: MAX_INTERLEAVINGS,
        spurious_budget: target.spurious_budget,
    };
    let body = target.body;
    let report = explore(&options, body);
    if let Some(failure) = &report.failure {
        println!(
            "model {}: FAILED after {} interleavings: {}",
            target.name, report.interleavings, failure.message
        );
        println!(
            "  replay with: cargo test -p semtree-conc --test models -- --target {} --replay {}",
            target.name, failure.seed
        );
        return false;
    }

    // Seeded-random supplement past the DFS bound.
    let random = explore_random(&options, seed, iters, body);
    if let Some(failure) = &random.failure {
        println!(
            "model {}: FAILED in random sweep (base seed {seed}): {}",
            target.name, failure.message
        );
        println!(
            "  replay with: cargo test -p semtree-conc --test models -- --target {} --replay {}",
            target.name, failure.seed
        );
        return false;
    }

    // Determinism self-check: replaying one fixed schedule twice must
    // produce byte-identical executions (same event fingerprint).
    let a = replay("d", body).expect("replaying the first path");
    let b = replay("d", body).expect("replaying the first path");
    if a.fingerprint != b.fingerprint {
        println!(
            "model {}: FAILED replay determinism check ({:#x} != {:#x})",
            target.name, a.fingerprint, b.fingerprint
        );
        return false;
    }

    let total = report.interleavings;
    println!(
        "model {}: ok — {} interleavings explored (dfs{}), {} distinct random schedules (seed {seed}), replay deterministic",
        target.name,
        total,
        if report.exhausted { ", exhausted" } else { "" },
        random.interleavings,
    );
    if total < MIN_INTERLEAVINGS {
        println!(
            "model {}: FAILED coverage floor: {} < {} interleavings",
            target.name, total, MIN_INTERLEAVINGS
        );
        return false;
    }
    true
}

fn run_replay(target: &Target, seed: &str) -> bool {
    match replay(seed, target.body) {
        Ok(outcome) => {
            println!(
                "replay {} {}: fingerprint {:#018x}, {} scheduler ops",
                target.name, seed, outcome.fingerprint, outcome.ops
            );
            match outcome.failure {
                Some(message) => {
                    println!("replay reproduces the failure: {message}");
                    false
                }
                None => {
                    println!("replay completed without failure");
                    true
                }
            }
        }
        Err(e) => {
            println!("bad seed {seed:?}: {e}");
            false
        }
    }
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("models: {e}");
            eprintln!("usage: models [--list] [--target NAME]... [--replay SEED] [--iters N]");
            return ExitCode::from(2);
        }
    };

    if cli.list {
        for t in TARGETS {
            println!("{:<20} {}", t.name, t.what);
        }
        return ExitCode::SUCCESS;
    }

    let selected: Vec<&Target> = if cli.targets.is_empty() {
        TARGETS.iter().collect()
    } else {
        let mut picked = Vec::new();
        for name in &cli.targets {
            match TARGETS.iter().find(|t| t.name == *name) {
                Some(t) => picked.push(t),
                None => {
                    eprintln!("models: unknown target {name:?} (see --list)");
                    return ExitCode::from(2);
                }
            }
        }
        picked
    };

    if let Some(seed) = &cli.replay_seed {
        let [target] = selected.as_slice() else {
            eprintln!("models: --replay needs exactly one --target");
            return ExitCode::from(2);
        };
        return if run_replay(target, seed) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let seed = base_seed();
    println!(
        "model suite: {} targets, dfs bound {MAX_INTERLEAVINGS}, random iters {} (SEMTREE_MODEL_SEED={seed})",
        selected.len(),
        cli.iters
    );
    let mut ok = true;
    for target in selected {
        ok &= run_target(target, cli.iters, seed);
    }
    if ok {
        println!("model suite: all targets passed");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
