//! The per-layer probes of a traced run.
//!
//! Every layer is measured **from outside**, through its public
//! functions, on seeded inputs at a fixed probe size (20 k points, 4 096
//! queries, a 40-document corpus) so a traced run of any workload prints
//! every per-layer metric. Each probe loop is one span; loops run three
//! times and the fastest pass is reported (`quiet_reps` with one chunk).
//! Where the harness cannot see inside a call it replays the same inputs
//! against the inner layer's public entry point and subtracts — that is
//! how `core.retrieve_self_us`, `cluster.hop_us`, the leaf-scan shares
//! and the served request's budget (`serve.*_share`) are obtained.

use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use semtree_bench::{pick_radius, triple_distance, BUCKET, DIMS};
use semtree_cluster::ClusterMetrics;
use semtree_colz::{decode_column_exact, encode_column, PointsColumn};
use semtree_core::DocumentRetriever;
use semtree_dist::{ClientReq, ClientResp, DistSemTree, NetClient, Query};
use semtree_distance::MemoizedDistance;
use semtree_fastmap::FastMap;
use semtree_kdtree::{KdConfig, KdTree, VersionedKdTree};
use semtree_model::Triple;
use semtree_net::{decode_exact, frame_overhead, Encode, FRAME_V2_HEADER_LEN};
use semtree_par::metric::euclidean_sq;
use semtree_reactor::{Dispatch, ReactorConfig, ReplyToken, Service, ServiceReply};
use semtree_wal::{Wal, WalOptions, WalRecord, SNAPSHOT_FORMAT_COLUMNAR};

use crate::error::{layer, BenchError, Result};
use crate::estimators::Round;
use crate::inputs::{doc_inputs, tree_inputs, DocInputs, TreeInputs, GEOMETRY_SEED};
use crate::metrics::Values;
use crate::trace::{SpanId, Tracer};
use crate::workloads::doc::build_index;
use crate::workloads::ingest::{one_rep, INSERTS_PER_READ};
use crate::workloads::knn::{empty_tree, knn_pairs, timed_inserts};
use crate::workloads::serve::{byte_equal, host_tree, knn_request, windowed_chunk, Hosted, WINDOW};
use crate::workloads::{matches_brute_force, RunOptions, Scratch, Tally, K};

/// Passes per probe loop; the fastest is reported.
const PASSES: usize = 3;
/// What the probes produced.
pub struct Probes {
    /// Per-layer metric values.
    pub values: Values,
    /// Differential checks between the layers.
    pub tally: Tally,
}

struct Ctx<'a> {
    /// Ops per served round in the `reactor` and `serve` probes.
    served_ops: usize,
    tracer: &'a mut Tracer,
    root: SpanId,
    values: Values,
    tally: Tally,
}

impl Ctx<'_> {
    /// Run `body` [`PASSES`] times as spans named `name`; the last
    /// pass's result and the fastest pass's seconds.
    fn best_of<T>(&mut self, name: &'static str, mut body: impl FnMut() -> T) -> (T, f64) {
        let (mut out, mut best) = self.tracer.timed(name, self.root, &mut body);
        for _ in 1..PASSES {
            let (again, secs) = self.tracer.timed(name, self.root, &mut body);
            out = again;
            best = best.min(secs);
        }
        (out, best)
    }

    fn put(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(f64::NAN, |(_, v)| *v)
    }
}

fn per(secs: f64, count: usize, scale: f64) -> f64 {
    secs * scale / count.max(1) as f64
}

/// Run every probe.
///
/// # Errors
/// Fails when a product layer errors where the probe cannot go on.
pub fn run(opts: &RunOptions, work_dir: &Path, tracer: &mut Tracer) -> Result<Probes> {
    let root = tracer.open("probes", SpanId::ROOT, 0);
    let points = tree_inputs(
        opts.sizes.probe_points,
        &opts.sizes,
        opts.seed,
        Some(work_dir),
    );
    let docs = doc_inputs(opts.sizes.probe_documents, &opts.sizes, opts.seed);
    let mut ctx = Ctx {
        served_ops: opts.sizes.probe_ops,
        tracer,
        root,
        values: Vec::new(),
        tally: Tally::default(),
    };
    text_layers(&mut ctx, &docs)?;
    kdtree_layers(&mut ctx, &points);
    let answers = dist_layers(&mut ctx, &points)?;
    net_layer(&mut ctx, &points, &answers);
    served_layers(&mut ctx, &points, &answers)?;
    storage_layers(&mut ctx, &points, work_dir)?;
    durable_layer(&mut ctx, &points, work_dir)?;
    let Ctx { values, tally, .. } = ctx;
    tracer.close(root);
    Ok(Probes { values, tally })
}

/// `nlp`, `distance`, `fastmap`, `core`: the document pipeline.
fn text_layers(ctx: &mut Ctx<'_>, docs: &DocInputs) -> Result<()> {
    // nlp + the whole build, exactly as `doc_retrieval` sets up.
    let (index, chunks) = build_index(docs, ctx.tracer, ctx.root)?;
    let nlp_s: f64 = chunks.iter().filter(|c| c.0 == "nlp").map(|c| c.1).sum();
    ctx.put(
        "nlp.extract_us_per_sentence",
        per(nlp_s, docs.sentences, 1e6),
    );
    ctx.put("nlp.triples_extracted", index.len() as f64);
    ctx.tally.record(index.len() == docs.corpus.store.len());

    // distance: Eq. 1 on sampled pairs of the corpus's distinct triples.
    let triples: Vec<Triple> = docs.corpus.triples();
    let distance = triple_distance(&docs.corpus.domain);
    let n = triples.len();
    let pairs = 20_000.min(n * n);
    let (_, secs) = ctx.best_of("distance.triple", || {
        let mut sum = 0.0;
        for i in 0..pairs {
            sum += distance.distance(&triples[i % n], &triples[(i * 7919 + 13) % n]);
        }
        black_box(sum)
    });
    ctx.put("distance.triple_ns", per(secs, pairs, 1e9));

    // fastmap: the embedding replayed with a counting oracle, memoised
    // the way `core` memoises it.
    let evals = AtomicU64::new(0);
    let memo = MemoizedDistance::new(|i: usize, j: usize| {
        evals.fetch_add(1, Ordering::Relaxed);
        distance.distance(&triples[i], &triples[j])
    });
    let (embedding, secs) = ctx.tracer.timed("fastmap.embed", ctx.root, || {
        FastMap::new(DIMS)
            .with_seed(GEOMETRY_SEED)
            .embed(n, &|i, j| memo.distance(i, j))
    });
    ctx.put("fastmap.embed_s", secs);
    ctx.put("distance.evals_build", evals.load(Ordering::Relaxed) as f64);
    ctx.put("distance.memo_pairs", memo.cached_pairs() as f64);
    // Same seed, same triples: the replay must land where the index did.
    ctx.tally
        .record((0..n.min(64)).all(|i| embedding.point(i) == index.embedding().point(i)));

    // core: project, k-NN and document ranking on the same queries.
    let queries = &docs.queries;
    let (_, secs) = ctx.best_of("fastmap.project", || {
        for q in queries {
            black_box(index.project(q));
        }
    });
    ctx.put("fastmap.project_us", per(secs, queries.len(), 1e6));
    let (_, knn_s) = ctx.best_of("core.knn", || {
        for q in queries {
            black_box(index.knn(q, K));
        }
    });
    ctx.put("core.knn_us", per(knn_s, queries.len(), 1e6));
    let retriever = DocumentRetriever::new(&index).with_k(K);
    let (_, rank_s) = ctx.best_of("core.query_triple", || {
        for q in queries {
            black_box(retriever.query_triple(q));
        }
    });
    ctx.put("core.query_triple_us", per(rank_s, queries.len(), 1e6));
    ctx.put(
        "core.retrieve_self_us",
        per(rank_s - knn_s, queries.len(), 1e6),
    );
    index.shutdown();
    Ok(())
}

/// `kdtree` and `par`: the sequential index and the distance kernel.
fn kdtree_layers(ctx: &mut Ctx<'_>, inputs: &TreeInputs) {
    let config = KdConfig::new(DIMS).with_bucket_size(BUCKET);
    let data = &inputs.data;
    let queries = &inputs.queries;
    let labelled = || -> Vec<(Vec<f64>, u64)> {
        data.iter()
            .enumerate()
            .map(|(i, p)| (p.clone(), i as u64))
            .collect()
    };

    let mut bulk_s = f64::INFINITY;
    for _ in 0..PASSES {
        let owned = labelled();
        let (tree, secs) = ctx.tracer.timed("kdtree.bulk_load", ctx.root, || {
            KdTree::bulk_load(config, owned)
        });
        bulk_s = bulk_s.min(secs);
        ctx.tally.record(tree.len() == data.len());
    }
    ctx.put("kdtree.bulk_load_s", bulk_s);

    let (tree, secs) = ctx.best_of("kdtree.insert", || {
        let mut tree = KdTree::new(config);
        for (i, p) in data.iter().enumerate() {
            tree.insert(p, i as u64);
        }
        tree
    });
    ctx.put("kdtree.insert_ns", per(secs, data.len(), 1e9));

    let ((nodes, evals), secs) = ctx.best_of("kdtree.knn", || {
        let (mut nodes, mut evals) = (0usize, 0usize);
        for q in queries {
            let (hits, stats) = tree.knn_with_stats(q, K);
            black_box(hits);
            nodes += stats.nodes_visited;
            evals += stats.distance_evals;
        }
        (nodes, evals)
    });
    let knn_ns = per(secs, queries.len(), 1e9);
    let evals_per_knn = evals as f64 / queries.len() as f64;
    ctx.put("kdtree.knn_ns", knn_ns);
    ctx.put(
        "kdtree.nodes_visited_per_knn",
        nodes as f64 / queries.len() as f64,
    );
    ctx.put("kdtree.distance_evals_per_knn", evals_per_knn);
    for q in &inputs.check {
        let hits: Vec<(f64, u64)> = tree
            .knn(q, K)
            .into_iter()
            .map(|h| (h.dist, h.payload))
            .collect();
        ctx.tally.record(matches_brute_force(data, q, &hits));
    }

    let radius = pick_radius(data, 0.01);
    let (_, secs) = ctx.best_of("kdtree.range", || {
        for q in queries {
            black_box(tree.range_with_stats(q, radius));
        }
    });
    ctx.put("kdtree.range_ns", per(secs, queries.len(), 1e9));

    let mut versioned: VersionedKdTree = VersionedKdTree::new(config);
    for (i, p) in data.iter().enumerate() {
        versioned.insert(p, i as u64);
    }
    let reader = versioned.reader();
    let (_, secs) = ctx.best_of("kdtree.versioned_knn", || {
        for q in queries {
            black_box(reader.knn(q, K));
        }
    });
    ctx.put("kdtree.versioned_knn_ns", per(secs, queries.len(), 1e9));
    // The seqlock tree and the plain tree must agree on every distance.
    for q in &inputs.check {
        let plain: Vec<u64> = tree.knn(q, K).iter().map(|h| h.dist.to_bits()).collect();
        let (hits, _) = reader.knn(q, K);
        let seqlock: Vec<u64> = hits.iter().map(|h| h.dist.to_bits()).collect();
        ctx.tally.record(plain == seqlock);
    }

    // par: the kernel on the same 6-dim points, and its share of a k-NN.
    let calls = data.len().saturating_sub(1) * 8;
    let (_, secs) = ctx.best_of("par.euclidean_sq", || {
        let mut sum = 0.0;
        for _ in 0..8 {
            for pair in data.windows(2) {
                sum += euclidean_sq(&pair[0], &pair[1]);
            }
        }
        black_box(sum)
    });
    let kernel_ns = per(secs, calls, 1e9);
    ctx.put("par.euclidean_sq_ns", kernel_ns);
    ctx.put("kdtree.leaf_scan_share", kernel_ns * evals_per_knn / knn_ns);
}

fn knn_loop(tree: &DistSemTree, queries: &[Vec<f64>]) {
    for q in queries {
        black_box(tree.query(Query::knn(q, K)).is_ok());
    }
}

/// `dist` and `cluster`: the unified query API on one partition and on
/// four. Returns the one-partition answers for `inputs.queries`.
fn dist_layers(ctx: &mut Ctx<'_>, inputs: &TreeInputs) -> Result<Vec<Vec<(f64, u64)>>> {
    let data = &inputs.data;
    let queries = &inputs.queries;
    let scan_ns = ctx.get("par.euclidean_sq_ns") * ctx.get("kdtree.distance_evals_per_knn");

    // M = 1: lock-free mirror reads.
    let single = empty_tree(1, data);
    let mut chunks = Vec::new();
    timed_inserts(&single, data, ctx.tracer, ctx.root, &mut chunks)?;
    let insert_s: f64 = chunks.iter().map(|c| c.1).sum();
    ctx.put("dist.insert_us", per(insert_s, data.len(), 1e6));

    let (_, secs) = ctx.best_of("dist.query_knn", || knn_loop(&single, queries));
    let m1_us = per(secs, queries.len(), 1e6);
    ctx.put("dist.query_knn_us", m1_us);
    ctx.put("dist.leaf_scan_share", scan_ns / 1e3 / m1_us);

    let radius = pick_radius(data, 0.01);
    let (_, secs) = ctx.best_of("dist.range", || {
        for q in queries {
            black_box(single.query(Query::range(q, radius)).is_ok());
        }
    });
    ctx.put("dist.range_us", per(secs, queries.len(), 1e6));

    let (_, secs) = ctx.best_of("dist.knn_batch", || {
        for batch in queries.chunks(256) {
            black_box(single.query(Query::knn_batch(batch, K)).is_ok());
        }
    });
    ctx.put("dist.knn_batch_us_per_query", per(secs, queries.len(), 1e6));
    ctx.put("dist.reads_retried", single.metrics().reads_retried as f64);

    let answers: Vec<Vec<(f64, u64)>> = queries
        .iter()
        .map(|q| knn_pairs(&single, q).ok_or_else(|| BenchError::Layer("probe knn".into())))
        .collect::<Result<_>>()?;
    for q in &inputs.check {
        let ok = knn_pairs(&single, q).is_some_and(|hits| matches_brute_force(data, q, &hits));
        ctx.tally.record(ok);
    }
    single.shutdown();

    // M = 4: reads fall back to the actor mailboxes.
    let fanned = empty_tree(4, data);
    let mut chunks = Vec::new();
    timed_inserts(&fanned, data, ctx.tracer, ctx.root, &mut chunks)?;
    let insert_s: f64 = chunks.iter().map(|c| c.1).sum();
    ctx.put("dist.m4_insert_us", per(insert_s, data.len(), 1e6));

    let (_, secs) = ctx.best_of("dist.query_knn_partitioned", || {
        knn_loop(&fanned, queries);
    });
    let m4_us = per(secs, queries.len(), 1e6);
    ctx.put("dist.m4_query_knn_us", m4_us);
    ctx.put("dist.m4_leaf_scan_share", scan_ns / 1e3 / m4_us);

    // Exact message and byte counts of one more pass over the queries.
    fanned.reset_metrics();
    knn_loop(&fanned, queries);
    let traffic = fanned.metrics();
    let messages = traffic.messages as f64 / queries.len() as f64;
    ctx.put("cluster.messages_per_knn", messages);
    ctx.put(
        "cluster.bytes_per_knn",
        (traffic.bytes + traffic.response_bytes) as f64 / queries.len() as f64,
    );
    ctx.put("cluster.hop_us", (m4_us - m1_us) / messages.max(1.0));
    // Partitioning must not change a single distance.
    for (q, want) in queries.iter().zip(&answers).take(256) {
        let ok = knn_pairs(&fanned, q).is_some_and(|got| {
            got.iter()
                .map(|h| h.0.to_bits())
                .eq(want.iter().map(|h| h.0.to_bits()))
        });
        ctx.tally.record(ok);
    }
    fanned.shutdown();
    Ok(answers)
}

/// `net`: the client-port codec on the workload's own messages.
fn net_layer(ctx: &mut Ctx<'_>, inputs: &TreeInputs, answers: &[Vec<(f64, u64)>]) {
    let requests: Vec<ClientReq> = inputs.queries.iter().map(|q| knn_request(q)).collect();
    let responses: Vec<ClientResp> = answers
        .iter()
        .map(|a| ClientResp::Neighbors(a.clone()))
        .collect();
    let n = requests.len();

    let (req_bytes, secs) = ctx.best_of("net.encode_req", || {
        requests.iter().map(Encode::to_bytes).collect::<Vec<_>>()
    });
    ctx.put("net.encode_req_ns", per(secs, n, 1e9));
    let (decoded, secs) = ctx.best_of("net.decode_req", || {
        req_bytes
            .iter()
            .map(|b| decode_exact::<ClientReq>(b).ok())
            .collect::<Vec<_>>()
    });
    ctx.put("net.decode_req_ns", per(secs, n, 1e9));
    ctx.tally.record(
        decoded
            .iter()
            .zip(&requests)
            .all(|(d, r)| d.as_ref() == Some(r)),
    );

    let (resp_bytes, secs) = ctx.best_of("net.encode_resp", || {
        responses.iter().map(Encode::to_bytes).collect::<Vec<_>>()
    });
    ctx.put("net.encode_resp_ns", per(secs, n, 1e9));
    let (decoded, secs) = ctx.best_of("net.decode_resp", || {
        resp_bytes
            .iter()
            .map(|b| decode_exact::<ClientResp>(b).ok())
            .collect::<Vec<_>>()
    });
    ctx.put("net.decode_resp_ns", per(secs, n, 1e9));
    ctx.tally.record(
        decoded
            .iter()
            .zip(&responses)
            .all(|(d, r)| d.as_ref() == Some(r)),
    );

    let wire: usize = req_bytes
        .iter()
        .chain(&resp_bytes)
        .map(|body| frame_overhead(FRAME_V2_HEADER_LEN + body.len()))
        .sum();
    ctx.put("net.frame_bytes_per_knn", wire as f64 / n as f64);
}

/// A service that does no work: every request gets the same pre-encoded
/// k-NN reply, so what a client measures against it is the reactor, the
/// framing, the sockets and the client itself — nothing of the tree.
struct CannedReply {
    reply: Vec<u8>,
    shutdown: Vec<u8>,
}

impl Service for CannedReply {
    fn call(&self, request: &[u8]) -> ServiceReply {
        if request == self.shutdown {
            ServiceReply {
                payload: ClientResp::Done.to_bytes(),
                shutdown: true,
            }
        } else {
            ServiceReply {
                payload: self.reply.clone(),
                shutdown: false,
            }
        }
    }

    fn overloaded(&self) -> Vec<u8> {
        ClientResp::Overloaded.to_bytes()
    }

    /// Complete through the token, as the tree service does for every
    /// query, so both take the same path back through the reactor.
    fn call_pipelined(&self, request: &[u8], token: ReplyToken) -> Dispatch {
        let reply = self.call(request);
        token.complete(reply.payload, reply.shutdown);
        Dispatch::Completed
    }
}

/// Best of [`PASSES`] served rounds: `(µs per op, p50 µs, p99 µs)`.
fn served_rounds<T: Send + 'static>(
    ctx: &mut Ctx<'_>,
    name: &'static str,
    hosted: &mut Hosted<T>,
    window: usize,
    inputs: &TreeInputs,
    answers: Option<&[Vec<(f64, u64)>]>,
) -> Result<(f64, f64, f64)> {
    let n = inputs.queries.len() as u64;
    let mut scratch = Scratch::default();
    let mut best = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for pass in 0..=PASSES {
        let span = ctx.tracer.open(name, ctx.root, pass as u64);
        let first = (pass * ctx.served_ops) as u64;
        let elapsed = windowed_chunk(
            &mut hosted.client,
            window,
            first..first + ctx.served_ops as u64,
            |id| knn_request(&inputs.queries[(id % n) as usize]),
            |id, resp| match (resp, answers) {
                (ClientResp::Neighbors(hits), Some(a)) => byte_equal(hits, &a[(id % n) as usize]),
                (ClientResp::Neighbors(_), None) => true,
                _ => false,
            },
            &mut scratch,
            ctx.tracer,
        )?;
        ctx.tracer.close(span);
        let round = Round::summarise(elapsed, &mut scratch.latencies_ns);
        // Pass 0 warms the connection up.
        if let (Some(r), true) = (round, pass > 0) {
            best = (
                best.0.min(1e6 / r.ops_per_s),
                best.1.min(r.p50_us),
                best.2.min(r.p99_us),
            );
        }
    }
    ctx.tally.absorb(scratch.tally);
    Ok(best)
}

/// `reactor` and the served path's budget.
fn served_layers(
    ctx: &mut Ctx<'_>,
    inputs: &TreeInputs,
    answers: &[Vec<(f64, u64)>],
) -> Result<()> {
    // The do-nothing service behind the same reactor configuration.
    let canned = CannedReply {
        reply: ClientResp::Neighbors(answers.first().cloned().unwrap_or_default()).to_bytes(),
        shutdown: ClientReq::Shutdown.to_bytes(),
    };
    let mut echo = Hosted::start(move |listener| {
        // What `serve_clients_with` builds from `serve_options()`,
        // latency histogram included.
        let config = ReactorConfig {
            executors: 1,
            reactors: 1,
            metrics: Some(Arc::new(ClusterMetrics::default())),
            ..ReactorConfig::default()
        };
        semtree_reactor::serve(listener, &canned, &config)
    })?;
    let (echo_us, _, echo_p99) =
        served_rounds(ctx, "reactor.echo", &mut echo, WINDOW, inputs, None)?;
    let report = echo.stop()?;
    ctx.tally.record(report.shed == 0);
    ctx.put("reactor.echo_us_per_op", echo_us);
    ctx.put("reactor.echo_p99_us", echo_p99);

    // The probe tree behind the real service.
    let tree = empty_tree(1, &inputs.data);
    timed_inserts(&tree, &inputs.data, ctx.tracer, ctx.root, &mut Vec::new())?;
    let mut hosted = host_tree(tree)?;
    let (op_us, _, _) = served_rounds(
        ctx,
        "serve.window8",
        &mut hosted,
        WINDOW,
        inputs,
        Some(answers),
    )?;
    let (_, rtt_us, _) = served_rounds(ctx, "serve.depth1", &mut hosted, 1, inputs, Some(answers))?;
    let server = NetClient::connect(hosted.addr(), std::time::Duration::from_secs(10))
        .and_then(|mut c| c.metrics())
        .map_err(layer("served metrics"))?;
    hosted.stop()?.shutdown();

    ctx.put("serve.op_us", op_us);
    ctx.put("serve.rtt_depth1_us", rtt_us);
    ctx.put("serve.server_p50_us", server.p50_nanos as f64 / 1e3);
    ctx.put("serve.server_p99_us", server.p99_nanos as f64 / 1e3);
    ctx.put("serve.shed", server.shard_shed.iter().sum::<u64>() as f64);

    // The budget of one served request, by subtraction: the do-nothing
    // service's time, plus the codec work only the real service does,
    // plus the in-process query; the rest is unexplained.
    let tree_us = ctx.get("dist.query_knn_us");
    let codec_us = (ctx.get("net.decode_req_ns") + ctx.get("net.encode_resp_ns")) / 1e3;
    ctx.put("serve.fabric_share", 1.0 - tree_us / op_us);
    ctx.put(
        "serve.unexplained_share",
        (op_us - echo_us - codec_us - tree_us) / op_us,
    );
    Ok(())
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// `wal` and `colz`: a standalone log fed the workload's records, and
/// the columnar codec over the workload's points.
fn storage_layers(ctx: &mut Ctx<'_>, inputs: &TreeInputs, work_dir: &Path) -> Result<()> {
    let data = &inputs.data;
    let raw_bytes = (data.len() * DIMS * 8) as f64;

    let (encoded, secs) = ctx.best_of("colz.encode", || encode_column::<PointsColumn>(data));
    ctx.put("colz.encode_mb_per_s", raw_bytes / 1e6 / secs);
    let (decoded, secs) = ctx.best_of("colz.decode", || {
        decode_column_exact::<PointsColumn>(&encoded)
    });
    ctx.put("colz.decode_mb_per_s", raw_bytes / 1e6 / secs);
    ctx.put("colz.ratio", raw_bytes / encoded.len().max(1) as f64);
    ctx.tally.record(decoded.is_ok_and(|d| &d == data));

    // Small segments so sealing and its columnar rewrite happen several
    // times at probe size; everything else is the default.
    let options = WalOptions::default().with_segment_bytes(256 * 1024);
    let dir = work_dir.join(format!("probe-wal-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    let wal = Wal::create(&dir, 0, b"perfbench probe", options).map_err(layer("Wal::create"))?;
    let records: Vec<WalRecord> = data
        .iter()
        .enumerate()
        .map(|(i, p)| WalRecord::PointInsert {
            partition: 1,
            node: 0,
            point: p.clone(),
            payload: i as u64,
        })
        .collect();
    let (appended, secs) = ctx.tracer.timed("wal.append", ctx.root, || {
        records.iter().filter(|r| wal.append(r).is_ok()).count()
    });
    ctx.put("wal.append_us", per(secs, records.len(), 1e6));
    ctx.tally.record(appended == records.len());
    drop(wal);
    ctx.put(
        "wal.disk_bytes_per_point",
        dir_bytes(&dir) as f64 / data.len() as f64,
    );

    let (state, secs) = ctx.best_of("wal.load", || Wal::load(&dir));
    ctx.put("wal.load_ms", secs * 1e3);
    ctx.tally
        .record(state.is_ok_and(|s| s.live_tail().count() == records.len()));

    let (wal, _) = Wal::resume(&dir, options).map_err(layer("Wal::resume"))?;
    let (covered, secs) = ctx.tracer.timed("wal.snapshot", ctx.root, || {
        wal.snapshot(1, SNAPSHOT_FORMAT_COLUMNAR, &encoded)
    });
    ctx.put("wal.snapshot_ms", secs * 1e3);
    ctx.tally.record(covered.is_ok());
    drop(wal);
    ctx.put(
        "wal.cold_bytes_per_point",
        dir_bytes(&dir) as f64 / data.len() as f64,
    );
    std::fs::remove_dir_all(&dir)?;
    Ok(())
}

/// `dist::store` + `dist::recovery` with the WAL on: the durable tree's
/// insert, read-under-write and replay costs.
fn durable_layer(ctx: &mut Ctx<'_>, inputs: &TreeInputs, work_dir: &Path) -> Result<()> {
    let dir = work_dir.join(format!("probe-durable-{}", std::process::id()));
    let rep = one_rep(&dir, &inputs.data, ctx.tracer, 0)?;
    ctx.tally.absorb(rep.tally);
    let cycle = INSERTS_PER_READ + 1;
    let (mut insert_ns, mut inserts, mut read_ns, mut reads, mut stall_ns) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for (i, &ns) in rep.latencies_ns.iter().enumerate() {
        if i % cycle == INSERTS_PER_READ {
            read_ns += ns;
            reads += 1;
        } else {
            insert_ns += ns;
            inserts += 1;
            stall_ns = stall_ns.max(ns);
        }
    }
    let insert_us = insert_ns as f64 / inserts.max(1) as f64 / 1e3;
    ctx.put("dist.durable_insert_us", insert_us);
    ctx.put(
        "dist.wal_share",
        1.0 - ctx.get("dist.m4_insert_us") / insert_us,
    );
    ctx.put(
        "dist.read_under_write_us",
        read_ns as f64 / reads.max(1) as f64 / 1e3,
    );
    ctx.put(
        "dist.recover_ms",
        rep.restart_s.get(1).copied().unwrap_or(f64::NAN) * 1e3,
    );
    ctx.put("dist.snapshot_stall_max_ms", stall_ns as f64 / 1e6);
    Ok(())
}
