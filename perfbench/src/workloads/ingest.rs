//! `ingest_durable`: writes beside reads on the layers the read
//! workloads use. A four-partition durable tree (default WAL options:
//! 4 MiB segments, a snapshot every 256 records, columnar;
//! acknowledged = flushed, not fsynced) takes a closed-loop mix of 16
//! inserts then one k-NN for a point inserted in that cycle, which must
//! come back at distance 0. `setup_s` is what a restart pays: creating
//! the empty durable tree plus a cold replay of the directory the
//! repetition wrote, which must reproduce the live tree's partitions.
//! The whole ingest is repeated from scratch for as long as the run
//! lasts; every repetition does the same ops in the same order, so the
//! fastest repetition of each chunk (throughput) and of each op
//! (latency percentiles) is kept.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use semtree_cluster::CostModel;
use semtree_dist::{
    build_local_durable, inspect_wal, DistSemTree, PartitionStats, Query, QueryOutcome, WalOptions,
};

use super::knn::{dist_config, knn_pairs};
use super::{rss_bytes, EndToEnd, Outcome, RunOptions, Tally, TraceFacts, K};
use crate::error::{layer, BenchError, Result};
use crate::estimators::{percentile, quiet_reps};
use crate::json::Json;
use crate::trace::{SpanId, Tracer};

/// Partitions of the durable tree (one routing root + three data).
pub const PARTITIONS: usize = 4;
/// Inserts between two reads.
pub const INSERTS_PER_READ: usize = 16;
/// Ops per timed chunk of the ingest: eight insert-and-read cycles.
pub const OP_CHUNK: usize = 8 * (INSERTS_PER_READ + 1);

/// What one from-scratch repetition measured.
pub struct Rep {
    /// `[create, replay]` seconds.
    pub restart_s: Vec<f64>,
    /// Seconds per `OP_CHUNK` ops.
    pub chunk_s: Vec<f64>,
    /// Per-op latencies in op order, nanoseconds: every
    /// `INSERTS_PER_READ + 1`-th op is the read.
    pub latencies_ns: Vec<u64>,
    /// Ops and checks counted.
    pub tally: Tally,
    /// RSS growth from before the create to after the last op.
    pub rss_grown: u64,
}

/// Create the empty durable tree in `dir`.
///
/// # Errors
/// Fails when the directory already holds a WAL or cannot be written.
pub fn create_durable(dir: &Path, data: &[Vec<f64>], options: WalOptions) -> Result<DistSemTree> {
    let sample: Vec<Vec<f64>> = data.iter().take(2048).cloned().collect();
    build_local_durable(
        dist_config(PARTITIONS),
        CostModel::zero(),
        PARTITIONS,
        &sample,
        dir,
        options,
    )
    .map_err(layer("build_local_durable"))
}

/// Per-partition stats of a live tree, ascending partition id.
///
/// # Errors
/// Fails when a partition does not answer.
pub fn live_partitions(tree: &DistSemTree) -> Result<Vec<(u32, PartitionStats)>> {
    let mut parts = tree
        .try_global_stats()
        .map_err(layer("global stats"))?
        .partitions;
    parts.sort_by_key(|(id, _)| *id);
    Ok(parts)
}

/// Did the read see its own write? The inserted payload must come back
/// at distance 0 (unless `K` other points sit at exactly that spot).
fn read_own_write(outcome: Option<Vec<(f64, u64)>>, payload: u64) -> bool {
    outcome.is_some_and(|hits| {
        hits.first().is_some_and(|h| h.0 == 0.0)
            && (hits.iter().any(|h| h.1 == payload && h.0 == 0.0)
                || (hits.len() == K && hits.iter().all(|h| h.0 == 0.0)))
    })
}

/// One from-scratch repetition in `dir`: create, ingest with
/// interleaved reads, shut down, replay cold, compare, clean up.
///
/// # Errors
/// Fails when the durable tree cannot be created or its WAL replayed.
pub fn one_rep(dir: &Path, data: &[Vec<f64>], tracer: &mut Tracer, rep: u64) -> Result<Rep> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    let rss_before = rss_bytes()?;
    let setup = tracer.open("setup", SpanId::ROOT, rep);
    let (tree, create_s) = tracer.timed("setup.create_durable", setup, || {
        create_durable(dir, data, WalOptions::default())
    });
    tracer.close(setup);
    let tree = tree?;

    let cycles = data.len() / INSERTS_PER_READ;
    let total_ops = cycles * (INSERTS_PER_READ + 1);
    let mut latencies_ns = Vec::with_capacity(total_ops);
    let mut chunk_s = Vec::with_capacity(total_ops / OP_CHUNK + 1);
    let mut tally = Tally::default();
    let mut chunk_start = Instant::now();
    let mut request = 0u64;
    let mut finish_op = |started: Instant, latencies_ns: &mut Vec<u64>| {
        latencies_ns.push(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
        if latencies_ns.len() % OP_CHUNK == 0 {
            chunk_s.push(chunk_start.elapsed().as_secs_f64());
            chunk_start = Instant::now();
        }
    };
    for cycle in 0..cycles {
        let base = cycle * INSERTS_PER_READ;
        for (i, point) in data[base..base + INSERTS_PER_READ].iter().enumerate() {
            let started = Instant::now();
            let op = tracer.open("op", SpanId::ROOT, request);
            let call = tracer.open("dist.durable_insert", op, request);
            let outcome = tree.query(Query::insert(point, (base + i) as u64));
            tracer.close(call);
            tally.record(outcome.and_then(QueryOutcome::inserted).is_ok());
            tracer.close(op);
            finish_op(started, &mut latencies_ns);
            request += 1;
        }
        let mine = base + cycle % INSERTS_PER_READ;
        let started = Instant::now();
        let op = tracer.open("op", SpanId::ROOT, request);
        let call = tracer.open("dist.read_under_write", op, request);
        let hits = knn_pairs(&tree, &data[mine]);
        tracer.close(call);
        tally.record(read_own_write(hits, mine as u64));
        tracer.close(op);
        finish_op(started, &mut latencies_ns);
        request += 1;
    }
    let rss_grown = rss_bytes()?.saturating_sub(rss_before);

    // The restart: drop the live tree, replay the directory cold.
    let live = live_partitions(&tree)?;
    let stored = tree.len();
    tree.shutdown();
    let (recovered, replay_s) = tracer.timed("setup.replay", SpanId::ROOT, || inspect_wal(dir));
    let recovered = recovered.map_err(layer("inspect_wal"))?;
    tally.record(recovered.partitions == live);
    tally.record(stored == cycles * INSERTS_PER_READ);
    std::fs::remove_dir_all(dir)?;

    Ok(Rep {
        restart_s: vec![create_s, replay_s],
        chunk_s,
        latencies_ns,
        tally,
        rss_grown,
    })
}

/// Each op's fastest latency over `reps`, in microseconds, ascending.
fn quiet_latencies_us(reps: &[Rep]) -> Vec<f64> {
    let ops = reps.iter().map(|r| r.latencies_ns.len()).min().unwrap_or(0);
    let mut as_us: Vec<f64> = (0..ops)
        .map(|op| {
            let ns = reps.iter().map(|r| r.latencies_ns[op]).min().unwrap_or(0);
            ns as f64 / 1e3
        })
        .collect();
    as_us.sort_by(f64::total_cmp);
    as_us
}

/// Run the workload: from-scratch repetitions in `work_dir`, at least
/// `sizes.reps` of them and as many more as fit into `seconds`.
///
/// # Errors
/// Fails when the durable tree cannot be created or its WAL replayed.
pub fn run(
    data: &[Vec<f64>],
    opts: &RunOptions,
    work_dir: &Path,
    tracer: &mut Tracer,
) -> Result<Outcome> {
    let dir: PathBuf = work_dir.join(format!("wal-{}", std::process::id()));
    let started = Instant::now();
    let budget = Duration::from_secs_f64(opts.seconds);
    let mut longest = Duration::ZERO;
    let mut done: Vec<Rep> = Vec::new();
    loop {
        // A traced run pairs one untraced repetition with one traced one.
        let enough = if opts.trace {
            done.len() >= 2
        } else {
            done.len() >= opts.sizes.reps && started.elapsed() + longest > budget
        };
        if enough {
            break;
        }
        let rep = done.len();
        tracer.set_enabled(opts.trace && rep % 2 == 1);
        let rep_started = Instant::now();
        done.push(one_rep(&dir, data, tracer, rep as u64)?);
        longest = longest.max(rep_started.elapsed());
    }
    tracer.set_enabled(opts.trace);
    let reps = done.len();

    let missing = || BenchError::Layer("ingest_durable: nothing was measured".into());
    let restart: Vec<Vec<f64>> = done.iter().map(|r| r.restart_s.clone()).collect();
    let setup_s = quiet_reps(&restart).ok_or_else(missing)?;
    let measured: &[Rep] = if opts.trace { &done[..1] } else { &done };
    let chunk_reps: Vec<Vec<f64>> = measured.iter().map(|r| r.chunk_s.clone()).collect();
    let chunks = chunk_reps.first().map_or(0, Vec::len);
    let quiet_s = quiet_reps(&chunk_reps).ok_or_else(missing)?;
    let ops_per_s = (chunks * OP_CHUNK) as f64 / quiet_s;

    // Latencies follow the same rule as throughput, op by op: the tree
    // grows and one insert in 256 per partition pays a snapshot, but
    // op `i` does the same work in every repetition.
    let as_us = quiet_latencies_us(measured);
    let p50_us = percentile(&as_us, 0.50).ok_or_else(missing)?;
    let p99_us = percentile(&as_us, 0.99).ok_or_else(missing)?;

    let points = (data.len() / INSERTS_PER_READ) * INSERTS_PER_READ;
    let rss_bytes_per_point = done.first().map_or(0, |r| r.rss_grown) as f64 / points.max(1) as f64;
    let mut tally = Tally::default();
    for rep in &done {
        tally.absorb(rep.tally);
    }

    let trace = if opts.trace {
        let traced_s: f64 = done.get(1).map_or(0.0, |r| r.chunk_s.iter().sum());
        let untraced_s: f64 = done.first().map_or(0.0, |r| r.chunk_s.iter().sum());
        Some(TraceFacts::from_spans(tracer, 1.0 - untraced_s / traced_s)?)
    } else {
        None
    };

    Ok(Outcome {
        end_to_end: EndToEnd {
            setup_s,
            ops_per_s,
            p50_us,
            p99_us,
            rss_bytes_per_point,
        },
        tally,
        facts: vec![
            ("reps".to_string(), Json::Num(reps as f64)),
            ("chunks".to_string(), Json::Num(chunks as f64)),
            ("chunk_ops".to_string(), Json::Num(OP_CHUNK as f64)),
            ("latency_samples".to_string(), Json::Num(as_us.len() as f64)),
            ("resident_points".to_string(), Json::Num(points as f64)),
        ],
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_latencies_take_each_ops_fastest_repetition() {
        let rep = |latencies_ns: Vec<u64>| Rep {
            restart_s: Vec::new(),
            chunk_s: Vec::new(),
            latencies_ns,
            tally: Tally::default(),
            rss_grown: 0,
        };
        let reps = [
            rep(vec![9_000, 2_000, 7_000]),
            rep(vec![3_000, 8_000, 5_000]),
        ];
        assert_eq!(quiet_latencies_us(&reps), vec![2.0, 3.0, 5.0]);
        assert!(quiet_latencies_us(&[]).is_empty());
    }
}
