//! The five workloads and the runner the four steady-state ones share.
//!
//! Every workload is closed-loop (SemTree's callers wait for each
//! reply) and runs in one process pinned to one CPU. `k = 10`
//! everywhere.

pub mod doc;
pub mod ingest;
pub mod knn;
pub mod serve;

use std::time::{Duration, Instant};

use semtree_kdtree::Neighbor;
use semtree_par::metric::euclidean;

use crate::error::{BenchError, Result};
use crate::estimators::{quiet_reps, QuietCycle};
use crate::inputs::Sizes;
use crate::json::Json;
use crate::trace::{SpanId, Tracer};

/// Result-set size of every k-NN in the benchmark.
pub const K: usize = 10;

/// What a run was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Input sizes.
    pub sizes: Sizes,
    /// Seed every input derives from.
    pub seed: u64,
    /// Time for everything that is measured: set-ups and passes.
    pub seconds: f64,
    /// Traced run: one set-up, spans on alternate passes, and the
    /// measured phase shortened to leave time for the layer probes.
    pub trace: bool,
}

/// Ops attempted and ops that errored, were shed, or failed a check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that did not produce a correct answer.
    pub failed: u64,
}

impl Tally {
    /// Count one op.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Fold another tally in.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// The end-to-end metrics of one run (see `BENCHMARK.json`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Time before the workload can serve its first op.
    pub setup_s: f64,
    /// Completed ops per second.
    pub ops_per_s: f64,
    /// Median op latency.
    pub p50_us: f64,
    /// 99th-percentile op latency.
    pub p99_us: f64,
    /// Resident bytes the first set-up added, per point resident.
    pub rss_bytes_per_point: f64,
}

/// What the traced variant of a run adds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceFacts {
    /// `1 − traced ops/s ÷ untraced ops/s` on the workload's own loop.
    pub overhead_ratio: f64,
    /// Harness self time per op (op span minus the layer-call spans).
    pub op_self_us: f64,
    /// Layer time per op as the spans saw it.
    pub op_layer_us: f64,
}

impl TraceFacts {
    /// Read the per-op split off the `op` spans `tracer` recorded.
    ///
    /// # Errors
    /// Fails when no `op` span was recorded.
    pub fn from_spans(tracer: &Tracer, overhead_ratio: f64) -> Result<TraceFacts> {
        let table = tracer.by_name();
        let op = table
            .iter()
            .find(|t| t.name == "op")
            .ok_or_else(|| missing("op spans"))?;
        let per_op_us = |ns: u64| ns as f64 / op.count.max(1) as f64 / 1e3;
        Ok(TraceFacts {
            overhead_ratio,
            op_self_us: per_op_us(op.self_ns),
            op_layer_us: per_op_us(op.total_ns - op.self_ns),
        })
    }
}

/// Everything a workload run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The end-to-end metrics.
    pub end_to_end: EndToEnd,
    /// Ops attempted and failed, measured phase plus answer checks.
    pub tally: Tally,
    /// Sizes and sample counts for the environment record.
    pub facts: Vec<(String, Json)>,
    /// Present on traced runs.
    pub trace: Option<TraceFacts>,
}

/// Reusable per-chunk buffers.
#[derive(Default)]
pub struct Scratch {
    /// Per-op latencies of the last chunk, nanoseconds, in op order.
    pub latencies_ns: Vec<u64>,
    /// Ops counted so far.
    pub tally: Tally,
}

/// A workload with a from-scratch set-up and a steady-state op.
pub trait Steady: Sized {
    /// The seeded inputs the workload runs on.
    type Inputs;

    /// Build a fresh instance, ready for its first op; returns the
    /// seconds each chunk of the set-up took, in order, under the name
    /// of the stage the chunk belongs to. Every call must cut the
    /// set-up into the same chunks.
    fn set_up(
        inputs: &Self::Inputs,
        tracer: &mut Tracer,
        parent: SpanId,
    ) -> Result<(Self, Vec<(&'static str, f64)>)>;

    /// Points resident once set up (the RSS denominator).
    fn resident_points(&self) -> usize;

    /// Ops in one cycle of the measured phase: requests `r` and
    /// `r + cycle_ops` are the same op on the same input.
    fn cycle_ops(inputs: &Self::Inputs) -> usize;

    /// Run the ops `first_request .. first_request + ops` once, closed
    /// loop. Returns the wall time that counts towards throughput and
    /// leaves the ops' latencies in `scratch.latencies_ns`, in op order.
    fn chunk(
        &mut self,
        inputs: &Self::Inputs,
        first_request: u64,
        ops: usize,
        scratch: &mut Scratch,
        tracer: &mut Tracer,
    ) -> Result<Duration>;

    /// The answer checks that run outside the measured phase.
    fn check(&mut self, inputs: &Self::Inputs) -> Result<Tally>;

    /// Stop every thread and remove every file the instance owns.
    fn tear_down(self) -> Result<()>;
}

/// `VmRSS` of this process in bytes.
///
/// # Errors
/// Fails when `/proc/self/status` is unreadable or has no `VmRSS`.
pub fn rss_bytes() -> Result<u64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map(|kb| kb * 1024)
        .ok_or_else(|| BenchError::Layer("no VmRSS in /proc/self/status".into()))
}

fn missing(what: &str) -> BenchError {
    BenchError::Layer(format!("{what}: nothing was measured"))
}

/// Per stage name, the sum over its chunks of the fastest repetition
/// (the stages' shares of `setup_s`), in first-appearance order.
fn stage_shares(chunk_reps: &[Vec<(&'static str, f64)>]) -> Vec<(&'static str, f64)> {
    let mut shares: Vec<(&'static str, f64)> = Vec::new();
    let Some(first) = chunk_reps.first() else {
        return shares;
    };
    for (c, &(name, _)) in first.iter().enumerate() {
        let best = chunk_reps
            .iter()
            .filter_map(|rep| rep.get(c).map(|&(_, secs)| secs))
            .fold(f64::INFINITY, f64::min);
        match shares.iter_mut().find(|(n, _)| *n == name) {
            Some((_, total)) => *total += best,
            None => shares.push((name, best)),
        }
    }
    shares
}

/// Share of `--seconds` that goes to the set-ups themselves.
const SETUP_SHARE: f64 = 0.35;
/// Share of `--seconds` a traced run spends on passes; the layer
/// probes get the rest.
const TRACED_SHARE: f64 = 0.3;

/// How many repetitions a run makes, given what the first set-up took:
/// as many as fit their set-ups into [`SETUP_SHARE`] of `--seconds`,
/// within the sizes' limits. A traced run sets up once.
fn planned_reps(opts: &RunOptions, first_setup: Duration) -> usize {
    if opts.trace {
        return 1;
    }
    let fit = (opts.seconds * SETUP_SHARE / first_setup.as_secs_f64().max(1e-9)) as usize;
    fit.clamp(opts.sizes.reps.max(1), opts.sizes.max_reps.max(1))
}

/// How long repetition `rep` of `reps` may spend on its passes, decided
/// when its set-up is done: an even share of what is left of `seconds`
/// once the repetitions still to come have paid what a repetition has
/// cost so far outside its passes (set-up, warm-up, tear-down).
fn pass_slice(
    seconds: f64,
    reps: usize,
    rep: usize,
    elapsed: Duration,
    in_passes: Duration,
) -> Duration {
    let outside = elapsed.saturating_sub(in_passes).as_secs_f64() / (rep + 1) as f64;
    let to_come = reps.saturating_sub(rep + 1) as f64;
    let left = seconds - elapsed.as_secs_f64() - to_come * outside;
    Duration::from_secs_f64((left / (to_come + 1.0)).max(0.0))
}

/// Run a steady-state workload end to end. The run is cut into
/// repetitions spread over its whole length ([`planned_reps`]), each one a
/// from-scratch set-up, a warm-up chunk, its share of the measured
/// phase, and a tear-down; the answer checks run on the last instance.
/// The measured phase replays the workload's cycle of ops chunk by
/// chunk, pass after pass, straight through the repetitions, and a
/// [`QuietCycle`] keeps the fastest repetition of every chunk and op.
///
/// # Errors
/// Fails when a product layer errors during set-up or tear-down, or
/// nothing could be measured. Failed *ops* are counted, not raised.
pub fn run_steady<W: Steady>(
    inputs: &W::Inputs,
    opts: &RunOptions,
    tracer: &mut Tracer,
) -> Result<Outcome> {
    let chunk_ops = opts.sizes.chunk_ops.max(1);
    let cycle_ops = W::cycle_ops(inputs);
    let chunks = cycle_ops / chunk_ops;
    if chunks == 0 || cycle_ops % chunk_ops != 0 {
        return Err(BenchError::Layer(format!(
            "a cycle of {cycle_ops} ops is not whole chunks of {chunk_ops}"
        )));
    }
    // Every repetition runs the whole cycle at least once; a traced one
    // twice, because spans are on for every other pass.
    let least_chunks = chunks * if opts.trace { 2 } else { 1 };
    let mut scratch = Scratch::default();
    let mut chunk_reps: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let mut rss_bytes_per_point = 0.0;
    let mut resident = 0;
    let mut traced = QuietCycle::new(chunks, chunk_ops);
    let mut untraced = QuietCycle::new(chunks, chunk_ops);
    let mut next_chunk = 0usize;

    // `--seconds` covers everything that is measured: the set-ups and
    // the passes. How many repetitions there are is decided once the
    // first set-up has shown what a set-up costs.
    let run_started = Instant::now();
    let mut in_passes = Duration::ZERO;
    let mut reps = 1;
    let mut rep = 0;
    while rep < reps {
        let before = rss_bytes()?;
        let rep_started = Instant::now();
        tracer.set_enabled(opts.trace);
        let span = tracer.open("setup", SpanId::ROOT, rep as u64);
        let (mut instance, chunks_s) = W::set_up(inputs, tracer, span)?;
        tracer.close(span);
        chunk_reps.push(chunks_s);
        resident = instance.resident_points();
        if rep == 0 {
            // First repetition only: after a drop the allocator keeps
            // pages, so later repetitions grow RSS by less.
            let grown = rss_bytes()?.saturating_sub(before);
            rss_bytes_per_point = grown as f64 / resident.max(1) as f64;
            reps = planned_reps(opts, rep_started.elapsed());
        }

        // Warm-up: connections, lazy set-up and the first faults.
        tracer.set_enabled(false);
        let counted = scratch.tally;
        instance.chunk(inputs, 0, chunk_ops, &mut scratch, tracer)?;
        scratch.tally = counted;

        let slice = if opts.trace {
            Duration::from_secs_f64(opts.seconds * TRACED_SHARE)
        } else {
            pass_slice(opts.seconds, reps, rep, run_started.elapsed(), in_passes)
        };
        let passes_started = Instant::now();
        let deadline = passes_started + slice;
        let mut done = 0;
        while done < least_chunks || Instant::now() < deadline {
            let (pass, chunk) = (next_chunk / chunks, next_chunk % chunks);
            let spans_on = opts.trace && pass % 2 == 1;
            tracer.set_enabled(spans_on);
            let first_request = (next_chunk * chunk_ops) as u64;
            let elapsed = instance.chunk(inputs, first_request, chunk_ops, &mut scratch, tracer)?;
            let cycle = if spans_on { &mut traced } else { &mut untraced };
            cycle.record_time(chunk, elapsed);
            cycle.record_latencies(chunk, &scratch.latencies_ns);
            next_chunk += 1;
            done += 1;
        }
        in_passes += passes_started.elapsed();
        tracer.set_enabled(opts.trace);

        if rep + 1 == reps {
            scratch.tally.absorb(instance.check(inputs)?);
        }
        instance.tear_down()?;
        rep += 1;
    }

    let chunk_seconds: Vec<Vec<f64>> = chunk_reps
        .iter()
        .map(|rep| rep.iter().map(|&(_, secs)| secs).collect())
        .collect();
    let setup_s = quiet_reps(&chunk_seconds).ok_or_else(|| missing("set-up"))?;
    let quiet = untraced
        .summary()
        .ok_or_else(|| missing("measured phase"))?;
    let trace = if opts.trace {
        let traced_quiet = traced.summary().ok_or_else(|| missing("traced passes"))?;
        let overhead = 1.0 - traced_quiet.ops_per_s / quiet.ops_per_s;
        Some(TraceFacts::from_spans(tracer, overhead)?)
    } else {
        None
    };

    // The estimator the fastest repetition replaces, kept in the record
    // so the two can be compared run to run.
    let median_chunk = untraced.median_chunk_ops_per_s().unwrap_or(f64::NAN);
    let mut facts = vec![
        (
            "ops_per_s_median_chunk".to_string(),
            Json::Num(median_chunk),
        ),
        ("passes".to_string(), Json::Num(quiet.passes as f64)),
        ("chunk_ops".to_string(), Json::Num(chunk_ops as f64)),
        ("latency_samples".to_string(), Json::Num(cycle_ops as f64)),
        ("setup_reps".to_string(), Json::Num(reps as f64)),
        ("resident_points".to_string(), Json::Num(resident as f64)),
    ];
    for (name, secs) in stage_shares(&chunk_reps) {
        facts.push((format!("setup_stage_s.{name}"), Json::Num(secs)));
    }
    Ok(Outcome {
        end_to_end: EndToEnd {
            setup_s,
            ops_per_s: quiet.ops_per_s,
            p50_us: quiet.p50_us,
            p99_us: quiet.p99_us,
            rss_bytes_per_point,
        },
        tally: scratch.tally,
        facts,
        trace,
    })
}

/// Cheap per-op answer check for a k-NN reply: exactly `K` hits (the
/// trees always hold more than `K` points), closest first.
#[must_use]
pub fn well_formed(hits: &[Neighbor<u64>]) -> bool {
    hits.len() == K && hits.windows(2).all(|w| w[0].dist <= w[1].dist)
}

/// Exact k-NN by brute force: the `K` smallest distances from `query`
/// to `data`, ascending.
#[must_use]
fn brute_force_dists(data: &[Vec<f64>], query: &[f64]) -> Vec<f64> {
    let mut dists: Vec<f64> = data.iter().map(|p| euclidean(p, query)).collect();
    dists.sort_by(f64::total_cmp);
    dists.truncate(K);
    dists
}

/// Does `hits` equal the brute-force answer? Distances must match the
/// exact ones (ties may pick different payloads), and every payload
/// must really sit at the distance reported for it.
#[must_use]
pub fn matches_brute_force(data: &[Vec<f64>], query: &[f64], hits: &[(f64, u64)]) -> bool {
    const EPS: f64 = 1e-9;
    let exact = brute_force_dists(data, query);
    hits.len() == exact.len()
        && hits.iter().zip(&exact).all(|(&(dist, payload), want)| {
            let actual = usize::try_from(payload)
                .ok()
                .and_then(|i| data.get(i))
                .map(|p| euclidean(p, query));
            (dist - want).abs() <= EPS && actual.is_some_and(|a| (a - dist).abs() <= EPS)
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_counts_failures() {
        let mut t = Tally::default();
        t.record(true);
        t.record(false);
        t.absorb(Tally {
            attempted: 3,
            failed: 1,
        });
        assert_eq!(
            t,
            Tally {
                attempted: 5,
                failed: 2
            }
        );
    }

    #[test]
    fn set_ups_are_repeated_as_often_as_fits_their_share() {
        let opts = |seconds, trace| RunOptions {
            sizes: Sizes::FULL,
            seed: 1,
            seconds,
            trace,
        };
        // 35 % of 20 s holds seven 1 s set-ups.
        assert_eq!(planned_reps(&opts(20.0, false), Duration::from_secs(1)), 7);
        // Never fewer than the sizes' minimum, never more than their maximum.
        assert_eq!(planned_reps(&opts(20.0, false), Duration::from_secs(9)), 3);
        assert_eq!(
            planned_reps(&opts(20.0, false), Duration::from_millis(1)),
            12
        );
        // A traced run sets up once.
        assert_eq!(planned_reps(&opts(20.0, true), Duration::from_secs(1)), 1);
    }

    #[test]
    fn pass_slices_share_out_what_the_set_ups_leave() {
        let secs = Duration::from_secs_f64;
        // First of 4 repetitions, 1 s in (all of it set-up): the three
        // to come will cost 1 s each, so 16 s are left for 4 slices.
        assert_eq!(pass_slice(20.0, 4, 0, secs(1.0), secs(0.0)), secs(4.0));
        // Third of 4, 12.6 s in, 8 s of that in passes: a repetition has
        // cost (12.6 - 8) / 3 outside its passes, the last one will too.
        let slice = pass_slice(20.0, 4, 2, secs(12.6), secs(8.0));
        assert!((slice.as_secs_f64() - (20.0 - 12.6 - 4.6 / 3.0) / 2.0).abs() < 1e-9);
        // Nothing left: the passes keep their minimum, never a negative time.
        assert_eq!(pass_slice(2.0, 4, 0, secs(9.0), secs(0.0)), Duration::ZERO);
    }

    #[test]
    fn stage_shares_sum_the_best_chunk_per_stage() {
        let reps = vec![
            vec![("create", 1.0), ("inserts", 5.0), ("inserts", 2.0)],
            vec![("create", 3.0), ("inserts", 4.0), ("inserts", 6.0)],
        ];
        assert_eq!(stage_shares(&reps), vec![("create", 1.0), ("inserts", 6.0)]);
        assert!(stage_shares(&[]).is_empty());
    }

    #[test]
    fn rss_is_readable_and_positive() {
        assert!(rss_bytes().unwrap() > 0);
    }

    #[test]
    fn brute_force_check_accepts_the_exact_answer_and_rejects_a_wrong_one() {
        let data: Vec<Vec<f64>> = (0..50).map(|i| vec![f64::from(i), 0.0]).collect();
        let query = [10.2, 0.0];
        let mut exact: Vec<(f64, u64)> = data
            .iter()
            .enumerate()
            .map(|(i, p)| (euclidean(p, &query), i as u64))
            .collect();
        exact.sort_by(|a, b| a.0.total_cmp(&b.0));
        exact.truncate(K);
        assert!(matches_brute_force(&data, &query, &exact));
        let mut wrong = exact.clone();
        wrong[K - 1] = (euclidean(&data[40], &query), 40);
        assert!(!matches_brute_force(&data, &query, &wrong));
        // Right distance, payload that is not actually there.
        let mut lying = exact.clone();
        lying[0].1 = 49;
        assert!(!matches_brute_force(&data, &query, &lying));
        assert!(!matches_brute_force(&data, &query, &exact[..K - 1]));
    }

    #[test]
    fn well_formed_wants_k_sorted_hits() {
        let hits: Vec<Neighbor<u64>> = (0..K)
            .map(|i| Neighbor {
                dist: i as f64,
                payload: i as u64,
            })
            .collect();
        assert!(well_formed(&hits));
        assert!(!well_formed(&hits[1..]));
        let mut unsorted = hits.clone();
        unsorted.swap(0, 5);
        assert!(!well_formed(&unsorted));
    }
}
