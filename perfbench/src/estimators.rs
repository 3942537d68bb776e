//! The quiet-machine estimators and the percentile picker.
//!
//! On a shared box interference only ever *adds* time, so the
//! estimators keep the fastest repetition of whatever repeats exactly:
//! [`quiet_reps`] sums the fastest repetition of each fixed chunk of a
//! phase that is run several times from scratch (growing-state phases:
//! set-up, ingest), and [`QuietCycle`] does the same for a steady-state
//! phase, which replays one cycle of ops for as long as the run lasts
//! (fastest repetition of each chunk for throughput, of each op for the
//! latency percentiles).

use std::time::{Duration, Instant};

use crate::error::Result;

/// Nearest-rank percentile of an ascending slice; `q` in `[0, 1]`.
/// `None` on an empty slice.
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted
        .get(rank.saturating_sub(1).min(sorted.len() - 1))
        .copied()
}

fn ascending(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// One round of a layer probe: a fixed number of ops, timed as a whole
/// and per op.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Round {
    /// Ops completed per second of round wall time.
    pub ops_per_s: f64,
    /// Median per-op latency in the round, microseconds.
    pub p50_us: f64,
    /// 99th-percentile per-op latency in the round, microseconds.
    pub p99_us: f64,
}

impl Round {
    /// Summarise a round from its wall time and per-op latencies
    /// (nanoseconds; sorted in place). `None` when nothing ran.
    #[must_use]
    pub fn summarise(elapsed: Duration, latencies_ns: &mut [u64]) -> Option<Round> {
        latencies_ns.sort_unstable();
        let as_us: Vec<f64> = latencies_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
        let secs = elapsed.as_secs_f64();
        if secs <= 0.0 {
            return None;
        }
        Some(Round {
            ops_per_s: as_us.len() as f64 / secs,
            p50_us: percentile(&as_us, 0.50)?,
            p99_us: percentile(&as_us, 0.99)?,
        })
    }
}

/// What a [`QuietCycle`] read off the fastest repetition of every chunk
/// and every op.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quiet {
    /// Ops of one cycle over the sum of each chunk's fastest time.
    pub ops_per_s: f64,
    /// Median over the cycle's ops of each op's fastest latency.
    pub p50_us: f64,
    /// 99th percentile over the cycle's ops of each op's fastest latency.
    pub p99_us: f64,
    /// Times the least-repeated chunk was run.
    pub passes: usize,
}

/// `quiet_reps` for a steady-state phase. The phase replays one fixed
/// cycle of ops (the timed queries, in order) over and over, cut into
/// chunks of `chunk_ops`; each chunk and each op is therefore repeated
/// once per pass, and the fastest repetition of each is kept. A slow
/// stretch of the machine, whether it lasts one op or ten seconds, only
/// moves the result if it covers every repetition of the same chunk.
#[derive(Debug, Clone)]
pub struct QuietCycle {
    chunk_ops: usize,
    best_chunk_ns: Vec<u64>,
    best_op_ns: Vec<u64>,
    timed: Vec<usize>,
    /// Every chunk's throughput as it was measured, for the median the
    /// fastest repetition replaces.
    chunk_ops_per_s: Vec<f64>,
}

impl QuietCycle {
    /// A cycle of `chunks` chunks of `chunk_ops` ops each.
    #[must_use]
    pub fn new(chunks: usize, chunk_ops: usize) -> QuietCycle {
        QuietCycle {
            chunk_ops,
            best_chunk_ns: vec![u64::MAX; chunks],
            best_op_ns: vec![u64::MAX; chunks * chunk_ops],
            timed: vec![0; chunks],
            chunk_ops_per_s: Vec::new(),
        }
    }

    /// One repetition of chunk `chunk` took `elapsed` as a whole.
    pub fn record_time(&mut self, chunk: usize, elapsed: Duration) {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        if let (Some(best), Some(timed)) =
            (self.best_chunk_ns.get_mut(chunk), self.timed.get_mut(chunk))
        {
            *best = (*best).min(ns);
            *timed += 1;
            if ns > 0 {
                self.chunk_ops_per_s
                    .push(self.chunk_ops as f64 * 1e9 / ns as f64);
            }
        }
    }

    /// One repetition of chunk `chunk` saw these per-op latencies, in
    /// op order.
    pub fn record_latencies(&mut self, chunk: usize, latencies_ns: &[u64]) {
        let from = chunk * self.chunk_ops;
        if let Some(best) = self.best_op_ns.get_mut(from..from + self.chunk_ops) {
            for (b, &ns) in best.iter_mut().zip(latencies_ns) {
                *b = (*b).min(ns);
            }
        }
    }

    /// Median over every timed repetition of the chunks' throughputs.
    #[must_use]
    pub fn median_chunk_ops_per_s(&self) -> Option<f64> {
        percentile(&ascending(self.chunk_ops_per_s.clone()), 0.50)
    }

    /// The summary; `None` until every chunk was timed and every op
    /// has a latency.
    #[must_use]
    pub fn summary(&self) -> Option<Quiet> {
        let passes = self.timed.iter().copied().min().filter(|&p| p > 0)?;
        if self.best_op_ns.contains(&u64::MAX) {
            return None;
        }
        let cycle_s: f64 = self.best_chunk_ns.iter().map(|&ns| ns as f64 / 1e9).sum();
        if cycle_s <= 0.0 {
            return None;
        }
        let as_us = ascending(self.best_op_ns.iter().map(|&ns| ns as f64 / 1e3).collect());
        Some(Quiet {
            ops_per_s: self.best_op_ns.len() as f64 / cycle_s,
            p50_us: percentile(&as_us, 0.50)?,
            p99_us: percentile(&as_us, 0.99)?,
            passes,
        })
    }
}

/// Sum over chunks of the fastest repetition of that chunk. Every
/// repetition must have cut the phase into the same chunks; `None`
/// when there are no repetitions, no chunks, or the cuts disagree.
#[must_use]
pub fn quiet_reps(reps: &[Vec<f64>]) -> Option<f64> {
    let chunks = reps.first()?.len();
    if chunks == 0 || reps.iter().any(|r| r.len() != chunks) {
        return None;
    }
    Some(
        (0..chunks)
            .map(|c| reps.iter().map(|r| r[c]).fold(f64::INFINITY, f64::min))
            .sum(),
    )
}

/// Run one closed-loop, depth-1 chunk: `ops` calls of `op`, each timed
/// on its own into `latencies_ns` (the caller's reusable buffer, left
/// in op order); returns the chunk's wall time.
///
/// # Errors
/// Propagates the first error `op` returns.
pub fn depth1_chunk(
    ops: usize,
    latencies_ns: &mut Vec<u64>,
    mut op: impl FnMut(usize) -> Result<()>,
) -> Result<Duration> {
    latencies_ns.clear();
    let start = Instant::now();
    for i in 0..ops {
        let t = Instant::now();
        op(i)?;
        latencies_ns.push(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
    Ok(start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), Some(50.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn p99_of_a_5000_op_round_leaves_50_samples_beyond_it() {
        let v: Vec<f64> = (0..5000).map(f64::from).collect();
        let p99 = percentile(&v, 0.99).unwrap();
        assert_eq!(v.iter().filter(|&&x| x > p99).count(), 50);
    }

    #[test]
    fn round_summary_reads_throughput_and_percentiles() {
        let mut lat: Vec<u64> = (1..=100).rev().map(|i| i * 1_000).collect();
        let r = Round::summarise(Duration::from_millis(10), &mut lat).unwrap();
        assert!((r.ops_per_s - 10_000.0).abs() < 1e-6);
        assert_eq!(r.p50_us, 50.0);
        assert_eq!(r.p99_us, 99.0);
        assert_eq!(Round::summarise(Duration::from_millis(1), &mut []), None);
    }

    #[test]
    fn quiet_cycle_keeps_the_fastest_repetition_of_every_chunk_and_op() {
        // Two chunks of two ops. Pass 1 is quiet on chunk 0 and noisy
        // on chunk 1, pass 2 the other way round.
        let mut cycle = QuietCycle::new(2, 2);
        assert_eq!(cycle.summary(), None);
        cycle.record_time(0, Duration::from_micros(10));
        cycle.record_latencies(0, &[4_000, 6_000]);
        cycle.record_time(1, Duration::from_micros(900));
        cycle.record_latencies(1, &[8_000, 700_000]);
        assert_eq!(cycle.summary().map(|q| q.passes), Some(1));
        cycle.record_time(0, Duration::from_micros(500));
        cycle.record_latencies(0, &[400_000, 5_000]);
        cycle.record_time(1, Duration::from_micros(30));
        cycle.record_latencies(1, &[9_000, 12_000]);
        let quiet = cycle.summary().unwrap();
        assert_eq!(quiet.passes, 2);
        // 4 ops in 10 us + 30 us.
        assert!((quiet.ops_per_s - 100_000.0).abs() < 1e-6);
        // Fastest latencies: 4, 5, 8, 12 us.
        assert_eq!(quiet.p50_us, 5.0);
        assert_eq!(quiet.p99_us, 12.0);
        // The median chunk is what the fastest repetition replaces.
        let median = cycle.median_chunk_ops_per_s().unwrap();
        assert!(median < quiet.ops_per_s);
    }

    #[test]
    fn quiet_cycle_wants_every_chunk_timed_and_every_op_seen() {
        let mut cycle = QuietCycle::new(2, 1);
        cycle.record_time(0, Duration::from_micros(1));
        cycle.record_latencies(0, &[1]);
        cycle.record_latencies(1, &[1]);
        assert_eq!(cycle.summary(), None, "chunk 1 was never timed");
        cycle.record_time(1, Duration::from_micros(1));
        assert!(cycle.summary().is_some());
        // Out-of-range chunks are ignored, not a panic.
        cycle.record_time(7, Duration::from_micros(1));
        cycle.record_latencies(7, &[1]);
        assert_eq!(cycle.summary().map(|q| q.passes), Some(1));
    }

    #[test]
    fn quiet_reps_sums_the_fastest_repetition_of_each_chunk() {
        let reps = vec![
            vec![1.0, 9.0, 3.0],
            vec![2.0, 2.0, 8.0],
            vec![5.0, 4.0, 1.0],
        ];
        assert_eq!(quiet_reps(&reps), Some(1.0 + 2.0 + 1.0));
        assert_eq!(quiet_reps(&[]), None);
        assert_eq!(quiet_reps(&[vec![]]), None);
        assert_eq!(quiet_reps(&[vec![1.0], vec![1.0, 2.0]]), None);
    }

    #[test]
    fn depth1_chunk_times_every_op_in_order() {
        let mut lat = vec![99];
        let elapsed = depth1_chunk(10, &mut lat, |_| Ok(())).unwrap();
        assert_eq!(lat.len(), 10);
        assert!(elapsed >= Duration::from_nanos(lat.iter().sum()));
    }
}
