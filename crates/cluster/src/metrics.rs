//! Message and byte accounting.
//!
//! The counters are generic over the concurrency shim
//! ([`semtree_conc::shim::Shim`]) so the model checker can explore
//! concurrent `record_*` / `snapshot` interleavings exhaustively;
//! production code uses the [`ClusterMetrics`] alias over real atomics.

use std::fmt;
use std::sync::Arc;

use semtree_conc::shim::{Shim, StdShim};

/// Number of fixed log-spaced buckets in a [`LatencyHistogramG`].
///
/// Indices 0–15 are exact nanosecond values; from 16 on, every power of
/// two is split into 4 sub-buckets (±12.5% resolution), which covers the
/// full `u64` nanosecond range in exactly 256 buckets.
pub const LATENCY_BUCKETS: usize = 256;

/// Bucket index for a latency of `nanos` nanoseconds.
#[must_use]
pub fn latency_bucket_index(nanos: u64) -> usize {
    if nanos < 16 {
        nanos as usize
    } else {
        let msb = 63 - nanos.leading_zeros() as usize;
        let sub = ((nanos >> (msb - 2)) & 3) as usize;
        16 + (msb - 4) * 4 + sub
    }
}

/// Lower bound (in nanoseconds) of bucket `index` — the value reported
/// for every sample that landed in it, so quantiles are conservative
/// (never over-report).
#[must_use]
pub fn latency_bucket_floor(index: usize) -> u64 {
    if index < 16 {
        index as u64
    } else {
        let msb = 4 + (index - 16) / 4;
        let sub = ((index - 16) % 4) as u64;
        (1u64 << msb) + sub * (1u64 << (msb - 2))
    }
}

/// Lock-free per-request latency histogram with fixed log-spaced
/// buckets, generic over the concurrency shim so the model checker can
/// drive it. Recording is one relaxed `fetch_add`; snapshots copy the
/// bucket array without stopping writers.
pub struct LatencyHistogramG<S: Shim = StdShim> {
    buckets: [S::AtomicU64; LATENCY_BUCKETS],
}

/// The production latency histogram: real relaxed atomics.
pub type LatencyHistogram = LatencyHistogramG<StdShim>;

impl<S: Shim> fmt::Debug for LatencyHistogramG<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.snapshot().fmt(f)
    }
}

impl<S: Shim> Default for LatencyHistogramG<S> {
    fn default() -> Self {
        Self::new_in()
    }
}

impl<S: Shim> LatencyHistogramG<S> {
    /// Fresh zeroed histogram under shim `S`.
    #[must_use]
    pub fn new_in() -> Self {
        LatencyHistogramG {
            buckets: std::array::from_fn(|_| S::atomic_u64(0)),
        }
    }

    /// Account one request that took `nanos` nanoseconds.
    pub fn record(&self, nanos: u64) {
        S::fetch_add(&self.buckets[latency_bucket_index(nanos)], 1);
    }

    /// Copy the bucket counts. Concurrent recording may land a sample
    /// between bucket reads; each sample is either fully in or fully out
    /// of the snapshot (single increment), never torn.
    #[must_use]
    pub fn snapshot(&self) -> LatencySnapshot {
        let buckets: [u64; LATENCY_BUCKETS] = std::array::from_fn(|i| S::load(&self.buckets[i]));
        LatencySnapshot {
            count: buckets.iter().sum(),
            buckets,
        }
    }

    /// Zero every bucket (between experiment phases).
    pub fn reset(&self) {
        for b in &self.buckets {
            S::store(b, 0);
        }
    }
}

/// A point-in-time copy of a [`LatencyHistogramG`].
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct LatencySnapshot {
    /// Total samples recorded.
    pub count: u64,
    /// Per-bucket sample counts (see [`latency_bucket_floor`] for the
    /// value each bucket represents).
    pub buckets: [u64; LATENCY_BUCKETS],
}

impl Default for LatencySnapshot {
    fn default() -> Self {
        LatencySnapshot {
            count: 0,
            buckets: [0; LATENCY_BUCKETS],
        }
    }
}

impl fmt::Debug for LatencySnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LatencySnapshot")
            .field("count", &self.count)
            .field("p50_nanos", &self.p50_nanos())
            .field("p99_nanos", &self.p99_nanos())
            .field("p999_nanos", &self.p999_nanos())
            .finish()
    }
}

impl LatencySnapshot {
    /// The latency (bucket lower bound, nanoseconds) at quantile `q` in
    /// `[0, 1]`: the smallest bucket such that at least `ceil(q * count)`
    /// samples are at or below it. Zero when no samples were recorded.
    #[must_use]
    pub fn quantile_nanos(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        #[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
        #[allow(clippy::cast_possible_truncation)]
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return latency_bucket_floor(i);
            }
        }
        latency_bucket_floor(LATENCY_BUCKETS - 1)
    }

    /// Median request latency in nanoseconds.
    #[must_use]
    pub fn p50_nanos(&self) -> u64 {
        self.quantile_nanos(0.50)
    }

    /// 99th-percentile request latency in nanoseconds.
    #[must_use]
    pub fn p99_nanos(&self) -> u64 {
        self.quantile_nanos(0.99)
    }

    /// 99.9th-percentile request latency in nanoseconds.
    #[must_use]
    pub fn p999_nanos(&self) -> u64 {
        self.quantile_nanos(0.999)
    }

    /// Merge another snapshot into this one (for aggregating
    /// per-connection histograms in load generators).
    pub fn merge(&mut self, other: &LatencySnapshot) {
        self.count += other.count;
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
    }
}

/// Number of buckets in the optimistic-read retry histogram: exact
/// counts 0–3, then power-of-two ranges 4–7, 8–15, 16–31, and 32+.
pub const READ_RETRY_BUCKETS: usize = 8;

/// Width of the per-reactor-shard counter arrays: the most reactor
/// shards one server will ever run (`semtree-reactor` clamps its shard
/// count to this).
pub const MAX_REACTOR_SHARDS: usize = 32;

/// Bucket index for an optimistic read that retried `retries` times.
#[must_use]
pub fn read_retry_bucket_index(retries: u64) -> usize {
    match retries {
        0..=3 => retries as usize,
        4..=7 => 4,
        8..=15 => 5,
        16..=31 => 6,
        _ => 7,
    }
}

/// Shared, thread-safe counters over a [`crate::ChannelFabric`]'s lifetime,
/// generic over the concurrency shim.
#[derive(Debug)]
pub struct ClusterMetricsG<S: Shim = StdShim> {
    messages: S::AtomicU64,
    bytes: S::AtomicU64,
    response_bytes: S::AtomicU64,
    spawned_nodes: S::AtomicU64,
    simulated_delay_nanos: S::AtomicU64,
    request_latency: LatencyHistogramG<S>,
    /// Total writer-race retries across all optimistic reads.
    reads_retried: S::AtomicU64,
    /// Optimistic reads by retry count (see [`read_retry_bucket_index`]).
    read_retries: [S::AtomicU64; READ_RETRY_BUCKETS],
    /// Partition borders optimistic reads crossed in place.
    reads_crossed: S::AtomicU64,
    /// Reactor shards actually serving (0 when no reactor is attached).
    reactor_shards: S::AtomicU64,
    /// Requests completed, by owning reactor shard.
    shard_served: [S::AtomicU64; MAX_REACTOR_SHARDS],
    /// Requests shed at admission, by owning reactor shard.
    shard_shed: [S::AtomicU64; MAX_REACTOR_SHARDS],
}

/// The production metrics type: real relaxed atomics.
pub type ClusterMetrics = ClusterMetricsG<StdShim>;

impl<S: Shim> Default for ClusterMetricsG<S> {
    fn default() -> Self {
        Self::new_in()
    }
}

/// A point-in-time copy of [`ClusterMetrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Messages delivered between nodes: every request a mailbox or a
    /// socket accepted and every response, so one call counts two.
    pub messages: u64,
    /// Total payload bytes carried by those messages, both directions.
    pub bytes: u64,
    /// Total payload bytes carried by the responses coming back.
    pub response_bytes: u64,
    /// Compute nodes spawned.
    pub spawned_nodes: u64,
    /// Total injected interconnect delay, in nanoseconds.
    pub simulated_delay_nanos: u64,
    /// Per-request serving latency distribution.
    pub latency: LatencySnapshot,
    /// Total writer-race retries across all optimistic reads.
    pub reads_retried: u64,
    /// Optimistic reads bucketed by how often each retried
    /// (see [`read_retry_bucket_index`]).
    pub read_retries: [u64; READ_RETRY_BUCKETS],
    /// Partition borders optimistic reads crossed in place — each one a
    /// sub-walk run on the reading thread instead of a message to the
    /// partition's actor.
    pub reads_crossed: u64,
    /// Reactor shards serving (0 when no reactor is attached); only the
    /// first `reactor_shards` entries of the shard arrays are live.
    pub reactor_shards: u64,
    /// Requests completed, by owning reactor shard.
    pub shard_served: [u64; MAX_REACTOR_SHARDS],
    /// Requests shed at admission, by owning reactor shard.
    pub shard_shed: [u64; MAX_REACTOR_SHARDS],
}

impl ClusterMetrics {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(ClusterMetrics::default())
    }
}

impl<S: Shim> ClusterMetricsG<S> {
    /// Fresh zeroed counters under shim `S` (model tests construct
    /// these inside an execution; production uses
    /// [`ClusterMetrics::default`]).
    #[must_use]
    pub fn new_in() -> Self {
        ClusterMetricsG {
            messages: S::atomic_u64(0),
            bytes: S::atomic_u64(0),
            response_bytes: S::atomic_u64(0),
            spawned_nodes: S::atomic_u64(0),
            simulated_delay_nanos: S::atomic_u64(0),
            request_latency: LatencyHistogramG::new_in(),
            reads_retried: S::atomic_u64(0),
            read_retries: std::array::from_fn(|_| S::atomic_u64(0)),
            reads_crossed: S::atomic_u64(0),
            reactor_shards: S::atomic_u64(0),
            shard_served: std::array::from_fn(|_| S::atomic_u64(0)),
            shard_shed: std::array::from_fn(|_| S::atomic_u64(0)),
        }
    }

    /// Account one delivered message of `bytes` payload (transports —
    /// in-process and network — call this for every message they carry).
    pub fn record_message(&self, bytes: usize, delay_nanos: u64) {
        S::fetch_add(&self.messages, 1);
        S::fetch_add(&self.bytes, bytes as u64);
        S::fetch_add(&self.simulated_delay_nanos, delay_nanos);
    }

    /// Account the payload bytes of one response travelling back to its
    /// caller. Responses are not counted as messages — `messages` stays
    /// the request count — so this is a pure byte-volume counter.
    pub fn record_response_bytes(&self, bytes: usize) {
        S::fetch_add(&self.response_bytes, bytes as u64);
    }

    /// Account one spawned compute node. Public so model tests can
    /// drive it; production callers live in this crate and
    /// `semtree-net`.
    pub fn record_spawn(&self) {
        S::fetch_add(&self.spawned_nodes, 1);
    }

    /// Account one served request that took `nanos` nanoseconds end to
    /// end (dispatch to reply). Both the thread-per-connection fabric
    /// and the event-driven reactor feed this histogram.
    pub fn record_latency(&self, nanos: u64) {
        self.request_latency.record(nanos);
    }

    /// Account one completed optimistic (seqlock) read that validated
    /// after `retries` writer races, summed over every partition it
    /// entered. Zero-retry reads land in bucket 0, so the histogram's
    /// sum is the total optimistic read count.
    pub fn record_read_retries(&self, retries: u64) {
        S::fetch_add(&self.reads_retried, retries);
        S::fetch_add(&self.read_retries[read_retry_bucket_index(retries)], 1);
    }

    /// Account `crossed` partition borders one optimistic read crossed
    /// in place.
    pub fn record_reads_crossed(&self, crossed: u64) {
        S::fetch_add(&self.reads_crossed, crossed);
    }

    /// Declare how many reactor shards are serving (the reactor calls
    /// this once at startup; counts past [`MAX_REACTOR_SHARDS`] clamp).
    pub fn set_reactor_shards(&self, shards: usize) {
        S::store(&self.reactor_shards, shards.min(MAX_REACTOR_SHARDS) as u64);
    }

    /// Account one request completed by reactor shard `shard`.
    pub fn record_shard_served(&self, shard: usize) {
        if shard < MAX_REACTOR_SHARDS {
            S::fetch_add(&self.shard_served[shard], 1);
        }
    }

    /// Account one request shed at admission by reactor shard `shard`.
    pub fn record_shard_shed(&self, shard: usize) {
        if shard < MAX_REACTOR_SHARDS {
            S::fetch_add(&self.shard_shed[shard], 1);
        }
    }

    /// Copy all counters.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            messages: S::load(&self.messages),
            bytes: S::load(&self.bytes),
            response_bytes: S::load(&self.response_bytes),
            spawned_nodes: S::load(&self.spawned_nodes),
            simulated_delay_nanos: S::load(&self.simulated_delay_nanos),
            latency: self.request_latency.snapshot(),
            reads_retried: S::load(&self.reads_retried),
            read_retries: std::array::from_fn(|i| S::load(&self.read_retries[i])),
            reads_crossed: S::load(&self.reads_crossed),
            reactor_shards: S::load(&self.reactor_shards),
            shard_served: std::array::from_fn(|i| S::load(&self.shard_served[i])),
            shard_shed: std::array::from_fn(|i| S::load(&self.shard_shed[i])),
        }
    }

    /// Reset every counter to zero (between experiment runs).
    pub fn reset(&self) {
        S::store(&self.messages, 0);
        S::store(&self.bytes, 0);
        S::store(&self.response_bytes, 0);
        S::store(&self.spawned_nodes, 0);
        S::store(&self.simulated_delay_nanos, 0);
        self.request_latency.reset();
        S::store(&self.reads_retried, 0);
        for b in &self.read_retries {
            S::store(b, 0);
        }
        S::store(&self.reads_crossed, 0);
        // The shard count survives a reset: it describes topology, not
        // traffic, and experiment phases reset between measurements.
        for b in &self.shard_served {
            S::store(b, 0);
        }
        for b in &self.shard_shed {
            S::store(b, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = ClusterMetrics::new();
        m.record_message(100, 5);
        m.record_message(50, 10);
        m.record_response_bytes(30);
        m.record_spawn();
        let s = m.snapshot();
        assert_eq!(s.messages, 2);
        assert_eq!(s.bytes, 150);
        assert_eq!(s.response_bytes, 30);
        assert_eq!(s.spawned_nodes, 1);
        assert_eq!(s.simulated_delay_nanos, 15);
    }

    #[test]
    fn response_bytes_do_not_count_as_messages() {
        let m = ClusterMetrics::new();
        m.record_response_bytes(64);
        let s = m.snapshot();
        assert_eq!((s.messages, s.bytes, s.response_bytes), (0, 0, 64));
    }

    #[test]
    fn reset_zeroes_everything() {
        let m = ClusterMetrics::new();
        m.record_message(1, 1);
        m.record_response_bytes(2);
        m.record_spawn();
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn bucket_index_is_monotone_and_covers_u64() {
        // Exact buckets below 16.
        for n in 0..16u64 {
            assert_eq!(latency_bucket_index(n), n as usize);
        }
        // Monotone over exponentially spaced probes, max index is 255.
        let mut last = 0;
        for shift in 0..64 {
            for off in [0u64, 1] {
                let n = (1u64 << shift).saturating_add(off);
                let idx = latency_bucket_index(n);
                assert!(idx >= last, "bucket index regressed at {n}");
                assert!(idx < LATENCY_BUCKETS);
                last = idx;
            }
        }
        assert_eq!(latency_bucket_index(u64::MAX), LATENCY_BUCKETS - 1);
    }

    #[test]
    fn bucket_floor_inverts_index() {
        for idx in 0..LATENCY_BUCKETS {
            let floor = latency_bucket_floor(idx);
            assert_eq!(
                latency_bucket_index(floor),
                idx,
                "floor {floor} of bucket {idx} maps back"
            );
        }
    }

    #[test]
    fn quantiles_are_conservative_lower_bounds() {
        let h = LatencyHistogram::default();
        // 99 fast samples at 1µs, one slow at ~1ms.
        for _ in 0..99 {
            h.record(1_000);
        }
        h.record(1_000_000);
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        let p50 = s.p50_nanos();
        assert!((875..=1_000).contains(&p50), "p50 {p50}");
        // p99 rank = 99 of 100 — still in the fast bucket.
        assert!(s.p99_nanos() <= 1_000);
        // p999 rank = 100 — the slow sample, within bucket resolution.
        let p999 = s.p999_nanos();
        assert!(
            (875_000..=1_000_000).contains(&p999),
            "p999 {p999} should be within 12.5% below 1ms"
        );
    }

    #[test]
    fn empty_histogram_reports_zero_quantiles() {
        let s = LatencySnapshot::default();
        assert_eq!(s.p50_nanos(), 0);
        assert_eq!(s.p999_nanos(), 0);
    }

    #[test]
    fn merge_accumulates_counts() {
        let a = LatencyHistogram::default();
        let b = LatencyHistogram::default();
        a.record(10);
        b.record(10);
        b.record(1 << 20);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.count, 3);
        assert_eq!(merged.buckets[latency_bucket_index(10)], 2);
    }

    #[test]
    fn read_retry_buckets_are_exact_then_ranged() {
        assert_eq!(read_retry_bucket_index(0), 0);
        assert_eq!(read_retry_bucket_index(3), 3);
        assert_eq!(read_retry_bucket_index(4), 4);
        assert_eq!(read_retry_bucket_index(7), 4);
        assert_eq!(read_retry_bucket_index(8), 5);
        assert_eq!(read_retry_bucket_index(31), 6);
        assert_eq!(read_retry_bucket_index(32), 7);
        assert_eq!(read_retry_bucket_index(u64::MAX), 7);
    }

    #[test]
    fn read_retries_accumulate_and_reset() {
        let m = ClusterMetrics::new();
        m.record_read_retries(0);
        m.record_read_retries(2);
        m.record_read_retries(5);
        m.record_reads_crossed(3);
        m.record_reads_crossed(1);
        let s = m.snapshot();
        assert_eq!(s.reads_retried, 7);
        assert_eq!(s.reads_crossed, 4);
        assert_eq!(s.read_retries.iter().sum::<u64>(), 3, "one entry per read");
        assert_eq!(s.read_retries[0], 1);
        assert_eq!(s.read_retries[2], 1);
        assert_eq!(s.read_retries[4], 1);
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn shard_counters_accumulate_and_reset_keeps_topology() {
        let m = ClusterMetrics::new();
        m.set_reactor_shards(3);
        m.record_shard_served(0);
        m.record_shard_served(2);
        m.record_shard_shed(1);
        m.record_shard_served(MAX_REACTOR_SHARDS); // out of range: ignored
        let s = m.snapshot();
        assert_eq!(s.reactor_shards, 3);
        assert_eq!(s.shard_served[0], 1);
        assert_eq!(s.shard_served[2], 1);
        assert_eq!(s.shard_served.iter().sum::<u64>(), 2);
        assert_eq!(s.shard_shed[1], 1);
        m.reset();
        let s = m.snapshot();
        assert_eq!(s.reactor_shards, 3, "shard count describes topology");
        assert_eq!(s.shard_served, [0; MAX_REACTOR_SHARDS]);
        assert_eq!(s.shard_shed, [0; MAX_REACTOR_SHARDS]);
    }

    #[test]
    fn metrics_snapshot_carries_latency() {
        let m = ClusterMetrics::new();
        m.record_latency(500);
        let s = m.snapshot();
        assert_eq!(s.latency.count, 1);
        m.reset();
        assert_eq!(m.snapshot().latency.count, 0);
    }
}
