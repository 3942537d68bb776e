//! Memoization wrapper for index-keyed distance oracles.

use std::collections::HashMap;

use semtree_conc::shim::{Shim, StdShim};

/// Shard count exponent the standard constructor uses: 2^4 = 16 shards,
/// enough that a pool of workers rarely collides on one lock.
const DEFAULT_SHARD_BITS: u32 = 4;

/// Largest supported shard exponent (2^16 shards).
const MAX_SHARD_BITS: u32 = 16;

/// splitmix64 over the packed pair — cheap, well-mixed shard selection.
fn pair_hash(key: (u32, u32)) -> u64 {
    let mut z = ((u64::from(key.0) << 32) | u64::from(key.1)).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One shard: an ordered pair of point indices → their distance.
type ShardMap = HashMap<(u32, u32), f64>;

/// Memoizes a symmetric `f(i, j)` distance over object indices.
///
/// No product path calls it: FastMap keeps the distance rows of its pivot
/// sources itself and evaluates each pair at most once (see
/// `FastMap::embed`), so the build passes the plain Eq. 1 oracle. The
/// type stays for the benchmark's `fastmap.embed` replay and the
/// `semtree-conc` model target until both move off it (ROADMAP item 1a).
/// The cache is **lock-sharded**: 2^s independent
/// `Mutex<HashMap>` shards keyed by a hash of the unordered pair, so the
/// parallel embedding workers in `semtree-par` don't serialize on one
/// global lock. Two workers racing on the same uncached pair may both
/// compute it — the oracle is pure, so the duplicate insert is the same
/// value and the race is benign.
///
/// The type is generic over the `semtree-conc` [`Shim`] (production code
/// uses the [`StdShim`] default via [`MemoizedDistance::new`]) so the
/// shard protocol is explored under the model checker in
/// `crates/conc/tests/models.rs`.
pub struct MemoizedDistance<F, S: Shim = StdShim> {
    inner: F,
    shards: Vec<S::Mutex<ShardMap>>,
    mask: u64,
}

impl<F: Fn(usize, usize) -> f64> MemoizedDistance<F, StdShim> {
    /// Wrap a symmetric distance function with the default shard count.
    pub fn new(inner: F) -> Self {
        Self::with_shard_bits(inner, DEFAULT_SHARD_BITS)
    }

    /// Wrap a symmetric distance function with `2^shard_bits` shards.
    pub fn with_shard_bits(inner: F, shard_bits: u32) -> Self {
        Self::new_in(inner, shard_bits)
    }
}

impl<F: Fn(usize, usize) -> f64, S: Shim> MemoizedDistance<F, S> {
    /// Shim-generic constructor: `2^shard_bits` shards under `S`'s
    /// mutexes. Production callers use [`MemoizedDistance::new`]; the
    /// model tests instantiate with `ModelShim` here.
    pub fn new_in(inner: F, shard_bits: u32) -> Self {
        let count = 1usize << shard_bits.min(MAX_SHARD_BITS);
        MemoizedDistance {
            inner,
            shards: (0..count).map(|_| S::mutex(HashMap::new())).collect(),
            mask: count as u64 - 1,
        }
    }

    /// The distance, computed at most once per unordered pair (modulo
    /// the benign same-value race described on the type).
    pub fn distance(&self, i: usize, j: usize) -> f64 {
        if i == j {
            return 0.0;
        }
        let key = if i < j {
            (i as u32, j as u32)
        } else {
            (j as u32, i as u32)
        };
        let idx = (pair_hash(key) & self.mask) as usize;
        if let Some(&d) = S::lock(&self.shards[idx]).get(&key) {
            return d;
        }
        let d = (self.inner)(i, j);
        S::lock(&self.shards[idx]).insert(key, d);
        d
    }

    /// Number of cached pairs across all shards.
    pub fn cached_pairs(&self) -> usize {
        self.shards.iter().map(|s| S::lock(s).len()).sum()
    }

    /// Number of shards the cache was built with.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Drop all cached entries.
    pub fn clear(&self) {
        for shard in &self.shards {
            S::lock(shard).clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};

    use super::*;

    #[test]
    fn computes_each_pair_once() {
        let calls = AtomicUsize::new(0);
        let m = MemoizedDistance::new(|i, j| {
            calls.fetch_add(1, Ordering::Relaxed);
            (i as f64 - j as f64).abs()
        });
        assert_eq!(m.distance(1, 4), 3.0);
        assert_eq!(m.distance(4, 1), 3.0); // symmetric key
        assert_eq!(m.distance(1, 4), 3.0);
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert_eq!(m.cached_pairs(), 1);
    }

    #[test]
    fn identity_short_circuits() {
        let calls = AtomicUsize::new(0);
        let m = MemoizedDistance::new(|_, _| {
            calls.fetch_add(1, Ordering::Relaxed);
            1.0
        });
        assert_eq!(m.distance(3, 3), 0.0);
        assert_eq!(calls.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn clear_resets() {
        let m = MemoizedDistance::new(|i, j| (i + j) as f64);
        m.distance(0, 1);
        assert_eq!(m.cached_pairs(), 1);
        m.clear();
        assert_eq!(m.cached_pairs(), 0);
    }

    #[test]
    fn is_sync_when_inner_is() {
        fn assert_sync<T: Sync>(_: &T) {}
        let m = MemoizedDistance::new(|i, j| (i + j) as f64);
        assert_sync(&m);
    }

    #[test]
    fn shards_partition_the_key_space() {
        let m = MemoizedDistance::with_shard_bits(|i, j| (i * 31 + j) as f64, 3);
        assert_eq!(m.shard_count(), 8);
        for i in 0..40 {
            for j in (i + 1)..40 {
                m.distance(i, j);
            }
        }
        // Every pair is cached exactly once, wherever it hashed to.
        assert_eq!(m.cached_pairs(), 40 * 39 / 2);
        // And reads return the memoized values.
        assert_eq!(m.distance(7, 11), (7 * 31 + 11) as f64);
        assert_eq!(m.distance(11, 7), (7 * 31 + 11) as f64);
    }

    #[test]
    fn shard_bits_zero_degenerates_to_one_lock() {
        let m = MemoizedDistance::with_shard_bits(|i, j| (i + j) as f64, 0);
        assert_eq!(m.shard_count(), 1);
        assert_eq!(m.distance(2, 5), 7.0);
        assert_eq!(m.cached_pairs(), 1);
    }

    #[test]
    fn concurrent_readers_agree() {
        use std::sync::Arc;
        let m = Arc::new(MemoizedDistance::new(|i: usize, j: usize| {
            (i.min(j) as f64) * 1000.0 + i.max(j) as f64
        }));
        std::thread::scope(|scope| {
            for t in 0..4 {
                let m = Arc::clone(&m);
                scope.spawn(move || {
                    for i in 0..30 {
                        for j in 0..30 {
                            let expect = if i == j {
                                0.0
                            } else {
                                (i.min(j) as f64) * 1000.0 + i.max(j) as f64
                            };
                            assert_eq!(m.distance(i, j), expect, "thread {t}");
                        }
                    }
                });
            }
        });
        assert_eq!(m.cached_pairs(), 30 * 29 / 2);
    }
}
