//! The production pool: scoped workers sharing a `ChunkedQueue`.
//!
//! A [`Pool`] is pure configuration (a thread count) — workers are
//! spawned per call with `std::thread::scope`, so closures may borrow
//! from the caller's stack and there is no global executor to shut
//! down. Every primitive is **deterministic**: whichever worker claims
//! which chunk, `map` reassembles per-chunk outputs by chunk index and
//! `reduce` combines per-chunk folds in ascending chunk order, so for a
//! pure `f` (and a chunk-compatible fold/combine pair) the output is
//! bit-identical to the sequential path for any thread count.

use crate::queue::{Chunk, ChunkedQueue};

/// How many chunks each worker nominally receives; the surplus beyond 1
/// is what lets a worker that finishes early take more.
const CHUNKS_PER_WORKER: usize = 4;

/// Run `work` on `workers` threads (this one included) and gather what
/// each returns, through its join handle. A worker's panic resumes
/// here.
fn gather<T: Send>(workers: usize, work: &(impl Fn() -> Vec<T> + Sync)) -> Vec<T> {
    std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let mut all = work();
        for handle in spawned {
            all.extend(
                handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            );
        }
        all
    })
}

/// A scoped self-scheduling thread pool.
///
/// `Pool` is `Clone` and cheap to pass around; `threads == 1` (or a
/// job too small to split) runs inline on the caller's thread with no
/// spawning at all, which is also the reference path the parallel
/// schedules are required to reproduce bit-for-bit.
#[derive(Debug, Clone)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool sized to the machine (`std::thread::available_parallelism`).
    #[must_use]
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        Pool { threads }
    }

    /// A single-threaded pool: every primitive runs inline.
    #[must_use]
    pub fn sequential() -> Self {
        Pool { threads: 1 }
    }

    /// Override the worker count (clamped to at least 1).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The configured worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    fn workers_for(&self, items: usize) -> usize {
        self.threads.min(items).max(1)
    }

    /// `per_chunk` over the chunks of `0..items` on `workers` threads,
    /// results in ascending chunk order.
    fn chunked<T: Send>(
        items: usize,
        workers: usize,
        per_chunk: &(impl Fn(Chunk) -> T + Sync),
    ) -> impl Iterator<Item = T> {
        let chunk_size = items.div_ceil(workers * CHUNKS_PER_WORKER);
        let queue = ChunkedQueue::new(items, chunk_size);
        let mut parts = gather(workers, &|| {
            std::iter::from_fn(|| queue.claim())
                .map(|c| (c.index, per_chunk(c)))
                .collect()
        });
        parts.sort_unstable_by_key(|&(index, _)| index);
        parts.into_iter().map(|(_, part)| part)
    }

    /// `f(i)` for every `i in 0..items`, collected in index order.
    ///
    /// For a pure `f` the result is identical to
    /// `(0..items).map(f).collect()` for any thread count.
    pub fn map<T, F>(&self, items: usize, f: &F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let workers = self.workers_for(items);
        if workers <= 1 {
            return (0..items).map(f).collect();
        }
        let per_chunk = |c: Chunk| (c.start..c.end).map(f).collect::<Vec<T>>();
        let mut out = Vec::with_capacity(items);
        out.extend(Self::chunked(items, workers, &per_chunk).flatten());
        out
    }

    /// Fold disjoint chunks of `0..items` with `fold(start, end)` and
    /// combine the per-chunk results **in ascending chunk order**.
    ///
    /// Returns `None` only when `items == 0`. The result is identical to
    /// `fold(0, items)` for any thread count **provided** the pair is
    /// chunk-compatible: `combine(fold(a, m), fold(m, b)) == fold(a, b)`
    /// for all `a <= m <= b` — true of sums, min/max scans with a fixed
    /// tie-break direction, and similar associative folds.
    pub fn reduce<T, F, C>(&self, items: usize, fold: &F, combine: &C) -> Option<T>
    where
        T: Send,
        F: Fn(usize, usize) -> T + Sync,
        C: Fn(T, T) -> T + Sync,
    {
        if items == 0 {
            return None;
        }
        let workers = self.workers_for(items);
        if workers <= 1 {
            return Some(fold(0, items));
        }
        Self::chunked(items, workers, &|c| fold(c.start, c.end)).reduce(combine)
    }
}

impl Default for Pool {
    fn default() -> Self {
        Pool::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_matches_sequential_for_every_thread_count() {
        let f = |i: usize| (i as f64).sin() * i as f64;
        let expected: Vec<f64> = (0..500).map(f).collect();
        for threads in [1, 2, 3, 8] {
            let pool = Pool::sequential().with_threads(threads);
            let got = pool.map(500, &f);
            assert_eq!(got.len(), expected.len());
            for (a, b) in got.iter().zip(&expected) {
                assert_eq!(a.to_bits(), b.to_bits(), "bit-identical across schedules");
            }
        }
    }

    #[test]
    fn reduce_reproduces_the_sequential_fold() {
        // Last-maximal argmax — the fold FastMap's pivot scan uses.
        let key = |i: usize| f64::from((i % 97) as u32);
        let fold = |start: usize, end: usize| {
            let mut best = (start, key(start));
            for i in start + 1..end {
                if key(i) >= best.1 {
                    best = (i, key(i));
                }
            }
            best
        };
        let combine = |a: (usize, f64), b: (usize, f64)| if b.1 >= a.1 { b } else { a };
        let seq = Pool::sequential().reduce(1000, &fold, &combine);
        for threads in [2, 3, 8] {
            let pool = Pool::sequential().with_threads(threads);
            assert_eq!(pool.reduce(1000, &fold, &combine), seq);
        }
        assert_eq!(Pool::new().reduce(0, &fold, &combine), None);
    }

    #[test]
    fn empty_and_tiny_jobs_run_inline() {
        let pool = Pool::sequential().with_threads(8);
        assert_eq!(pool.map(0, &|i| i), Vec::<usize>::new());
        assert_eq!(pool.map(1, &|i| i * 2), vec![0]);
    }

    #[test]
    fn pool_defaults_to_machine_parallelism() {
        assert!(Pool::new().threads() >= 1);
        assert_eq!(Pool::sequential().threads(), 1);
        assert_eq!(Pool::default().threads(), Pool::new().threads());
    }
}
