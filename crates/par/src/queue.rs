//! The chunk cursor: how the workers of one parallel job share it out.
//!
//! A job over `items` indices is cut into contiguous [`Chunk`]s, and a
//! worker that wants work takes the next one off a single atomic
//! cursor. A worker that finishes early simply comes back sooner, so at
//! a few chunks per worker the load balances itself. The cursor only
//! moves forward: `claim` returning `None` proves every chunk has been
//! handed to some worker, which is the entire join protocol — scoped
//! workers run until `claim` is dry.

use std::sync::atomic::{AtomicUsize, Ordering};

/// One contiguous index range `[start, end)` of a parallel job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunk {
    /// Position of this chunk in the job's chunk sequence; chunks are
    /// numbered in ascending `start` order, so combining per-chunk
    /// results by `index` reproduces sequential order.
    pub index: usize,
    /// First item index covered (inclusive).
    pub start: usize,
    /// One past the last item index covered.
    pub end: usize,
}

/// The chunks of one job behind a shared "next chunk" cursor.
pub struct ChunkedQueue {
    items: usize,
    chunk_size: usize,
    /// Index of the next unclaimed chunk. It publishes nothing: chunks
    /// are computed from it, and what workers produce travels through
    /// their join handles.
    next: AtomicUsize,
}

impl ChunkedQueue {
    /// Cut `items` indices into chunks of `chunk_size` (the last chunk
    /// may be shorter).
    #[must_use]
    pub fn new(items: usize, chunk_size: usize) -> Self {
        ChunkedQueue {
            items,
            chunk_size: chunk_size.max(1),
            next: AtomicUsize::new(0),
        }
    }

    /// Claim the next chunk, in ascending order. Returns `None` only
    /// when every chunk of the job has been claimed.
    pub fn claim(&self) -> Option<Chunk> {
        let index = self.next.fetch_add(1, Ordering::Relaxed);
        let start = index.checked_mul(self.chunk_size)?;
        (start < self.items).then(|| Chunk {
            index,
            start,
            end: (start + self.chunk_size).min(self.items),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_all(queue: &ChunkedQueue) -> Vec<Chunk> {
        std::iter::from_fn(|| queue.claim()).collect()
    }

    #[test]
    fn chunks_cover_the_range_exactly_once() {
        for (items, chunk) in [(10, 3), (1, 1), (100, 7), (16, 16)] {
            let queue = ChunkedQueue::new(items, chunk);
            let mut seen = vec![false; items];
            let chunks = drain_all(&queue);
            for c in &chunks {
                for (i, s) in seen.iter_mut().enumerate().take(c.end).skip(c.start) {
                    assert!(!*s, "index {i} claimed twice");
                    *s = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "every index claimed");
            assert_eq!(chunks.len(), items.div_ceil(chunk));
            assert_eq!(queue.claim(), None, "dry stays dry");
        }
    }

    #[test]
    fn empty_job_is_born_drained() {
        let queue = ChunkedQueue::new(0, 8);
        assert_eq!(queue.claim(), None);
        assert_eq!(queue.claim(), None);
    }

    #[test]
    fn a_lone_worker_claims_chunks_in_ascending_order() {
        let queue = ChunkedQueue::new(20, 4);
        let chunks = drain_all(&queue);
        assert_eq!(chunks.len(), 5);
        for (i, c) in chunks.iter().enumerate() {
            assert_eq!(c.index, i);
            assert_eq!(c.start, i * 4);
        }
    }

    #[test]
    fn concurrent_workers_claim_each_chunk_exactly_once() {
        let queue = ChunkedQueue::new(1000, 3);
        let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    while let Some(c) = queue.claim() {
                        for h in &hits[c.start..c.end] {
                            h.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        assert_eq!(queue.claim(), None);
    }
}
