//! Scoped self-scheduling parallel engine for the SemTree workspace.
//!
//! The hot paths of the pipeline — FastMap's O(n·k) semantic-distance
//! scans, bulk tree construction, and batched k-NN at serve time — are
//! embarrassingly parallel over index ranges. This crate provides the
//! one engine they all share, in three layers:
//!
//! 1. `queue::ChunkedQueue` — the scheduling protocol: a job is cut
//!    into contiguous index chunks and every worker takes its next one
//!    off a single atomic cursor, so a worker that finishes early just
//!    comes back sooner (self-scheduling).
//! 2. [`pool::Pool`] — `std::thread::scope` workers sharing one
//!    `ChunkedQueue`, each handing its results back through its join
//!    handle, with deterministic result ordering. `map` reassembles
//!    per-chunk outputs by chunk index; `reduce` combines per-chunk folds
//!    in ascending chunk order, so for a compatible fold/combine pair the
//!    result is *bit-identical* to the sequential fold regardless of
//!    thread count or which worker claimed what.
//! 3. [`metric`] — the shared Euclidean kernels (`euclidean`,
//!    `euclidean_sq`) the parallel distance paths use, deduplicating the
//!    private copies that had grown in `semtree-kdtree` and
//!    `semtree-fastmap`.

pub mod metric;
pub mod pool;
mod queue;

pub use pool::Pool;
