//! Concurrency toolkit for the SemTree workspace.
//!
//! Three layers, from boring to exotic:
//!
//! 1. [`sync`] — drop-in, poison-recovering wrappers around
//!    `std::sync::{Mutex, RwLock, Condvar}`. A thread that panicked while
//!    holding a lock leaves the protected data in whatever state it was
//!    in, but subsequent holders get the data back instead of an
//!    unrecoverable [`std::sync::PoisonError`]. Production code uses
//!    these so lock acquisition never needs an `unwrap()`.
//!
//! 2. [`shim`] — the [`shim::Shim`] trait abstracts every primitive a
//!    concurrency-critical unit touches (mutexes, condvars, atomics,
//!    spawning, the clock) so the unit can be written once and
//!    instantiated twice: with [`shim::StdShim`] in production and with
//!    [`model::ModelShim`] under the model checker.
//!
//! 3. [`model`] + [`explore`] — a vendored loom-style deterministic
//!    scheduler. Threads run one at a time; before every shim operation
//!    the active thread yields to a central scheduler which picks the
//!    next thread from the enabled set. [`explore::explore`] drives
//!    bounded exhaustive DFS over that choice tree (plus seeded-random
//!    and replay modes), so a model test visits thousands of distinct
//!    interleavings deterministically and any failure is reproducible
//!    from its printed seed.

pub mod explore;
pub mod model;
pub mod shim;
pub mod sync;
