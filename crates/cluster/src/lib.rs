//! Distributed runtime for SemTree — pluggable cluster fabric.
//!
//! The paper runs SemTree on "a cluster having 8 processors with 8 GB RAM
//! (compute nodes)" and moves between partitions "by a proper communication
//! protocol (in our implementation based on MPJ libraries)". This crate
//! reproduces that execution model behind a pluggable [`Transport`]:
//!
//! - a [`ChannelFabric`] hosts a process's **compute nodes**, each a
//!   dedicated OS thread running one [`Handler`] a request at a time
//!   (like a single-threaded MPJ rank); a blocking
//!   [`Transport::call`] to an idle node runs its handler on the
//!   caller's thread instead, still one request at a time;
//! - nodes exchange **typed request/response messages**; a handler can
//!   [`NodeCtx::call`] another node (blocking, like a synchronous MPI
//!   send/recv pair), or send several through [`NodeCtx::transport`]
//!   before waiting on any (the paper's "the navigation is performed in a
//!   parallel way" at partition borders);
//! - in process, messages travel over channels between threads, with a
//!   [`CostModel`] optionally injecting per-message latency and per-byte
//!   transfer delay, and [`ClusterMetrics`] accounting every message and
//!   byte either way;
//! - `semtree-net` provides a second backend over real TCP sockets, so
//!   the same partition actors run unchanged across OS processes;
//! - handlers can create **new compute nodes at runtime**
//!   ([`NodeCtx::spawn_member`]), which is how the build-partition
//!   algorithm creates partitions on demand — on a remote process when a
//!   network transport is routing.
//!
//! Requests in SemTree always flow *down* the partition tree and responses
//! back *up*, so the blocking-call model cannot deadlock (see
//! `semtree-dist`). Failures — unknown or shut-down nodes, dead peers,
//! network errors — surface as typed [`ClusterError`]s rather than
//! panics.
//!
//! # Example
//!
//! ```
//! use semtree_cluster::{ChannelFabric, CostModel, Handler, NodeCtx, Transport};
//!
//! struct Doubler;
//! impl Handler<u64, u64> for Doubler {
//!     fn handle(&mut self, _ctx: &NodeCtx<u64, u64>, req: u64) -> u64 { req * 2 }
//! }
//!
//! let fabric = ChannelFabric::new(CostModel::zero(), 0);
//! let node = fabric.spawn_handler(Box::new(Doubler)).unwrap();
//! // The node is idle, so the call runs `Doubler` on this thread.
//! assert_eq!(fabric.call(node, 21), Ok(42));
//! assert_eq!(fabric.metrics().messages, 2); // request + response
//! fabric.shutdown();
//! ```

mod cost;
mod gate;
mod metrics;
mod runtime;
mod transport;

pub use cost::CostModel;
pub use gate::{GateElapsed, MembershipGate};
pub use metrics::{
    latency_bucket_floor, latency_bucket_index, read_retry_bucket_index, ClusterMetrics,
    ClusterMetricsG, LatencyHistogram, LatencyHistogramG, LatencySnapshot, MetricsSnapshot,
    LATENCY_BUCKETS, MAX_REACTOR_SHARDS, READ_RETRY_BUCKETS,
};
pub use runtime::{ChannelFabric, NodeCtx};
pub use transport::{
    BoxHandler, ClusterError, CompleteFn, ComputeNodeId, Handler, NodeFactory, ReplyHandle,
    ReplySlot, Transport, Wire, PROCESS_STRIDE_BITS,
};
