//! The serving adapter: [`ServeOptions`], and the reactor service that
//! lowers client-port frames to [`Query`]s against a [`DistSemTree`] and
//! encodes their outcomes as replies.

use std::io;
use std::net::TcpListener;

use semtree_cluster::ClusterError;
use semtree_kdtree::Neighbor;
use semtree_net::{decode_exact, Encode};
use semtree_reactor::INLINE_MAX_K;

use crate::client::{ClientMetrics, ClientReq, ClientResp, KNN_TAG};
use crate::query::{Query, QueryOutcome};
use crate::tree::DistSemTree;

/// A data-plane outcome as its wire reply — the one mapping behind the
/// blocking and pipelined serving paths, so both produce byte-identical
/// responses by construction.
fn to_resp(outcome: Result<QueryOutcome, ClusterError>) -> ClientResp {
    let pairs = |hits: Vec<Neighbor<u64>>| hits.into_iter().map(|n| (n.dist, n.payload)).collect();
    match outcome {
        Ok(QueryOutcome::Inserted) => ClientResp::Done,
        Ok(QueryOutcome::Neighbors(hits)) => ClientResp::Neighbors(pairs(hits)),
        Ok(QueryOutcome::NeighborBatches(batches)) => {
            ClientResp::NeighborBatches(batches.into_iter().map(pairs).collect())
        }
        Err(e) => ClientResp::Error(e.to_string()),
    }
}

/// Tunables for the reactor-backed client serving loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeOptions {
    /// Executor threads running [`ClientReq`]s against the tree.
    pub executors: usize,
    /// Global in-flight bound; beyond it requests are shed with
    /// [`ClientResp::Overloaded`].
    pub global_depth: usize,
    /// Per-connection pipeline depth; beyond it the reactor stops
    /// reading that socket (backpressure, nothing is shed).
    pub per_conn_depth: usize,
    /// Reactor shard count, one by default; clamped to
    /// `1..=MAX_REACTOR_SHARDS`.
    pub reactors: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        let d = semtree_reactor::ReactorConfig::default();
        ServeOptions {
            executors: d.executors,
            global_depth: d.global_depth,
            per_conn_depth: d.per_conn_depth,
            reactors: d.reactors,
        }
    }
}

impl ServeOptions {
    /// Executor thread count (consuming builder, like the `with_*`
    /// methods on `KdConfig`/`DistConfig`/`WalOptions`).
    #[must_use]
    pub fn with_executors(mut self, executors: usize) -> Self {
        self.executors = executors;
        self
    }

    /// Global in-flight bound before load shedding.
    #[must_use]
    pub fn with_global_depth(mut self, global_depth: usize) -> Self {
        self.global_depth = global_depth;
        self
    }

    /// Per-connection pipeline depth before backpressure.
    #[must_use]
    pub fn with_per_conn_depth(mut self, per_conn_depth: usize) -> Self {
        self.per_conn_depth = per_conn_depth;
        self
    }

    /// Reactor shard count (clamped to `1..=MAX_REACTOR_SHARDS`).
    #[must_use]
    pub fn with_reactors(mut self, reactors: usize) -> Self {
        self.reactors = reactors;
        self
    }
}

/// [`semtree_reactor::Service`] adapter: decodes [`ClientReq`] frames,
/// answers them against the tree, encodes [`ClientResp`] frames.
struct TreeService<'a> {
    tree: &'a DistSemTree,
}

impl TreeService<'_> {
    /// The one request lowering, shared by the blocking and pipelined
    /// serving paths: a data-plane frame becomes its [`Query`] (a remote
    /// client is untrusted input, and [`DistSemTree::query`] /
    /// [`DistSemTree::submit_query`] validate it before any partition
    /// sees it). `Err` is the complete synchronous reply: a malformed
    /// frame, or a control-plane request answered here.
    fn lower(&self, request: &[u8]) -> Result<Query, semtree_reactor::ServiceReply> {
        let reply = |resp: ClientResp, shutdown| {
            Err(semtree_reactor::ServiceReply {
                payload: resp.to_bytes(),
                shutdown,
            })
        };
        let req: ClientReq = match decode_exact(request) {
            Ok(req) => req,
            Err(e) => return reply(ClientResp::Error(format!("bad request: {e}")), false),
        };
        let tree = self.tree;
        match req {
            ClientReq::Insert { point, payload } => Ok(Query::Insert { point, payload }),
            ClientReq::Knn { point, k } => Ok(Query::Knn { point, k }),
            ClientReq::Range { point, radius } => Ok(Query::Range { point, radius }),
            ClientReq::KnnBatch { points, k } => Ok(Query::KnnBatch { points, k }),
            ClientReq::Stats => match tree.try_global_stats() {
                Ok(stats) => reply(ClientResp::Stats(stats.partitions), false),
                Err(e) => reply(ClientResp::Error(e.to_string()), false),
            },
            ClientReq::Verify => reply(ClientResp::Violations(tree.verify()), false),
            ClientReq::Metrics => {
                let m = tree.metrics();
                let metrics = ClientMetrics {
                    messages: m.messages,
                    bytes: m.bytes,
                    response_bytes: m.response_bytes,
                    spawned_nodes: m.spawned_nodes,
                    latency_count: m.latency.count,
                    p50_nanos: m.latency.p50_nanos(),
                    p99_nanos: m.latency.p99_nanos(),
                    p999_nanos: m.latency.p999_nanos(),
                    reads_retried: m.reads_retried,
                    read_retries: m.read_retries,
                    reads_crossed: m.reads_crossed,
                    reactor_shards: m.reactor_shards,
                    shard_served: m.shard_served,
                    shard_shed: m.shard_shed,
                };
                reply(ClientResp::Metrics(Box::new(metrics)), false)
            }
            ClientReq::Shutdown => reply(ClientResp::Done, true),
        }
    }
}

impl semtree_reactor::Service for TreeService<'_> {
    fn call(&self, request: &[u8]) -> semtree_reactor::ServiceReply {
        match self.lower(request) {
            Ok(query) => semtree_reactor::ServiceReply {
                payload: to_resp(self.tree.query(query)).to_bytes(),
                shutdown: false,
            },
            Err(reply) => reply,
        }
    }

    fn overloaded(&self) -> Vec<u8> {
        ClientResp::Overloaded.to_bytes()
    }

    /// The pipelined serving path: data-plane queries are submitted
    /// through [`DistSemTree::submit_query`], and the client's response
    /// is completed via the [`semtree_reactor::ReplyToken`]. An insert
    /// frees the executor at once and completes from whatever thread
    /// finishes it (the receiving actor's, or a `semtree-net` demux
    /// reader's when the partition is remote). A read completes on the
    /// executor, which waits on the replies of any sub-walk it sends to
    /// another process. Control-plane requests and malformed frames
    /// answer synchronously; the response bytes are identical to
    /// [`Service::call`]'s on every path because both go through the same
    /// [`lower`](TreeService::lower) and [`to_resp`].
    fn call_pipelined(
        &self,
        request: &[u8],
        token: semtree_reactor::ReplyToken,
    ) -> semtree_reactor::Dispatch {
        match self.lower(request) {
            Ok(query) => {
                self.tree.submit_query(
                    query,
                    Box::new(move |outcome| token.complete(to_resp(outcome).to_bytes(), false)),
                );
                semtree_reactor::Dispatch::Completed
            }
            Err(reply) => semtree_reactor::Dispatch::Sync(token, reply),
        }
    }

    /// What the shard answers itself is decided by what the request
    /// says: a single-point k-NN with `k` ≤ [`INLINE_MAX_K`], whenever
    /// [`DistSemTree::answer_direct`] settles it — rejected as invalid,
    /// or read lock-free (4 µs of tree against a longer hand-off to an
    /// executor). Anything else is declined on its tag byte; a larger
    /// `k`, or a read that must message another process, costs one
    /// decode more, and the declined read is walked again on an
    /// executor. The reply bytes are the executor path's: the same walk,
    /// the same [`to_resp`].
    fn call_inline(&self, request: &[u8]) -> Option<semtree_reactor::ServiceReply> {
        if request.first() != Some(&KNN_TAG) {
            return None;
        }
        let ClientReq::Knn { point, k } = decode_exact(request).ok()? else {
            return None;
        };
        if k > INLINE_MAX_K {
            return None;
        }
        let outcome = self.tree.answer_direct(&Query::Knn { point, k })?;
        Some(semtree_reactor::ServiceReply {
            payload: to_resp(outcome).to_bytes(),
            shutdown: false,
        })
    }
}

/// Serve client connections on the event-driven reactor until one sends
/// [`ClientReq::Shutdown`] (acknowledged with [`ClientResp::Done`]
/// before returning). The caller then shuts the tree down.
///
/// Connections are multiplexed and every frame is correlated
/// ([`semtree_net::FRAME_V2`]): requests are pipelined and complete out
/// of order. Request latency is recorded into the tree's shared metrics
/// histogram.
///
/// # Errors
/// Fails when the listener itself breaks; per-connection errors just
/// drop that connection.
pub fn serve_clients_with(
    listener: &TcpListener,
    tree: &DistSemTree,
    options: &ServeOptions,
) -> io::Result<()> {
    let config = semtree_reactor::ReactorConfig {
        executors: options.executors,
        global_depth: options.global_depth,
        per_conn_depth: options.per_conn_depth,
        metrics: Some(tree.metrics_handle()),
        reactors: options.reactors,
    };
    let service = TreeService { tree };
    semtree_reactor::serve(listener, &service, &config)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DistConfig;

    #[test]
    fn wrong_dimension_requests_are_rejected_not_fatal() {
        use semtree_reactor::Service as _;
        let tree = DistSemTree::single(DistConfig::new(2), semtree_cluster::CostModel::zero());
        let service = TreeService { tree: &tree };
        // The blocking `Service::call` path (the reactor only drives the
        // pipelined one).
        let call = |req: ClientReq| -> ClientResp {
            decode_exact(&service.call(&req.to_bytes()).payload).unwrap()
        };
        let point = |coords: &[f64]| coords.to_vec();
        for req in [
            ClientReq::Insert {
                point: point(&[1.0, 2.0, 3.0]),
                payload: 0,
            },
            ClientReq::Knn {
                point: point(&[1.0]),
                k: 3,
            },
            ClientReq::Range {
                point: point(&[]),
                radius: 1.0,
            },
            ClientReq::KnnBatch {
                points: vec![point(&[1.0, 2.0]), point(&[1.0])],
                k: 3,
            },
        ] {
            let resp = call(req);
            assert!(
                matches!(&resp, ClientResp::Error(msg) if msg.contains("dimensions")),
                "wrong-dimension request must come back as a typed error, got {resp:?}"
            );
        }
        // The tree survived every bad request.
        let (point, payload) = (point(&[1.0, 2.0]), 7);
        assert_eq!(
            call(ClientReq::Insert {
                point: point.clone(),
                payload
            }),
            ClientResp::Done
        );
        assert_eq!(
            call(ClientReq::Knn { point, k: 1 }),
            ClientResp::Neighbors(vec![(0.0, payload)])
        );
        tree.shutdown();
    }
}
