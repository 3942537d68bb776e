//! The one crossing rule: how every walk — a client's read, a partition
//! actor's sub-walk, a forwarded insert — goes on at a
//! [`Child::Remote`](crate::store::Child) edge.

use std::cell::Cell;
use std::sync::Arc;

use semtree_cluster::{ClusterError, ComputeNodeId, ReplyHandle, Transport};
use semtree_kdtree::versioned::{InPlace, NeedsMailbox, RemoteOps, StdShim, Tree};

use crate::config::SharedConfig;
use crate::proto::{Req, Resp};
use crate::store::LocalNodeId;
use crate::tree::unexpected;

/// Search hits in wire form: `(distance, payload)` pairs.
type Hits = Vec<(f64, u64)>;

/// The [`RemoteOps`] of every walk in this crate. A border into a
/// partition this process has registered is crossed in place, under that
/// tree's own validated read. Any other partition is sent the sub-walk —
/// the query plus the current worst distance (§III-B.3) — and the reply
/// is merged as an in-place crossing merges; with no transport, for a
/// caller that must not wait, that fails as [`ClusterError::UnknownNode`].
/// An insert is always sent. One value serves one walk. A validation that
/// fails after a sub-walk was sent runs the walk, and sends it, again:
/// reads are idempotent, and the retry is counted with the others.
pub(crate) struct Borders<'a, L> {
    shared: &'a SharedConfig,
    in_place: InPlace<StdShim, L>,
    transport: Option<&'a dyn Transport<Req, Resp>>,
    crossed: Cell<u64>,
}

impl SharedConfig {
    /// The crossing rule for one walk, over the trees registered here
    /// and, when given, `transport`.
    pub(crate) fn borders<'a>(
        &'a self,
        transport: Option<&'a dyn Transport<Req, Resp>>,
    ) -> Borders<'a, impl Fn(u32) -> Option<Arc<Tree>> + 'a> {
        Borders {
            shared: self,
            in_place: InPlace::new(|partition| self.read_handle(ComputeNodeId(partition))),
            transport,
            crossed: Cell::new(0),
        }
    }
}

impl<L: Fn(u32) -> Option<Arc<Tree>>> Borders<'_, L> {
    /// Account the walk — its writer races over every partition and the
    /// borders it crossed in place — whether or not it was answered; a
    /// no-op when no metrics sink is attached.
    pub(crate) fn record(&self) {
        if let Some(m) = self.shared.metrics.get() {
            m.record_read_retries(self.in_place.retries());
            m.record_reads_crossed(self.crossed.get());
        }
    }

    /// A whole read: one validated `walk` of `partition`'s tree from its
    /// root — the root partition, which lives with the facade — then
    /// [`record`](Self::record)ed.
    pub(crate) fn read<T>(
        &self,
        partition: u32,
        point: &[f64],
        walk: impl Fn(&Tree) -> Option<Result<T, ClusterError>>,
    ) -> Result<T, ClusterError> {
        let unknown = ClusterError::UnknownNode(ComputeNodeId(partition));
        let answer = self.in_place.enter((partition, 0), point, walk);
        self.record();
        answer.unwrap_or(Err(unknown))
    }

    /// Cross into `partition` at `node`: `walk` in place, or else `req`
    /// sent there and waited for.
    fn cross(
        &self,
        (partition, node): (u32, u32),
        point: &[f64],
        walk: impl Fn(&Tree) -> Option<Result<Hits, ClusterError>>,
        req: impl FnOnce(LocalNodeId) -> Req,
    ) -> Result<Hits, ClusterError> {
        match self.in_place.enter((partition, node), point, walk) {
            Ok(walked) => {
                let hits = walked?;
                self.crossed.set(self.crossed.get() + 1);
                Ok(hits)
            }
            Err(NeedsMailbox) => candidates(self.send(partition, req(LocalNodeId(node)))?),
        }
    }

    /// `req` on its way to `partition`, its reply waited for apart.
    fn send(&self, partition: u32, req: Req) -> Result<ReplyHandle<Resp>, ClusterError> {
        let to = ComputeNodeId(partition);
        let transport = self.transport.ok_or(ClusterError::UnknownNode(to))?;
        Ok(transport.send(to, req))
    }
}

fn range(node: LocalNodeId, point: &[f64], radius: f64) -> Req {
    Req::Range {
        node,
        point: point.to_vec(),
        radius,
    }
}

/// A sub-walk's reply as hits.
fn candidates(reply: ReplyHandle<Resp>) -> Result<Hits, ClusterError> {
    match reply.wait()? {
        Resp::Candidates(hits) => Ok(hits),
        other => Err(unexpected("candidates", other)),
    }
}

impl<L: Fn(u32) -> Option<Arc<Tree>>> RemoteOps for Borders<'_, L> {
    type Error = ClusterError;

    fn insert(
        &self,
        partition: u32,
        node: u32,
        point: &[f64],
        payload: u64,
    ) -> Result<(), ClusterError> {
        let req = Req::Insert {
            node: LocalNodeId(node),
            point: point.to_vec(),
            payload,
        };
        match self.send(partition, req)?.wait()? {
            Resp::Done => Ok(()),
            other => Err(unexpected("done", other)),
        }
    }

    fn knn(
        &self,
        partition: u32,
        node: u32,
        point: &[f64],
        k: usize,
        worst: Option<f64>,
    ) -> Result<Hits, ClusterError> {
        let walk = |tree: &Tree| tree.knn(node, point, k, worst, self);
        let req = |node| Req::Knn {
            node,
            point: point.to_vec(),
            k,
            worst,
        };
        self.cross((partition, node), point, walk, req)
    }

    fn range(
        &self,
        partition: u32,
        node: u32,
        point: &[f64],
        radius: f64,
    ) -> Result<Hits, ClusterError> {
        let walk = |tree: &Tree| tree.range(node, point, radius, self);
        let req = |node| range(node, point, radius);
        self.cross((partition, node), point, walk, req)
    }

    /// Both children of a border node at once (§III-B.4): every half
    /// another process hosts is sent before either is waited on, and a
    /// half hosted here is walked in place meanwhile.
    fn range_parallel(
        &self,
        targets: [(u32, u32); 2],
        point: &[f64],
        radius: f64,
    ) -> Result<[Hits; 2], ClusterError> {
        let [left_sent, right_sent] = targets.map(|(partition, node)| {
            let hosted = self.shared.read_handle(ComputeNodeId(partition)).is_some();
            (!hosted).then(|| self.send(partition, range(LocalNodeId(node), point, radius)))
        });
        let half = |(partition, node), sent: Option<Result<_, ClusterError>>| match sent {
            Some(reply) => candidates(reply?),
            None => self.range(partition, node, point, radius),
        };
        let [left, right] = targets;
        Ok([half(left, left_sent)?, half(right, right_sent)?])
    }
}
