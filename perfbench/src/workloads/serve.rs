//! `serve_knn`: the `knn_local` tree behind the reactor-backed client
//! port on a loopback listener in this process, and one pipelined
//! client. Throughput is measured with a window of 8 requests in
//! flight; latency is what a lone request waits, so every chunk of
//! requests is sent twice, first pipelined and then one at a time. The
//! tree work equals `knn_local`'s, so the difference between the two is
//! the serving fabric: reactor, framing and codec, and the deploy glue.

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use semtree_dist::{
    serve_clients_with, ClientReq, ClientResp, DistSemTree, NetClient, PendingReply,
    PipelinedClient, ServeOptions,
};

use super::knn::{empty_tree, knn_pairs, timed_inserts, INSERT_CHUNK};
use super::{matches_brute_force, Scratch, Steady, Tally, K};
use crate::error::{layer, BenchError, Result};
use crate::inputs::TreeInputs;
use crate::trace::{SpanId, Tracer};

/// Requests the client keeps in flight while throughput is measured.
pub const WINDOW: usize = 8;
/// How long the client waits for any one reply before giving up.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);
const DIAL_TIMEOUT: Duration = Duration::from_secs(10);

/// The serving configuration under test: one executor, one reactor
/// shard (everything shares one CPU), default backend and depths.
#[must_use]
pub fn serve_options() -> ServeOptions {
    ServeOptions::default().with_executors(1).with_reactors(1)
}

/// A server thread on a loopback port plus one pipelined client.
pub struct Hosted<T> {
    addr: SocketAddr,
    server: JoinHandle<std::io::Result<T>>,
    /// The connected client.
    pub client: PipelinedClient,
}

impl<T: Send + 'static> Hosted<T> {
    /// Bind an ephemeral loopback port, run `serve` on it in a thread
    /// (it returns once a shutdown request lands), and connect.
    ///
    /// # Errors
    /// Fails when the port cannot be bound or dialled.
    pub fn start(
        serve: impl FnOnce(&TcpListener) -> std::io::Result<T> + Send + 'static,
    ) -> Result<Hosted<T>> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let server = std::thread::spawn(move || serve(&listener));
        let client = PipelinedClient::connect(addr, DIAL_TIMEOUT)?;
        Ok(Hosted {
            addr,
            server,
            client,
        })
    }

    /// The address the server listens on.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Close the client, ask the server to shut down, and join it.
    ///
    /// # Errors
    /// Fails when the shutdown request cannot be delivered or the
    /// server thread failed.
    pub fn stop(self) -> Result<T> {
        drop(self.client);
        NetClient::connect(self.addr, DIAL_TIMEOUT)?.shutdown()?;
        self.server
            .join()
            .map_err(|_| BenchError::Layer("server thread panicked".into()))?
            .map_err(layer("serve"))
    }
}

/// One closed-loop chunk over the request ids `requests` with `window`
/// of them in flight on one connection: latency runs from just before a
/// request is submitted to just after its reply is claimed, replies
/// claimed in submission order. Returns the chunk's wall time and
/// leaves the latencies in `scratch.latencies_ns`, in request order.
///
/// # Errors
/// Fails when the connection dies; a shed, errored or wrong reply is a
/// failed op, not an error.
pub fn windowed_chunk(
    client: &mut PipelinedClient,
    window: usize,
    requests: std::ops::Range<u64>,
    request: impl Fn(u64) -> ClientReq,
    mut correct: impl FnMut(u64, &ClientResp) -> bool,
    scratch: &mut Scratch,
    tracer: &mut Tracer,
) -> Result<Duration> {
    struct InFlight {
        request: u64,
        sent: Instant,
        op: SpanId,
        reply: PendingReply,
    }
    scratch.latencies_ns.clear();
    let mut in_flight: VecDeque<InFlight> = VecDeque::with_capacity(window);
    let mut to_submit = requests;
    let start = Instant::now();
    loop {
        while in_flight.len() < window.max(1) {
            let Some(id) = to_submit.next() else {
                break;
            };
            let req = request(id);
            let sent = Instant::now();
            let op = tracer.open("op", SpanId::ROOT, id);
            let submit = tracer.open("serve.submit", op, id);
            let reply = client.submit(&req).map_err(layer("submit"))?;
            tracer.close(submit);
            in_flight.push_back(InFlight {
                request: id,
                sent,
                op,
                reply,
            });
        }
        let Some(oldest) = in_flight.pop_front() else {
            break;
        };
        let wait = tracer.open("serve.wait", oldest.op, oldest.request);
        let resp = oldest.reply.wait_timeout(REPLY_TIMEOUT);
        tracer.close(wait);
        let nanos = oldest.sent.elapsed().as_nanos();
        scratch
            .latencies_ns
            .push(u64::try_from(nanos).unwrap_or(u64::MAX));
        match resp {
            Ok(resp) => scratch.tally.record(correct(oldest.request, &resp)),
            Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => {
                return Err(BenchError::Layer(format!("serving connection died: {e}")));
            }
            Err(_) => scratch.tally.record(false),
        }
        tracer.close(oldest.op);
    }
    Ok(start.elapsed())
}

/// Are two neighbour lists the same bytes?
#[must_use]
pub fn byte_equal(a: &[(f64, u64)], b: &[(f64, u64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0.to_bits() == y.0.to_bits() && x.1 == y.1)
}

/// The k-NN request for a query point.
#[must_use]
pub fn knn_request(query: &[f64]) -> ClientReq {
    ClientReq::Knn {
        point: query.to_vec(),
        k: K,
    }
}

/// The served tree and what `knn_local` answers for the same queries.
pub struct ServedTree {
    hosted: Hosted<DistSemTree>,
    points: usize,
    /// In-process answers for `inputs.queries`, taken before serving.
    expected: Vec<Vec<(f64, u64)>>,
    /// In-process answers for `inputs.check`.
    expected_check: Vec<Vec<(f64, u64)>>,
}

/// Put `tree` behind the client port and connect to it.
///
/// # Errors
/// Fails when the port cannot be bound or dialled.
pub fn host_tree(tree: DistSemTree) -> Result<Hosted<DistSemTree>> {
    Hosted::start(move |listener| {
        serve_clients_with(listener, &tree, &serve_options())?;
        Ok(tree)
    })
}

fn in_process_answers(tree: &DistSemTree, queries: &[Vec<f64>]) -> Result<Vec<Vec<(f64, u64)>>> {
    queries
        .iter()
        .map(|q| knn_pairs(tree, q).ok_or_else(|| BenchError::Layer("in-process knn".into())))
        .collect()
}

impl Steady for ServedTree {
    type Inputs = TreeInputs;

    fn set_up(
        inputs: &TreeInputs,
        tracer: &mut Tracer,
        parent: SpanId,
    ) -> Result<(Self, Vec<(&'static str, f64)>)> {
        let mut chunks = Vec::with_capacity(inputs.data.len() / INSERT_CHUNK + 3);
        let (tree, secs) = tracer.timed("setup.create", parent, || empty_tree(1, &inputs.data));
        chunks.push(("create", secs));
        timed_inserts(&tree, &inputs.data, tracer, parent, &mut chunks)?;
        let points = tree.len();

        // Reference answers are harness work, outside every timed chunk.
        let expected = in_process_answers(&tree, &inputs.queries)?;
        let expected_check = in_process_answers(&tree, &inputs.check)?;

        // Listening, connected, and one reply received.
        let (hosted, secs) = tracer.timed("setup.serve", parent, || -> Result<_> {
            let mut hosted = host_tree(tree)?;
            let first = hosted
                .client
                .submit(&knn_request(&inputs.queries[0]))
                .and_then(|reply| reply.wait_timeout(REPLY_TIMEOUT))
                .map_err(layer("first served reply"))?;
            if !matches!(first, ClientResp::Neighbors(_)) {
                return Err(BenchError::Layer(format!("first served reply: {first:?}")));
            }
            Ok(hosted)
        });
        chunks.push(("serve", secs));
        Ok((
            ServedTree {
                hosted: hosted?,
                points,
                expected,
                expected_check,
            },
            chunks,
        ))
    }

    fn resident_points(&self) -> usize {
        self.points
    }

    fn cycle_ops(inputs: &TreeInputs) -> usize {
        inputs.queries.len()
    }

    fn chunk(
        &mut self,
        inputs: &TreeInputs,
        first_request: u64,
        ops: usize,
        scratch: &mut Scratch,
        tracer: &mut Tracer,
    ) -> Result<Duration> {
        let n = inputs.queries.len() as u64;
        let expected = &self.expected;
        let requests = first_request..first_request + ops as u64;
        let request = |id: u64| knn_request(&inputs.queries[(id % n) as usize]);
        // Every served reply must be the bytes knn_local answers.
        let correct = |id: u64, resp: &ClientResp| match resp {
            ClientResp::Neighbors(hits) => byte_equal(hits, &expected[(id % n) as usize]),
            _ => false,
        };
        let client = &mut self.hosted.client;
        // Pipelined: the time that counts towards throughput.
        let pipelined = windowed_chunk(
            client,
            WINDOW,
            requests.clone(),
            request,
            correct,
            scratch,
            tracer,
        )?;
        // One at a time: the latencies that are kept.
        windowed_chunk(client, 1, requests, request, correct, scratch, tracer)?;
        Ok(pipelined)
    }

    fn check(&mut self, inputs: &TreeInputs) -> Result<Tally> {
        let mut tally = Tally::default();
        for (query, in_process) in inputs.check.iter().zip(&self.expected_check) {
            let served = self
                .hosted
                .client
                .submit(&knn_request(query))
                .and_then(PendingReply::wait_neighbors);
            tally.record(served.is_ok_and(|hits| {
                byte_equal(&hits, in_process) && matches_brute_force(&inputs.data, query, &hits)
            }));
        }
        // Nothing may have been shed at this load.
        let shed: u64 = NetClient::connect(self.hosted.addr(), DIAL_TIMEOUT)
            .and_then(|mut c| c.metrics())
            .map(|m| m.shard_shed.iter().sum())
            .map_err(layer("served metrics"))?;
        tally.record(shed == 0);
        Ok(tally)
    }

    fn tear_down(self) -> Result<()> {
        self.hosted.stop()?.shutdown();
        Ok(())
    }
}
