//! `semtree-reactor`: event-driven pipelined serving fabric — beyond
//! the paper.
//!
//! The paper's distributed SemTree assumes a cluster "serving heavy
//! traffic from millions of users"; the workspace's original client
//! path was blocking, thread-per-connection, one request per
//! round-trip. This crate replaces it with a **dependency-free
//! readiness loop** over non-blocking `std::net` sockets:
//!
//! - `sys`: one level-triggered `poll(2)` poller on every platform
//!   (the only `unsafe` in the workspace), `EINTR`-retrying and safe
//!   above the syscall;
//! - `buffer`: per-connection frame re-assembly and partial-write
//!   resumption over the existing u32-length-prefixed framing;
//! - `queue`: bounded global + per-connection admission with
//!   backpressure semantics, generic over the concurrency shim so the
//!   `semtree-conc` model checker can explore the queue-full /
//!   connection-close race;
//! - `reactor`: N sharded event loops (accept-balanced connection
//!   ownership, per-shard wake pipes and completion lists) that answer
//!   on their own thread what the [`Service`] takes inline
//!   ([`Service::call_inline`]) and feed an executor pool with the rest
//!   — shedding overload with a typed response, completing pipelined
//!   replies from any thread via [`ReplyToken`], flushing a turn's
//!   replies in one write, and recording per-request latency and
//!   per-shard served/shed counters into the shared
//!   [`semtree_cluster::MetricsSnapshot`].
//!
//! Requests are **pipelined**: every frame (`semtree_net::FRAME_V2`)
//! carries a correlation id, responses complete out of order, and a
//! single connection keeps many requests in flight. A payload without
//! the header is a desynchronised stream: that connection is closed.

mod buffer;
mod queue;
mod reactor;
mod sys;

pub use buffer::{FrameReader, WriteQueue};
pub use queue::{Push, ServeQueue};
pub use reactor::{
    effective_reactors, serve, Dispatch, ReactorConfig, ReactorReport, ReplyToken, Service,
    ServiceReply, DRAIN_BUDGET, INLINE_MAX_K,
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    use semtree_net::{encode_frame_v2, read_frame, split_frame_v2, write_frame};

    /// Echoes the body back; byte `0xFF` alone means "shut down"; body
    /// `[0xEE]` sleeps briefly (to hold queue slots in overload tests);
    /// a body starting with `0x11` is answered inline on the shard.
    /// `calls` counts executor-side calls only.
    struct Echo {
        calls: AtomicU64,
    }

    impl Service for Echo {
        fn call(&self, request: &[u8]) -> ServiceReply {
            self.calls.fetch_add(1, Ordering::Relaxed);
            if request == [0xEE] {
                std::thread::sleep(Duration::from_millis(30));
            }
            ServiceReply {
                payload: request.to_vec(),
                shutdown: request == [0xFF],
            }
        }
        fn overloaded(&self) -> Vec<u8> {
            b"OVERLOADED".to_vec()
        }
        fn call_inline(&self, request: &[u8]) -> Option<ServiceReply> {
            (request.first() == Some(&0x11)).then(|| ServiceReply {
                payload: request.to_vec(),
                shutdown: false,
            })
        }
    }

    fn serve_echo(
        config: ReactorConfig,
    ) -> (std::net::SocketAddr, std::thread::JoinHandle<ReactorReport>) {
        let (addr, handle) = serve_counting_echo(config);
        (addr, std::thread::spawn(move || handle.join().unwrap().0))
    }

    /// [`serve_echo`] that also yields how many requests the executors ran.
    fn serve_counting_echo(
        config: ReactorConfig,
    ) -> (
        std::net::SocketAddr,
        std::thread::JoinHandle<(ReactorReport, u64)>,
    ) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let echo = Echo {
                calls: AtomicU64::new(0),
            };
            let report = serve(&listener, &echo, &config).unwrap();
            (report, echo.calls.load(Ordering::Relaxed))
        });
        (addr, handle)
    }

    fn shutdown_server(addr: std::net::SocketAddr) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write_frame(&mut stream, &encode_frame_v2(999, &[0xFF])).unwrap();
        let _ = read_frame(&mut stream);
    }

    /// One request, then its reply: what a blocking client does.
    fn round_trip(stream: &mut TcpStream, corr: u64, body: &[u8]) -> Vec<u8> {
        write_frame(stream, &encode_frame_v2(corr, body)).unwrap();
        let payload = read_frame(stream).unwrap().unwrap();
        let (answered, reply) = split_frame_v2(&payload).unwrap();
        assert_eq!(answered, corr);
        reply.to_vec()
    }

    #[test]
    fn sequential_clients_round_trip() {
        let (addr, handle) = serve_echo(ReactorConfig::default());
        let mut stream = TcpStream::connect(addr).unwrap();
        for i in 0..10u8 {
            assert_eq!(round_trip(&mut stream, u64::from(i), &[i, i, i]), [i, i, i]);
        }
        drop(stream);
        shutdown_server(addr);
        let report = handle.join().unwrap();
        assert_eq!(report.shed, 0);
        assert_eq!(report.served, 11); // 10 echoes + the shutdown
    }

    #[test]
    fn pipelined_requests_come_back_correlated() {
        let (addr, handle) = serve_echo(ReactorConfig::default());
        let mut stream = TcpStream::connect(addr).unwrap();
        // Fire 32 requests before reading anything.
        for i in 0..32u64 {
            write_frame(&mut stream, &encode_frame_v2(i, &i.to_le_bytes())).unwrap();
        }
        let mut seen = [false; 32];
        for _ in 0..32 {
            let payload = read_frame(&mut stream).unwrap().unwrap();
            let (corr, body) = split_frame_v2(&payload).unwrap();
            assert_eq!(body, corr.to_le_bytes(), "body echoes its own id");
            assert!(!seen[usize::try_from(corr).unwrap()], "duplicate {corr}");
            seen[usize::try_from(corr).unwrap()] = true;
        }
        drop(stream);
        shutdown_server(addr);
        handle.join().unwrap();
    }

    /// The poller maps each ready fd back to its connection by its
    /// position in the registration table: 64 connections on one shard,
    /// each pipelining 4 requests (odd ones answered inline, even ones by
    /// an executor), must each get exactly their own replies back.
    #[test]
    fn many_pipelined_connections_on_one_shard_get_their_own_replies() {
        let (addr, handle) = serve_echo(ReactorConfig::default());
        let mut streams: Vec<TcpStream> =
            (0..64).map(|_| TcpStream::connect(addr).unwrap()).collect();
        let body = |corr: u64| {
            let tag = if corr % 2 == 1 { 0x11 } else { 0x00 };
            [&[tag][..], &corr.to_le_bytes()].concat()
        };
        for (conn, stream) in (0u64..).zip(&mut streams) {
            for i in 0..4 {
                let corr = conn << 8 | i;
                write_frame(stream, &encode_frame_v2(corr, &body(corr))).unwrap();
            }
        }
        for (conn, stream) in (0u64..).zip(&mut streams) {
            let mut seen = [false; 4];
            for _ in 0..4 {
                let payload = read_frame(stream).unwrap().unwrap();
                let (corr, reply) = split_frame_v2(&payload).unwrap();
                assert_eq!(corr >> 8, conn, "reply {corr:#x} on connection {conn}");
                assert_eq!(reply, body(corr));
                let i = usize::try_from(corr & 0xFF).unwrap();
                assert!(!seen[i], "duplicate {corr:#x}");
                seen[i] = true;
            }
        }
        drop(streams);
        shutdown_server(addr);
        let report = handle.join().unwrap();
        assert_eq!(report.shed, 0);
        assert_eq!(report.served, 64 * 4 + 1);
    }

    #[test]
    fn global_overflow_sheds_with_the_typed_reply_instead_of_stalling() {
        let config = ReactorConfig {
            executors: 1,
            global_depth: 2,
            per_conn_depth: 64,
            ..ReactorConfig::default()
        };
        let (addr, handle) = serve_echo(config);
        let mut stream = TcpStream::connect(addr).unwrap();
        // Every request parks its executor 30ms; with one executor and
        // a global depth of 2, a burst of 16 must shed at least 13.
        for i in 0..16u64 {
            write_frame(&mut stream, &encode_frame_v2(i, &[0xEE])).unwrap();
        }
        let mut shed = 0u64;
        let mut served = 0;
        for _ in 0..16 {
            let payload = read_frame(&mut stream).unwrap().unwrap();
            let (_corr, body) = split_frame_v2(&payload).unwrap();
            if body == b"OVERLOADED" {
                shed += 1;
            } else {
                assert_eq!(body, [0xEE]);
                served += 1;
            }
        }
        assert!(shed >= 13, "expected most of the burst shed, got {shed}");
        assert!(served >= 1, "admitted requests still answered");
        drop(stream);
        shutdown_server(addr);
        let report = handle.join().unwrap();
        assert_eq!(report.shed, shed);
    }

    #[test]
    fn per_conn_bound_backpressures_without_losing_requests() {
        let config = ReactorConfig {
            executors: 2,
            global_depth: 1024,
            per_conn_depth: 2,
            reactors: 2,
            ..ReactorConfig::default()
        };
        let (addr, handle) = serve_echo(config);
        let mut stream = TcpStream::connect(addr).unwrap();
        // 64 requests through a 2-deep pipeline: nothing shed, nothing
        // lost — the reactor stops reading instead of dropping.
        for i in 0..64u64 {
            write_frame(&mut stream, &encode_frame_v2(i, b"x")).unwrap();
        }
        for _ in 0..64 {
            let payload = read_frame(&mut stream).unwrap().unwrap();
            let (_corr, body) = split_frame_v2(&payload).unwrap();
            assert_eq!(body, b"x");
        }
        drop(stream);
        shutdown_server(addr);
        let report = handle.join().unwrap();
        assert_eq!(report.shed, 0);
        assert_eq!(report.served, 65);
    }

    #[test]
    fn latency_lands_in_the_shared_histogram() {
        let metrics = std::sync::Arc::new(semtree_cluster::ClusterMetrics::default());
        let config = ReactorConfig {
            metrics: Some(std::sync::Arc::clone(&metrics)),
            ..ReactorConfig::default()
        };
        let (addr, handle) = serve_echo(config);
        let mut stream = TcpStream::connect(addr).unwrap();
        for i in 0..8u64 {
            write_frame(&mut stream, &encode_frame_v2(i, b"m")).unwrap();
        }
        for _ in 0..8 {
            read_frame(&mut stream).unwrap().unwrap();
        }
        drop(stream);
        shutdown_server(addr);
        handle.join().unwrap();
        let snap = metrics.snapshot();
        assert_eq!(snap.latency.count, 9); // 8 echoes + shutdown
        assert!(snap.latency.p99_nanos() > 0);
    }

    #[test]
    fn inline_answers_never_reach_an_executor_and_are_counted() {
        let metrics = std::sync::Arc::new(semtree_cluster::ClusterMetrics::default());
        let config = ReactorConfig {
            metrics: Some(std::sync::Arc::clone(&metrics)),
            ..ReactorConfig::default()
        };
        let (addr, handle) = serve_counting_echo(config);
        let mut stream = TcpStream::connect(addr).unwrap();
        // Two DRAIN_BUDGETs of inline requests in one burst (the second
        // half is re-pumped), then a lone one.
        let burst = 2 * DRAIN_BUDGET as u64;
        for i in 0..burst {
            write_frame(&mut stream, &encode_frame_v2(i, &[0x11, i as u8])).unwrap();
        }
        for i in 0..burst {
            let payload = read_frame(&mut stream).unwrap().unwrap();
            let (corr, body) = split_frame_v2(&payload).unwrap();
            assert_eq!(
                (corr, body),
                (i, &[0x11, i as u8][..]),
                "inline replies in order"
            );
        }
        assert_eq!(round_trip(&mut stream, burst, &[0x11, 0xAB]), [0x11, 0xAB]);
        drop(stream);
        shutdown_server(addr);
        let (report, executed) = handle.join().unwrap();
        assert_eq!(executed, 1, "only the shutdown request reached an executor");
        assert_eq!(report.served, burst + 2);
        let snap = metrics.snapshot();
        assert_eq!(
            snap.latency.count,
            burst + 2,
            "inline answers are timed too"
        );
        assert_eq!(snap.shard_served.iter().sum::<u64>(), burst + 2);
    }

    #[test]
    fn inline_replies_overtake_a_slow_executor_request_on_one_connection() {
        let (addr, handle) = serve_echo(ReactorConfig::default());
        let mut stream = TcpStream::connect(addr).unwrap();
        write_frame(&mut stream, &encode_frame_v2(0, &[0xEE])).unwrap();
        for i in 1..=4u64 {
            write_frame(&mut stream, &encode_frame_v2(i, &[0x11])).unwrap();
        }
        let mut order = Vec::new();
        for _ in 0..5 {
            let payload = read_frame(&mut stream).unwrap().unwrap();
            let (corr, body) = split_frame_v2(&payload).unwrap();
            assert_eq!(body, if corr == 0 { [0xEE] } else { [0x11] });
            order.push(corr);
        }
        assert_eq!(order, [1, 2, 3, 4, 0], "the 30 ms request comes back last");
        drop(stream);
        shutdown_server(addr);
        handle.join().unwrap();
    }

    #[test]
    fn abrupt_client_disconnect_releases_slots() {
        let config = ReactorConfig {
            executors: 1,
            global_depth: 8,
            per_conn_depth: 8,
            ..ReactorConfig::default()
        };
        let (addr, handle) = serve_echo(config);
        {
            let mut doomed = TcpStream::connect(addr).unwrap();
            for i in 0..4u64 {
                write_frame(&mut doomed, &encode_frame_v2(i, &[0xEE])).unwrap();
            }
            // Drop without reading a single reply.
        }
        // Let the executor finish the orphaned jobs (4 × 30ms) so their
        // slots are provably released, not leaked.
        std::thread::sleep(Duration::from_millis(300));
        // A well-behaved client still gets full service afterwards.
        let mut stream = TcpStream::connect(addr).unwrap();
        for i in 0..8u64 {
            write_frame(&mut stream, &encode_frame_v2(i, b"ok")).unwrap();
        }
        for _ in 0..8 {
            let payload = read_frame(&mut stream).unwrap().unwrap();
            let (_corr, body) = split_frame_v2(&payload).unwrap();
            assert_eq!(body, b"ok");
        }
        drop(stream);
        shutdown_server(addr);
        handle.join().unwrap();
    }

    #[test]
    fn corrupt_length_prefix_drops_only_that_connection() {
        let (addr, handle) = serve_echo(ReactorConfig::default());
        let mut hostile = TcpStream::connect(addr).unwrap();
        hostile.write_all(&u32::MAX.to_be_bytes()).unwrap();
        // The server closes the hostile connection...
        let mut buf = [0u8; 8];
        assert_eq!(hostile.read(&mut buf).unwrap(), 0);
        // ...while a clean connection is unaffected.
        let mut stream = TcpStream::connect(addr).unwrap();
        assert_eq!(round_trip(&mut stream, 7, b"alive"), b"alive");
        drop(stream);
        shutdown_server(addr);
        handle.join().unwrap();
    }
}
