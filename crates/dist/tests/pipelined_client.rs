//! The pipelined client against hostile and awkward servers.
//!
//! `PipelinedClient` has no reader thread: replies are read by whoever
//! waits. These tests put a scripted fake server on a loopback socket
//! and check the client's half of the frame-level contract — whatever
//! bytes come back, every outstanding `PendingReply` ends in its own
//! correct answer or in the typed dead-connection error (`BrokenPipe`),
//! never a panic, never a hang (every wait here has a timeout), and
//! nothing is allocated on the word of a length prefix. The contract
//! tests pin when a submitted request reaches the wire (the send
//! contract in `PipelinedClient`'s documentation).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Duration;

use proptest::prelude::*;
use semtree_cluster::CostModel;
use semtree_dist::{
    serve_clients_with, ClientReq, ClientResp, DistConfig, DistSemTree, NetClient, PendingReply,
    PipelinedClient, Query, ServeOptions,
};
use semtree_net::{
    append_encoded_frame, append_frame, read_frame, split_frame_v2, write_frame, Encode,
    MAX_FRAME_LEN,
};

const WAIT: Duration = Duration::from_secs(10);

/// The queued bytes at which `submit` writes the outbox itself, as the
/// send contract states it.
const OUTBOX_CAP: usize = 64 * 1024;

/// How long "nothing arrives" is watched for.
const QUIET: Duration = Duration::from_millis(50);

/// One move of the fake server.
enum Step {
    /// Read this many request frames off the client first.
    Expect(usize),
    /// Fail unless no byte arrives for this long (or the client closes).
    Quiet(Duration),
    /// Tell the test the steps before this one are done.
    Tell(mpsc::Sender<()>),
    /// Write these bytes with one `write_all`.
    Send(Vec<u8>),
    /// Give the client time to read what was sent so far on its own.
    Pause,
    /// Block until the test says go.
    Hold(mpsc::Receiver<()>),
    /// Close the connection now.
    Close,
}

/// Accept one connection and play `script`; unless it closed, keep the
/// socket open — swallowing whatever the client still sends — until the
/// client goes away. The handle returns the correlation ids of the
/// frames the `Expect` steps read, in arrival order.
fn fake_server(script: Vec<Step>) -> (SocketAddr, JoinHandle<Vec<u64>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let handle = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        stream.set_nodelay(true).expect("nodelay");
        let mut read = Vec::new();
        for step in script {
            match step {
                Step::Expect(n) => {
                    for _ in 0..n {
                        let frame = read_frame(&mut stream).expect("request").expect("frame");
                        read.push(split_frame_v2(&frame).expect("v2 frame").0);
                    }
                }
                Step::Quiet(span) => {
                    stream.set_read_timeout(Some(span)).expect("timeout");
                    if let Ok(n @ 1..) = stream.peek(&mut [0u8]) {
                        panic!("{n} byte(s) arrived within {span:?} of quiet");
                    }
                    stream.set_read_timeout(None).expect("timeout");
                }
                Step::Send(bytes) => stream.write_all(&bytes).expect("send"),
                Step::Pause => std::thread::sleep(Duration::from_millis(2)),
                Step::Hold(go) => go.recv().expect("go"),
                Step::Tell(done) => done.send(()).expect("tell"),
                Step::Close => return read,
            }
        }
        let mut sink = [0u8; 4096];
        while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
        read
    });
    (addr, handle)
}

fn connect(addr: SocketAddr) -> PipelinedClient {
    PipelinedClient::connect(addr, WAIT).expect("connect")
}

/// Submit `n` requests (correlation ids `0..n`).
fn submit_n(client: &mut PipelinedClient, n: u64) -> Vec<PendingReply> {
    (0..n)
        .map(|i| client.knn(&[i as f64, 0.0], 1).expect("submit"))
        .collect()
}

/// The reply only request `corr` may get.
fn answer(corr: u64) -> ClientResp {
    ClientResp::Neighbors(vec![(corr as f64 + 0.5, corr)])
}

/// `answer(corr)` as the server frames it.
fn reply_frame(corr: u64) -> Vec<u8> {
    let mut wire = Vec::new();
    append_frame(&mut wire, corr, &answer(corr).to_bytes()).expect("frame");
    wire
}

fn assert_dead(outcome: std::io::Result<ClientResp>, what: &str) {
    match outcome {
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => {}
        other => panic!("{what}: expected the dead-connection error, got {other:?}"),
    }
}

/// How a hostile server ends an otherwise valid reply stream.
#[derive(Debug, Clone)]
enum Ending {
    /// Half a reply frame, then EOF.
    Truncated(usize),
    /// A length prefix past the frame cap (nothing behind it).
    Oversized(u32),
    /// A reply without the v2 header.
    V1,
    /// A well-formed reply to a request nobody sent.
    UnknownCorr(u64),
    /// A second reply to a request already answered.
    Duplicate,
    /// Bytes.
    Garbage(Vec<u8>),
}

fn ending() -> impl Strategy<Value = Ending> {
    prop_oneof![
        (1usize..20).prop_map(Ending::Truncated),
        (1u32..1_000_000)
            .prop_map(|past| Ending::Oversized(u32::try_from(MAX_FRAME_LEN).unwrap() + past)),
        Just(Ending::V1),
        (1_000u64..u64::MAX).prop_map(Ending::UnknownCorr),
        Just(Ending::Duplicate),
        prop::collection::vec(0u8..=255u8, 1..64).prop_map(Ending::Garbage),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Valid replies in any order and any segmentation, then one
    /// violation: what was answered before it is delivered, everything
    /// else — outstanding then, or submitted later — gets `BrokenPipe`.
    #[test]
    fn a_violation_kills_the_connection_but_not_the_answers_before_it(
        total in 1u64..10,
        answered in 0usize..10,
        shuffle in prop::collection::vec(0usize..1000, 10),
        cuts in prop::collection::vec(0usize..1000, 0..4),
        ending in ending(),
    ) {
        // The ids answered, in the order the server answers them.
        let mut order: Vec<u64> = (0..total).collect();
        order.sort_by_key(|&corr| shuffle[usize::try_from(corr).unwrap()]);
        order.truncate(answered.min(order.len()));

        let mut wire: Vec<u8> = order.iter().flat_map(|&corr| reply_frame(corr)).collect();
        match &ending {
            Ending::Truncated(keep) => {
                let unanswered = (0..total).find(|corr| !order.contains(corr));
                let frame = reply_frame(unanswered.unwrap_or(total));
                wire.extend_from_slice(&frame[..(*keep).min(frame.len() - 1)]);
            }
            Ending::Oversized(len) => wire.extend_from_slice(&len.to_be_bytes()),
            Ending::V1 => write_frame(&mut wire, &answer(0).to_bytes()).unwrap(),
            Ending::UnknownCorr(corr) => wire.extend(reply_frame(*corr)),
            Ending::Duplicate => wire.extend(reply_frame(order.first().copied().unwrap_or(total))),
            Ending::Garbage(bytes) => wire.extend_from_slice(bytes),
        }

        let mut script = vec![Step::Expect(usize::try_from(total).unwrap())];
        let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (wire.len() + 1)).collect();
        cuts.sort_unstable();
        let mut sent = 0;
        for cut in cuts {
            script.push(Step::Send(wire[sent..cut].to_vec()));
            script.push(Step::Pause);
            sent = cut;
        }
        script.push(Step::Send(wire[sent..].to_vec()));
        script.push(Step::Close);

        let (addr, server) = fake_server(script);
        let mut client = connect(addr);
        let pending = submit_n(&mut client, total);
        for (corr, reply) in (0..total).zip(pending) {
            let outcome = reply.wait_timeout(WAIT);
            if order.contains(&corr) {
                prop_assert_eq!(outcome.expect("answered before the violation"), answer(corr));
            } else if !matches!(ending, Ending::Garbage(_)) {
                assert_dead(outcome, "unanswered request");
            } else {
                // Garbage may, one time in 2^72, spell a reply header;
                // it must still settle, and never as a timeout.
                prop_assert!(!matches!(&outcome, Err(e) if e.kind() == std::io::ErrorKind::TimedOut));
            }
        }
        // The connection is dead for good. A later submit fails at once
        // when the violation has been read already (or the write hits
        // the closed socket); otherwise its reply is the same error.
        match client.knn(&[0.0, 0.0], 1) {
            Err(e) => prop_assert!(
                matches!(e.kind(), std::io::ErrorKind::BrokenPipe | std::io::ErrorKind::ConnectionReset),
                "{e}"
            ),
            Ok(late) => assert_dead(late.wait_timeout(WAIT), "request after the violation"),
        }
        server.join().expect("fake server");
    }

    /// Nothing but noise, then EOF.
    #[test]
    fn random_bytes_never_hang_or_panic_the_client(
        noise in prop::collection::vec(0u8..=255u8, 0..600),
    ) {
        let (addr, server) = fake_server(vec![Step::Expect(3), Step::Send(noise), Step::Close]);
        let mut client = connect(addr);
        for reply in submit_n(&mut client, 3) {
            if let Err(e) = reply.wait_timeout(WAIT) {
                prop_assert!(
                    matches!(e.kind(), std::io::ErrorKind::BrokenPipe | std::io::ErrorKind::InvalidData),
                    "{e}"
                );
            }
        }
        server.join().expect("fake server");
    }
}

#[test]
fn replies_split_at_every_byte_boundary_reassemble() {
    // Two replies, out of order, cut in two at every byte (cut 0 and the
    // full length put both in one segment).
    let wire: Vec<u8> = [reply_frame(1), reply_frame(0)].concat();
    for cut in 0..=wire.len() {
        let (addr, server) = fake_server(vec![
            Step::Expect(2),
            Step::Send(wire[..cut].to_vec()),
            Step::Pause,
            Step::Send(wire[cut..].to_vec()),
        ]);
        let mut client = connect(addr);
        let pending = submit_n(&mut client, 2);
        for (corr, reply) in (0..2).zip(pending) {
            assert_eq!(
                reply.wait_timeout(WAIT).expect("reply"),
                answer(corr),
                "cut {cut}"
            );
        }
        drop(client);
        server.join().expect("fake server");
    }
}

#[test]
fn two_threads_waiting_on_one_connection_both_finish() {
    let (go_tx, go_rx) = mpsc::channel();
    // Reply 1 first, so whichever thread reads files the other's answer.
    let wire = [reply_frame(1), reply_frame(0)].concat();
    let (addr, server) = fake_server(vec![Step::Expect(2), Step::Hold(go_rx), Step::Send(wire)]);
    let mut client = connect(addr);
    let pending = submit_n(&mut client, 2);
    let barrier = std::sync::Barrier::new(3);
    std::thread::scope(|scope| {
        let waiters: Vec<_> = pending
            .into_iter()
            .map(|reply| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    reply.wait_timeout(WAIT)
                })
            })
            .collect();
        // Both threads are about to wait (or already are) when the
        // server is let go.
        barrier.wait();
        go_tx.send(()).expect("go");
        for (corr, waiter) in (0..2).zip(waiters) {
            assert_eq!(waiter.join().expect("waiter").expect("reply"), answer(corr));
        }
    });
    drop(client);
    server.join().expect("fake server");
}

#[test]
fn a_timed_out_wait_leaves_the_connection_usable() {
    let (go_tx, go_rx) = mpsc::channel();
    let (addr, server) = fake_server(vec![
        Step::Expect(2),
        Step::Hold(go_rx),
        Step::Send([reply_frame(0), reply_frame(1)].concat()),
    ]);
    let mut client = connect(addr);
    let silent = client.knn(&[0.0, 0.0], 1).expect("submit");
    let timed_out = silent.wait_timeout(Duration::from_millis(40)).unwrap_err();
    assert_eq!(timed_out.kind(), std::io::ErrorKind::TimedOut);

    // The abandoned request's late reply is discarded, not a violation.
    let next = client.knn(&[1.0, 0.0], 1).expect("submit after a timeout");
    go_tx.send(()).expect("go");
    assert_eq!(next.wait_timeout(WAIT).expect("reply"), answer(1));
    let after = client.knn(&[2.0, 0.0], 1);
    assert!(after.is_ok(), "the connection is still alive");
    drop(client);
    server.join().expect("fake server");
}

#[test]
fn dropping_the_client_fails_what_is_still_pending() {
    let (addr, server) = fake_server(vec![Step::Expect(1)]);
    let mut client = connect(addr);
    let pending = client.knn(&[0.0, 0.0], 1).expect("submit");
    drop(client);
    assert_dead(pending.wait_timeout(WAIT), "request pending at drop");
    server.join().expect("fake server");
}

/// The server must keep reading — and the client must find every
/// answer — when nothing is claimed until everything is submitted:
/// without a reader thread the replies wait in the socket buffers and
/// the server's write queue.
#[test]
fn twenty_thousand_knns_submitted_before_the_first_claim_all_resolve() {
    let tree = DistSemTree::single(DistConfig::new(2).with_bucket_size(8), CostModel::zero());
    let points: Vec<[f64; 2]> = (0..64u32)
        .map(|i| [f64::from(i % 8), f64::from(i / 8)])
        .collect();
    for (i, p) in points.iter().enumerate() {
        tree.query(Query::insert(p, i as u64)).expect("insert");
    }
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    std::thread::scope(|scope| {
        let server = scope.spawn(|| serve_clients_with(&listener, &tree, &ServeOptions::default()));
        let mut client = connect(addr);
        let pending: Vec<PendingReply> = (0..20_000usize)
            .map(|i| client.knn(&points[i % points.len()], 1).expect("submit"))
            .collect();
        for (i, reply) in pending.into_iter().enumerate() {
            let hits = match reply.wait_timeout(WAIT).expect("reply") {
                ClientResp::Neighbors(hits) => hits,
                other => panic!("request {i}: {other:?}"),
            };
            assert_eq!(hits, vec![(0.0, (i % points.len()) as u64)], "request {i}");
        }
        drop(client);
        NetClient::connect(addr, WAIT)
            .expect("connect")
            .shutdown()
            .expect("shutdown");
        server.join().expect("server thread").expect("serve");
    });
    tree.shutdown();
}

/// Send contract, *at an explicit `flush()`*: submits alone put nothing
/// on the wire, and `flush` puts exactly what was queued there.
#[test]
fn submitted_requests_wait_in_the_outbox_until_flush() {
    let (quiet_tx, quiet_rx) = mpsc::channel();
    let (done_tx, done_rx) = mpsc::channel();
    let (addr, server) = fake_server(vec![
        Step::Quiet(QUIET),
        Step::Tell(quiet_tx),
        Step::Expect(3),
        Step::Quiet(QUIET),
        Step::Tell(done_tx),
    ]);
    let mut client = connect(addr);
    let _pending = submit_n(&mut client, 3);
    quiet_rx
        .recv_timeout(WAIT)
        .expect("nothing sent before the flush");
    client.flush().expect("flush");
    done_rx
        .recv_timeout(WAIT)
        .expect("three frames, then nothing");
    drop(client);
    assert_eq!(server.join().expect("fake server"), [0, 1, 2]);
}

/// Send contract, *once the outbox holds a fixed number of bytes*: with
/// no wait and no flush, the submit that fills the outbox to 64 KiB
/// writes it, and what is submitted after it stays queued.
#[test]
fn the_submit_that_fills_the_outbox_writes_it() {
    let mut one = Vec::new();
    let knn = ClientReq::Knn {
        point: vec![0.0, 0.0],
        k: 1,
    };
    append_encoded_frame(&mut one, 0, &knn).expect("frame");
    let filling = OUTBOX_CAP.div_ceil(one.len());
    let (done_tx, done_rx) = mpsc::channel();
    let (addr, server) = fake_server(vec![
        Step::Expect(filling),
        Step::Quiet(QUIET),
        Step::Tell(done_tx),
    ]);
    let mut client = connect(addr);
    let _pending = submit_n(&mut client, filling as u64 + 3);
    done_rx
        .recv_timeout(WAIT)
        .expect("the first 64 KiB, then nothing");
    drop(client);
    let read = server.join().expect("fake server");
    assert_eq!(read, (0..filling as u64).collect::<Vec<_>>());
}

/// Send contract, *at a wait that cannot return at once*, across
/// threads: a waiter flushes before it blocks on the reader lock. Thread
/// A reads for request 0, whose reply the server sends only after it has
/// also seen request 1; request 1 is submitted after A blocked and is
/// waited on from a second thread. Were the outbox flushed only under
/// the reader lock, request 1 would sit queued behind A until A's wait
/// timed out.
#[test]
fn a_waiter_flushes_before_it_queues_behind_another_threads_read() {
    let (first_tx, first_rx) = mpsc::channel();
    let (addr, server) = fake_server(vec![
        Step::Expect(1),
        Step::Tell(first_tx),
        Step::Expect(1),
        Step::Send([reply_frame(0), reply_frame(1)].concat()),
    ]);
    let mut client = connect(addr);
    let x = client.knn(&[0.0, 0.0], 1).expect("submit x");
    std::thread::scope(|scope| {
        let a = scope.spawn(move || x.wait_timeout(WAIT));
        first_rx.recv_timeout(WAIT).expect("x sent by its waiter");
        // Let thread A take the reader lock and block reading. The
        // contract holds in every interleaving (request 1's waiter
        // flushes whether or not A holds the lock); the pause only makes
        // the interleaving that exposes a flush under the lock the one
        // that runs.
        std::thread::sleep(Duration::from_millis(20));
        let y = client.knn(&[1.0, 0.0], 1).expect("submit y");
        let b = scope.spawn(move || y.wait_timeout(WAIT));
        assert_eq!(b.join().expect("thread b").expect("y"), answer(1));
        assert_eq!(a.join().expect("thread a").expect("x"), answer(0));
    });
    drop(client);
    assert_eq!(server.join().expect("fake server"), [0, 1]);
}

/// A failed write kills the connection: the server is gone, so a cap
/// flush eventually fails; the next submit then fails at once, and every
/// request submitted before it — written to the dead socket or in the
/// failed batch — settles as the dead-connection error, never
/// `TimedOut`.
#[test]
fn a_failed_write_settles_every_pending_request_and_later_submits() {
    let (addr, server) = fake_server(vec![Step::Close]);
    let mut client = connect(addr);
    server.join().expect("fake server");
    let mut pending = Vec::new();
    while client.knn(&[0.0, 0.0], 1).map(|p| pending.push(p)).is_ok() {
        assert!(
            pending.len() < 1_000_000,
            "writes to a closed connection kept succeeding"
        );
    }
    // Before anything is read: the failed write alone killed it.
    match client.knn(&[0.0, 0.0], 1) {
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::BrokenPipe, "{e}"),
        Ok(_) => panic!("a submit after the failed write was accepted"),
    }
    for reply in pending {
        assert_dead(
            reply.wait_timeout(WAIT),
            "request pending at the failed write",
        );
    }
}
