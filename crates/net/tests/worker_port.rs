//! The worker port under hostile input: the cluster listener every
//! `NetFabric` process runs, coordinator and worker alike.
//!
//! Each case starts a coordinator and one joined worker hosting an echo
//! node, then aims one hostile stream at either process's listener. The
//! contract (DESIGN §11, "The worker port under hostile input"): the
//! stream's connection is dropped, no thread panics, the coordinator's
//! calls to the worker keep being answered, and the deployment still
//! shuts down promptly.
//!
//! Out of scope, because peers are not authenticated: a well-formed
//! `Hello` or `Rejoin` naming a live process index replaces that
//! process's route. The mesh case below dials under an index no process
//! holds.

use std::io::Write;
use std::net::{Ipv4Addr, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Once};
use std::time::Duration;

use proptest::prelude::*;
use semtree_cluster::{ComputeNodeId, CostModel, Handler, NodeCtx, Transport};
use semtree_net::{write_frame, Encode, NetFabric, NetMsg, MAX_FRAME_LEN};

type Fabric = NetFabric<u64, u64>;
type Msg = NetMsg<u64, u64>;

/// How long an answer or a shutdown may take before the case fails.
const DEADLINE: Duration = Duration::from_secs(10);

/// The index the mesh case's `Hello` claims: never assigned here.
const STRANGER: u32 = 1_000;

struct Echo;
impl Handler<u64, u64> for Echo {
    fn handle(&mut self, _ctx: &NodeCtx<u64, u64>, req: u64) -> u64 {
        req.wrapping_mul(2)
    }
}

/// Panics on any thread of this test binary, counted by a hook installed
/// once (this file holds one test, so no other test's panic lands here).
static PANICS: AtomicUsize = AtomicUsize::new(0);

fn count_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let report = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            PANICS.fetch_add(1, Ordering::SeqCst);
            report(info);
        }));
    });
}

/// What a hostile or broken peer may put on the worker port.
#[derive(Debug, Clone)]
enum Hostile {
    /// Bytes, then nothing (they may promise a frame they never finish).
    Random(Vec<u8>),
    /// The first `cut` bytes of a joining worker's `Hello` frame.
    TruncatedHello(usize),
    /// A joining worker's whole `Hello`: the coordinator admits it under
    /// a fresh index, a worker must refuse it.
    Joiner,
    /// A length prefix past [`MAX_FRAME_LEN`], nothing behind it.
    Oversized(u32),
    /// A well-framed message other than `Hello` or `Rejoin` as the first
    /// frame.
    NotAHandshake(Msg),
    /// A sibling's `Hello` under [`STRANGER`], then a frame of garbage on
    /// the established connection.
    MeshGarbage(Vec<u8>),
}

fn framed(payload: &[u8]) -> Vec<u8> {
    let mut wire = Vec::new();
    write_frame(&mut wire, payload).expect("frame");
    wire
}

fn hello(process_index: u32) -> Vec<u8> {
    framed(
        &Msg::Hello {
            process_index,
            listen_port: 1,
        }
        .to_bytes(),
    )
}

impl Hostile {
    fn wire(&self) -> Vec<u8> {
        match self {
            Hostile::Random(bytes) => bytes.clone(),
            Hostile::TruncatedHello(cut) => hello(Msg::UNASSIGNED)[..*cut].to_vec(),
            Hostile::Joiner => hello(Msg::UNASSIGNED),
            Hostile::Oversized(len) => len.to_be_bytes().to_vec(),
            Hostile::NotAHandshake(msg) => framed(&msg.to_bytes()),
            Hostile::MeshGarbage(bytes) => [hello(STRANGER), framed(bytes)].concat(),
        }
    }
}

fn not_a_handshake() -> impl Strategy<Value = Msg> {
    (0u8..8, 0u64..u64::MAX, 0u32..u32::MAX).prop_map(|(kind, call_id, word)| match kind {
        0 => Msg::Welcome {
            assigned_index: word,
            peers: vec![(word, "127.0.0.1:1".into())],
            config: call_id.to_le_bytes().to_vec(),
        },
        1 => Msg::PeerJoined {
            index: word,
            addr: "127.0.0.1:1".into(),
        },
        2 => Msg::Request {
            call_id,
            target: word,
            body: call_id,
        },
        3 => Msg::Response {
            call_id,
            body: u64::from(word),
        },
        4 => Msg::SpawnFresh { call_id },
        5 => Msg::Spawned {
            call_id,
            node: word,
        },
        6 => Msg::Error {
            call_id,
            code: 2,
            node: word,
            message: "hostile".into(),
        },
        _ => Msg::Shutdown,
    })
}

fn hostile() -> impl Strategy<Value = Hostile> {
    let cap = u32::try_from(MAX_FRAME_LEN).expect("cap fits");
    let hello_len = hello(Msg::UNASSIGNED).len();
    prop_oneof![
        prop::collection::vec(0u8..=255u8, 0..200).prop_map(Hostile::Random),
        (1..hello_len).prop_map(Hostile::TruncatedHello),
        Just(Hostile::Joiner),
        (1u32..1_000_000).prop_map(move |past| Hostile::Oversized(cap + past)),
        not_a_handshake().prop_map(Hostile::NotAHandshake),
        prop::collection::vec(0u8..=255u8, 1..64).prop_map(Hostile::MeshGarbage),
    ]
}

/// The coordinator's call to the worker's echo node, answered in time.
fn echo(coord: &Fabric, node: ComputeNodeId, x: u64) -> Result<u64, String> {
    let (tx, rx) = mpsc::channel();
    coord.submit(
        node,
        x,
        Box::new(move |out| {
            let _ = tx.send(out);
        }),
    );
    match rx.recv_timeout(DEADLINE) {
        Ok(answer) => answer.map_err(|e| e.to_string()),
        Err(e) => Err(format!("no answer: {e}")),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn hostile_peers_are_dropped_and_harm_nobody(
        stream in hostile(),
        at_worker in 0u8..2,
        x in 0u64..1_000_000,
    ) {
        count_panics();
        let loopback = SocketAddr::from((Ipv4Addr::LOCALHOST, 0));
        let coord = Fabric::coordinator(loopback, Vec::new(), CostModel::zero()).expect("coordinator");
        let (worker, _) = Fabric::join(coord.listen_addr(), CostModel::zero(), DEADLINE).expect("join");
        let node = worker.spawn_handler(Box::new(Echo)).expect("echo node");
        let port = if at_worker == 1 { worker.listen_addr() } else { coord.listen_addr() }.port();

        let mut socket = TcpStream::connect((Ipv4Addr::LOCALHOST, port)).expect("connect");
        // The listener may hang up before every byte is written.
        let _ = socket.write_all(&stream.wire());
        prop_assert_eq!(echo(&coord, node, x), Ok(2 * x), "{:?}, hostile socket open", stream);
        drop(socket);
        prop_assert_eq!(echo(&coord, node, x + 1), Ok(2 * x + 2), "{:?}, hostile socket closed", stream);

        let (done, finished) = mpsc::channel();
        let shutdown = std::thread::spawn(move || {
            coord.shutdown();
            worker.wait_for_shutdown();
            worker.shutdown();
            let _ = done.send(());
        });
        prop_assert!(finished.recv_timeout(DEADLINE).is_ok(), "{:?}: shutdown hung", stream);
        prop_assert!(shutdown.join().is_ok());
        prop_assert_eq!(PANICS.load(Ordering::SeqCst), 0, "{:?}: a thread panicked", stream);
    }
}
