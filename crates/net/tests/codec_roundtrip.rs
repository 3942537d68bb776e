//! Exhaustive per-variant round-trip coverage for [`NetMsg`].
//!
//! Every wire variant is encoded and decoded back, including
//! zero-payload and maximum-size edges. The `variant_name` match below
//! is deliberately wildcard-free: adding a `NetMsg` variant breaks this
//! file at compile time until the new variant gets its round-trip cases
//! (and `semtree-check` independently verifies each variant name appears
//! here).

use semtree_net::{decode_exact, Encode, NetMsg};

type Msg = NetMsg<Vec<u8>, String>;

/// Compile-time exhaustiveness guard: no wildcard arm, so a new variant
/// fails to build until it is added here AND to `all_cases`.
fn variant_name(msg: &Msg) -> &'static str {
    match msg {
        NetMsg::Hello { .. } => "Hello",
        NetMsg::Welcome { .. } => "Welcome",
        NetMsg::PeerJoined { .. } => "PeerJoined",
        NetMsg::Request { .. } => "Request",
        NetMsg::Response { .. } => "Response",
        NetMsg::SpawnFresh { .. } => "SpawnFresh",
        NetMsg::Spawned { .. } => "Spawned",
        NetMsg::Error { .. } => "Error",
        NetMsg::Shutdown => "Shutdown",
        NetMsg::Rejoin { .. } => "Rejoin",
    }
}

/// A large-but-bounded payload for the max-size edges. Big enough to
/// exercise multi-byte length prefixes and reallocation paths, small
/// enough to keep the suite fast (real frames are capped by
/// `MAX_FRAME_LEN`, far above this).
const BIG: usize = 1 << 20;

/// Typical, zero/minimal, and maximal instances of every variant.
fn all_cases() -> Vec<Msg> {
    vec![
        // Hello: typical, zero, and saturated fields (UNASSIGNED is
        // u32::MAX, so the max edge doubles as the joining-worker form).
        NetMsg::Hello {
            process_index: 3,
            listen_port: 9000,
        },
        NetMsg::Hello {
            process_index: 0,
            listen_port: 0,
        },
        NetMsg::Hello {
            process_index: Msg::UNASSIGNED,
            listen_port: u16::MAX,
        },
        // Welcome: empty peer set + empty config, then a large roster
        // with a BIG config blob.
        NetMsg::Welcome {
            assigned_index: 1,
            peers: Vec::new(),
            config: Vec::new(),
        },
        NetMsg::Welcome {
            assigned_index: u32::MAX,
            peers: (0..512)
                .map(|i| (i, format!("10.0.{}.{}:{}", i / 256, i % 256, 40000 + i)))
                .collect(),
            config: vec![0xAB; BIG],
        },
        // PeerJoined: empty and long addresses.
        NetMsg::PeerJoined {
            index: 2,
            addr: String::new(),
        },
        NetMsg::PeerJoined {
            index: u32::MAX,
            addr: "a".repeat(BIG),
        },
        // Request: zero-payload body and a BIG body.
        NetMsg::Request {
            call_id: 0,
            target: 0,
            body: Vec::new(),
        },
        NetMsg::Request {
            call_id: u64::MAX,
            target: u32::MAX,
            body: (0..BIG).map(|i| i as u8).collect(),
        },
        // Response: empty and BIG string bodies.
        NetMsg::Response {
            call_id: 1,
            body: String::new(),
        },
        NetMsg::Response {
            call_id: u64::MAX,
            body: "x".repeat(BIG),
        },
        // SpawnFresh: the only field at both edges.
        NetMsg::SpawnFresh { call_id: 0 },
        NetMsg::SpawnFresh { call_id: u64::MAX },
        // Spawned.
        NetMsg::Spawned {
            call_id: 7,
            node: (3 << 16) | 12,
        },
        NetMsg::Spawned {
            call_id: u64::MAX,
            node: u32::MAX,
        },
        // Error: empty message, every known code, and a BIG message.
        NetMsg::Error {
            call_id: 0,
            code: 0,
            node: 0,
            message: String::new(),
        },
        NetMsg::Error {
            call_id: 9,
            code: 5,
            node: 0,
            message: "timed out: only 1 of 4 workers joined".into(),
        },
        NetMsg::Error {
            call_id: u64::MAX,
            code: u8::MAX,
            node: u32::MAX,
            message: "e".repeat(BIG),
        },
        // Shutdown: the zero-payload variant.
        NetMsg::Shutdown,
        // Rejoin: no recovered partitions, then a large partition set.
        NetMsg::Rejoin {
            process_index: 1,
            listen_port: 1,
            partitions: Vec::new(),
        },
        NetMsg::Rejoin {
            process_index: u32::MAX,
            listen_port: u16::MAX,
            partitions: (0..100_000).collect(),
        },
    ]
}

fn round_trip(msg: &Msg) -> Msg {
    let bytes = msg.to_bytes();
    assert_eq!(
        bytes.len(),
        msg.encoded_len(),
        "{}: encoded_len must match the bytes actually produced",
        variant_name(msg)
    );
    decode_exact(&bytes).unwrap_or_else(|e| panic!("{}: decode failed: {e}", variant_name(msg)))
}

#[test]
fn every_variant_round_trips_including_edges() {
    let cases = all_cases();
    for msg in &cases {
        let back = round_trip(msg);
        assert_eq!(&back, msg, "{} must round-trip", variant_name(msg));
    }
    // Every variant is represented at least once.
    let mut seen: Vec<&str> = cases.iter().map(variant_name).collect();
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(
        seen,
        vec![
            "Error",
            "Hello",
            "PeerJoined",
            "Rejoin",
            "Request",
            "Response",
            "Shutdown",
            "SpawnFresh",
            "Spawned",
            "Welcome",
        ]
    );
}

#[test]
fn trailing_garbage_is_rejected() {
    let mut bytes = Msg::Shutdown.to_bytes();
    bytes.push(0);
    assert!(decode_exact::<Msg>(&bytes).is_err());
}

#[test]
fn truncation_is_rejected_for_every_variant() {
    for msg in all_cases() {
        let bytes = msg.to_bytes();
        if bytes.len() <= 1 {
            continue; // nothing to truncate meaningfully
        }
        // Chop at a handful of interior offsets (full sweep over BIG
        // payloads would be quadratic for no extra coverage).
        for cut in [1, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                decode_exact::<Msg>(&bytes[..cut]).is_err(),
                "{} truncated at {cut} must not decode",
                variant_name(&msg)
            );
        }
    }
}

/// Codec behaviour under pipelining: v2 (correlated) frames interleaved
/// on one byte stream, delivered through partial reads, with the
/// correlation id surviving exactly.
mod frame_v2_pipelining {
    use std::io::{self, Read};

    use proptest::prelude::*;
    use semtree_net::{
        encode_frame_v2, read_frame, split_frame_v2, write_frame, FRAME_V2, FRAME_V2_HEADER_LEN,
        MAX_FRAME_LEN,
    };

    /// A reader that hands out at most `chunk` bytes per call —
    /// simulates a socket delivering partial reads mid-frame.
    struct Dribble<'a> {
        wire: &'a [u8],
        pos: usize,
        chunk: usize,
    }

    impl Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(self.chunk).min(self.wire.len() - self.pos);
            buf[..n].copy_from_slice(&self.wire[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn header_is_exactly_nine_bytes() {
        // The v2 header (tag + correlation id) counts toward the frame
        // length, so MAX_FRAME_LEN bounds body + 9, not just the body.
        assert_eq!(FRAME_V2_HEADER_LEN, 9);
        for (corr, body) in [(0u64, &b""[..]), (u64::MAX, &b"payload"[..])] {
            let payload = encode_frame_v2(corr, body);
            assert_eq!(payload.len(), FRAME_V2_HEADER_LEN + body.len());
            assert_eq!(payload[0], FRAME_V2);
        }
    }

    #[test]
    fn interleaved_v1_and_v2_frames_keep_their_identities() {
        // One wire carrying a v1 frame between v2 frames with extreme
        // correlation ids — the v2 frames come back tagged correctly and
        // the v1 one is told apart as a stream the port does not speak.
        let mut wire = Vec::new();
        write_frame(&mut wire, &encode_frame_v2(u64::MAX, b"last-id")).unwrap();
        write_frame(&mut wire, b"plain v1 payload").unwrap();
        write_frame(&mut wire, &encode_frame_v2(0, b"zero-id")).unwrap();

        let mut reader = Dribble {
            wire: &wire,
            pos: 0,
            chunk: 3,
        };
        let first = read_frame(&mut reader).unwrap().unwrap();
        assert_eq!(split_frame_v2(&first).unwrap(), (u64::MAX, &b"last-id"[..]));
        let second = read_frame(&mut reader).unwrap().unwrap();
        assert_eq!(second, b"plain v1 payload");
        let err = split_frame_v2(&second).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "v1 is rejected");
        let third = read_frame(&mut reader).unwrap().unwrap();
        assert_eq!(split_frame_v2(&third).unwrap(), (0, &b"zero-id"[..]));
    }

    #[test]
    fn demux_detects_a_correlation_id_mismatch() {
        // A demuxing client holds the set of ids it issued; a reply
        // whose id is not in that set must be detectable (the client
        // then fails the connection rather than mis-delivering).
        let issued: std::collections::HashSet<u64> = [1, 2, 3].into();
        let reply = encode_frame_v2(42, b"stray");
        let (corr, _body) = split_frame_v2(&reply).unwrap();
        assert!(
            !issued.contains(&corr),
            "a stray id must not match any issued request"
        );
    }

    #[test]
    fn oversized_v2_frame_is_rejected_before_its_body_arrives() {
        // MAX_FRAME_LEN caps the whole payload including the 9-byte v2
        // header, so the largest legal body is MAX_FRAME_LEN - 9. A
        // prefix claiming one byte more is rejected from the prefix
        // alone — the reader never waits for (or allocates) the body.
        let len = u32::try_from(MAX_FRAME_LEN + 1).unwrap();
        let mut wire = len.to_be_bytes().to_vec();
        wire.push(FRAME_V2); // the body never arrives
        let mut reader: &[u8] = &wire;
        let err = read_frame(&mut reader).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    proptest! {
        /// Any sequence of v2 frames, written on one stream and read
        /// back through arbitrary partial-read chunk sizes, yields the
        /// same (id, body) pairs in order.
        #[test]
        fn pipelined_frames_survive_arbitrary_chunking(
            frames in prop::collection::vec(
                (0u64..u64::MAX, prop::collection::vec(0u8..=255u8, 0..64)),
                1..8,
            ),
            chunk in 1usize..16,
        ) {
            let mut wire = Vec::new();
            for (corr, body) in &frames {
                write_frame(&mut wire, &encode_frame_v2(*corr, body)).unwrap();
            }
            let mut reader = Dribble { wire: &wire, pos: 0, chunk };
            for (corr, body) in &frames {
                let payload = read_frame(&mut reader).unwrap().unwrap();
                let (got_corr, got_body) = split_frame_v2(&payload).unwrap();
                prop_assert_eq!(got_corr, *corr);
                prop_assert_eq!(got_body, &body[..]);
            }
            prop_assert!(read_frame(&mut reader).unwrap().is_none(), "wire drained");
        }

        /// The 9-byte header alone round-trips every correlation id;
        /// truncating into the header is always InvalidData, never a
        /// misparse.
        #[test]
        fn header_truncation_never_misparses(corr in 0u64..u64::MAX, cut in 1usize..9) {
            let payload = encode_frame_v2(corr, b"");
            prop_assert_eq!(split_frame_v2(&payload).unwrap(), (corr, &b""[..]));
            let err = split_frame_v2(&payload[..cut]).unwrap_err();
            prop_assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
    }
}
