//! Length-prefixed framing over a byte stream.
//!
//! Every message travels as a **u32 big-endian length prefix** followed
//! by that many payload bytes (the codec encoding of one `NetMsg`). The
//! prefix is network byte order by convention; payload bytes are the
//! little-endian codec format.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::codec::Encode;

/// Upper bound on a single frame; anything larger is treated as a
/// corrupted or hostile stream rather than allocated.
pub const MAX_FRAME_LEN: usize = 256 * 1024 * 1024;

/// The u32 length prefix of a `len`-byte payload.
fn length_prefix(len: usize) -> io::Result<[u8; 4]> {
    u32::try_from(len)
        .map(u32::to_be_bytes)
        .map_err(|_| frame_too_long())
}

fn frame_too_long() -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, "frame exceeds u32 length")
}

/// Append one whole client-port frame to `out`: the length prefix, the
/// v2 header carrying `corr`, then `body` — the same bytes as
/// [`write_frame`] over [`encode_frame_v2`], built in place so a writer
/// can hand the socket many frames at once.
///
/// # Errors
/// [`io::ErrorKind::InvalidInput`] when the frame's payload exceeds the
/// u32 length-prefix range; `out` is untouched.
pub fn append_frame(out: &mut Vec<u8>, corr: u64, body: &[u8]) -> io::Result<()> {
    let len = FRAME_V2_HEADER_LEN + body.len();
    let prefix = length_prefix(len)?;
    out.reserve(frame_overhead(len));
    out.extend_from_slice(&prefix);
    push_v2_header(out, corr);
    out.extend_from_slice(body);
    Ok(())
}

/// [`append_frame`] over `body`'s encoding, encoded straight into
/// `out`: the length prefix and v2 header are reserved, the body is
/// encoded in place behind them, and the prefix is patched — no body
/// buffer of its own.
///
/// # Errors
/// Same as [`append_frame`]; `out` is untouched.
pub fn append_encoded_frame(out: &mut Vec<u8>, corr: u64, body: &impl Encode) -> io::Result<()> {
    append_encoded_within(out, corr, body, u32::MAX)
}

/// [`append_encoded_frame`] with the largest payload length a prefix
/// may carry as a parameter, so the oversize path is testable without
/// encoding 4 GiB.
fn append_encoded_within(
    out: &mut Vec<u8>,
    corr: u64,
    body: &impl Encode,
    max_len: u32,
) -> io::Result<()> {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    push_v2_header(out, corr);
    body.encode(out);
    match u32::try_from(out.len() - start - 4) {
        Ok(len) if len <= max_len => {
            out[start..start + 4].copy_from_slice(&len.to_be_bytes());
            Ok(())
        }
        _ => {
            out.truncate(start);
            Err(frame_too_long())
        }
    }
}

fn push_v2_header(out: &mut Vec<u8>, corr_id: u64) {
    out.push(FRAME_V2);
    out.extend_from_slice(&corr_id.to_le_bytes());
}

/// Write one frame (length prefix + payload) and flush it. Prefix and
/// payload leave in one `write`: on a `TCP_NODELAY` socket two writes
/// are two segments and two syscalls.
pub fn write_frame(stream: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let mut framed = Vec::with_capacity(frame_overhead(payload.len()));
    framed.extend_from_slice(&length_prefix(payload.len())?);
    framed.extend_from_slice(payload);
    stream.write_all(&framed)?;
    stream.flush()
}

/// Read one complete frame's payload. `Ok(None)` means the peer closed
/// the stream cleanly at a frame boundary — EOF anywhere *inside* a
/// frame (even mid-prefix) is an [`io::ErrorKind::UnexpectedEof`] error,
/// never mistaken for a clean close.
pub fn read_frame(stream: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut prefix = [0u8; 4];
    let mut filled = 0;
    while filled < prefix.len() {
        match stream.read(&mut prefix[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream closed mid-prefix",
                ));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(prefix) as usize;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds maximum {MAX_FRAME_LEN}"),
        ));
    }
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Total on-the-wire size of a frame carrying `payload_len` body bytes.
#[must_use]
pub fn frame_overhead(payload_len: usize) -> usize {
    4 + payload_len
}

/// Magic first payload byte of a **client-port frame**: the payload is
/// `[0xC2][u64 LE correlation id][body]`. The client port speaks only
/// this generation; cluster-port frames carry a bare `NetMsg`, which
/// correlates by its own `call_id`.
pub const FRAME_V2: u8 = 0xC2;

/// Payload bytes beyond the body in a v2 frame (magic + correlation id).
pub const FRAME_V2_HEADER_LEN: usize = 9;

/// Build a v2 payload: magic byte, correlation id, body. Framing (the
/// u32 length prefix) is unchanged — pass the result to [`write_frame`],
/// and [`MAX_FRAME_LEN`] applies to the whole payload including this
/// header.
#[must_use]
pub fn encode_frame_v2(corr_id: u64, body: &[u8]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(FRAME_V2_HEADER_LEN + body.len());
    push_v2_header(&mut payload, corr_id);
    payload.extend_from_slice(body);
    payload
}

/// Split a client-port payload into its correlation id and body.
///
/// # Errors
/// [`io::ErrorKind::InvalidData`] when the payload does not start with
/// [`FRAME_V2`] or is shorter than the header: the stream is
/// desynchronised and the connection should be dropped.
pub fn split_frame_v2(payload: &[u8]) -> io::Result<(u64, &[u8])> {
    match payload.split_first_chunk::<FRAME_V2_HEADER_LEN>() {
        Some(([FRAME_V2, corr @ ..], body)) => Ok((u64::from_le_bytes(*corr), body)),
        _ => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "not a v2 frame: {} payload bytes, first {:?}",
                payload.len(),
                payload.first()
            ),
        )),
    }
}

/// Connect to `addr`, retrying until `timeout` elapses — covers the
/// race where a worker dials a peer whose listener is still coming up.
///
/// Retries back off exponentially (1ms doubling to a 50ms cap), each
/// sleep clamped to the remaining deadline, so a listener that comes up
/// quickly is dialled within a millisecond or two instead of a fixed
/// 50ms poll.
pub fn dial_with_timeout(addr: SocketAddr, timeout: Duration) -> io::Result<TcpStream> {
    let deadline = Instant::now() + timeout;
    let mut backoff = Duration::from_millis(1);
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                stream.set_nodelay(true).ok();
                return Ok(stream);
            }
            Err(e) => {
                let now = Instant::now();
                if now >= deadline {
                    return Err(io::Error::new(
                        e.kind(),
                        format!("connect to {addr} timed out after {timeout:?}: {e}"),
                    ));
                }
                std::thread::sleep(backoff.min(deadline - now));
                backoff = (backoff * 2).min(Duration::from_millis(50));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        write_frame(&mut wire, &[7u8; 300]).unwrap();

        let mut reader: &[u8] = &wire;
        assert_eq!(
            read_frame(&mut reader).unwrap().as_deref(),
            Some(&b"hello"[..])
        );
        assert_eq!(read_frame(&mut reader).unwrap().as_deref(), Some(&b""[..]));
        assert_eq!(read_frame(&mut reader).unwrap().unwrap().len(), 300);
        // Clean close at a frame boundary.
        assert_eq!(read_frame(&mut reader).unwrap(), None);
    }

    /// Counts `write` calls; accepts everything offered.
    struct CountingSink {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_leaves_in_one_write() {
        let mut sink = CountingSink {
            bytes: Vec::new(),
            writes: 0,
        };
        for (sent, payload) in [&b"hello"[..], b"", &[7u8; 70_000]].into_iter().enumerate() {
            write_frame(&mut sink, payload).unwrap();
            assert_eq!(sink.writes, sent + 1, "one write per frame");
        }
        let mut reader: &[u8] = &sink.bytes;
        assert_eq!(read_frame(&mut reader).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut reader).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut reader).unwrap().unwrap(), [7u8; 70_000]);
    }

    #[test]
    fn append_frame_is_write_frame_over_the_v2_payload() {
        let mut appended = Vec::new();
        append_frame(&mut appended, 42, b"body").unwrap();
        append_frame(&mut appended, u64::MAX, b"").unwrap();
        let mut written = Vec::new();
        write_frame(&mut written, &encode_frame_v2(42, b"body")).unwrap();
        write_frame(&mut written, &encode_frame_v2(u64::MAX, b"")).unwrap();
        assert_eq!(appended, written);
    }

    /// `append_encoded_frame` against `append_frame` over `to_bytes`,
    /// behind a byte already in the buffer.
    fn same_frame(corr: u64, body: &impl Encode) {
        let (mut encoded, mut appended) = (vec![0xEE], vec![0xEE]);
        append_encoded_frame(&mut encoded, corr, body).unwrap();
        append_frame(&mut appended, corr, &body.to_bytes()).unwrap();
        assert_eq!(encoded, appended, "corr {corr}");
    }

    #[test]
    fn append_encoded_frame_is_append_frame_over_the_encoding() {
        same_frame(40, &7u64);
        same_frame(41, &String::from("body"));
        same_frame(42, &vec![1.5f64, -2.0]);
        same_frame(u64::MAX, &(3u32, Some(9u8)));
        same_frame(0, &Vec::<u8>::new());
    }

    #[test]
    fn an_oversize_encoded_frame_leaves_the_buffer_untouched() {
        let mut out = Vec::new();
        append_encoded_frame(&mut out, 1, &5u64).unwrap();
        let before = out.clone();
        // An 8-byte body is a 17-byte payload: one byte past a cap of 16.
        let header_and_body = u32::try_from(FRAME_V2_HEADER_LEN + 8).unwrap();
        let err = append_encoded_within(&mut out, 2, &6u64, header_and_body - 1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(out, before);
        append_encoded_within(&mut out, 2, &6u64, header_and_body).unwrap();
        assert_eq!(out.len(), before.len() + frame_overhead(17));
    }

    #[test]
    fn truncated_frame_is_an_error() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        wire.truncate(wire.len() - 2);
        let mut reader: &[u8] = &wire;
        assert!(read_frame(&mut reader).is_err());
    }

    #[test]
    fn every_truncation_point_is_an_error_not_a_wrong_frame() {
        // Cutting the stream anywhere inside a frame — in the prefix or
        // in the payload — must surface as an error, never as a short or
        // phantom frame.
        let mut wire = Vec::new();
        write_frame(&mut wire, &[0xAB; 32]).unwrap();
        for cut in 1..wire.len() {
            let mut reader: &[u8] = &wire[..cut];
            assert!(
                read_frame(&mut reader).is_err(),
                "truncation at byte {cut} must error"
            );
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let wire = u32::MAX.to_be_bytes();
        let mut reader: &[u8] = &wire;
        assert!(read_frame(&mut reader).is_err());
    }

    #[test]
    fn length_exactly_at_the_maximum_is_accepted() {
        // MAX_FRAME_LEN itself is legal; only strictly larger prefixes
        // are hostile. Don't materialise a 256 MiB buffer — hand the
        // reader the prefix plus a zero reader and expect it to fail on
        // missing payload, *not* on the length check.
        let len = u32::try_from(MAX_FRAME_LEN).unwrap();
        let mut wire = len.to_be_bytes().to_vec();
        wire.extend_from_slice(&[0u8; 8]); // far short of the payload
        let mut reader: &[u8] = &wire;
        let err = read_frame(&mut reader).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn length_one_past_the_maximum_is_rejected_without_allocating() {
        let len = u32::try_from(MAX_FRAME_LEN + 1).unwrap();
        let wire = len.to_be_bytes();
        let mut reader: &[u8] = &wire;
        let err = read_frame(&mut reader).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("exceeds maximum"));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn any_payload_round_trips(payload in prop::collection::vec(0u8..=255u8, 0..2048)) {
                let mut wire = Vec::new();
                write_frame(&mut wire, &payload).unwrap();
                prop_assert_eq!(wire.len(), frame_overhead(payload.len()));
                let mut reader: &[u8] = &wire;
                prop_assert_eq!(read_frame(&mut reader).unwrap(), Some(payload));
                prop_assert_eq!(read_frame(&mut reader).unwrap(), None);
            }

            #[test]
            fn frame_sequences_round_trip_in_order(
                payloads in prop::collection::vec(prop::collection::vec(0u8..=255u8, 0..256), 1..12)
            ) {
                let mut wire = Vec::new();
                for p in &payloads {
                    write_frame(&mut wire, p).unwrap();
                }
                let mut reader: &[u8] = &wire;
                for p in &payloads {
                    prop_assert_eq!(read_frame(&mut reader).unwrap().as_deref(), Some(p.as_slice()));
                }
                prop_assert_eq!(read_frame(&mut reader).unwrap(), None);
            }

            #[test]
            fn truncating_a_frame_anywhere_errors(
                payload in prop::collection::vec(0u8..=255u8, 1..512),
                cut_fraction in 0.0f64..1.0
            ) {
                let mut wire = Vec::new();
                write_frame(&mut wire, &payload).unwrap();
                // Cut strictly inside the frame: [1, len-1].
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                let cut = 1 + ((wire.len() - 2) as f64 * cut_fraction) as usize;
                let mut reader: &[u8] = &wire[..cut];
                prop_assert!(read_frame(&mut reader).is_err());
            }
        }
    }

    #[test]
    fn overhead_accounts_for_the_prefix() {
        assert_eq!(frame_overhead(0), 4);
        assert_eq!(frame_overhead(100), 104);
    }

    #[test]
    fn v2_payload_round_trips() {
        let payload = encode_frame_v2(0xDEAD_BEEF_1234_5678, b"body bytes");
        assert_eq!(payload.len(), FRAME_V2_HEADER_LEN + 10);
        let (corr, body) = split_frame_v2(&payload).unwrap();
        assert_eq!(corr, 0xDEAD_BEEF_1234_5678);
        assert_eq!(body, b"body bytes");
    }

    #[test]
    fn payloads_without_the_magic_byte_are_invalid_data() {
        // What a v1 client sent: a bare body, starting with a codec tag.
        for payload in [&[0u8, 1, 2, 3][..], &[1; 32], &[9; 9], &[]] {
            let err = split_frame_v2(payload).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{payload:?}");
        }
    }

    #[test]
    fn truncated_v2_header_is_invalid_data() {
        for len in 1..FRAME_V2_HEADER_LEN {
            let mut payload = encode_frame_v2(42, b"x");
            payload.truncate(len);
            let err = split_frame_v2(&payload).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "truncated at {len}");
        }
    }

    #[test]
    fn v2_header_layout_is_stable() {
        // [0xC2][corr u64 LE][body] — the cross-process contract.
        let payload = encode_frame_v2(0x0102_0304_0506_0708, &[0xAA]);
        assert_eq!(
            payload,
            [0xC2, 0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, 0xAA]
        );
    }
}
