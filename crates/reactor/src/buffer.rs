//! Per-connection read/write buffers over the length-prefixed framing.
//!
//! Non-blocking sockets deliver bytes in arbitrary chunks, so the
//! reactor accumulates them here: [`FrameReader`] re-assembles complete
//! `[u32 BE length][payload]` frames out of whatever arrived, and
//! [`WriteQueue`] coalesces the responses queued in one readiness turn
//! into one buffer — one `write` — and resumes at the right offset
//! after a `WouldBlock` mid-frame. Both are pure in-memory state
//! machines, unit-testable without sockets.

use std::io::{self, Write};

use semtree_net::{append_frame, MAX_FRAME_LEN};

/// Incremental parser for length-prefixed frames.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameReader {
    /// An empty reader.
    #[must_use]
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Append bytes read off the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Reclaim consumed prefix space before growing.
        if self.pos > 0 && (self.pos >= 4096 || self.pos == self.buf.len()) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as frames.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Is a complete frame available to [`next_frame`](Self::next_frame)?
    ///
    /// # Errors
    /// [`io::ErrorKind::InvalidData`] when the buffered length prefix
    /// exceeds [`MAX_FRAME_LEN`] — the stream is hostile or corrupt and
    /// the connection should be dropped.
    pub fn has_frame(&self) -> io::Result<bool> {
        self.peek_frame().map(|frame| frame.is_some())
    }

    /// The next complete frame's payload, borrowed from the buffer and
    /// left in place ([`consume_frame`](Self::consume_frame) moves past
    /// it), or `None` when more bytes are needed.
    ///
    /// # Errors
    /// Same as [`has_frame`](Self::has_frame).
    pub fn peek_frame(&self) -> io::Result<Option<&[u8]>> {
        let avail = &self.buf[self.pos..];
        let Some((prefix, rest)) = avail.split_first_chunk::<4>() else {
            return Ok(None);
        };
        let len = u32::from_be_bytes(*prefix) as usize;
        if len > MAX_FRAME_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame length {len} exceeds maximum {MAX_FRAME_LEN}"),
            ));
        }
        Ok(rest.get(..len))
    }

    /// Move past the frame [`peek_frame`](Self::peek_frame) returns; a
    /// no-op when it returns none.
    pub fn consume_frame(&mut self) {
        if let Ok(Some(frame)) = self.peek_frame() {
            self.pos += 4 + frame.len();
        }
    }

    /// Consume and return the next complete frame's payload, or `None`
    /// when more bytes are needed.
    ///
    /// # Errors
    /// Same as [`has_frame`](Self::has_frame).
    pub fn next_frame(&mut self) -> io::Result<Option<Vec<u8>>> {
        let frame = self.peek_frame()?.map(<[u8]>::to_vec);
        self.consume_frame();
        Ok(frame)
    }
}

/// Most idle storage a drained [`WriteQueue`] keeps for its next turn;
/// a connection that once buffered a large backlog gives the rest back.
const IDLE_WRITE_CAPACITY: usize = 64 * 1024;

/// Outbound frames, back to back in one buffer, with partial-write
/// resumption.
#[derive(Debug, Default)]
pub struct WriteQueue {
    buf: Vec<u8>,
    /// Bytes of `buf` already written to the socket.
    offset: usize,
}

impl WriteQueue {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        WriteQueue::default()
    }

    /// Queue one reply frame (the length prefix and the v2 header
    /// carrying `corr` are prepended here).
    ///
    /// # Errors
    /// [`io::ErrorKind::InvalidInput`] when the frame exceeds the u32
    /// length-prefix range.
    pub fn push_frame(&mut self, corr: u64, body: &[u8]) -> io::Result<()> {
        if self.offset > 0 && self.offset * 2 >= self.buf.len() {
            // Written bytes are at least half the buffer: dropping them
            // moves less than it frees.
            self.buf.drain(..self.offset);
            self.offset = 0;
        }
        append_frame(&mut self.buf, corr, body)
    }

    /// Nothing left to write?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.offset == self.buf.len()
    }

    /// Bytes queued but not yet written.
    #[must_use]
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.offset
    }

    /// Write as much as the socket will take without blocking — every
    /// queued frame in one `write` when it takes them all. Returns once
    /// the queue is drained or the write would block.
    ///
    /// # Errors
    /// Propagates socket errors other than `WouldBlock`/`Interrupted`;
    /// a zero-length write surfaces as [`io::ErrorKind::WriteZero`].
    pub fn write_to(&mut self, stream: &mut impl Write) -> io::Result<()> {
        while !self.is_empty() {
            match stream.write(&self.buf[self.offset..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ));
                }
                Ok(n) => self.offset += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        // Drained: the storage is reused by the next turn's replies.
        self.buf.clear();
        self.buf.shrink_to(IDLE_WRITE_CAPACITY);
        self.offset = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut out = (u32::try_from(payload.len()).unwrap())
            .to_be_bytes()
            .to_vec();
        out.extend_from_slice(payload);
        out
    }

    /// The wire bytes of reply `corr` carrying `body`.
    fn reply(corr: u64, body: &[u8]) -> Vec<u8> {
        framed(&semtree_net::encode_frame_v2(corr, body))
    }

    #[test]
    fn reader_reassembles_frames_from_byte_dribble() {
        let mut wire = framed(b"first");
        wire.extend(framed(b""));
        wire.extend(framed(&[9u8; 300]));
        let mut reader = FrameReader::new();
        let mut got = Vec::new();
        for chunk in wire.chunks(3) {
            reader.extend(chunk);
            while let Some(frame) = reader.next_frame().unwrap() {
                got.push(frame);
            }
        }
        assert_eq!(got.len(), 3);
        assert_eq!(got[0], b"first");
        assert_eq!(got[1], b"");
        assert_eq!(got[2].len(), 300);
        assert_eq!(reader.buffered(), 0);
    }

    #[test]
    fn reader_rejects_hostile_length_without_buffering_it() {
        let mut reader = FrameReader::new();
        reader.extend(&u32::MAX.to_be_bytes());
        assert!(reader.has_frame().is_err());
        assert!(reader.next_frame().is_err());
    }

    #[test]
    fn reader_accepts_length_exactly_at_the_maximum() {
        let mut reader = FrameReader::new();
        reader.extend(&(u32::try_from(MAX_FRAME_LEN).unwrap()).to_be_bytes());
        // Not an error — just incomplete until 256 MiB arrive.
        assert!(!reader.has_frame().unwrap());
    }

    #[test]
    fn reader_reclaims_consumed_space() {
        let mut reader = FrameReader::new();
        for _ in 0..100 {
            reader.extend(&framed(&[7u8; 128]));
            assert_eq!(reader.next_frame().unwrap().unwrap(), [7u8; 128]);
        }
        assert_eq!(reader.buffered(), 0);
        // The internal buffer cannot have accumulated all 100 frames.
        assert!(reader.buf.len() < 2 * (4 + 128 + 4096));
    }

    /// A writer that accepts at most `cap` bytes per call, then blocks.
    struct Throttled {
        sink: Vec<u8>,
        cap: usize,
        calls_until_block: usize,
    }

    impl Write for Throttled {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.calls_until_block == 0 {
                self.calls_until_block = 1;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "throttled"));
            }
            self.calls_until_block -= 1;
            let n = buf.len().min(self.cap);
            self.sink.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_queue_resumes_partial_writes_across_would_block() {
        let mut wq = WriteQueue::new();
        wq.push_frame(1, b"hello pipelined world").unwrap();
        wq.push_frame(2, b"second frame").unwrap();
        let mut sink = Throttled {
            sink: Vec::new(),
            cap: 5,
            calls_until_block: 2,
        };
        while !wq.is_empty() {
            wq.write_to(&mut sink).unwrap();
            sink.calls_until_block = 2;
        }
        let mut expected = reply(1, b"hello pipelined world");
        expected.extend(reply(2, b"second frame"));
        assert_eq!(sink.sink, expected);
        assert_eq!(wq.pending_bytes(), 0);
    }

    /// Takes everything offered and counts the `write` calls.
    struct Counting {
        sink: Vec<u8>,
        writes: usize,
    }

    impl Write for Counting {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.sink.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_turn_of_replies_leaves_in_one_write() {
        let mut wq = WriteQueue::new();
        let mut expected = Vec::new();
        for corr in 0..8u64 {
            wq.push_frame(corr, &corr.to_le_bytes()).unwrap();
            expected.extend(reply(corr, &corr.to_le_bytes()));
        }
        assert_eq!(wq.pending_bytes(), expected.len());
        let mut sink = Counting {
            sink: Vec::new(),
            writes: 0,
        };
        wq.write_to(&mut sink).unwrap();
        assert_eq!(sink.writes, 1, "eight queued replies, one write");
        assert_eq!(sink.sink, expected);
        assert!(wq.is_empty());
    }

    #[test]
    fn would_block_mid_buffer_then_more_frames_keeps_order_and_counts() {
        let mut wq = WriteQueue::new();
        wq.push_frame(1, b"first reply of the turn").unwrap();
        wq.push_frame(2, b"second").unwrap();
        let mut expected = reply(1, b"first reply of the turn");
        expected.extend(reply(2, b"second"));
        // Seven bytes leave — mid-frame — then the socket blocks.
        let mut sink = Throttled {
            sink: Vec::new(),
            cap: 7,
            calls_until_block: 1,
        };
        wq.write_to(&mut sink).unwrap();
        assert_eq!(sink.sink.len(), 7);
        assert_eq!(wq.pending_bytes(), expected.len() - 7);
        // More replies are queued behind the half-written buffer.
        for late in [&b"third"[..], &[5u8; 300]] {
            wq.push_frame(3, late).unwrap();
            expected.extend(reply(3, late));
            assert_eq!(wq.pending_bytes(), expected.len() - 7);
        }
        sink.cap = usize::MAX;
        sink.calls_until_block = 1;
        wq.write_to(&mut sink).unwrap();
        assert_eq!(sink.sink, expected, "frames on the wire, in order");
        assert_eq!(wq.pending_bytes(), 0);
        assert!(wq.is_empty());

        // Once drained the same storage carries the next turn.
        let storage = (wq.buf.as_ptr(), wq.buf.capacity());
        wq.push_frame(4, b"next turn").unwrap();
        assert_eq!((wq.buf.as_ptr(), wq.buf.capacity()), storage);
        assert_eq!(wq.pending_bytes(), 4 + 9 + 9);
    }

    #[test]
    fn written_prefix_is_dropped_instead_of_growing_forever() {
        // A socket that takes half of every offer and then blocks: the
        // queue is never empty, yet its buffer must not keep every byte
        // ever queued.
        let mut wq = WriteQueue::new();
        let mut sink = Throttled {
            sink: Vec::new(),
            cap: 0,
            calls_until_block: 1,
        };
        let mut expected = Vec::new();
        for round in 0..200u32 {
            wq.push_frame(u64::from(round), &[round as u8; 256])
                .unwrap();
            expected.extend(reply(u64::from(round), &[round as u8; 256]));
            sink.cap = wq.pending_bytes() / 2;
            sink.calls_until_block = 1;
            wq.write_to(&mut sink).unwrap();
            assert!(!wq.is_empty());
            assert!(wq.buf.len() <= 4 * 269, "round {round}: {}", wq.buf.len());
        }
        sink.cap = usize::MAX;
        sink.calls_until_block = 1;
        wq.write_to(&mut sink).unwrap();
        assert_eq!(sink.sink, expected);
    }

    #[test]
    fn peeked_frames_are_borrowed_and_stay_until_consumed() {
        let mut reader = FrameReader::new();
        let mut wire = framed(b"one");
        wire.extend(framed(b"two"));
        reader.extend(&wire[..wire.len() - 1]);
        assert_eq!(reader.peek_frame().unwrap(), Some(&b"one"[..]));
        assert_eq!(reader.peek_frame().unwrap(), Some(&b"one"[..]));
        reader.consume_frame();
        // The second frame is one byte short: nothing to see or consume.
        assert_eq!(reader.peek_frame().unwrap(), None);
        reader.consume_frame();
        assert_eq!(reader.buffered(), wire.len() - 1 - 7);
        reader.extend(&wire[wire.len() - 1..]);
        assert_eq!(reader.next_frame().unwrap().unwrap(), b"two");
        assert_eq!(reader.buffered(), 0);
    }
}
