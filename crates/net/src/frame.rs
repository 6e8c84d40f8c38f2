//! The wire frame: `[u32 len][u64 FNV-1a(payload)][payload]`.
//!
//! The exact discipline of the write-ahead log's on-disk frames (little
//! endian, FNV-1a over the payload only) applied to a socket. The
//! symmetry is deliberate: one framing idiom across the persistence and
//! network boundaries means one set of corruption semantics — a frame
//! whose checksum does not cover its own header is detected by the
//! length prefix walking out of sync, exactly as in log recovery.
//!
//! Reading distinguishes three terminal conditions a caller must treat
//! differently:
//!
//! * **clean EOF** — the peer closed *between* frames: an orderly
//!   disconnect, not an error ([`FramePoll::Eof`]);
//! * **truncated** — the peer closed *mid*-frame: bytes were lost
//!   ([`NetError::Truncated`]);
//! * **corrupt / oversized** — the bytes are present but wrong
//!   ([`NetError::Corrupt`], [`NetError::Oversized`]). The length
//!   prefix is validated against [`MAX_FRAME_LEN`] as soon as it is
//!   readable, *before* any payload is buffered, so a hostile length
//!   can never drive an allocation.
//!
//! [`FrameReader`] is an incremental accumulator: it owns the partial
//! bytes between reads, so a socket with a read timeout can poll it in
//! a loop (checking a stop flag between polls) without ever losing a
//! half-received frame.

use crate::proto::NetError;
use std::io::{ErrorKind, Read, Write};
use vpdt_store::history::fnv1a_64;
pub use vpdt_store::wal::frame_into;

/// Bytes of framing before each payload: `u32` length + `u64` FNV-1a.
pub const FRAME_HEADER: usize = 12;

/// Hard cap on a frame's payload length (1 MiB). A length prefix above
/// this is rejected before any buffering — a malformed or hostile
/// client must never size the server's allocations.
pub const MAX_FRAME_LEN: u32 = 1 << 20;

/// Room a [`FrameReader`] keeps free for one socket read.
const READ_CHUNK: usize = 16 * 1024;

/// Frames `payload` and writes it in one buffered write.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), NetError> {
    debug_assert!(payload.len() <= MAX_FRAME_LEN as usize);
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    frame_into(&mut out, payload);
    w.write_all(&out).map_err(NetError::io)?;
    w.flush().map_err(NetError::io)
}

/// One step of [`FrameReader::poll`].
#[derive(Debug)]
pub enum FramePoll {
    /// A complete, checksum-verified payload.
    Frame(Vec<u8>),
    /// The peer closed cleanly at a frame boundary.
    Eof,
    /// No complete frame yet and the read timed out — poll again (after
    /// checking whatever condition the timeout exists to observe).
    Pending,
}

/// Incremental frame decoder over a byte stream.
///
/// Keeps partially received bytes across [`poll`](FrameReader::poll)
/// calls, so short reads and read timeouts never lose data. One reader
/// per connection direction.
///
/// A frame already buffered is returned without touching the stream.
/// Reads land directly in the buffer's free tail; extracted frames only
/// advance a cursor, and the consumed prefix is dropped once per read,
/// so a burst of frames read at once costs one read and one compaction.
#[derive(Debug, Default)]
pub struct FrameReader {
    /// Received bytes in `buf[start..end]`; `buf[end..]` is zeroed room
    /// for the next read (zeroed once, when the buffer grows).
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl FrameReader {
    /// An empty reader.
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Reads until a complete frame, clean EOF, or timeout.
    ///
    /// On a socket without a read timeout this blocks until
    /// [`FramePoll::Frame`] or [`FramePoll::Eof`]; with a timeout it
    /// returns [`FramePoll::Pending`] when the deadline passes first.
    pub fn poll(&mut self, r: &mut impl Read) -> Result<FramePoll, NetError> {
        loop {
            if let Some(payload) = self.try_extract()? {
                return Ok(FramePoll::Frame(payload));
            }
            match self.fill(r) {
                Ok(0) => {
                    let got = self.end - self.start;
                    return if got == 0 {
                        Ok(FramePoll::Eof)
                    } else {
                        Err(NetError::Truncated {
                            got,
                            want: self.want(),
                        })
                    };
                }
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    return Ok(FramePoll::Pending);
                }
                Err(e) => return Err(NetError::io(e)),
            }
        }
    }

    /// Blocks until the next frame; a clean EOF here is an error (the
    /// caller expected a frame). For clients awaiting a response.
    pub fn next_frame(&mut self, r: &mut impl Read) -> Result<Vec<u8>, NetError> {
        loop {
            match self.poll(r)? {
                FramePoll::Frame(payload) => return Ok(payload),
                FramePoll::Eof => {
                    return Err(NetError::Protocol(
                        "connection closed while awaiting a response".into(),
                    ));
                }
                FramePoll::Pending => continue,
            }
        }
    }

    /// Compacts the unconsumed bytes to the front, makes room for one
    /// read, and reads once into it.
    fn fill(&mut self, r: &mut impl Read) -> std::io::Result<usize> {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.buf.len() < self.end + READ_CHUNK {
            self.buf.resize(self.end + READ_CHUNK, 0);
        }
        let n = r.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// The received, not yet extracted bytes.
    fn pending(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    /// Total bytes the frame being accumulated needs (header included),
    /// or the header size while the length prefix itself is incomplete.
    fn want(&self) -> usize {
        let pending = self.pending();
        if pending.len() >= 4 {
            let len =
                u32::from_le_bytes(pending[0..4].try_into().expect("4 bytes present")) as usize;
            FRAME_HEADER + len
        } else {
            FRAME_HEADER
        }
    }

    /// Extracts one complete frame from the accumulator, if present.
    /// Validates the length prefix (before buffering is sized by it) and
    /// the checksum.
    fn try_extract(&mut self) -> Result<Option<Vec<u8>>, NetError> {
        let pending = self.pending();
        if pending.len() >= 4 {
            let len = u32::from_le_bytes(pending[0..4].try_into().expect("4 bytes present"));
            if len > MAX_FRAME_LEN {
                return Err(NetError::Oversized {
                    len,
                    max: MAX_FRAME_LEN,
                });
            }
        }
        if pending.len() < FRAME_HEADER {
            return Ok(None);
        }
        let len = u32::from_le_bytes(pending[0..4].try_into().expect("4 bytes present")) as usize;
        let sum = u64::from_le_bytes(pending[4..12].try_into().expect("8 bytes present"));
        let Some(body) = pending.get(FRAME_HEADER..FRAME_HEADER + len) else {
            return Ok(None);
        };
        let found = fnv1a_64(body);
        if found != sum {
            return Err(NetError::Corrupt {
                expected: sum,
                found,
            });
        }
        let payload = body.to_vec();
        self.start += FRAME_HEADER + len;
        Ok(Some(payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, payload).expect("vec write");
        out
    }

    #[test]
    fn round_trips_multiple_frames_then_clean_eof() {
        let mut bytes = framed(b"alpha");
        bytes.extend_from_slice(&framed(b""));
        bytes.extend_from_slice(&framed(b"omega"));
        let mut r = FrameReader::new();
        let mut src = Cursor::new(bytes);
        for want in [&b"alpha"[..], b"", b"omega"] {
            match r.poll(&mut src).expect("frame") {
                FramePoll::Frame(p) => assert_eq!(p, want),
                other => panic!("expected frame, got {other:?}"),
            }
        }
        assert!(matches!(r.poll(&mut src).expect("eof"), FramePoll::Eof));
    }

    #[test]
    fn truncation_at_every_boundary_is_truncated_never_a_frame() {
        let bytes = framed(b"payload under test");
        for cut in 1..bytes.len() {
            let mut r = FrameReader::new();
            let mut src = Cursor::new(bytes[..cut].to_vec());
            match r.poll(&mut src) {
                Err(NetError::Truncated { got, .. }) => assert_eq!(got, cut),
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn bit_flip_at_every_byte_is_corrupt_or_resized() {
        let bytes = framed(b"payload under test");
        for pos in 0..bytes.len() {
            let mut damaged = bytes.clone();
            damaged[pos] ^= 0x40;
            let mut r = FrameReader::new();
            let mut src = Cursor::new(damaged);
            match r.poll(&mut src) {
                // A flip in the length prefix walks the frame boundary:
                // oversized, truncated (longer than the bytes present), or —
                // when shortened — a checksum mismatch over the wrong slice.
                Err(
                    NetError::Corrupt { .. }
                    | NetError::Oversized { .. }
                    | NetError::Truncated { .. },
                ) => {}
                other => panic!("flip at {pos}: expected typed error, got {other:?}"),
            }
        }
    }

    /// A `Read` that counts its calls.
    struct CountingReads<R> {
        inner: R,
        reads: usize,
    }

    impl<R: Read> Read for CountingReads<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            self.inner.read(buf)
        }
    }

    /// Frames that arrived in one read are extracted without touching
    /// the stream again, including one larger than a read chunk.
    #[test]
    fn a_buffered_burst_is_extracted_without_further_reads() {
        let big = vec![7u8; READ_CHUNK + 100];
        let mut bytes = Vec::new();
        for p in [&b"one"[..], b"two", b"", b"four"] {
            frame_into(&mut bytes, p);
        }
        let mut src = CountingReads {
            inner: Cursor::new(bytes),
            reads: 0,
        };
        let mut r = FrameReader::new();
        for want in [&b"one"[..], b"two", b"", b"four"] {
            match r.poll(&mut src).expect("frame") {
                FramePoll::Frame(p) => assert_eq!(p, want),
                other => panic!("expected frame, got {other:?}"),
            }
        }
        assert_eq!(src.reads, 1, "one read delivered the whole burst");
        assert!(matches!(r.poll(&mut src).expect("eof"), FramePoll::Eof));

        let mut r = FrameReader::new();
        let mut bytes = framed(&big);
        bytes.extend_from_slice(&framed(b"tail"));
        let mut src = Cursor::new(bytes);
        for want in [&big[..], b"tail"] {
            match r.poll(&mut src).expect("frame") {
                FramePoll::Frame(p) => assert_eq!(p, want),
                other => panic!("expected frame, got {other:?}"),
            }
        }
        assert!(matches!(r.poll(&mut src).expect("eof"), FramePoll::Eof));
    }

    #[test]
    fn oversized_length_rejected_from_prefix_alone() {
        let mut bytes = ((MAX_FRAME_LEN + 1).to_le_bytes()).to_vec();
        bytes.extend_from_slice(&[0u8; 8]);
        let mut r = FrameReader::new();
        match r.poll(&mut Cursor::new(bytes)) {
            Err(NetError::Oversized { len, max }) => {
                assert_eq!(len, MAX_FRAME_LEN + 1);
                assert_eq!(max, MAX_FRAME_LEN);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
    }
}
