//! The framed binary protocol between the router and its shard workers.
//!
//! One frame on the wire is a little-endian length prefix followed by a
//! fixed header and an opcode-specific body:
//!
//! ```text
//! [payload_len u32]                         — length prefix (excluded)
//! [magic u32][version u32][request_id u64]  — 17-byte fixed header
//! [opcode u8][body …]
//! ```
//!
//! Request ids are chosen by the router (monotone per connection) and
//! echoed verbatim by the worker, so a router that timed out on one
//! response can never mistake a late reply for the answer to a newer
//! question — mismatched ids condemn the connection.
//!
//! Decoding follows the same validate-on-decode discipline as the index
//! artifact formats: the length prefix is checked against a hard cap
//! *before* the payload is read ([`FrameError::Oversized`]), every body
//! length field is checked against the bytes actually present
//! ([`FrameError::Truncated`]), trailing garbage is rejected
//! ([`FrameError::Corrupt`]), and scores travel as raw `f64` bits — the
//! gather on the router side merges the exact bits the worker computed,
//! which is what keeps multi-process pages bit-identical to in-process
//! ones.

use serpdiv_index::{ByteReader, ByteWriter, DocId, ScoredDoc, Truncated};
use serpdiv_text::TermId;
use std::io::{Read, Write};

/// First four bytes of every frame payload.
pub const PROTOCOL_MAGIC: u32 = 0x5EA7_F1E7;
/// Current protocol version; bumped on any wire-format change.
pub const PROTOCOL_VERSION: u32 = 1;
/// Default cap on one frame's payload, bytes. Generous for any sane
/// `(k, terms)` and small enough that a corrupt or hostile length prefix
/// cannot make either side allocate gigabytes.
pub const DEFAULT_MAX_FRAME: u32 = 8 << 20;

const OP_QUERY: u8 = 0x01;
const OP_PING: u8 = 0x02;
const OP_HITS: u8 = 0x81;
const OP_PONG: u8 = 0x82;

/// One protocol message. `Query`/`Ping` flow router → worker;
/// `Hits`/`Pong` flow back.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Score the shard for pre-analyzed query terms and return the
    /// shard-local top `k`.
    Query {
        /// Router-chosen id, echoed in the matching [`Frame::Hits`].
        id: u64,
        /// Page size requested (the worker clamps it to its doc range).
        k: u32,
        /// Pre-analyzed query terms (the router runs the analyzer once;
        /// term ids are global, shared through the shard artifact).
        terms: Vec<TermId>,
    },
    /// The shard-local top-`k`, ordered `(score desc, doc asc)`; scores
    /// are the worker's exact `f64` bits.
    Hits {
        /// Echo of the query id.
        id: u64,
        /// The ranked shard-local hits.
        hits: Vec<ScoredDoc>,
    },
    /// Health probe.
    Ping {
        /// Router-chosen id, echoed in the matching [`Frame::Pong`].
        id: u64,
    },
    /// Health reply, identifying which shard this worker serves — the
    /// router verifies the wiring (endpoint *s* really serves shard *s*)
    /// before trusting a worker's hits.
    Pong {
        /// Echo of the ping id.
        id: u64,
        /// Which shard of the partition the worker booted.
        shard_id: u32,
        /// First global doc id of the worker's range.
        base: u32,
        /// Number of doc ids in the worker's range.
        range_len: u32,
    },
}

impl Frame {
    /// The request id carried by any frame kind.
    pub fn id(&self) -> u64 {
        match *self {
            Frame::Query { id, .. }
            | Frame::Hits { id, .. }
            | Frame::Ping { id }
            | Frame::Pong { id, .. } => id,
        }
    }
}

/// Why a frame payload failed to decode. Any of these condemns the
/// connection it arrived on — framing errors are not recoverable
/// mid-stream, because nothing downstream of a bad length field can be
/// trusted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The payload does not start with [`PROTOCOL_MAGIC`].
    BadMagic,
    /// Unsupported [`PROTOCOL_VERSION`].
    BadVersion(u32),
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// The payload ended before its declared contents.
    Truncated,
    /// The length prefix exceeds the configured frame cap; the payload
    /// was not read.
    Oversized {
        /// Declared payload length.
        len: u32,
        /// The cap it exceeded.
        max: u32,
    },
    /// The payload framed correctly but its contents are structurally
    /// invalid; the payload names the failed check.
    Corrupt(&'static str),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic => write!(f, "not a fleet frame (bad magic)"),
            FrameError::BadVersion(v) => write!(f, "unsupported fleet protocol version {v}"),
            FrameError::BadOpcode(op) => write!(f, "unknown fleet opcode {op:#04x}"),
            FrameError::Truncated => write!(f, "truncated fleet frame"),
            FrameError::Oversized { len, max } => {
                write!(f, "oversized fleet frame ({len} bytes, cap {max})")
            }
            FrameError::Corrupt(what) => write!(f, "corrupt fleet frame ({what})"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<Truncated> for FrameError {
    fn from(_: Truncated) -> Self {
        FrameError::Truncated
    }
}

/// A frame-level failure on a live connection: either the transport broke
/// ([`Io`](Self::Io) — includes read timeouts) or the peer sent bytes
/// that do not decode ([`Frame`](Self::Frame)).
#[derive(Debug)]
pub enum WireError {
    /// The underlying socket failed (EOF, reset, timeout, …).
    Io(std::io::Error),
    /// The bytes arrived but are not a valid frame.
    Frame(FrameError),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "fleet transport error: {e}"),
            WireError::Frame(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Byte offset of the request id in a frame's wire form: after the
/// length prefix, the magic and the version.
const ID_OFFSET: usize = 12;

/// Start a frame's wire form: a length prefix to patch in [`finish`],
/// then the fixed header.
fn header(id: u64, opcode: u8) -> ByteWriter {
    let mut w = ByteWriter::new();
    w.u32(0);
    w.u32(PROTOCOL_MAGIC);
    w.u32(PROTOCOL_VERSION);
    w.u64(id);
    w.u8(opcode);
    w
}

/// The finished wire form, its length prefix patched in.
fn finish(w: ByteWriter) -> Vec<u8> {
    #[cfg(test)]
    ENCODES.with(|n| n.set(n.get() + 1));
    let mut wire = w.finish();
    let payload_len =
        u32::try_from(wire.len() - 4).expect("a payload above u32::MAX does not fit the prefix");
    wire[..4].copy_from_slice(&payload_len.to_le_bytes());
    wire
}

/// Encode `frame` into its full wire form, length prefix included.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    match frame {
        Frame::Query { id, k, terms } => encode_query(*id, *k, terms),
        Frame::Hits { id, hits } => {
            let mut w = header(*id, OP_HITS);
            w.count(hits.len());
            for h in hits {
                w.u32(h.doc.0);
                w.u64(h.score.to_bits());
            }
            finish(w)
        }
        Frame::Ping { id } => finish(header(*id, OP_PING)),
        Frame::Pong {
            id,
            shard_id,
            base,
            range_len,
        } => {
            let mut w = header(*id, OP_PONG);
            w.u32(*shard_id);
            w.u32(*base);
            w.u32(*range_len);
            finish(w)
        }
    }
}

/// The wire form of a [`Frame::Query`] over borrowed terms.
pub(crate) fn encode_query(id: u64, k: u32, terms: &[TermId]) -> Vec<u8> {
    let mut w = header(id, OP_QUERY);
    w.u32(k);
    w.count(terms.len());
    for t in terms {
        w.u32(t.0);
    }
    finish(w)
}

/// Overwrite the request id of an encoded frame in place, so one encode
/// serves every shard and every fresh leg of an exchange.
pub(crate) fn set_request_id(wire: &mut [u8], id: u64) {
    wire[ID_OFFSET..ID_OFFSET + 8].copy_from_slice(&id.to_le_bytes());
}

/// Decode one frame payload (the bytes *after* the length prefix),
/// validating header, opcode, every body length field, and the absence of
/// trailing bytes.
pub fn decode_payload(payload: &[u8]) -> Result<Frame, FrameError> {
    let mut r = ByteReader::new(payload);
    // A payload shorter than the fixed header is truncated whatever its
    // first bytes say.
    let mut header = ByteReader::new(r.bytes(17)?);
    if header.u32()? != PROTOCOL_MAGIC {
        return Err(FrameError::BadMagic);
    }
    let version = header.u32()?;
    if version != PROTOCOL_VERSION {
        return Err(FrameError::BadVersion(version));
    }
    let id = header.u64()?;
    let frame = match header.u8()? {
        OP_QUERY => {
            let k = r.u32()?;
            let n = r.count(4)?;
            let terms = r.u32s(n)?.into_iter().map(TermId).collect();
            Frame::Query { id, k, terms }
        }
        OP_HITS => {
            let n = r.count(12)?;
            let mut hits = Vec::with_capacity(n);
            for _ in 0..n {
                let doc = DocId(r.u32()?);
                let score = f64::from_bits(r.u64()?);
                hits.push(ScoredDoc { doc, score });
            }
            Frame::Hits { id, hits }
        }
        OP_PING => Frame::Ping { id },
        OP_PONG => Frame::Pong {
            id,
            shard_id: r.u32()?,
            base: r.u32()?,
            range_len: r.u32()?,
        },
        op => return Err(FrameError::BadOpcode(op)),
    };
    if r.finish().is_err() {
        return Err(FrameError::Corrupt("trailing bytes after frame body"));
    }
    Ok(frame)
}

/// Write one frame to `w` (length prefix + payload, one `write_all`).
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> std::io::Result<()> {
    w.write_all(&encode_frame(frame))
}

/// Read one frame from `r`, enforcing `max_frame` on the length prefix
/// *before* reading the payload (an oversized or garbage prefix costs the
/// reader nothing but the 4 bytes already read).
///
/// Two `read_exact`s per frame and a fresh payload buffer each time: this
/// is the oracle [`FrameReader`] is checked against and the path of the
/// benchmark's worker probe. The router and the worker read through a
/// [`FrameReader`].
pub fn read_frame(r: &mut impl Read, max_frame: u32) -> Result<Frame, WireError> {
    let mut prefix = [0u8; 4];
    r.read_exact(&mut prefix)?;
    let len = u32::from_le_bytes(prefix);
    if len > max_frame {
        return Err(WireError::Frame(FrameError::Oversized {
            len,
            max: max_frame,
        }));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    decode_payload(&payload).map_err(WireError::Frame)
}

/// The first read of a [`FrameReader`] asks for this many bytes (or
/// `max_frame + 4`, if smaller): room for a ping, a pong, a query of up
/// to 1 016 terms or a `Hits` page of up to 339 documents.
const READ_CHUNK: usize = 4096;

/// Reads frames off one connection through a buffer it keeps: each
/// `read` asks for as many bytes as the buffer holds, so a frame that
/// arrived whole costs one `read`, and two frames that arrived together
/// decode from one.
///
/// The length prefix is checked against `max_frame` before the buffer
/// grows for the payload behind it, so the buffer never exceeds
/// `max_frame + 4` bytes. A read that fails — a socket timeout included —
/// keeps the bytes already buffered, and the next call resumes the
/// partial frame.
#[derive(Debug)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Buffered bytes not yet decoded are `buf[start..end]`.
    start: usize,
    end: usize,
    max_frame: u32,
}

impl FrameReader {
    /// An empty reader enforcing `max_frame` on every length prefix.
    pub fn new(max_frame: u32) -> Self {
        FrameReader {
            buf: Vec::new(),
            start: 0,
            end: 0,
            max_frame,
        }
    }

    /// Bytes the buffer holds room for.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Read until one whole frame is buffered and decode it. An error
    /// from `r` (`WouldBlock`, `TimedOut`, …) is returned as it is,
    /// keeping whatever was buffered; end of stream is `UnexpectedEof`.
    pub fn read_frame(&mut self, r: &mut impl Read) -> Result<Frame, WireError> {
        loop {
            if let Some(frame) = self.poll(r)? {
                return Ok(frame);
            }
        }
    }

    /// Decode a frame already buffered, or else make at most one `read`
    /// and decode the frame it completes; `None` while the frame is
    /// still partial.
    pub fn poll(&mut self, r: &mut impl Read) -> Result<Option<Frame>, WireError> {
        if let Some(frame) = self.decode_buffered()? {
            return Ok(Some(frame));
        }
        self.make_room();
        match r.read(&mut self.buf[self.end..]) {
            Ok(0) => Err(WireError::Io(std::io::ErrorKind::UnexpectedEof.into())),
            Ok(n) => {
                self.end += n;
                self.decode_buffered()
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => Ok(None),
            Err(e) => Err(WireError::Io(e)),
        }
    }

    /// The length prefix at the front of the buffer, once it has arrived.
    fn front_len(&self) -> Option<u32> {
        let prefix = self.buf[self.start..self.end].first_chunk::<4>()?;
        Some(u32::from_le_bytes(*prefix))
    }

    /// Decode the frame at the front of the buffer if all of it has
    /// arrived, rejecting an oversized prefix as soon as it is buffered.
    fn decode_buffered(&mut self) -> Result<Option<Frame>, WireError> {
        let Some(len) = self.front_len() else {
            return Ok(None);
        };
        if len > self.max_frame {
            return Err(WireError::Frame(FrameError::Oversized {
                len,
                max: self.max_frame,
            }));
        }
        let frame_end = self.start + 4 + len as usize;
        if frame_end > self.end {
            return Ok(None);
        }
        let frame = decode_payload(&self.buf[self.start + 4..frame_end]);
        self.start = frame_end;
        if self.start == self.end {
            (self.start, self.end) = (0, 0);
        }
        frame.map(Some).map_err(WireError::Frame)
    }

    /// Move the partial frame to the front of the buffer and make sure
    /// there is room to read the rest of it: the whole frame once its
    /// prefix (already checked against `max_frame`) is known.
    fn make_room(&mut self) {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            (self.start, self.end) = (0, self.end - self.start);
        }
        let need = self.front_len().map_or(4, |len| 4 + len as usize);
        if self.end == self.buf.len() || self.buf.len() < need {
            let cap = self.max_frame as usize + 4;
            let len = (self.buf.len() * 2).max(READ_CHUNK).min(cap).max(need);
            self.buf.resize(len, 0);
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Frames this thread has encoded, so tests can pin encodes per
    /// exchange.
    pub(crate) static ENCODES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: Frame) {
        let wire = encode_frame(&frame);
        let decoded = decode_payload(&wire[4..]).expect("valid frame");
        assert_eq!(frame, decoded);
        // Through the Read/Write path too.
        let mut cursor: &[u8] = &wire;
        let via_read = read_frame(&mut cursor, DEFAULT_MAX_FRAME).expect("readable");
        assert_eq!(frame, via_read);
    }

    #[test]
    fn all_frame_kinds_round_trip() {
        roundtrip(Frame::Ping { id: 7 });
        roundtrip(Frame::Pong {
            id: 7,
            shard_id: 2,
            base: 100,
            range_len: 50,
        });
        roundtrip(Frame::Query {
            id: u64::MAX,
            k: 10,
            terms: vec![TermId(0), TermId(42), TermId(u32::MAX)],
        });
        roundtrip(Frame::Hits {
            id: 3,
            hits: vec![
                ScoredDoc {
                    doc: DocId(5),
                    score: 1.25,
                },
                ScoredDoc {
                    doc: DocId(9),
                    score: -0.0,
                },
            ],
        });
        roundtrip(Frame::Query {
            id: 0,
            k: 0,
            terms: vec![],
        });
        roundtrip(Frame::Hits {
            id: 0,
            hits: vec![],
        });
    }

    #[test]
    fn score_bits_survive_exactly() {
        let tricky = [f64::MIN_POSITIVE, f64::MAX, 1.0 + f64::EPSILON, -0.0];
        let frame = Frame::Hits {
            id: 1,
            hits: tricky
                .iter()
                .enumerate()
                .map(|(i, &score)| ScoredDoc {
                    doc: DocId(i as u32),
                    score,
                })
                .collect(),
        };
        let wire = encode_frame(&frame);
        let Frame::Hits { hits, .. } = decode_payload(&wire[4..]).unwrap() else {
            panic!("wrong kind");
        };
        for (h, &expect) in hits.iter().zip(&tricky) {
            assert_eq!(h.score.to_bits(), expect.to_bits());
        }
    }

    #[test]
    fn bad_magic_version_opcode_rejected() {
        let mut wire = encode_frame(&Frame::Ping { id: 1 });
        wire[4] ^= 0xFF; // magic
        assert_eq!(decode_payload(&wire[4..]), Err(FrameError::BadMagic));

        let mut wire = encode_frame(&Frame::Ping { id: 1 });
        wire[8] = 9; // version
        assert_eq!(decode_payload(&wire[4..]), Err(FrameError::BadVersion(9)));

        let mut wire = encode_frame(&Frame::Ping { id: 1 });
        wire[20] = 0x7F; // opcode
        assert_eq!(decode_payload(&wire[4..]), Err(FrameError::BadOpcode(0x7F)));
    }

    #[test]
    fn every_truncation_rejected() {
        for frame in [
            Frame::Ping { id: 1 },
            Frame::Query {
                id: 2,
                k: 5,
                terms: vec![TermId(1), TermId(2)],
            },
            Frame::Hits {
                id: 3,
                hits: vec![ScoredDoc {
                    doc: DocId(1),
                    score: 1.0,
                }],
            },
            Frame::Pong {
                id: 4,
                shard_id: 0,
                base: 0,
                range_len: 1,
            },
        ] {
            let wire = encode_frame(&frame);
            for cut in 0..wire.len() - 5 {
                assert!(
                    decode_payload(&wire[4..4 + cut]).is_err(),
                    "{frame:?} cut at {cut} must fail"
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut wire = encode_frame(&Frame::Ping { id: 1 });
        wire.push(0xAB);
        assert_eq!(
            decode_payload(&wire[4..]),
            Err(FrameError::Corrupt("trailing bytes after frame body"))
        );
    }

    #[test]
    fn oversized_prefix_rejected_without_reading_payload() {
        // A giant declared length with no payload behind it: the reader
        // must refuse at the prefix, not try to allocate or block.
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut cursor: &[u8] = &wire;
        match read_frame(&mut cursor, DEFAULT_MAX_FRAME) {
            Err(WireError::Frame(FrameError::Oversized { len, max })) => {
                assert_eq!(len, u32::MAX);
                assert_eq!(max, DEFAULT_MAX_FRAME);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn undeclared_count_cannot_overallocate() {
        // A Hits frame declaring 2^32/12 hits in a 30-byte payload must be
        // rejected by the remaining-bytes check before any allocation.
        let mut payload = ByteWriter::new();
        payload.u32(PROTOCOL_MAGIC);
        payload.u32(PROTOCOL_VERSION);
        payload.u64(1);
        payload.u8(OP_HITS);
        payload.u32(u32::MAX / 12);
        assert_eq!(
            decode_payload(&payload.finish()),
            Err(FrameError::Truncated)
        );
    }
}
