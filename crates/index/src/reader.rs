//! The one binary codec: the bounds-checked reader under every decoder
//! and the writer under every encoder.
//!
//! Index images (forward rows included), shard artifacts, compiled spec
//! stores and fleet frames are all little-endian, length-prefixed buffers that
//! arrive from outside the process. [`ByteReader`] is the only place
//! their lengths are compared with the bytes actually present: every
//! read either yields a value backed by the input or fails with
//! [`Truncated`], and a declared element count is refused unless the
//! remaining input could hold that many records — so no decoder can size
//! an allocation the input does not back. [`ByteWriter`] is its dual:
//! each method appends exactly what the reader method of the same name
//! consumes, and a length the `u32` prefix cannot hold is refused rather
//! than truncated into an image that frames wrongly. Neither knows a
//! format: each checks or writes the `(magic, version)` header it is
//! handed ([`ByteReader::header`], [`ByteWriter::header`]), while the
//! magic numbers, versions, opcodes and structural invariants stay with
//! the codec that owns them.

use crate::serialize::DecodeError;

/// The input ended before a declared value, or declares more records than
/// it has bytes for. Converts into each decoder's own error type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Truncated;

impl From<Truncated> for DecodeError {
    fn from(_: Truncated) -> Self {
        DecodeError::Truncated
    }
}

/// A forward-only cursor over an untrusted byte buffer.
#[derive(Debug)]
pub struct ByteReader<'a> {
    rest: &'a [u8],
}

impl<'a> ByteReader<'a> {
    /// Start reading at the first byte of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        ByteReader { rest: data }
    }

    /// The next `n` bytes, borrowed from the input.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], Truncated> {
        if n > self.rest.len() {
            return Err(Truncated);
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], Truncated> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.bytes(N)?);
        Ok(out)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, Truncated> {
        Ok(self.array::<1>()?[0])
    }

    /// One little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, Truncated> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// One little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, Truncated> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A `u32` element count, refused unless `count × min_record_bytes`
    /// fits in the remaining input — the bound that makes
    /// `Vec::with_capacity(count)` safe on hostile input.
    /// `min_record_bytes` is the smallest encoding of one element (a zero
    /// is read as one, so the count is bounded either way).
    pub fn count(&mut self, min_record_bytes: usize) -> Result<usize, Truncated> {
        let count = self.u32()? as usize;
        match count.checked_mul(min_record_bytes.max(1)) {
            Some(needed) if needed <= self.rest.len() => Ok(count),
            _ => Err(Truncated),
        }
    }

    /// `n` little-endian `u32`s.
    pub fn u32s(&mut self, n: usize) -> Result<Vec<u32>, Truncated> {
        let raw = self.bytes(n.checked_mul(4).ok_or(Truncated)?)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    /// A format's header: `magic` then `version`, each a `u32`, failing
    /// with [`DecodeError::BadMagic`] or [`DecodeError::BadVersion`].
    pub fn header(&mut self, magic: u32, version: u32) -> Result<(), DecodeError> {
        if self.u32()? != magic {
            return Err(DecodeError::BadMagic);
        }
        match self.u32()? {
            v if v == version => Ok(()),
            v => Err(DecodeError::BadVersion(v)),
        }
    }

    /// A `u32`-length-prefixed UTF-8 string, borrowed from the input.
    pub fn str(&mut self) -> Result<&'a str, DecodeError> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.bytes(len)?).map_err(|_| DecodeError::BadUtf8)
    }

    /// End of decoding: `Err(n)` when `n` undecoded bytes trail the last
    /// value (each decoder names that failure in its own error type).
    pub fn finish(self) -> Result<(), usize> {
        match self.rest.len() {
            0 => Ok(()),
            n => Err(n),
        }
    }
}

/// An append-only little-endian encode buffer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Start an empty image.
    pub fn new() -> Self {
        Self::default()
    }

    /// Raw bytes, no prefix.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// One little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// One little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// A format's header, as [`ByteReader::header`] checks it.
    pub fn header(&mut self, magic: u32, version: u32) {
        self.u32(magic);
        self.u32(version);
    }

    /// An element count or byte length as the `u32` the formats prefix
    /// their sequences with.
    ///
    /// # Panics
    /// Panics when `n` exceeds `u32::MAX`: the image could only be
    /// written with a wrapped count, which a reader would frame wrongly.
    pub fn count(&mut self, n: usize) {
        self.u32(u32::try_from(n).expect("a length above u32::MAX does not fit the format"));
    }

    /// Little-endian `u32`s, no prefix.
    pub fn u32s(&mut self, values: &[u32]) {
        self.buf.reserve(4 * values.len());
        for &v in values {
            self.u32(v);
        }
    }

    /// A `u32`-length-prefixed UTF-8 string.
    ///
    /// # Panics
    /// Panics when the string is longer than `u32::MAX` bytes (see
    /// [`count`](Self::count)).
    pub fn str(&mut self, s: &str) {
        self.count(s.len());
        self.bytes(s.as_bytes());
    }

    /// The finished image.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What `write` appends to an empty image.
    fn image(write: impl FnOnce(&mut ByteWriter)) -> Vec<u8> {
        let mut w = ByteWriter::new();
        write(&mut w);
        w.finish()
    }

    // One test per writer method, each read back by the reader method of
    // the same name and held to its exact length.

    #[test]
    fn u8_round_trips() {
        let bytes = image(|w| w.u8(0xAB));
        assert_eq!(bytes, [0xAB]);
        assert_eq!(ByteReader::new(&bytes).u8(), Ok(0xAB));
    }

    #[test]
    fn u32_round_trips() {
        let bytes = image(|w| w.u32(0xDEAD_BEEF));
        assert_eq!(bytes, [0xEF, 0xBE, 0xAD, 0xDE]);
        assert_eq!(ByteReader::new(&bytes).u32(), Ok(0xDEAD_BEEF));
    }

    #[test]
    fn u64_round_trips() {
        let bytes = image(|w| w.u64(0x0123_4567_89AB_CDEF));
        assert_eq!(bytes.len(), 8);
        assert_eq!(ByteReader::new(&bytes).u64(), Ok(0x0123_4567_89AB_CDEF));
    }

    #[test]
    fn bytes_round_trip() {
        let bytes = image(|w| w.bytes(&[9, 8, 7]));
        assert_eq!(bytes, [9, 8, 7]);
        assert_eq!(ByteReader::new(&bytes).bytes(3), Ok(&[9u8, 8, 7][..]));
    }

    #[test]
    fn count_and_u32s_round_trip() {
        let values = [1, u32::MAX, 0];
        let bytes = image(|w| {
            w.count(values.len());
            w.u32s(&values);
        });
        assert_eq!(bytes.len(), 4 + 12);
        let mut r = ByteReader::new(&bytes);
        let n = r.count(4).expect("three u32s follow the count");
        assert_eq!(r.u32s(n), Ok(values.to_vec()));
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn str_round_trips() {
        let bytes = image(|w| {
            w.str("naïve");
            w.str("");
        });
        assert_eq!(bytes.len(), (4 + 6) + 4);
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.str(), Ok("naïve"));
        assert_eq!(r.str(), Ok(""));
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn header_round_trips_and_refuses_in_order() {
        let bytes = image(|w| w.header(0x5E9D_0001, 3));
        assert_eq!(bytes, [1, 0, 0x9D, 0x5E, 3, 0, 0, 0]);
        assert_eq!(ByteReader::new(&bytes).header(0x5E9D_0001, 3), Ok(()));
        // Magic before version, version before the bytes that follow.
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.header(0x5E9D_0002, 9), Err(DecodeError::BadMagic));
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.header(0x5E9D_0001, 4), Err(DecodeError::BadVersion(3)));
        let mut r = ByteReader::new(&bytes[..6]);
        assert_eq!(r.header(0x5E9D_0001, 3), Err(DecodeError::Truncated));
        let mut r = ByteReader::new(&bytes[..2]);
        assert_eq!(r.header(0x5E9D_0002, 3), Err(DecodeError::Truncated));
    }

    #[test]
    fn the_largest_count_is_written_whole() {
        assert_eq!(
            image(|w| w.count(u32::MAX as usize)),
            u32::MAX.to_le_bytes()
        );
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "does not fit the format")]
    fn a_count_above_u32_max_is_refused_not_truncated() {
        ByteWriter::new().count(u32::MAX as usize + 1);
    }

    #[test]
    fn reads_advance_and_stop_at_the_end() {
        let mut data = vec![7u8];
        data.extend_from_slice(&0xAABB_CCDDu32.to_le_bytes());
        data.extend_from_slice(&u64::MAX.to_le_bytes());
        data.extend_from_slice(&[1, 2, 3]);
        let mut r = ByteReader::new(&data);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u32(), Ok(0xAABB_CCDD));
        assert_eq!(r.u64(), Ok(u64::MAX));
        assert_eq!(r.bytes(2), Ok(&[1u8, 2][..]));
        assert_eq!(r.u32(), Err(Truncated), "one byte left");
        assert_eq!(r.u8(), Ok(3), "a failed read consumes nothing");
        assert_eq!(r.u8(), Err(Truncated));
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn count_is_bounded_by_the_remaining_input() {
        let mut data = 3u32.to_le_bytes().to_vec();
        data.extend_from_slice(&[0u8; 12]);
        assert_eq!(ByteReader::new(&data).count(4), Ok(3));
        assert_eq!(ByteReader::new(&data).count(5), Err(Truncated));
        let huge = u32::MAX.to_le_bytes();
        assert_eq!(ByteReader::new(&huge).count(1), Err(Truncated));
        assert_eq!(ByteReader::new(&huge).count(0), Err(Truncated));
        assert_eq!(ByteReader::new(&huge).count(usize::MAX), Err(Truncated));
        assert_eq!(ByteReader::new(&huge[..3]).count(1), Err(Truncated));
    }

    #[test]
    fn u32s_and_str_check_their_lengths() {
        let mut data = Vec::new();
        for v in [1u32, 2, 3] {
            data.extend_from_slice(&v.to_le_bytes());
        }
        let mut r = ByteReader::new(&data);
        assert_eq!(r.u32s(2), Ok(vec![1, 2]));
        assert_eq!(r.u32s(2), Err(Truncated));
        assert_eq!(r.u32s(usize::MAX), Err(Truncated));
        assert_eq!(r.finish(), Err(4));

        let mut s = 2u32.to_le_bytes().to_vec();
        s.extend_from_slice(b"ok");
        assert_eq!(ByteReader::new(&s).str(), Ok("ok"));
        s[4] = 0xFF;
        assert_eq!(ByteReader::new(&s).str(), Err(DecodeError::BadUtf8));
        s[0] = 3;
        assert_eq!(ByteReader::new(&s).str(), Err(DecodeError::Truncated));
    }
}
