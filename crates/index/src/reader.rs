//! The one bounds-checked reader under every binary decoder.
//!
//! Index images, forward indexes, shard artifacts, compiled spec stores
//! and fleet frames are all little-endian, length-prefixed buffers that
//! arrive from outside the process. [`ByteReader`] is the only place
//! their lengths are compared with the bytes actually present: every
//! read either yields a value backed by the input or fails with
//! [`Truncated`], and a declared element count is refused unless the
//! remaining input could hold that many records — so no decoder can size
//! an allocation the input does not back. It knows no format: magic
//! numbers, versions, opcodes and structural invariants stay with the
//! decoder that owns them.

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

#[cfg(test)]
mod tests {
    use super::*;

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
