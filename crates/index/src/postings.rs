//! Compressed postings lists.
//!
//! A postings list stores, for one term, the sequence of `(doc id, term
//! frequency)` pairs in increasing doc-id order. Doc ids are delta-encoded
//! and both deltas and frequencies are LEB128-varint encoded into a single
//! shared byte slice, the standard layout of disk-resident search
//! indexes. Decoding is streaming — no intermediate allocation.

use crate::document::DocId;
use std::sync::Arc;

/// One `(document, term frequency)` entry of a postings list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Posting {
    /// The document containing the term.
    pub doc: DocId,
    /// Number of occurrences of the term in the document.
    pub tf: u32,
}

/// Append `v` as a LEB128 varint.
fn put_varint(buf: &mut Vec<u8>, mut v: u32) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Decode a LEB128 varint starting at `pos`, returning `(value, new_pos)`.
/// Trusting: indexes directly, so it may only walk payloads this process
/// encoded or [`PostingsList::validated`] accepted.
fn get_varint(data: &[u8], mut pos: usize) -> (u32, usize) {
    let mut value: u32 = 0;
    let mut shift = 0;
    loop {
        let byte = data[pos];
        pos += 1;
        value |= u32::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return (value, pos);
        }
        shift += 7;
        debug_assert!(shift < 35, "varint too long");
    }
}

/// Decode one LEB128 varint without panicking on truncated or overlong
/// input.
fn checked_varint(data: &[u8], mut pos: usize) -> Option<(u32, usize)> {
    let mut value: u32 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *data.get(pos)?;
        pos += 1;
        let chunk = u32::from(byte & 0x7f);
        if shift > 28 || (shift == 28 && chunk > 0x0f) {
            return None; // would overflow u32
        }
        value |= chunk << shift;
        if byte & 0x80 == 0 {
            return Some((value, pos));
        }
        shift += 7;
    }
}

/// Incremental encoder for one term's postings.
#[derive(Debug, Default)]
pub struct PostingsBuilder {
    buf: Vec<u8>,
    last_doc: Option<u32>,
    len: u32,
    max_tf: u32,
}

impl PostingsBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a posting. Documents must arrive in strictly increasing
    /// doc-id order and `tf` must be ≥ 1.
    ///
    /// # Panics
    /// Panics on out-of-order doc ids or zero frequency.
    pub fn push(&mut self, doc: DocId, tf: u32) {
        assert!(tf >= 1, "term frequency must be positive");
        let delta = match self.last_doc {
            None => doc.0,
            Some(last) => {
                assert!(doc.0 > last, "postings must be in increasing doc order");
                doc.0 - last
            }
        };
        self.last_doc = Some(doc.0);
        put_varint(&mut self.buf, delta);
        put_varint(&mut self.buf, tf);
        self.len += 1;
        self.max_tf = self.max_tf.max(tf);
    }

    /// Finish encoding, producing an immutable [`PostingsList`].
    pub fn build(self) -> PostingsList {
        PostingsList {
            data: self.buf.into(),
            len: self.len,
            max_tf: self.max_tf,
        }
    }
}

/// Immutable compressed postings list for one term; `Clone` is a
/// reference-count bump.
#[derive(Debug, Clone, Default)]
pub struct PostingsList {
    data: Arc<[u8]>,
    len: u32,
    /// The largest term frequency in the list (0 when empty); it sits in
    /// what was padding, so the list is no larger.
    max_tf: u32,
}

impl PostingsList {
    /// Number of postings (the term's document frequency).
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when no document contains the term.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The largest term frequency in the list (0 when it is empty).
    pub(crate) fn max_tf(&self) -> u32 {
        self.max_tf
    }

    /// The raw compressed byte payload (for persistence).
    pub fn raw_bytes(&self) -> &[u8] {
        &self.data
    }

    /// Adopt a payload read from outside the process — the one validator
    /// every artifact decoder goes through. Checks that `payload` decodes
    /// to exactly `count` `(doc, tf)` pairs with strictly increasing doc
    /// ids inside `[base, base + range_len)`, positive frequencies and no
    /// trailing bytes — everything [`iter`](Self::iter) and the scoring
    /// kernel assume — and returns the list, or the failed check.
    pub(crate) fn validated(
        payload: &[u8],
        count: u32,
        base: u32,
        range_len: usize,
    ) -> Result<Self, &'static str> {
        let mut pos = 0;
        let mut last_doc: Option<u32> = None;
        let mut max_tf = 0;
        for _ in 0..count {
            let Some((delta, p)) = checked_varint(payload, pos) else {
                return Err("undecodable postings varint");
            };
            let Some((tf, p)) = checked_varint(payload, p) else {
                return Err("undecodable postings varint");
            };
            pos = p;
            let doc = match last_doc {
                None => delta,
                Some(_) if delta == 0 => return Err("non-increasing doc ids in postings"),
                Some(last) => match last.checked_add(delta) {
                    Some(doc) => doc,
                    None => return Err("doc id overflow in postings"),
                },
            };
            if doc < base || u64::from(doc - base) >= range_len as u64 {
                return Err("posting outside its document range");
            }
            if tf == 0 {
                return Err("zero term frequency in postings");
            }
            last_doc = Some(doc);
            max_tf = max_tf.max(tf);
        }
        if pos != payload.len() {
            return Err("trailing bytes in postings payload");
        }
        Ok(PostingsList {
            data: payload.into(),
            len: count,
            max_tf,
        })
    }

    /// Streaming decoder over the postings.
    pub fn iter(&self) -> PostingsIter<'_> {
        PostingsIter {
            data: &self.data,
            pos: 0,
            remaining: self.len,
            last_doc: 0,
            first: true,
        }
    }
}

/// Streaming decoder returned by [`PostingsList::iter`].
#[derive(Debug)]
pub struct PostingsIter<'a> {
    data: &'a [u8],
    pos: usize,
    remaining: u32,
    last_doc: u32,
    first: bool,
}

impl Iterator for PostingsIter<'_> {
    type Item = Posting;

    fn next(&mut self) -> Option<Posting> {
        if self.remaining == 0 {
            return None;
        }
        let (delta, pos) = get_varint(self.data, self.pos);
        let (tf, pos) = get_varint(self.data, pos);
        self.pos = pos;
        self.last_doc = if self.first {
            self.first = false;
            delta
        } else {
            self.last_doc + delta
        };
        self.remaining -= 1;
        Some(Posting {
            doc: DocId(self.last_doc),
            tf,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

impl ExactSizeIterator for PostingsIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(entries: &[(u32, u32)]) -> Vec<(u32, u32)> {
        let mut b = PostingsBuilder::new();
        for &(doc, tf) in entries {
            b.push(DocId(doc), tf);
        }
        b.build().iter().map(|p| (p.doc.0, p.tf)).collect()
    }

    #[test]
    fn empty_list() {
        let list = PostingsBuilder::new().build();
        assert!(list.is_empty());
        assert_eq!(list.iter().count(), 0);
    }

    #[test]
    fn simple_roundtrip() {
        let entries = vec![(0, 1), (1, 3), (7, 2), (1000, 1)];
        assert_eq!(roundtrip(&entries), entries);
    }

    #[test]
    fn first_doc_nonzero() {
        let entries = vec![(42, 9)];
        assert_eq!(roundtrip(&entries), entries);
    }

    #[test]
    fn large_values() {
        let entries = vec![(0, 1), (u32::MAX - 1, 300_000)];
        assert_eq!(roundtrip(&entries), entries);
    }

    #[test]
    #[should_panic(expected = "increasing")]
    fn out_of_order_panics() {
        let mut b = PostingsBuilder::new();
        b.push(DocId(5), 1);
        b.push(DocId(5), 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_tf_panics() {
        let mut b = PostingsBuilder::new();
        b.push(DocId(0), 0);
    }

    #[test]
    fn compression_beats_naive_for_dense_lists() {
        let mut b = PostingsBuilder::new();
        for doc in 0..10_000u32 {
            b.push(DocId(doc), 1);
        }
        let list = b.build();
        // Naive layout would use 8 bytes per posting; dense deltas with
        // small tfs take 2 bytes.
        assert!(list.raw_bytes().len() <= 2 * 10_000);
        assert_eq!(list.len(), 10_000);
    }

    #[test]
    fn exact_size_iterator() {
        let mut b = PostingsBuilder::new();
        b.push(DocId(1), 1);
        b.push(DocId(2), 1);
        let list = b.build();
        let mut it = list.iter();
        assert_eq!(it.len(), 2);
        it.next();
        assert_eq!(it.len(), 1);
    }
}
