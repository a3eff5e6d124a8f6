//! Binary persistence of the inverted index.
//!
//! A deployable search system builds its index offline and loads it at
//! serving time; this module provides the corresponding on-disk format —
//! a single length-prefixed binary buffer:
//!
//! ```text
//! [magic u32][version u32]
//! [num_docs u64][num_tokens u64]
//! [doc_lens: u32 count + raw u32s]
//! [vocab: u32 count + (u32 len + utf8)*]
//! [postings: u32 count + (doc_freq u32, coll_freq u64,
//!                          byte_len u32 + compressed bytes)*]
//! [documents: u32 count + (url, title, body as length-prefixed utf8)*]
//! [forward rows: u32 count (= num_docs)
//!                + body offsets (count + 1 u32s)
//!                + u32 count + body term ids (u32s, STOP kept)
//!                + title offsets (count + 1 u32s)
//!                + u32 count + title (term u32, tf u32)*]
//! ```
//!
//! Postings buffers are written verbatim (they are already delta+varint
//! compressed), so save/load is a straight memory copy of the hot data.
//! The forward rows are the ones the build wrote (see
//! [`crate::forward`]), so a decoded index holds its forward view without
//! reading a document's text; the IDF table is not stored, but derived
//! from the term statistics, as the build derives it. Version 2 added
//! the rows; there is no reader of version 1.

use crate::document::{Document, DocumentStore};
use crate::dph::DphTable;
use crate::forward::{ForwardIndex, Rows};
use crate::index::{CollectionStats, InvertedIndex, TermStats};
use crate::postings::{PostingsBuilder, PostingsList};
use crate::reader::{ByteReader, ByteWriter};
use serpdiv_text::Vocabulary;

const MAGIC: u32 = 0x5E9D_1F01;
const VERSION: u32 = 2;

/// Errors raised while decoding a serialized index.
#[derive(Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer does not start with the expected magic number.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u32),
    /// The buffer ended prematurely or a length field is inconsistent.
    Truncated,
    /// A string field is not valid UTF-8.
    BadUtf8,
    /// The buffer framed correctly but its contents are structurally
    /// invalid (non-monotone offsets, out-of-range term ids, …); the
    /// payload names the failed check.
    Corrupt(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "not a serpdiv index (bad magic)"),
            DecodeError::BadVersion(v) => write!(f, "unsupported index version {v}"),
            DecodeError::Truncated => write!(f, "truncated index buffer"),
            DecodeError::BadUtf8 => write!(f, "invalid utf-8 in index buffer"),
            DecodeError::Corrupt(what) => write!(f, "corrupt index buffer ({what})"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl InvertedIndex {
    /// Serialize the index (with its document store and forward rows) to
    /// a binary buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.header(MAGIC, VERSION);
        w.u64(self.stats.num_docs);
        w.u64(self.stats.num_tokens);

        w.count(self.doc_lens.len());
        w.u32s(&self.doc_lens);

        w.count(self.vocab.len());
        for (_, term) in self.vocab.iter() {
            w.str(term);
        }

        w.count(self.postings.len());
        for (list, stats) in self.postings.iter().zip(&self.term_stats) {
            w.count(stats.doc_freq as usize);
            w.u64(stats.coll_freq);
            // Re-encode through the iterator: the list knows its bytes but
            // exposes postings; round-tripping through the builder keeps
            // the format independent of the in-memory layout.
            let mut pb = PostingsBuilder::new();
            for p in list.iter() {
                pb.push(p.doc, p.tf);
            }
            let encoded = pb.build();
            let payload = encoded.raw_bytes();
            w.count(payload.len());
            w.bytes(payload);
        }

        w.count(self.store.len());
        for doc in self.store.iter() {
            w.str(&doc.url);
            w.str(&doc.title);
            w.str(&doc.body);
        }
        self.forward.rows().write(&mut w);
        w.finish()
    }

    /// Decode an index serialized by [`InvertedIndex::to_bytes`]. The
    /// analysis pipeline is not persisted: it is code, not data, and there
    /// is one. Nothing is analyzed here: the forward rows are read from
    /// the image and validated, and no later call compiles them.
    pub fn from_bytes(data: &[u8]) -> Result<Self, DecodeError> {
        let mut r = ByteReader::new(data);
        r.header(MAGIC, VERSION)?;
        let num_docs = r.u64()?;
        let num_tokens = r.u64()?;

        let n_lens = r.count(4)?;
        if n_lens as u64 != num_docs {
            return Err(DecodeError::Corrupt(
                "doc_lens count differs from document count",
            ));
        }
        let doc_lens = r.u32s(n_lens)?;

        let n_terms = r.count(4)?;
        let mut vocab = Vocabulary::new();
        for _ in 0..n_terms {
            vocab.intern(r.str()?);
        }
        if vocab.len() != n_terms {
            return Err(DecodeError::Corrupt("duplicate term in vocabulary"));
        }

        // Term ids index the vocabulary and the postings alike.
        if r.count(16)? != n_terms {
            return Err(DecodeError::Corrupt(
                "vocabulary count differs from postings count",
            ));
        }
        let mut postings = Vec::with_capacity(n_terms);
        let mut term_stats = Vec::with_capacity(n_terms);
        for _ in 0..n_terms {
            let doc_freq = r.u32()?;
            let coll_freq = r.u64()?;
            let byte_len = r.u32()? as usize;
            // Retrieval accumulates into an array over the doc-id space
            // and walks payloads with the trusting decoder, so a malformed
            // or out-of-collection posting must be rejected here, not met
            // at query time.
            let list = PostingsList::validated(r.bytes(byte_len)?, doc_freq, 0, doc_lens.len())
                .map_err(DecodeError::Corrupt)?;
            postings.push(list);
            term_stats.push(TermStats {
                doc_freq: u64::from(doc_freq),
                coll_freq,
            });
        }

        // Ingest extends the store at id `num_docs` (dense ids by contract).
        let n_docs = r.count(12)?;
        if n_docs as u64 != num_docs {
            return Err(DecodeError::Corrupt(
                "document store count differs from document count",
            ));
        }
        let mut store = DocumentStore::new();
        for id in 0..n_docs {
            let url = r.str()?;
            let title = r.str()?;
            let body = r.str()?;
            store.push(Document::new(id as u32, url, title, body));
        }
        let rows = Rows::read(&mut r, n_docs, n_terms)?;
        if r.finish().is_err() {
            return Err(DecodeError::Corrupt("trailing bytes after index"));
        }

        let stats = CollectionStats::of(num_docs, num_tokens);
        Ok(InvertedIndex {
            dph: DphTable::of(stats, &doc_lens, &postings),
            forward: ForwardIndex::from_rows(rows, num_docs, &term_stats),
            vocab,
            postings,
            term_stats,
            doc_lens,
            store,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IndexBuilder;
    use crate::search::SearchEngine;

    fn sample_index() -> InvertedIndex {
        let mut b = IndexBuilder::new();
        b.add(Document::new(
            0,
            "http://a",
            "apple iphone",
            "apple announces new iphone chip",
        ));
        b.add(Document::new(
            1,
            "http://b",
            "apple pie",
            "bake an apple pie with cinnamon",
        ));
        b.add(Document::new(
            2,
            "http://c",
            "",
            "unrelated text about sailing boats",
        ));
        b.build()
    }

    #[test]
    fn roundtrip_preserves_search_results() {
        let idx = sample_index();
        let bytes = idx.to_bytes();
        let restored = InvertedIndex::from_bytes(&bytes).unwrap();
        for query in ["apple", "apple pie", "sailing", "iphone chip"] {
            let a: Vec<_> = SearchEngine::new(&idx).search(query, 10);
            let b: Vec<_> = SearchEngine::new(&restored).search(query, 10);
            assert_eq!(a.len(), b.len(), "query {query}");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.doc, y.doc);
                assert!((x.score - y.score).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn roundtrip_preserves_stats_and_store() {
        let idx = sample_index();
        let restored = InvertedIndex::from_bytes(&idx.to_bytes()).unwrap();
        assert_eq!(restored.stats(), idx.stats());
        assert_eq!(restored.num_terms(), idx.num_terms());
        assert_eq!(restored.store().len(), 3);
        assert_eq!(
            restored.store().get(crate::DocId(1)).unwrap().title,
            "apple pie"
        );
    }

    #[test]
    fn bad_magic_rejected() {
        let err = InvertedIndex::from_bytes(&[0u8; 64]).unwrap_err();
        assert_eq!(err, DecodeError::BadMagic);
    }

    #[test]
    fn truncated_buffer_rejected() {
        let idx = sample_index();
        let bytes = idx.to_bytes();
        for cut in [0, 4, 10, bytes.len() / 2, bytes.len() - 1] {
            let err = InvertedIndex::from_bytes(&bytes[..cut]);
            assert!(err.is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn version_mismatch_rejected() {
        let idx = sample_index();
        let mut bytes = idx.to_bytes();
        bytes[4] = 99; // bump the version field
        let err = InvertedIndex::from_bytes(&bytes).unwrap_err();
        assert_eq!(err, DecodeError::BadVersion(99));
    }

    #[test]
    fn postings_must_stay_inside_the_declared_collection() {
        // Layout: magic, version, num_docs u64 @8, num_tokens u64 @16,
        // doc_lens count u32 @24, then the lengths.
        let mut fewer_docs = sample_index().to_bytes();
        fewer_docs[8..16].copy_from_slice(&2u64.to_le_bytes());
        assert_eq!(
            InvertedIndex::from_bytes(&fewer_docs).unwrap_err(),
            DecodeError::Corrupt("doc_lens count differs from document count")
        );
        // Consistently two documents — but the postings still name doc 2.
        fewer_docs[24..28].copy_from_slice(&2u32.to_le_bytes());
        fewer_docs.drain(36..40);
        assert_eq!(
            InvertedIndex::from_bytes(&fewer_docs).unwrap_err(),
            DecodeError::Corrupt("posting outside its document range")
        );
    }

    #[test]
    fn empty_index_roundtrips() {
        let idx = IndexBuilder::new().build();
        let restored = InvertedIndex::from_bytes(&idx.to_bytes()).unwrap();
        assert_eq!(restored.stats().num_docs, 0);
        assert_eq!(restored.num_terms(), 0);
    }
}
