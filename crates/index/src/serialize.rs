//! Binary persistence of the inverted index.
//!
//! A deployable search system builds its index offline and loads it at
//! serving time; this module provides the corresponding on-disk format —
//! a single length-prefixed binary buffer:
//!
//! ```text
//! [magic u32][version u32]
//! [vocab: u32 count + (u32 len + utf8)*]
//! [documents: u32 count + (url, title, body as length-prefixed utf8)*]
//! [forward rows: u32 count (= document count)
//!                + body offsets (count + 1 u32s)
//!                + u32 count + body term ids (u32s, STOP kept)
//!                + title offsets (count + 1 u32s)
//!                + u32 count + title (term u32, tf u32)*]
//! ```
//!
//! The image holds only what the build resolved: the vocabulary, the
//! documents and the forward rows the build wrote (see
//! [`crate::forward`]). Everything the rows determine is derived on
//! decode, not stored: each row is counted into its `(term, tf)` runs
//! by the function the build pass counts with, which gives the
//! postings, document lengths, token count and term statistics, and
//! the IDF and DPH tables follow from those, as in the build. So a
//! decoded index cannot rank by one corpus and read surrogates from
//! another. Version 3 dropped the stored postings, lengths and counts;
//! there is no reader of an earlier version.

use crate::builder::Segment;
use crate::document::Document;
use crate::forward::Rows;
use crate::index::InvertedIndex;
use crate::reader::{ByteReader, ByteWriter};
use serpdiv_text::Vocabulary;

const MAGIC: u32 = 0x5E9D_1F01;
const VERSION: u32 = 3;

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
    /// Serialize the index (its vocabulary, documents and forward rows)
    /// to a binary buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.header(MAGIC, VERSION);
        w.count(self.vocab.len());
        for (_, term) in self.vocab.iter() {
            w.str(term);
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
    /// the image and validated, and the postings and statistics are
    /// counted from them.
    pub fn from_bytes(data: &[u8]) -> Result<Self, DecodeError> {
        let mut r = ByteReader::new(data);
        r.header(MAGIC, VERSION)?;
        let n_terms = r.count(4)?;
        let mut vocab = Vocabulary::new();
        for _ in 0..n_terms {
            vocab.intern(r.str()?);
        }
        if vocab.len() != n_terms {
            return Err(DecodeError::Corrupt("duplicate term in vocabulary"));
        }

        // Dense ids by contract: ingest extends the store at the next one.
        let n_docs = r.count(12)?;
        let mut docs = Vec::with_capacity(n_docs);
        for id in 0..n_docs {
            let url = r.str()?;
            let title = r.str()?;
            let body = r.str()?;
            docs.push(Document::new(id as u32, url, title, body));
        }
        let rows = Rows::read(&mut r, n_docs, n_terms)?;
        if r.finish().is_err() {
            return Err(DecodeError::Corrupt("trailing bytes after index"));
        }
        let segment = Segment::counted(vocab, docs, rows).map_err(DecodeError::Corrupt)?;
        Ok(InvertedIndex::assemble(segment))
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

    /// `idx`'s image with its first `docs` documents but all its rows.
    fn image_with_docs(idx: &InvertedIndex, docs: usize) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.header(MAGIC, VERSION);
        w.count(idx.vocab.len());
        for (_, term) in idx.vocab.iter() {
            w.str(term);
        }
        w.count(docs);
        for doc in idx.store.iter().take(docs) {
            w.str(&doc.url);
            w.str(&doc.title);
            w.str(&doc.body);
        }
        idx.forward.rows().write(&mut w);
        w.finish()
    }

    #[test]
    fn postings_must_stay_inside_the_declared_collection() {
        // The postings are counted from the rows, one row per document:
        // rows for a document the image does not hold are refused, and
        // the lists a decode counts name the image's documents only.
        let idx = sample_index();
        assert_eq!(image_with_docs(&idx, 3), idx.to_bytes());
        assert_eq!(
            InvertedIndex::from_bytes(&image_with_docs(&idx, 2)).unwrap_err(),
            DecodeError::Corrupt("forward row count differs from document count")
        );
        let decoded = InvertedIndex::from_bytes(&idx.to_bytes()).unwrap();
        for (got, built) in decoded.postings.iter().zip(&idx.postings) {
            assert!(got.iter().all(|p| p.doc.index() < 3));
            assert_eq!(got.raw_bytes(), built.raw_bytes());
        }
        assert_eq!(decoded.doc_lens, idx.doc_lens);
        assert_eq!(decoded.term_stats, idx.term_stats);
    }

    #[test]
    fn a_title_tf_overflowing_the_document_length_is_refused() {
        // Doc 0 ("apple iphone" over a five-term body) holds the first
        // title entry; the entries end the image. Its count is summed,
        // never expanded: a length of exactly `u32::MAX` decodes, one
        // more is refused.
        let idx = sample_index();
        let bytes = idx.to_bytes();
        let title = |d: u32| idx.forward.title_tf(crate::DocId(d));
        let entries = bytes.len() - 8 * (0..3).map(|d| title(d).len()).sum::<usize>();
        let (first_tf, len) = (title(0)[0].1, idx.doc_lens[0]);
        let planted_at = |tfs: &[(usize, u32)]| {
            let mut bad = bytes.clone();
            for &(entry, tf) in tfs {
                let at = entries + 8 * entry + 4;
                bad[at..at + 4].copy_from_slice(&tf.to_le_bytes());
            }
            InvertedIndex::from_bytes(&bad)
        };
        let planted = |tf: u32| planted_at(&[(0, tf)]);
        let fits = u32::MAX - (len - first_tf);
        let decoded = planted(fits).unwrap();
        assert_eq!(decoded.doc_len(crate::DocId(0)), Some(u32::MAX));
        assert_eq!(
            decoded.stats().num_tokens,
            u64::from(u32::MAX) + u64::from(idx.doc_lens[1] + idx.doc_lens[2])
        );
        for tf in [fits + 1, u32::MAX] {
            assert_eq!(
                planted(tf).unwrap_err(),
                DecodeError::Corrupt("document length exceeds u32"),
                "tf {tf}"
            );
        }
        // Two entries that each fit but together do not.
        assert_eq!(
            planted_at(&[(0, 1 << 31), (1, 1 << 31)]).unwrap_err(),
            DecodeError::Corrupt("document length exceeds u32")
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
