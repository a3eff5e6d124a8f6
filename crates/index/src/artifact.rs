//! Standalone per-shard serving artifacts for out-of-process workers.
//!
//! A fleet worker process serves exactly one shard of a
//! [`ShardedIndex`](crate::sharded::ShardedIndex). It must not need the
//! global index at boot — that would defeat the point of partitioning —
//! so [`ShardedIndex::export_shard`](crate::sharded::ShardedIndex::export_shard)
//! captures everything shard scoring reads into one self-contained binary
//! buffer: the shard-local postings slice **plus the global statistics**
//! (collection stats, per-term stats, the range's document lengths) that
//! make a document's score independent of where it is scored.
//!
//! ```text
//! [magic u32][version u32]
//! [shard_id u32][num_shards u32]
//! [base u32][range_len u32]
//! [num_docs u64][num_tokens u64][avg_doc_len f64-bits u64]
//! [doc_lens: u32 count (== range_len) + raw u32s]
//! [terms: u32 count + (doc_freq u32, coll_freq u64,
//!                      local_len u32, byte_len u32 + compressed bytes)*]
//! ```
//!
//! `avg_doc_len` is persisted as raw `f64` bits rather than recomputed so
//! the worker scores with the exact same collection statistics as the
//! router's process — bit-identity is the contract, not approximation.
//!
//! Decoding follows the same validate-on-decode discipline as
//! [`InvertedIndex::from_bytes`](crate::index::InvertedIndex), forward
//! rows included: framing
//! errors are [`DecodeError::Truncated`]/[`BadMagic`]/[`BadVersion`], and
//! structural violations — postings out of the shard's range, non-monotone
//! doc ids, zero frequencies, undecodable varints — are
//! [`DecodeError::Corrupt`] naming the failed check. A worker never boots
//! from an artifact that could panic the scoring loop.
//!
//! [`BadMagic`]: DecodeError::BadMagic
//! [`BadVersion`]: DecodeError::BadVersion

use crate::document::DocId;
use crate::dph::DphTable;
use crate::index::{CollectionStats, InvertedIndex, TermStats};
use crate::kernel::{score_range, RangeSource};
use crate::postings::PostingsList;
use crate::reader::{ByteReader, ByteWriter};
use crate::search::{query_weights, ScoredDoc};
use crate::serialize::DecodeError;
use serpdiv_text::TermId;

const MAGIC: u32 = 0x5E9D_1F05;
const VERSION: u32 = 1;

/// Encode one shard into the artifact format (called by
/// [`ShardedIndex::export_shard`](crate::sharded::ShardedIndex::export_shard)).
pub(crate) fn encode_shard(
    index: &InvertedIndex,
    shard_id: u32,
    num_shards: u32,
    base: u32,
    range_len: usize,
    postings: &[PostingsList],
) -> Vec<u8> {
    let coll = index.stats();
    let mut w = ByteWriter::new();
    w.header(MAGIC, VERSION);
    w.u32(shard_id);
    w.u32(num_shards);
    w.u32(base);
    w.count(range_len);
    w.u64(coll.num_docs);
    w.u64(coll.num_tokens);
    w.u64(coll.avg_doc_len.to_bits());

    w.count(range_len);
    for i in 0..range_len {
        w.u32(index.doc_len(DocId(base + i as u32)).unwrap_or(0));
    }

    w.count(postings.len());
    for (t, list) in postings.iter().enumerate() {
        let stats = index.term_stats(TermId(t as u32)).unwrap_or(TermStats {
            doc_freq: 0,
            coll_freq: 0,
        });
        w.count(stats.doc_freq as usize);
        w.u64(stats.coll_freq);
        w.count(list.len());
        let payload = list.raw_bytes();
        w.count(payload.len());
        w.bytes(payload);
    }
    w.finish()
}

/// One shard of a [`ShardedIndex`](crate::sharded::ShardedIndex), decoded
/// into a standalone scorer a worker process boots from.
///
/// Scoring goes through the same retrieval kernel the in-process scatter
/// path uses, with the global statistics the artifact carries —
/// per-document scores (and therefore the per-shard top-`k` a worker
/// returns) are bit-identical to scoring the same shard inside the
/// router's process.
#[derive(Debug)]
pub struct ShardArtifact {
    shard_id: u32,
    num_shards: u32,
    base: u32,
    doc_lens: Vec<u32>,
    coll: CollectionStats,
    term_stats: Vec<TermStats>,
    postings: Vec<PostingsList>,
    /// DPH's `(tf, dl)` factors under the carried global statistics,
    /// sized to this shard's postings.
    dph: DphTable,
}

impl ShardArtifact {
    /// Decode an artifact produced by
    /// [`ShardedIndex::export_shard`](crate::sharded::ShardedIndex::export_shard),
    /// validating every structural invariant the scoring loop relies on.
    pub fn from_bytes(data: &[u8]) -> Result<Self, DecodeError> {
        let mut r = ByteReader::new(data);
        r.header(MAGIC, VERSION)?;
        let shard_id = r.u32()?;
        let num_shards = r.u32()?;
        let base = r.u32()?;
        let range_len = r.u32()? as usize;
        let num_docs = r.u64()?;
        let num_tokens = r.u64()?;
        let avg_doc_len = f64::from_bits(r.u64()?);

        if num_shards == 0 || shard_id >= num_shards {
            return Err(DecodeError::Corrupt("shard id out of range"));
        }
        if u64::from(base) + range_len as u64 > num_docs {
            return Err(DecodeError::Corrupt("shard range exceeds collection"));
        }
        if !avg_doc_len.is_finite() || avg_doc_len < 0.0 {
            return Err(DecodeError::Corrupt("non-finite average document length"));
        }

        let n_lens = r.count(4)?;
        if n_lens != range_len {
            return Err(DecodeError::Corrupt("doc_lens count differs from range"));
        }
        let doc_lens = r.u32s(n_lens)?;

        let n_terms = r.count(20)?;
        let mut term_stats = Vec::with_capacity(n_terms);
        let mut postings = Vec::with_capacity(n_terms);
        for _ in 0..n_terms {
            let doc_freq = u64::from(r.u32()?);
            let coll_freq = r.u64()?;
            let local_len = r.u32()?;
            let byte_len = r.u32()? as usize;
            let payload = r.bytes(byte_len)?;
            if u64::from(local_len) > doc_freq {
                return Err(DecodeError::Corrupt(
                    "shard postings exceed global doc freq",
                ));
            }
            let list = PostingsList::validated(payload, local_len, base, range_len)
                .map_err(DecodeError::Corrupt)?;
            postings.push(list);
            term_stats.push(TermStats {
                doc_freq,
                coll_freq,
            });
        }
        if r.finish().is_err() {
            return Err(DecodeError::Corrupt("trailing bytes after shard artifact"));
        }

        let coll = CollectionStats {
            num_docs,
            num_tokens,
            avg_doc_len,
        };
        Ok(ShardArtifact {
            shard_id,
            num_shards,
            base,
            dph: DphTable::of(avg_doc_len, &doc_lens, &postings),
            doc_lens,
            coll,
            term_stats,
            postings,
        })
    }

    /// Which shard of the partition this artifact holds.
    pub fn shard_id(&self) -> u32 {
        self.shard_id
    }

    /// How many shards the source partition has in total.
    pub fn num_shards(&self) -> u32 {
        self.num_shards
    }

    /// First global doc id of the shard's contiguous range.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Number of doc ids in the shard's range.
    pub fn range_len(&self) -> usize {
        self.doc_lens.len()
    }

    /// The global collection statistics the artifact carries.
    pub fn collection_stats(&self) -> CollectionStats {
        self.coll
    }

    /// The shard-local top `k` for pre-analyzed query terms: exactly what
    /// this shard would contribute to an in-process scatter — same
    /// accumulation order, same `f64` bits, same `(score desc, doc asc)`
    /// ordering — ready for the router's k-way gather.
    pub fn score_terms(&self, terms: &[TermId], k: usize) -> Vec<ScoredDoc> {
        score_range(self, &query_weights(terms), &self.dph, k)
    }
}

impl RangeSource for ShardArtifact {
    fn coll(&self) -> CollectionStats {
        self.coll
    }

    fn term_stats(&self, t: TermId) -> Option<TermStats> {
        self.term_stats.get(t.index()).copied()
    }

    fn range_postings(&self, t: TermId) -> Option<&PostingsList> {
        self.postings.get(t.index())
    }

    fn base(&self) -> u32 {
        self.base
    }

    fn doc_lens(&self) -> &[u32] {
        &self.doc_lens
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IndexBuilder;
    use crate::document::Document;
    use crate::search::SearchEngine;
    use crate::sharded::{merge_top_k, ShardedIndex};
    use std::sync::Arc;

    fn index() -> Arc<InvertedIndex> {
        let texts = [
            "apple iphone smartphone chip",
            "apple fruit orchard sweet",
            "apple pie cinnamon recipe",
            "weather storm rain wind",
            "apple iphone smartphone chip", // duplicate → score tie
        ];
        let mut b = IndexBuilder::new();
        for i in 0..30u32 {
            b.add(Document::new(
                i,
                format!("http://d/{i}"),
                "",
                texts[i as usize % texts.len()],
            ));
        }
        Arc::new(b.build())
    }

    fn artifacts(idx: &Arc<InvertedIndex>, shards: usize) -> Vec<ShardArtifact> {
        let sharded = ShardedIndex::build(idx.clone(), shards);
        (0..sharded.num_shards())
            .map(|s| ShardArtifact::from_bytes(&sharded.export_shard(s)).expect("valid artifact"))
            .collect()
    }

    #[test]
    fn exported_shards_score_bit_identically() {
        let idx = index();
        let oracle = SearchEngine::new(&idx);
        for shards in [1, 2, 4, 7] {
            let arts = artifacts(&idx, shards);
            for query in ["apple", "apple iphone", "weather storm", "apple apple pie"] {
                let terms = idx.analyze_query(query);
                for k in [1, 3, 10, 100] {
                    let expect = oracle.search(query, k);
                    let per_shard: Vec<_> = arts.iter().map(|a| a.score_terms(&terms, k)).collect();
                    let got = merge_top_k(per_shard, k);
                    assert_eq!(expect.len(), got.len(), "{query} k={k} shards={shards}");
                    for (e, g) in expect.iter().zip(&got) {
                        assert_eq!(e.doc, g.doc, "{query} k={k} shards={shards}");
                        assert_eq!(
                            e.score.to_bits(),
                            g.score.to_bits(),
                            "{query} k={k} shards={shards}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn metadata_round_trips() {
        let idx = index();
        let sharded = ShardedIndex::build(idx.clone(), 4);
        let art = ShardArtifact::from_bytes(&sharded.export_shard(2)).unwrap();
        assert_eq!(art.shard_id(), 2);
        assert_eq!(art.num_shards(), 4);
        assert_eq!(art.base(), 16);
        assert_eq!(art.range_len(), 8);
        assert_eq!(art.collection_stats(), idx.stats());
    }

    #[test]
    fn empty_terms_and_zero_k() {
        let idx = index();
        let art = artifacts(&idx, 2).remove(0);
        assert!(art.score_terms(&[], 10).is_empty());
        assert!(art.score_terms(&idx.analyze_query("apple"), 0).is_empty());
        assert!(
            art.score_terms(&[TermId(u32::MAX)], 10).is_empty(),
            "unknown term ids score nothing"
        );
    }

    #[test]
    fn bad_magic_and_version_rejected() {
        let idx = index();
        let mut bytes = ShardedIndex::build(idx, 2).export_shard(0);
        assert_eq!(
            ShardArtifact::from_bytes(&[0u8; 64]).unwrap_err(),
            DecodeError::BadMagic
        );
        bytes[4] = 9; // version field
        assert_eq!(
            ShardArtifact::from_bytes(&bytes).unwrap_err(),
            DecodeError::BadVersion(9)
        );
    }

    #[test]
    fn every_truncation_point_rejected() {
        let idx = index();
        let bytes = ShardedIndex::build(idx, 2).export_shard(1);
        for cut in 0..bytes.len() {
            assert!(
                ShardArtifact::from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn corrupt_postings_rejected_not_panicking() {
        let idx = index();
        let sharded = ShardedIndex::build(idx, 2);
        let clean = sharded.export_shard(0);
        // Flip every byte past the fixed header one at a time: decoding
        // must return an error or a structurally valid artifact — never
        // panic. (Flipped doc-len bytes stay valid; flipped postings
        // bytes are the dangerous case for the scoring loop.)
        let header = 4 * 6 + 8 * 3 + 4;
        let mut rejected = 0;
        for i in header..clean.len() {
            let mut bytes = clean.clone();
            bytes[i] ^= 0xFF;
            if ShardArtifact::from_bytes(&bytes).is_err() {
                rejected += 1;
            }
        }
        assert!(rejected > 0, "some corruptions must be caught");
    }

    #[test]
    fn out_of_range_posting_is_corrupt() {
        // Hand-build an artifact whose posting doc id falls outside the
        // declared shard range.
        let mut w = ByteWriter::new();
        w.header(MAGIC, VERSION);
        w.u32(0); // shard_id
        w.u32(1); // num_shards
        w.u32(0); // base
        w.u32(2); // range_len
        w.u64(2); // num_docs
        w.u64(4); // num_tokens
        w.u64(2.0f64.to_bits());
        w.u32(2); // doc_lens
        w.u32(2);
        w.u32(2);
        w.u32(1); // one term
        w.u32(1); // doc_freq
        w.u64(1); // coll_freq
        w.u32(1); // local_len
        w.u32(2); // byte_len
        w.bytes(&[5u8, 1u8]); // doc 5 (out of range), tf 1
        assert_eq!(
            ShardArtifact::from_bytes(&w.finish()).unwrap_err(),
            DecodeError::Corrupt("posting outside its document range")
        );
    }
}
