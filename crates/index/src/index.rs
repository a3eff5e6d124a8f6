//! The immutable inverted index and its collection statistics.
//!
//! Built by [`IndexBuilder`](crate::builder::IndexBuilder); queried by the
//! ranking model ([`Dph`](crate::dph::Dph)) through [`CollectionStats`] /
//! [`TermStats`] and by the retrievers (see
//! [`Retriever`](crate::retriever::Retriever)) through the postings.
//!
//! A build, a decode and a merge all end in one crate-private assembly,
//! which derives what the stored parts determine: the collection
//! statistics, the forward view's IDF table and the DPH table.

use crate::builder::Segment;
use crate::document::{DocId, DocumentStore};
use crate::dph::DphTable;
use crate::forward::ForwardIndex;
use crate::postings::PostingsList;
use serpdiv_text::{Analyzer, TermId, Vocabulary};

/// Global statistics of the indexed collection, needed by the ranking model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollectionStats {
    /// Number of documents in the collection.
    pub num_docs: u64,
    /// Total number of (post-analysis) token occurrences.
    pub num_tokens: u64,
    /// Average document length in tokens.
    pub avg_doc_len: f64,
}

impl CollectionStats {
    /// Statistics of `num_docs` documents holding `num_tokens` tokens.
    /// Every producer (build, decode, and the delta overlay a merge
    /// seals) takes the average from this one division, which is what
    /// keeps it bit-equal between them.
    pub(crate) fn of(num_docs: u64, num_tokens: u64) -> Self {
        let avg_doc_len = if num_docs == 0 {
            0.0
        } else {
            num_tokens as f64 / num_docs as f64
        };
        CollectionStats {
            num_docs,
            num_tokens,
            avg_doc_len,
        }
    }
}

/// Per-term statistics, needed by the ranking model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TermStats {
    /// Document frequency: number of documents containing the term.
    pub doc_freq: u64,
    /// Collection frequency: total occurrences across the collection.
    pub coll_freq: u64,
}

/// Statistics to score against *instead of* an index's own: replacement
/// collection-wide quantities plus per-term overrides for the terms whose
/// statistics differ.
///
/// This is how the NRT delta path keeps ranking score-honest: the overlay
/// carries the **union** (sealed + delta) collection stats and the union
/// [`TermStats`] of every term the delta touches, and both the sealed
/// retrieval side and the delta side score against it. Terms the overlay
/// does not carry fall back to the scored index's own statistics — for a
/// term absent from the delta, sealed statistics *are* the union
/// statistics, so the fallback is exact, not approximate.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsOverlay {
    coll: CollectionStats,
    /// Overridden per-term statistics, sorted by ascending [`TermId`].
    terms: Vec<(TermId, TermStats)>,
}

impl StatsOverlay {
    /// Overlay with replacement collection stats and per-term overrides
    /// (any order; sorted internally).
    pub fn new(coll: CollectionStats, mut terms: Vec<(TermId, TermStats)>) -> Self {
        terms.sort_unstable_by_key(|&(t, _)| t);
        StatsOverlay { coll, terms }
    }

    /// The replacement collection-wide statistics.
    pub fn coll(&self) -> CollectionStats {
        self.coll
    }

    /// The overridden statistics of `term`, when the overlay carries them
    /// (`None` ⇒ the scored index's own statistics are already correct).
    pub fn term_stats(&self, term: TermId) -> Option<TermStats> {
        self.terms
            .binary_search_by_key(&term, |&(t, _)| t)
            .ok()
            .map(|i| self.terms[i].1)
    }
}

/// Immutable inverted index over a [`DocumentStore`].
#[derive(Debug)]
pub struct InvertedIndex {
    pub(crate) vocab: Vocabulary,
    pub(crate) postings: Vec<PostingsList>,
    pub(crate) term_stats: Vec<TermStats>,
    pub(crate) doc_lens: Vec<u32>,
    pub(crate) store: DocumentStore,
    pub(crate) stats: CollectionStats,
    /// The compiled forward view: the rows a build's one pass over the
    /// text wrote (a merge appends the delta's, a decoder reads them from
    /// the image and counts `postings`, `term_stats` and `doc_lens` from
    /// them), with the IDF table of `term_stats`.
    pub(crate) forward: ForwardIndex,
    /// DPH's `(tf, dl)` factors under `stats`, built with the index
    /// (never serialized).
    pub(crate) dph: DphTable,
}

impl InvertedIndex {
    /// The one assembly of an index from what is stored of it: the
    /// segment's documents (ids from 0), vocabulary, postings, lengths and
    /// forward rows. What those determine is derived here, whether the
    /// segment was built, decoded or merged: the collection statistics,
    /// the forward view's IDF table and DPH's `(tf, dl)` table.
    pub(crate) fn assemble(segment: Segment) -> Self {
        let Segment {
            vocab,
            docs,
            postings,
            term_stats,
            doc_lens,
            num_tokens,
            rows,
        } = segment;
        let mut store = DocumentStore::new();
        for doc in docs {
            store.push(doc);
        }
        let stats = CollectionStats::of(store.len() as u64, num_tokens);
        InvertedIndex {
            forward: ForwardIndex::from_rows(rows, stats.num_docs, &term_stats),
            dph: DphTable::of(stats.avg_doc_len, &doc_lens, &postings),
            stats,
            vocab,
            postings,
            term_stats,
            doc_lens,
            store,
        }
    }

    /// Collection-wide statistics.
    pub fn stats(&self) -> CollectionStats {
        self.stats
    }

    /// The term dictionary.
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    /// The underlying document store.
    pub fn store(&self) -> &DocumentStore {
        &self.store
    }

    /// Statistics of `term`, if it occurs in the collection.
    pub fn term_stats(&self, term: TermId) -> Option<TermStats> {
        self.term_stats.get(term.index()).copied()
    }

    /// The compressed postings of `term`.
    pub fn postings(&self, term: TermId) -> Option<&PostingsList> {
        self.postings.get(term.index())
    }

    /// Length (in analyzed tokens) of document `doc`.
    pub fn doc_len(&self, doc: DocId) -> Option<u32> {
        self.doc_lens.get(doc.index()).copied()
    }

    /// This index's forward view, which every served surrogate of its
    /// documents is read from.
    pub fn forward(&self) -> &ForwardIndex {
        &self.forward
    }

    /// Analyze raw query text into term ids known to this index.
    pub fn analyze_query(&self, query: &str) -> Vec<TermId> {
        Analyzer::analyze_known(query, &self.vocab)
    }

    /// Number of distinct terms.
    pub fn num_terms(&self) -> usize {
        self.postings.len()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use crate::builder::IndexBuilder;
    use crate::document::Document;

    /// What an index image does not store, to the bit: postings bytes,
    /// term statistics, lengths and collection statistics.
    pub(crate) fn counted_parts(index: &super::InvertedIndex) -> impl PartialEq + std::fmt::Debug {
        let postings: Vec<Vec<u8>> = index
            .postings
            .iter()
            .map(|list| list.raw_bytes().to_vec())
            .collect();
        let s = index.stats;
        (
            postings,
            index.term_stats.clone(),
            index.doc_lens.clone(),
            (s.num_docs, s.num_tokens, s.avg_doc_len.to_bits()),
        )
    }

    fn tiny_index() -> super::InvertedIndex {
        let mut b = IndexBuilder::new();
        b.add(Document::new(0, "u0", "apple", "apple apple banana"));
        b.add(Document::new(1, "u1", "banana", "banana cherry"));
        b.add(Document::new(2, "u2", "", "cherry cherry cherry"));
        b.build()
    }

    #[test]
    fn collection_stats() {
        let idx = tiny_index();
        let s = idx.stats();
        assert_eq!(s.num_docs, 3);
        // doc0: apple apple apple banana (title+body) = 4 tokens,
        // doc1: banana banana cherry = 3, doc2: cherry x3 = 3.
        assert_eq!(s.num_tokens, 10);
        assert!((s.avg_doc_len - 10.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn term_stats_and_postings() {
        let idx = tiny_index();
        let apple = idx.vocab().id("appl").expect("stemmed apple");
        let ts = idx.term_stats(apple).unwrap();
        assert_eq!(ts.doc_freq, 1);
        assert_eq!(ts.coll_freq, 3);
        let postings: Vec<_> = idx.postings(apple).unwrap().iter().collect();
        assert_eq!(postings.len(), 1);
        assert_eq!(postings[0].tf, 3);
    }

    #[test]
    fn doc_lengths() {
        let idx = tiny_index();
        assert_eq!(idx.doc_len(crate::DocId(0)), Some(4));
        assert_eq!(idx.doc_len(crate::DocId(2)), Some(3));
        assert_eq!(idx.doc_len(crate::DocId(9)), None);
    }

    #[test]
    fn analyze_query_drops_unknown_terms() {
        let idx = tiny_index();
        assert_eq!(idx.analyze_query("apple zeppelin").len(), 1);
        assert!(idx.analyze_query("zeppelin").is_empty());
    }
}
