//! The reference engine: top-`k` query evaluation the simple way.
//!
//! Term-at-a-time evaluation into a `HashMap` accumulator, then a bounded
//! binary heap over every accumulator — `O(matches · log k)` selection,
//! a different algorithm from the kernel's rank-key selection, so each
//! checks the other. [`SearchEngine`] is deliberately plain: it is the **oracle** every
//! production retrieval path (all of which score through the dense
//! retrieval kernel, `kernel::score_range`) is held to `f64` bit for bit
//! by the equivalence suites. Nothing a deployment runs — the serving
//! path, the §4.1 store build, the log generator's click simulation —
//! retrieves through it.

use crate::document::DocId;
use crate::index::{CollectionStats, InvertedIndex, StatsOverlay, TermStats};
use serpdiv_text::TermId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::collections::HashMap;

/// A retrieval scoring function. [`Dph`](crate::dph::Dph) is the one the
/// product ranks with; the trait is the retrieval kernel's test seam, where
/// the kernel's tests plug in fake models (constant scores, `-0.0` among
/// them) and hold the kernel to [`SearchEngine::with_model`] under each.
pub trait RankingModel {
    /// Score the contribution of one query term occurring `tf` times in a
    /// document of length `doc_len`.
    fn score(&self, tf: u32, doc_len: u32, term: TermStats, coll: CollectionStats) -> f64;

    /// The model specialised to one query term: a function of
    /// `(tf, doc_len)` returning exactly — bit for bit — what
    /// [`score`](Self::score) returns for `term` and `coll`.
    ///
    /// The retrieval kernel asks for it once per query term and calls it
    /// once per posting, so an override can hoist whatever depends only on
    /// the term and the collection out of the posting loop
    /// ([`Dph`](crate::dph::Dph) hoists `N / CF`).
    fn term_scorer(&self, term: TermStats, coll: CollectionStats) -> impl Fn(u32, u32) -> f64
    where
        Self: Sized,
    {
        move |tf, doc_len| self.score(tf, doc_len, term, coll)
    }
}

/// One ranked result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredDoc {
    /// The document.
    pub doc: DocId,
    /// Its retrieval score (higher is better).
    pub score: f64,
}

/// Min-heap entry ordered by `(score, doc)` so the heap root is the weakest
/// kept result; doc id breaks ties deterministically.
#[derive(Debug, PartialEq)]
struct HeapEntry {
    score: f64,
    doc: DocId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap on score; ties broken by *larger* doc id
        // first so smaller ids survive eviction (stable, deterministic).
        other
            .score
            .total_cmp(&self.score)
            .then_with(|| self.doc.cmp(&other.doc))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Query evaluator over an [`InvertedIndex`] with a pluggable model — the
/// reference oracle (see the module docs).
pub struct SearchEngine<'a> {
    index: &'a InvertedIndex,
    model: Box<dyn RankingModel + Send + Sync + 'a>,
}

impl<'a> SearchEngine<'a> {
    /// Engine with the paper's DPH model.
    pub fn new(index: &'a InvertedIndex) -> Self {
        Self::with_model(index, crate::dph::Dph::new())
    }

    /// Engine with a custom ranking model.
    pub fn with_model(
        index: &'a InvertedIndex,
        model: impl RankingModel + Send + Sync + 'a,
    ) -> Self {
        SearchEngine {
            index,
            model: Box::new(model),
        }
    }

    /// The underlying index.
    pub fn index(&self) -> &'a InvertedIndex {
        self.index
    }

    /// Retrieve the top `k` documents for a raw query string.
    pub fn search(&self, query: &str, k: usize) -> Vec<ScoredDoc> {
        let terms = self.index.analyze_query(query);
        self.search_terms(&terms, k)
    }

    /// Retrieve the top `k` documents for pre-analyzed query terms.
    ///
    /// Duplicate query terms contribute multiplicatively (bag-of-words), as
    /// in Terrier: the per-term score is weighted by the query-term count.
    /// Terms are processed in ascending [`TermId`] order, so per-document
    /// floating-point accumulation is bit-for-bit reproducible — the
    /// order the retrieval kernel shares, which is what lets every
    /// production path be bit-identical to this engine.
    pub fn search_terms(&self, terms: &[TermId], k: usize) -> Vec<ScoredDoc> {
        self.accumulate_and_select(terms, k, None)
    }

    /// Like [`search_terms`](Self::search_terms), but every model call
    /// reads statistics through `overlay`: the overlay's collection stats
    /// replace the index's own, and per-term overrides take precedence
    /// (terms without an override keep the index's statistics).
    ///
    /// This is the sealed half of the NRT union-statistics contract: a
    /// sealed index scored under the delta's union overlay produces, for
    /// every sealed document, the exact `f64` bits a from-scratch build
    /// over the union corpus would — same stats, same ascending-term
    /// accumulation order.
    pub fn search_terms_overlaid(
        &self,
        terms: &[TermId],
        k: usize,
        overlay: &StatsOverlay,
    ) -> Vec<ScoredDoc> {
        self.accumulate_and_select(terms, k, Some(overlay))
    }

    /// The reference loop: every posting of every query term, in
    /// [`query_weights`] order, added into its document's hash-map slot
    /// (fresh slots start at `0.0`); then [`top_k`] over all slots.
    fn accumulate_and_select(
        &self,
        terms: &[TermId],
        k: usize,
        overlay: Option<&StatsOverlay>,
    ) -> Vec<ScoredDoc> {
        if terms.is_empty() || k == 0 {
            return Vec::new();
        }
        let coll = overlay.map_or_else(|| self.index.stats(), |o| o.coll());
        let mut acc: HashMap<DocId, f64> = HashMap::new();
        for (term, weight) in query_weights(terms) {
            let stats = overlay
                .and_then(|o| o.term_stats(term))
                .or_else(|| self.index.term_stats(term));
            let (Some(postings), Some(stats)) = (self.index.postings(term), stats) else {
                continue;
            };
            for posting in postings.iter() {
                let doc_len = self.index.doc_len(posting.doc).unwrap_or(0);
                let s = self.model.score(posting.tf, doc_len, stats, coll) * f64::from(weight);
                *acc.entry(posting.doc).or_insert(0.0) += s;
            }
        }
        top_k(
            acc.into_iter().map(|(doc, score)| ScoredDoc { doc, score }),
            k,
        )
    }
}

/// Collapse analyzed query terms into `(term, multiplicity)` pairs sorted
/// by ascending term id — the canonical term-processing order shared by
/// the oracle and the retrieval kernel, so both accumulate each
/// document's score in the same floating-point order.
pub fn query_weights(terms: &[TermId]) -> Vec<(TermId, u32)> {
    let mut sorted = terms.to_vec();
    sorted.sort_unstable();
    sorted
        .chunk_by(|a, b| a == b)
        .map(|run| (run[0], run.len() as u32))
        .collect()
}

/// Select the `k` highest-scoring entries, ordered by decreasing score
/// (ties by increasing doc id), using a bounded min-heap.
pub fn top_k(items: impl Iterator<Item = ScoredDoc>, k: usize) -> Vec<ScoredDoc> {
    if k == 0 {
        return Vec::new();
    }
    let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::with_capacity(k + 1);
    for item in items {
        heap.push(HeapEntry {
            score: item.score,
            doc: item.doc,
        });
        if heap.len() > k {
            heap.pop();
        }
    }
    let mut out: Vec<ScoredDoc> = heap
        .into_iter()
        .map(|e| ScoredDoc {
            doc: e.doc,
            score: e.score,
        })
        .collect();
    out.sort_unstable_by(|a, b| b.score.total_cmp(&a.score).then(a.doc.cmp(&b.doc)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IndexBuilder;
    use crate::document::Document;

    fn index() -> InvertedIndex {
        let mut b = IndexBuilder::new();
        b.add(Document::new(
            0,
            "http://apple.com",
            "apple iphone",
            "apple announces the new iphone with a faster chip",
        ));
        b.add(Document::new(
            1,
            "http://fruit.example",
            "apple fruit",
            "the apple is a sweet edible fruit grown on apple trees",
        ));
        b.add(Document::new(
            2,
            "http://pie.example",
            "apple pie recipe",
            "bake an apple pie with cinnamon and fresh apples",
        ));
        b.add(Document::new(
            3,
            "http://cars.example",
            "electric cars",
            "electric cars and their batteries",
        ));
        b.build()
    }

    #[test]
    fn relevant_documents_rank_first() {
        let idx = index();
        let engine = SearchEngine::new(&idx);
        let hits = engine.search("apple iphone", 10);
        assert!(!hits.is_empty());
        assert_eq!(hits[0].doc, DocId(0));
        // The unrelated car document must not appear.
        assert!(hits.iter().all(|h| h.doc != DocId(3)));
    }

    #[test]
    fn k_limits_results() {
        let idx = index();
        let engine = SearchEngine::new(&idx);
        let hits = engine.search("apple", 2);
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn scores_are_sorted_descending() {
        let idx = index();
        let engine = SearchEngine::new(&idx);
        let hits = engine.search("apple fruit pie", 10);
        for w in hits.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn empty_query_and_zero_k() {
        let idx = index();
        let engine = SearchEngine::new(&idx);
        assert!(engine.search("", 10).is_empty());
        assert!(engine.search("the of", 10).is_empty(), "stopwords only");
        assert!(engine.search("apple", 0).is_empty());
    }

    #[test]
    fn unknown_terms_match_nothing() {
        let idx = index();
        let engine = SearchEngine::new(&idx);
        assert!(engine.search("zeppelin dirigible", 10).is_empty());
    }

    #[test]
    fn top_k_ties_break_by_doc_id() {
        let items = vec![
            ScoredDoc {
                doc: DocId(5),
                score: 1.0,
            },
            ScoredDoc {
                doc: DocId(1),
                score: 1.0,
            },
            ScoredDoc {
                doc: DocId(3),
                score: 1.0,
            },
        ];
        let out = top_k(items.into_iter(), 2);
        assert_eq!(out[0].doc, DocId(1));
        assert_eq!(out[1].doc, DocId(3));
    }

    #[test]
    fn top_k_selects_true_maxima() {
        let items: Vec<ScoredDoc> = (0..1000)
            .map(|i| ScoredDoc {
                doc: DocId(i),
                score: f64::from((i * 7919) % 1000),
            })
            .collect();
        let mut reference = items.clone();
        reference.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.doc.cmp(&b.doc)));
        let out = top_k(items.into_iter(), 10);
        assert_eq!(out, reference[..10].to_vec());
    }
}
