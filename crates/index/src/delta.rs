//! Near-real-time ingest: the delta index and the sealed merge.
//!
//! The serving stack is built on immutable, deploy-time-compiled
//! artifacts; this module is what keeps that strength while documents
//! keep arriving. Freshly ingested documents land in a small immutable
//! [`DeltaIndex`] and are searched *alongside* the sealed collection
//! through [`DeltaRetriever`], which gathers the sealed and delta rankings
//! with the same bit-identical k-way merge the sharded scatter path uses
//! ([`merge_top_k`]). In the background, [`merge_sealed`] folds the delta
//! into a new sealed [`InvertedIndex`] whose bytes are **identical to a
//! from-scratch build** over the concatenated corpus.
//!
//! **One id space.** A delta is what [`IndexBuilder`] freezes into when it
//! is started from the sealed index instead of from nothing: a copy of
//! the sealed vocabulary that the ingested documents extend in
//! first-occurrence order, and document ids that continue the sealed
//! collection's. So every [`TermId`] and [`DocId`] a delta holds —
//! in its postings, in the vectors [`DeltaIndex::surrogate`] emits, in the
//! query terms [`DeltaIndex::analyze_query`] returns — is already the id
//! the merged index will use; nothing is bridged, shifted or re-analyzed,
//! and the merge only appends the delta's postings and forward rows to
//! the sealed ones and hands them to the assembly a build and a decode
//! end in.
//! That the merge equals a from-scratch build is then not a property two
//! loops have to be tested into sharing: the documents went through the
//! one builder loop either way.
//!
//! **Scoring honesty.** The delta carries a union statistics overlay
//! ([`StatsOverlay`]) — the union document count, token count, average
//! length and the union per-term frequencies of every term the delta
//! touches, the very numbers [`merge_sealed`] seals — and *both* sides
//! score against it: the sealed retrieval layer through
//! [`Retriever::retrieve_terms_overlaid`], the delta through
//! [`DeltaIndex::retrieve_union`]. A [`DeltaRetriever`] page is therefore
//! `f64`-bit-identical to a from-scratch build over the union corpus at
//! every instant — the same oracle discipline every other retrieval path
//! in this workspace holds — not merely after the background merge. A
//! delta document's snippet surrogate is read from the forward rows the
//! delta's builder wrote, by the function a sealed index's forward view
//! runs, with IDF weights from the union statistics: entry for entry the
//! vector the merged generation will compute for it, with no text
//! touched on the request path.

use crate::builder::{IndexBuilder, Segment};
use crate::document::{DocId, Document};
use crate::dph::Dph;
use crate::forward::Rows;
use crate::index::{CollectionStats, InvertedIndex, StatsOverlay, TermStats};
use crate::kernel::{score_range, RangeSource};
use crate::postings::{PostingsBuilder, PostingsList};
use crate::retriever::{Retrieval, Retriever};
use crate::search::{query_weights, ScoredDoc};
use crate::sharded::merge_top_k;
use crate::vector::{idf_weight, SparseVector};
use serpdiv_text::{Analyzer, TermId};
use std::sync::Arc;

/// An immutable index over documents ingested since the collection was
/// last sealed, in the id space of the index they will be merged into:
/// document ids continue the sealed collection's (`base_docs..base_docs +
/// len`), term ids are the sealed vocabulary's, extended by the delta's
/// new terms in first-occurrence order. A union [`StatsOverlay`] is
/// maintained so both the sealed and the delta side rank with post-merge
/// statistics before the merge happens.
#[derive(Debug)]
pub struct DeltaIndex {
    /// Documents in the sealed collection the delta extends (== the id of
    /// the delta's first document).
    base_docs: u32,
    /// What a builder extending the sealed index froze the ingested
    /// documents into.
    fresh: Segment,
    /// Union (sealed + delta) collection stats plus the union per-term
    /// stats of every term occurring in the delta. Terms the delta never
    /// touches keep their sealed statistics, which *are* the union
    /// statistics — the overlay's fallback is exact.
    overlay: StatsOverlay,
}

impl DeltaIndex {
    /// Build a delta over `docs`, extending a sealed `base` collection.
    ///
    /// # Panics
    /// Panics unless the document ids are dense and continue the base
    /// collection exactly (`base.num_docs, base.num_docs + 1, …`) — a gap
    /// or overlap would silently corrupt the global id space every layer
    /// above relies on.
    pub fn build(base: &InvertedIndex, docs: Vec<Document>) -> Self {
        let mut builder = IndexBuilder::extending(base);
        for doc in docs {
            builder.add(doc);
        }
        let fresh = builder.freeze();

        let sealed = base.stats();
        let coll = CollectionStats::of(
            sealed.num_docs + fresh.docs.len() as u64,
            sealed.num_tokens + fresh.num_tokens,
        );
        let touched = fresh
            .term_stats
            .iter()
            .enumerate()
            .filter(|(_, ts)| ts.doc_freq > 0)
            .map(|(t, ts)| {
                let term = TermId(t as u32);
                let before = base.term_stats(term).unwrap_or(TermStats {
                    doc_freq: 0,
                    coll_freq: 0,
                });
                let union = TermStats {
                    doc_freq: before.doc_freq + ts.doc_freq,
                    coll_freq: before.coll_freq + ts.coll_freq,
                };
                (term, union)
            })
            .collect();

        DeltaIndex {
            base_docs: u32::try_from(sealed.num_docs).expect("corpus fits u32 ids"),
            fresh,
            overlay: StatsOverlay::new(coll, touched),
        }
    }

    /// Number of documents in the sealed collection this delta extends.
    pub fn base_docs(&self) -> u32 {
        self.base_docs
    }

    /// Number of ingested documents.
    pub fn len(&self) -> usize {
        self.fresh.docs.len()
    }

    /// True when nothing has been ingested.
    pub fn is_empty(&self) -> bool {
        self.fresh.docs.is_empty()
    }

    /// The ingested documents (global ids, id order).
    pub fn docs(&self) -> &[Document] {
        &self.fresh.docs
    }

    /// The union statistics overlay: union collection stats plus the
    /// union per-term stats of every term the delta touches.
    pub fn overlay(&self) -> &StatsOverlay {
        &self.overlay
    }

    /// Union (sealed + delta) collection statistics — the ones
    /// [`merge_sealed`] seals.
    pub fn union_stats(&self) -> CollectionStats {
        self.overlay.coll()
    }

    /// Analyze raw query text against the extended vocabulary: sealed ids
    /// for terms the sealed collection knows, the ids the merge will seal
    /// for terms only the delta has seen, nothing for terms unknown to
    /// both — exactly what the merged index's `analyze_query` will do. A
    /// query term that arrived *with* the delta therefore contributes its
    /// df before the merge.
    pub fn analyze_query(&self, query: &str) -> Vec<TermId> {
        Analyzer::analyze_known(query, &self.fresh.vocab)
    }

    /// Top-`k` delta documents for `terms`, scored with the **union**
    /// statistics overlay (DPH, ascending-term-id accumulation order) —
    /// the delta half of the bit-identity contract: every score equals,
    /// bit for bit, what a from-scratch build over the union corpus
    /// computes for the same document.
    pub fn retrieve_union(&self, terms: &[TermId], k: usize) -> Vec<ScoredDoc> {
        score_range(self, &query_weights(terms), &Dph::new(), k)
    }

    /// The query-biased snippet surrogate of delta document `doc` over a
    /// `window` of raw body tokens (the zero vector for a document outside
    /// the delta), read from the forward rows the delta's builder wrote
    /// and weighted with the union statistics: entry for entry the vector
    /// the merged index yields for the same document and `query_terms`,
    /// through its forward view or [`SparseVector::from_text`] alike.
    pub fn surrogate(&self, doc: DocId, query_terms: &[TermId], window: usize) -> SparseVector {
        let Some(slot) = doc.0.checked_sub(self.base_docs) else {
            return SparseVector::default();
        };
        // Every term of a delta document is a term the delta touches, so
        // the overlay alone carries its union statistics.
        let num_docs = self.overlay.coll().num_docs;
        self.fresh
            .rows
            .surrogate(slot as usize, query_terms, window, |t| {
                idf_weight(num_docs, self.overlay.term_stats(TermId(t)))
            })
    }
}

/// The delta as the retrieval kernel sees it: one more contiguous doc-id
/// range, scored against the union overlay — which carries every term
/// the delta's postings can hold.
impl RangeSource for DeltaIndex {
    fn coll(&self) -> CollectionStats {
        self.overlay.coll()
    }

    fn term_stats(&self, t: TermId) -> Option<TermStats> {
        self.overlay.term_stats(t)
    }

    fn range_postings(&self, t: TermId) -> Option<&PostingsList> {
        self.fresh.postings.get(t.index())
    }

    fn base(&self) -> u32 {
        self.base_docs
    }

    fn doc_lens(&self) -> &[u32] {
        &self.fresh.doc_lens
    }
}

/// A [`Retriever`] that searches a sealed collection and a [`DeltaIndex`]
/// side by side, gathering the union top-`k` with the same k-way merge
/// the sharded scatter path uses — the delta is just one more shard.
///
/// Queries are analyzed once, against the delta's extended vocabulary; the
/// sealed side scores through [`Retriever::retrieve_terms_overlaid`] under
/// the delta's union [`StatsOverlay`], the delta side through
/// [`DeltaIndex::retrieve_union`]. Because the two sides partition the
/// union document space, accumulate each document's terms in the same
/// ascending-term-id order against the same statistics, and merge under
/// the kernel's exact `(score desc, doc asc)` total order, the gathered
/// page is `f64`-bit-identical to a from-scratch build over the union
/// corpus.
///
/// Completeness mirrors the sealed retriever's: the in-process delta can
/// never lose a shard, so a partial gather can only come from below.
pub struct DeltaRetriever {
    sealed: Arc<dyn Retriever>,
    delta: Arc<DeltaIndex>,
}

impl DeltaRetriever {
    /// Combine `sealed` (the deployed retrieval layer over the index the
    /// delta was built against) with a delta over freshly ingested
    /// documents.
    ///
    /// `None` when `sealed` cannot score under the delta's union overlay
    /// ([`Retriever::retrieve_terms_overlaid`] answers `None`): the
    /// bit-identity contract cannot hold over it, so no such retriever is
    /// ever built. [`InvertedIndex`] and
    /// [`ShardedIndex`](crate::sharded::ShardedIndex) can.
    pub fn new(sealed: Arc<dyn Retriever>, delta: Arc<DeltaIndex>) -> Option<Self> {
        sealed.retrieve_terms_overlaid(&[], 0, delta.overlay(), None)?;
        Some(DeltaRetriever { sealed, delta })
    }

    /// The delta being searched alongside the sealed collection.
    pub fn delta(&self) -> &Arc<DeltaIndex> {
        &self.delta
    }
}

impl Retriever for DeltaRetriever {
    /// The delta's extended-vocabulary analysis
    /// ([`DeltaIndex::analyze_query`]): a query term that arrived with the
    /// delta keeps the id the merge will seal for it.
    fn query_terms(&self, query: &str) -> Vec<TermId> {
        self.delta.analyze_query(query)
    }

    /// Score both sides of the union under the shared overlay and gather;
    /// `budget_us` bounds the sealed side (the in-process delta has no
    /// cancellation point). Delta-only term ids are harmless on the
    /// sealed side: the sealed postings simply do not have them, so they
    /// contribute nothing there — as in the merged index, where their
    /// postings hold only delta documents.
    fn retrieve_terms_within(
        &self,
        terms: &[TermId],
        k: usize,
        budget_us: Option<u64>,
    ) -> Retrieval {
        let sealed = self
            .sealed
            .retrieve_terms_overlaid(terms, k, self.delta.overlay(), budget_us)
            .expect("the sealed retriever honoured the overlay when this retriever was built");
        let hits = merge_top_k(vec![sealed.hits, self.delta.retrieve_union(terms, k)], k);
        Retrieval {
            hits,
            complete: sealed.complete,
        }
    }
}

/// Fold a delta into its sealed base, producing a new sealed
/// [`InvertedIndex`] **bit-identical to a from-scratch build** over the
/// concatenated document stream (`IndexBuilder` over base docs then delta
/// docs): same vocabulary order, same postings bytes, same statistics —
/// so `merge_sealed(base, delta).to_bytes()` equals the from-scratch
/// `to_bytes()`.
///
/// Nothing is analyzed here. The delta was frozen by a builder that
/// extended `base`, so its vocabulary, lengths and statistics are the
/// merged ones already, and each term's postings are the sealed list
/// with the delta's appended — delta ids are strictly larger than every
/// sealed id, so appending preserves the ascending-doc invariant, and a
/// list the delta did not extend is shared (an `Arc` bump), not
/// re-encoded into the same bytes. The merged index's forward rows are
/// the base's followed by the delta's, which its builder wrote in the
/// merged term ids, and the index is put together by the one assembly
/// a build and a decode end in
/// (`InvertedIndex::assemble`), which
/// derives the statistics and the IDF and DPH tables: the bytes a
/// from-scratch build writes, whether the base was built or decoded
/// (its image carries its rows).
pub fn merge_sealed(base: &InvertedIndex, delta: &DeltaIndex) -> InvertedIndex {
    assert_eq!(
        u64::from(delta.base_docs()),
        base.stats().num_docs,
        "delta was built against a different sealed base"
    );
    let fresh = &delta.fresh;
    let docs = base.store.iter().chain(&fresh.docs).cloned().collect();
    let mut doc_lens = base.doc_lens.clone();
    doc_lens.extend_from_slice(&fresh.doc_lens);

    let mut postings = Vec::with_capacity(fresh.postings.len());
    let mut term_stats = Vec::with_capacity(fresh.postings.len());
    for (t, appended) in fresh.postings.iter().enumerate() {
        let term = TermId(t as u32);
        match base.postings(term) {
            // A list the delta did not extend is the sealed one: share it.
            Some(sealed) if appended.is_empty() => postings.push(sealed.clone()),
            sealed => {
                let sealed = sealed.into_iter().flat_map(PostingsList::iter);
                let mut pb = PostingsBuilder::new();
                for p in sealed.chain(appended.iter()) {
                    pb.push(p.doc, p.tf);
                }
                postings.push(pb.build());
            }
        }
        term_stats.push(
            delta
                .overlay
                .term_stats(term)
                .or_else(|| base.term_stats(term))
                .expect("a term of the extended vocabulary is sealed or fresh"),
        );
    }

    // The base's forward rows, then the delta's (already in the merged
    // ids).
    let mut rows = Rows::default();
    rows.reserve_exact([base.forward().rows(), &fresh.rows]);
    rows.append(base.forward().rows(), |t| t);
    rows.append(&fresh.rows, |t| t);
    InvertedIndex::assemble(Segment {
        vocab: fresh.vocab.clone(),
        docs,
        postings,
        term_stats,
        doc_lens,
        num_tokens: delta.overlay.coll().num_tokens,
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IndexBuilder;
    use crate::index::tests::counted_parts;
    use crate::snippet::SnippetGenerator;

    fn doc(i: u32, topic: &str) -> Document {
        let body = match topic {
            "tech" => "apple iphone smartphone review chip battery display",
            "food" => "apple fruit orchard sweet harvest vitamin juice",
            _ => "weather forecast rain cloud wind storm pressure",
        };
        Document::new(
            i,
            format!("http://{topic}/{i}"),
            format!("{topic} {i}"),
            body,
        )
    }

    fn base_corpus() -> Vec<Document> {
        (0..12u32)
            .map(|i| doc(i, ["tech", "food", "misc"][(i % 3) as usize]))
            .collect()
    }

    fn delta_corpus(base_docs: u32, n: u32) -> Vec<Document> {
        (0..n)
            .map(|i| doc(base_docs + i, ["food", "tech"][(i % 2) as usize]))
            .collect()
    }

    fn build(docs: &[Document]) -> InvertedIndex {
        let mut b = IndexBuilder::new();
        for d in docs {
            b.add(d.clone());
        }
        b.build()
    }

    /// The union oracle: a from-scratch build over base + delta docs.
    fn union_build(base_docs: &[Document], fresh: &[Document]) -> InvertedIndex {
        let mut all = base_docs.to_vec();
        all.extend(fresh.iter().cloned());
        build(&all)
    }

    fn assert_bit_identical(got: &[ScoredDoc], expect: &[ScoredDoc], what: &str) {
        assert_eq!(got.len(), expect.len(), "{what}");
        for (g, e) in got.iter().zip(expect) {
            assert_eq!(g.doc, e.doc, "{what}");
            assert_eq!(
                g.score.to_bits(),
                e.score.to_bits(),
                "{what}: {} vs {}",
                g.score,
                e.score
            );
        }
    }

    #[test]
    fn merge_is_bit_identical_to_from_scratch() {
        let base_docs = base_corpus();
        let base = build(&base_docs);
        let fresh = delta_corpus(12, 6);
        let delta = DeltaIndex::build(&base, fresh.clone());
        let merged = merge_sealed(&base, &delta);

        let scratch = union_build(&base_docs, &fresh);

        // The strongest claim first: the serialized images are equal byte
        // for byte, so every downstream consumer (artifact export, shard
        // partitioning) sees a merge and a rebuild as the same index.
        assert_eq!(merged.to_bytes(), scratch.to_bytes());
        // Those images hold the forward rows: the merge appended the
        // delta's to the base's. So did a merge over a decoded base, whose
        // image carried its rows; both views weigh with the IDF of the
        // merged statistics.
        let decoded = InvertedIndex::from_bytes(&base.to_bytes()).unwrap();
        let merged_decoded = merge_sealed(&decoded, &delta);
        assert_eq!(merged_decoded.to_bytes(), scratch.to_bytes());
        assert_eq!(*merged.forward(), *scratch.forward());
        assert_eq!(*merged_decoded.forward(), *scratch.forward());
        // What the images do not hold, the merges appended or counted
        // to the from-scratch bits too.
        assert_eq!(counted_parts(&merged), counted_parts(&scratch));
        assert_eq!(counted_parts(&merged_decoded), counted_parts(&scratch));
        assert_eq!(counted_parts(&decoded), counted_parts(&base));
        // And retrieval is bit-identical (f64 score bits).
        for query in ["apple", "apple iphone", "weather forecast", "orchard"] {
            let a = Retriever::retrieve(&merged, query, 10);
            let b = Retriever::retrieve(&scratch, query, 10);
            assert_bit_identical(&a, &b, query);
        }
        // A sealed list the delta did not extend is shared, not re-encoded;
        // an extended one is a new list.
        let mut shared = 0;
        for t in 0..base.num_terms() {
            let term = TermId(t as u32);
            let same_bytes = std::ptr::eq(
                merged.postings(term).unwrap().raw_bytes(),
                base.postings(term).unwrap().raw_bytes(),
            );
            assert_eq!(same_bytes, delta.fresh.postings[t].is_empty(), "term {t}");
            shared += usize::from(same_bytes);
        }
        assert!(0 < shared && shared < base.num_terms(), "{shared} shared");
    }

    #[test]
    fn merge_of_empty_delta_is_identity() {
        let base = build(&base_corpus());
        let delta = DeltaIndex::build(&base, Vec::new());
        assert!(delta.is_empty());
        let merged = merge_sealed(&base, &delta);
        assert_eq!(merged.to_bytes(), base.to_bytes());
        for t in 0..base.num_terms() {
            let term = TermId(t as u32);
            assert!(std::ptr::eq(
                merged.postings(term).unwrap().raw_bytes(),
                base.postings(term).unwrap().raw_bytes(),
            ));
        }
    }

    #[test]
    fn union_overlay_matches_the_merged_statistics_exactly() {
        let base_docs = base_corpus();
        let base = build(&base_docs);
        let fresh = delta_corpus(12, 5);
        let delta = DeltaIndex::build(&base, fresh.clone());
        let merged = merge_sealed(&base, &delta);

        // Collection stats: the same integer sums and the same single
        // division, so even the f64 average is bit-equal.
        let (u, m) = (delta.union_stats(), merged.stats());
        assert_eq!(u.num_docs, m.num_docs);
        assert_eq!(u.num_tokens, m.num_tokens);
        assert_eq!(u.avg_doc_len.to_bits(), m.avg_doc_len.to_bits());

        // Every merged term's stats come out of the overlay (delta terms)
        // or the sealed index (untouched terms) — never a third value.
        for t in 0..merged.num_terms() {
            let term = TermId(t as u32);
            let expect = merged.term_stats(term).unwrap();
            let got = delta
                .overlay()
                .term_stats(term)
                .or_else(|| base.term_stats(term))
                .unwrap();
            assert_eq!(got, expect, "term {t}");
        }
    }

    #[test]
    fn delta_docs_are_searchable_under_global_ids() {
        let base = build(&base_corpus());
        let delta = DeltaIndex::build(&base, delta_corpus(12, 4));
        let terms = delta.analyze_query("apple fruit orchard");
        let hits = delta.retrieve_union(&terms, 10);
        assert!(!hits.is_empty());
        for h in &hits {
            assert!(h.doc.0 >= 12, "delta hits carry global ids: {:?}", h.doc);
        }
        // The documents behind those ids are the delta's own, and only
        // they have a surrogate here.
        assert!(!delta.surrogate(DocId(12), &terms, 30).is_zero());
        assert!(!delta.surrogate(DocId(15), &terms, 30).is_zero());
        assert!(delta.surrogate(DocId(16), &terms, 30).is_zero());
        assert!(delta.surrogate(DocId(3), &terms, 30).is_zero());
    }

    /// A vector's entries and norm as bits.
    fn vector_bits(v: &SparseVector) -> (Vec<(u32, u32)>, u32) {
        let entries = v.entries().iter().map(|&(t, w)| (t.0, w.to_bits()));
        (entries.collect(), v.norm().to_bits())
    }

    #[test]
    fn delta_surrogates_match_the_text_oracle_over_the_merged_index() {
        let base = build(&base_corpus());
        let mut fresh = delta_corpus(12, 2);
        let long = format!(
            "quantum qubit {} apple silicon",
            ["orchard harvest juice"; 12].join(" ")
        );
        for (title, body) in [
            ("quantum computer", long.as_str()),
            ("Apple quantum", ""),
            ("", ""),
            ("", "the of and is"),
        ] {
            let id = 12 + fresh.len() as u32;
            fresh.push(Document::new(id, format!("http://new/{id}"), title, body));
        }
        let delta = DeltaIndex::build(&base, fresh);
        let merged = merge_sealed(&base, &delta);
        assert!(
            base.analyze_query("quantum").is_empty(),
            "a delta-only term"
        );

        // The text oracle over the merged index: the snippet string of a
        // delta document, analyzed and weighted with the merged statistics
        // — the zero vector for every id the delta does not hold.
        for query in ["apple", "quantum", "quantum apple", "qubit orchard", ""] {
            let qterms = delta.analyze_query(query);
            for window in [1, 3, 30, 200] {
                let snippets = SnippetGenerator::with_window(window);
                for id in [0, 11, 12, 13, 14, 15, 16, 17, 18, 40] {
                    let doc = DocId(id);
                    let expect = match merged.store().get(doc).filter(|_| id >= 12) {
                        Some(d) => SparseVector::from_text(
                            &snippets.snippet(d, &qterms, merged.vocab()),
                            &merged,
                        ),
                        None => SparseVector::default(),
                    };
                    assert_eq!(
                        vector_bits(&delta.surrogate(doc, &qterms, window)),
                        vector_bits(&expect),
                        "doc {id} query {query:?} window {window}"
                    );
                }
            }
        }
    }

    #[test]
    fn delta_retriever_merges_sealed_and_fresh() {
        let base = Arc::new(build(&base_corpus()));
        let delta = Arc::new(DeltaIndex::build(&base, delta_corpus(12, 4)));
        let retriever = DeltaRetriever::new(base.clone(), delta).unwrap();
        let hits = retriever.retrieve("apple", 20);
        let sealed_hits = hits.iter().filter(|h| h.doc.0 < 12).count();
        let fresh_hits = hits.iter().filter(|h| h.doc.0 >= 12).count();
        assert!(
            sealed_hits > 0 && fresh_hits > 0,
            "{sealed_hits}/{fresh_hits}"
        );
        // Deterministic gather order: score desc, doc asc on ties.
        for w in hits.windows(2) {
            assert!(
                w[0].score > w[1].score || (w[0].score == w[1].score && w[0].doc.0 < w[1].doc.0)
            );
        }
        let status = retriever.retrieve_with_status_within("apple", 20, None);
        assert!(status.complete);
        assert_eq!(status.hits, hits);
    }

    /// A sealed retriever that scores through `inner` and records every
    /// budget it is handed; `overlaid: false` keeps the trait's default
    /// answer to an overlay.
    struct Recording {
        inner: Arc<InvertedIndex>,
        overlaid: bool,
        budgets: std::sync::Mutex<Vec<Option<u64>>>,
    }

    impl Retriever for Recording {
        fn query_terms(&self, query: &str) -> Vec<TermId> {
            self.inner.query_terms(query)
        }

        fn retrieve_terms_within(
            &self,
            terms: &[TermId],
            k: usize,
            budget_us: Option<u64>,
        ) -> Retrieval {
            self.inner.retrieve_terms_within(terms, k, budget_us)
        }

        fn retrieve_terms_overlaid(
            &self,
            terms: &[TermId],
            k: usize,
            overlay: &StatsOverlay,
            budget_us: Option<u64>,
        ) -> Option<Retrieval> {
            self.budgets.lock().unwrap().push(budget_us);
            if !self.overlaid {
                return None;
            }
            self.inner
                .retrieve_terms_overlaid(terms, k, overlay, budget_us)
        }
    }

    #[test]
    fn a_budget_reaches_the_sealed_retriever() {
        let base = Arc::new(build(&base_corpus()));
        let delta = Arc::new(DeltaIndex::build(&base, delta_corpus(12, 4)));
        let sealed = Arc::new(Recording {
            inner: base.clone(),
            overlaid: true,
            budgets: Default::default(),
        });
        let retriever = DeltaRetriever::new(sealed.clone(), delta.clone()).unwrap();
        let within = retriever.retrieve_with_status_within("apple", 20, Some(1_234));
        let unbounded = retriever.retrieve_with_status_within("apple", 20, None);
        assert_eq!(within, unbounded, "an in-process budget changes no page");
        assert_eq!(
            *sealed.budgets.lock().unwrap(),
            [None, Some(1_234), None],
            "the constructor's question, then each request's own budget"
        );
    }

    #[test]
    fn a_sealed_retriever_that_cannot_honour_the_overlay_is_refused() {
        let base = Arc::new(build(&base_corpus()));
        let delta = Arc::new(DeltaIndex::build(&base, delta_corpus(12, 4)));
        let sealed = Arc::new(Recording {
            inner: base,
            overlaid: false,
            budgets: Default::default(),
        });
        assert!(DeltaRetriever::new(sealed.clone(), delta).is_none());
        assert_eq!(sealed.budgets.lock().unwrap().len(), 1, "asked once");
    }

    #[test]
    fn delta_retriever_is_bit_identical_to_from_scratch_union_build() {
        let base_docs = base_corpus();
        let fresh = delta_corpus(12, 4);
        let base = Arc::new(build(&base_docs));
        let delta = Arc::new(DeltaIndex::build(&base, fresh.clone()));
        let retriever = DeltaRetriever::new(base.clone(), delta).unwrap();
        let scratch = union_build(&base_docs, &fresh);

        // Every page — sealed-heavy, delta-heavy, mixed, sealed-only —
        // must match the from-scratch union build bit for bit. This is
        // the contract that used to hold only *after* the merge.
        for query in [
            "apple",
            "apple iphone",
            "apple fruit orchard",
            "weather forecast",
            "orchard sweet harvest",
        ] {
            for k in [1, 3, 10, 30] {
                let got = retriever.retrieve(query, k);
                let expect = Retriever::retrieve(&scratch, query, k);
                assert_bit_identical(&got, &expect, &format!("{query} k={k}"));
            }
        }
    }

    #[test]
    fn sealed_only_queries_rank_with_union_statistics() {
        let base_docs = base_corpus();
        let fresh = delta_corpus(12, 4);
        let base = Arc::new(build(&base_docs));
        let delta = Arc::new(DeltaIndex::build(&base, fresh.clone()));
        let retriever = DeltaRetriever::new(base.clone(), delta).unwrap();
        // No delta document mentions the weather vocabulary, so every hit
        // is sealed — but the *scores* must still be the union build's
        // (the delta changed num_docs and avg_doc_len for everyone), not
        // the sealed index's own.
        let scratch = union_build(&base_docs, &fresh);
        let got = retriever.retrieve("weather forecast", 10);
        let expect = Retriever::retrieve(&scratch, "weather forecast", 10);
        assert!(got.iter().all(|h| h.doc.0 < 12), "sealed-only query");
        assert_bit_identical(&got, &expect, "weather forecast");
    }

    #[test]
    fn delta_only_query_terms_contribute_df_before_the_merge() {
        // Regression for the silently-dropped-terms bug: "quantum" exists
        // only in the delta, so sealed-vocabulary analysis loses it and
        // the old path returned nothing for it. Union analysis must keep
        // it, rank the delta document, and agree with the from-scratch
        // union build bit for bit — including on a mixed query where the
        // term's df shifts every matching document's score.
        let base_docs = base_corpus();
        let mut fresh = delta_corpus(12, 2);
        fresh.push(Document::new(
            14,
            "http://tech/14",
            "quantum computer",
            "quantum computer qubit entanglement apple silicon",
        ));
        let base = Arc::new(build(&base_docs));
        let delta = Arc::new(DeltaIndex::build(&base, fresh.clone()));
        let retriever = DeltaRetriever::new(base.clone(), delta.clone()).unwrap();
        let scratch = union_build(&base_docs, &fresh);

        // The term is genuinely unknown to the sealed vocabulary…
        assert!(base.analyze_query("quantum").is_empty());
        // …but union analysis resolves it to the id the merge will assign.
        let union_terms = delta.analyze_query("quantum");
        assert_eq!(union_terms.len(), 1);
        assert!(union_terms[0].index() >= base.vocab().len());

        for query in ["quantum", "quantum apple", "qubit entanglement apple"] {
            let got = retriever.retrieve(query, 10);
            let expect = Retriever::retrieve(&scratch, query, 10);
            assert!(!got.is_empty(), "{query}: delta-only terms must match");
            assert_bit_identical(&got, &expect, query);
        }
    }

    #[test]
    fn retrieve_terms_accepts_base_vocabulary_ids() {
        let base = Arc::new(build(&base_corpus()));
        let delta = Arc::new(DeltaIndex::build(&base, delta_corpus(12, 4)));
        let terms = base.analyze_query("apple orchard");
        assert!(!terms.is_empty());
        // Base term ids are union term ids (the sealed vocabulary is a
        // prefix of the union vocabulary), so they address the delta's
        // postings directly.
        let hits = delta.retrieve_union(&terms, 10);
        assert!(!hits.is_empty());
        assert!(hits.iter().all(|h| h.doc.0 >= 12));
    }

    #[test]
    #[should_panic(expected = "densely")]
    fn gapped_delta_ids_are_rejected() {
        let base = build(&base_corpus());
        let _ = DeltaIndex::build(&base, vec![doc(14, "tech")]);
    }
}
