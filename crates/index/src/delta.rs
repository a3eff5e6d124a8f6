//! Near-real-time ingest: the delta index and the sealed merge.
//!
//! The serving stack is built on immutable, deploy-time-compiled
//! artifacts; this module is what keeps that strength while documents
//! keep arriving. Freshly ingested documents land in a small immutable
//! [`DeltaIndex`] — its own analyzed mini-index over just the new
//! documents — and are searched *alongside* the sealed collection through
//! [`DeltaRetriever`], which gathers the sealed and delta rankings with
//! the same bit-identical k-way merge the sharded scatter path uses
//! ([`merge_top_k`]). In the background, [`merge_sealed`] folds the delta
//! into a new sealed [`InvertedIndex`] whose bytes are **identical to a
//! from-scratch build** over the concatenated corpus — analysis runs only
//! over the delta documents; the sealed postings are re-encoded, never
//! re-tokenized.
//!
//! Scoring honesty: the delta carries a **union statistics overlay**
//! ([`StatsOverlay`]) — the union document count, token count, average
//! length and the union per-term frequencies of every term the delta
//! touches, computed with the exact integer additions [`merge_sealed`]
//! performs — and *both* sides score against it: the sealed retrieval
//! layer through [`Retriever::retrieve_terms_overlaid`], the delta
//! through [`DeltaIndex::retrieve_union`]. Query terms are analyzed into
//! the **union** term-id space (the sealed vocabulary extended by the
//! delta's new terms in first-occurrence order, exactly the ids the merge
//! will assign), so even terms the sealed collection has never seen
//! contribute their df. A [`DeltaRetriever`] page is therefore
//! `f64`-bit-identical to a from-scratch build over the union corpus at
//! every instant — the same oracle discipline every other retrieval path
//! in this workspace holds — not merely after the background merge.

use crate::document::{DocId, Document};
use crate::dph::Dph;
use crate::index::{CollectionStats, InvertedIndex, StatsOverlay, TermStats};
use crate::kernel::{score_range, RangeSource};
use crate::postings::{PostingsBuilder, PostingsList};
use crate::retriever::{Retrieval, Retriever};
use crate::search::{query_weights, ScoredDoc};
use crate::sharded::merge_top_k;
use serpdiv_text::{TermId, Vocabulary};
use std::collections::HashMap;
use std::sync::Arc;

/// An immutable index over documents ingested since the collection was
/// last sealed.
///
/// Document ids are **global**: the delta continues the sealed
/// collection's dense id space (`base_docs..base_docs + len`). Internally
/// the documents are re-addressed to a dense local id space and indexed
/// with the base collection's analyzer, so query analysis matches the
/// sealed index's token for token. Term ids are bridged into the
/// **union** id space (sealed ids, then delta-new terms in
/// first-occurrence order — the ids [`merge_sealed`] will assign), and a
/// union [`StatsOverlay`] is maintained so both the sealed and the delta
/// side rank with post-merge statistics before the merge happens.
#[derive(Debug)]
pub struct DeltaIndex {
    /// Documents in the sealed collection the delta extends (== the
    /// global id of the delta's first document).
    base_docs: u32,
    /// The ingested documents, global ids, in id order — kept verbatim so
    /// [`merge_sealed`] can re-analyze exactly what was ingested.
    docs: Vec<Document>,
    /// Local mini-index over the delta documents (local ids `0..len`).
    local: InvertedIndex,
    /// Union term id of each local term, indexed by local [`TermId`]:
    /// the sealed id when the base vocabulary knows the term, otherwise
    /// `base_vocab_len + n` in first-occurrence order — exactly the id
    /// the merge's re-interning will assign.
    local_to_union: Vec<TermId>,
    /// The inverse bridge, for scoring union-space query terms against
    /// the local postings.
    union_to_local: HashMap<TermId, TermId>,
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
        let base_docs = u32::try_from(base.stats().num_docs).expect("corpus fits u32 ids");
        for (i, doc) in docs.iter().enumerate() {
            assert_eq!(
                doc.id.0,
                base_docs + i as u32,
                "delta documents must continue the sealed id space densely"
            );
        }
        let mut builder = crate::builder::IndexBuilder::with_analyzer(base.analyzer().clone());
        for (i, doc) in docs.iter().enumerate() {
            builder.add(Document::new(
                i as u32,
                doc.url.clone(),
                doc.title.clone(),
                doc.body.clone(),
            ));
        }
        let local = builder.build();

        // Bridge local term ids into the union space. Local ids are
        // assigned by first occurrence over the delta token stream; the
        // merge interns the same stream into a copy of the base
        // vocabulary, so among terms the base does not know, ascending
        // local id *is* the merge's assignment order.
        let base_vocab_len = base.vocab().len();
        let mut local_to_union = Vec::with_capacity(local.vocab().len());
        let mut next_new = u32::try_from(base_vocab_len).expect("vocabulary fits u32 ids");
        for lt in 0..local.vocab().len() {
            let term = local
                .vocab()
                .term(TermId(lt as u32))
                .expect("local vocabulary is dense");
            let union = base.vocab().id(term).unwrap_or_else(|| {
                let t = TermId(next_new);
                next_new += 1;
                t
            });
            local_to_union.push(union);
        }
        let union_to_local: HashMap<TermId, TermId> = local_to_union
            .iter()
            .enumerate()
            .map(|(lt, &u)| (u, TermId(lt as u32)))
            .collect();

        // Union statistics, with the merge's exact integer arithmetic:
        // the merge adds each delta document's token count to the sealed
        // total and divides once at the end, and sums df/cf over base
        // postings plus the delta extension runs.
        let (bs, ls) = (base.stats(), local.stats());
        let num_docs = bs.num_docs + ls.num_docs;
        let num_tokens = bs.num_tokens + ls.num_tokens;
        let avg_doc_len = if num_docs == 0 {
            0.0
        } else {
            num_tokens as f64 / num_docs as f64
        };
        let overrides = local_to_union
            .iter()
            .enumerate()
            .map(|(lt, &u)| {
                let lts = local
                    .term_stats(TermId(lt as u32))
                    .expect("local term stats are dense");
                let bts = base.term_stats(u).unwrap_or(TermStats {
                    doc_freq: 0,
                    coll_freq: 0,
                });
                (
                    u,
                    TermStats {
                        doc_freq: bts.doc_freq + lts.doc_freq,
                        coll_freq: bts.coll_freq + lts.coll_freq,
                    },
                )
            })
            .collect();
        let overlay = StatsOverlay::new(
            CollectionStats {
                num_docs,
                num_tokens,
                avg_doc_len,
            },
            overrides,
        );

        DeltaIndex {
            base_docs,
            docs,
            local,
            local_to_union,
            union_to_local,
            overlay,
        }
    }

    /// Number of documents in the sealed collection this delta extends.
    pub fn base_docs(&self) -> u32 {
        self.base_docs
    }

    /// Number of ingested documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// True when nothing has been ingested.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// The ingested documents (global ids, id order).
    pub fn docs(&self) -> &[Document] {
        &self.docs
    }

    /// The local mini-index (local ids `0..len`) — the substrate for
    /// delta-document snippet surrogates.
    pub fn local(&self) -> &InvertedIndex {
        &self.local
    }

    /// Map a global document id into the delta's local id space (`None`
    /// for documents outside the delta).
    pub fn local_id(&self, doc: DocId) -> Option<DocId> {
        let local = doc.0.checked_sub(self.base_docs)?;
        (usize::try_from(local).unwrap() < self.docs.len()).then_some(DocId(local))
    }

    /// The union statistics overlay: union collection stats plus the
    /// union per-term stats of every term the delta touches.
    pub fn overlay(&self) -> &StatsOverlay {
        &self.overlay
    }

    /// Union (sealed + delta) collection statistics — bit-identical to
    /// what [`merge_sealed`] will compute.
    pub fn union_stats(&self) -> CollectionStats {
        self.overlay.coll()
    }

    /// Analyze raw query text into **union** term ids: sealed ids for
    /// terms the base vocabulary knows, bridged delta ids for terms only
    /// the delta has seen. Terms unknown to both are dropped — exactly
    /// what the merged index's `analyze_query` will do.
    ///
    /// This is what lets a query term that arrived *with* the delta
    /// contribute its df before the merge; the sealed-vocabulary-only
    /// analysis the old path used silently dropped such terms.
    pub fn analyze_query_union(&self, base_vocab: &Vocabulary, query: &str) -> Vec<TermId> {
        self.local
            .analyzer()
            .analyze(query)
            .iter()
            .filter_map(|term| {
                base_vocab.id(term).or_else(|| {
                    self.local
                        .vocab()
                        .id(term)
                        .map(|lt| self.local_to_union[lt.index()])
                })
            })
            .collect()
    }

    /// Top-`k` delta documents for union-space query terms, scored with
    /// the **union** statistics overlay (DPH, ascending-union-id
    /// accumulation order), reported under **global** ids — the delta
    /// half of the bit-identity contract: every score equals, bit for
    /// bit, what a from-scratch build over the union corpus computes for
    /// the same document.
    pub fn retrieve_union(&self, terms: &[TermId], k: usize) -> Vec<ScoredDoc> {
        let mut hits = score_range(self, &query_weights(terms), &Dph::new(), k);
        // Local → global ids: a constant offset, so the `(score desc, doc
        // asc)` order is preserved.
        for h in &mut hits {
            h.doc = DocId(h.doc.0 + self.base_docs);
        }
        hits
    }
}

/// The delta as the retrieval kernel sees it: the local mini-index's
/// postings and lengths (local ids from 0), addressed by **union** term
/// ids and scored against the union overlay — which carries every term
/// the delta's postings can hold.
impl RangeSource for DeltaIndex {
    fn coll(&self) -> CollectionStats {
        self.overlay.coll()
    }

    fn term_stats(&self, t: TermId) -> Option<TermStats> {
        self.overlay.term_stats(t)
    }

    fn range_postings(&self, t: TermId) -> Option<&PostingsList> {
        self.union_to_local
            .get(&t)
            .and_then(|&lt| self.local.postings(lt))
    }

    fn base(&self) -> u32 {
        0
    }

    fn doc_lens(&self) -> &[u32] {
        &self.local.doc_lens
    }
}

/// A [`Retriever`] that searches a sealed collection and a [`DeltaIndex`]
/// side by side, gathering the union top-`k` with the same k-way merge
/// the sharded scatter path uses — the delta is just one more shard.
///
/// Queries are analyzed once into the union term-id space; the sealed
/// side scores through [`Retriever::retrieve_terms_overlaid`] under the
/// delta's union [`StatsOverlay`], the delta side through
/// [`DeltaIndex::retrieve_union`]. Because the two sides partition the
/// union document space, accumulate each document's terms in the same
/// ascending-union-id order against the same statistics, and merge under
/// the kernel's exact `(score desc, doc asc)` total order, the gathered
/// page is `f64`-bit-identical to a from-scratch build over the union
/// corpus.
///
/// Completeness mirrors the sealed retriever's: the in-process delta can
/// never lose a shard, so a partial gather can only come from below.
pub struct DeltaRetriever {
    sealed: Arc<dyn Retriever>,
    base: Arc<InvertedIndex>,
    delta: Arc<DeltaIndex>,
}

impl DeltaRetriever {
    /// Combine `sealed` (the deployed retrieval layer over `base`) with a
    /// delta over freshly ingested documents.
    ///
    /// The bit-identity contract requires `sealed` to honor
    /// [`Retriever::retrieve_terms_overlaid`]; the retrievers the serving
    /// engine deploys ([`InvertedIndex`],
    /// [`ShardedIndex`](crate::sharded::ShardedIndex)) all do.
    pub fn new(
        sealed: Arc<dyn Retriever>,
        base: Arc<InvertedIndex>,
        delta: Arc<DeltaIndex>,
    ) -> Self {
        DeltaRetriever {
            sealed,
            base,
            delta,
        }
    }

    /// The delta being searched alongside the sealed collection.
    pub fn delta(&self) -> &Arc<DeltaIndex> {
        &self.delta
    }

    /// Score both sides of the union under the shared overlay and gather.
    /// Union-only term ids are harmless on the sealed side: the sealed
    /// postings simply do not have them, so they contribute nothing there
    /// — as in the merged index, where their postings hold only delta
    /// documents.
    fn gather(&self, terms: &[TermId], k: usize) -> Retrieval {
        let sealed = self
            .sealed
            .retrieve_terms_overlaid(terms, k, self.delta.overlay());
        let hits = merge_top_k(vec![sealed.hits, self.delta.retrieve_union(terms, k)], k);
        Retrieval {
            hits,
            complete: sealed.complete,
        }
    }
}

impl Retriever for DeltaRetriever {
    fn retrieve(&self, query: &str, k: usize) -> Vec<ScoredDoc> {
        self.retrieve_with_status(query, k).hits
    }

    fn retrieve_terms(&self, terms: &[TermId], k: usize) -> Vec<ScoredDoc> {
        self.gather(terms, k).hits
    }

    fn retrieve_with_status(&self, query: &str, k: usize) -> Retrieval {
        let terms = self.delta.analyze_query_union(self.base.vocab(), query);
        self.gather(&terms, k)
    }

    fn retrieve_with_status_within(
        &self,
        query: &str,
        k: usize,
        budget_us: Option<u64>,
    ) -> Retrieval {
        // The retrievers a delta seals over are in-process and ignore
        // budgets (an in-flight retrieval is cheaper to finish than to
        // abandon), so there is nothing to forward the budget to.
        let _ = budget_us;
        self.retrieve_with_status(query, k)
    }
}

/// Fold a delta into its sealed base, producing a new sealed
/// [`InvertedIndex`] **bit-identical to a from-scratch build** over the
/// concatenated document stream (`IndexBuilder` over base docs then delta
/// docs): same vocabulary order, same postings bytes, same statistics —
/// so `merge_sealed(base, delta).to_bytes()` equals the from-scratch
/// `to_bytes()`.
///
/// Only the delta documents are analyzed here (they are re-interned
/// against a copy of the base vocabulary, which reproduces first-
/// occurrence term order exactly, because the delta documents come after
/// every base document); the base postings are decoded and re-encoded
/// with the delta's `(doc, tf)` extensions appended — delta ids are
/// strictly larger than every base id, so appending preserves the
/// ascending-doc postings invariant.
pub fn merge_sealed(base: &InvertedIndex, delta: &DeltaIndex) -> InvertedIndex {
    assert_eq!(
        u64::from(delta.base_docs()),
        base.stats().num_docs,
        "delta was built against a different sealed base"
    );
    let analyzer = base.analyzer.clone();
    let mut vocab = base.vocab.clone();
    let mut store = base.store.clone();
    let mut doc_lens = base.doc_lens.clone();
    let mut num_tokens = base.stats.num_tokens;

    // Analyze the delta docs against the extended vocabulary, collecting
    // per-term (doc, tf) extension runs in ascending doc order.
    let mut ext: Vec<Vec<(u32, u32)>> = Vec::new();
    let mut tf_scratch: HashMap<TermId, u32> = HashMap::new();
    for doc in delta.docs() {
        let text = doc.full_text();
        let doc_id = doc.id.0;
        store.push(doc.clone());
        let terms = analyzer.analyze_interned(&text, &mut vocab);
        doc_lens.push(terms.len() as u32);
        num_tokens += terms.len() as u64;
        tf_scratch.clear();
        for term in terms {
            *tf_scratch.entry(term).or_insert(0) += 1;
        }
        if ext.len() < vocab.len() {
            ext.resize_with(vocab.len(), Vec::new);
        }
        let mut entries: Vec<(TermId, u32)> = tf_scratch.iter().map(|(&t, &tf)| (t, tf)).collect();
        entries.sort_unstable_by_key(|&(t, _)| t);
        for (term, tf) in entries {
            ext[term.index()].push((doc_id, tf));
        }
    }
    if ext.len() < vocab.len() {
        ext.resize_with(vocab.len(), Vec::new);
    }

    let n_terms = vocab.len();
    let mut postings = Vec::with_capacity(n_terms);
    let mut term_stats = Vec::with_capacity(n_terms);
    let mut max_tfs = Vec::with_capacity(n_terms);
    for (t, ext_list) in ext.iter().enumerate().take(n_terms) {
        let mut pb = PostingsBuilder::new();
        let mut doc_freq = 0u64;
        let mut coll_freq = 0u64;
        let mut max_tf = 0u32;
        if let Some(list) = base.postings.get(t) {
            for p in list.iter() {
                pb.push(p.doc, p.tf);
                doc_freq += 1;
                coll_freq += u64::from(p.tf);
                max_tf = max_tf.max(p.tf);
            }
        }
        for &(doc, tf) in ext_list {
            pb.push(DocId(doc), tf);
            doc_freq += 1;
            coll_freq += u64::from(tf);
            max_tf = max_tf.max(tf);
        }
        postings.push(pb.build());
        term_stats.push(TermStats {
            doc_freq,
            coll_freq,
        });
        max_tfs.push(max_tf);
    }

    let min_doc_len = doc_lens
        .iter()
        .copied()
        .filter(|&l| l > 0)
        .min()
        .unwrap_or(0);
    let num_docs = store.len() as u64;
    let avg_doc_len = if num_docs == 0 {
        0.0
    } else {
        num_tokens as f64 / num_docs as f64
    };
    InvertedIndex {
        vocab,
        postings,
        term_stats,
        doc_lens,
        max_tfs,
        min_doc_len,
        store,
        analyzer,
        stats: CollectionStats {
            num_docs,
            num_tokens,
            avg_doc_len,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IndexBuilder;

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
        // And retrieval is bit-identical (f64 score bits).
        for query in ["apple", "apple iphone", "weather forecast", "orchard"] {
            let a = Retriever::retrieve(&merged, query, 10);
            let b = Retriever::retrieve(&scratch, query, 10);
            assert_bit_identical(&a, &b, query);
        }
    }

    #[test]
    fn merge_of_empty_delta_is_identity() {
        let base = build(&base_corpus());
        let delta = DeltaIndex::build(&base, Vec::new());
        assert!(delta.is_empty());
        let merged = merge_sealed(&base, &delta);
        assert_eq!(merged.to_bytes(), base.to_bytes());
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
        let terms = delta.analyze_query_union(base.vocab(), "apple fruit orchard");
        let hits = delta.retrieve_union(&terms, 10);
        assert!(!hits.is_empty());
        for h in &hits {
            assert!(h.doc.0 >= 12, "delta hits carry global ids: {:?}", h.doc);
        }
        assert_eq!(delta.local_id(DocId(12)), Some(DocId(0)));
        assert_eq!(delta.local_id(DocId(15)), Some(DocId(3)));
        assert_eq!(delta.local_id(DocId(16)), None);
        assert_eq!(delta.local_id(DocId(3)), None);
    }

    #[test]
    fn delta_retriever_merges_sealed_and_fresh() {
        let base = Arc::new(build(&base_corpus()));
        let delta = Arc::new(DeltaIndex::build(&base, delta_corpus(12, 4)));
        let retriever = DeltaRetriever::new(base.clone(), base.clone(), delta);
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
        let status = retriever.retrieve_with_status("apple", 20);
        assert!(status.complete);
        assert_eq!(status.hits, hits);
    }

    #[test]
    fn delta_retriever_is_bit_identical_to_from_scratch_union_build() {
        let base_docs = base_corpus();
        let fresh = delta_corpus(12, 4);
        let base = Arc::new(build(&base_docs));
        let delta = Arc::new(DeltaIndex::build(&base, fresh.clone()));
        let retriever = DeltaRetriever::new(base.clone(), base.clone(), delta);
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
        let retriever = DeltaRetriever::new(base.clone(), base.clone(), delta);
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
        let retriever = DeltaRetriever::new(base.clone(), base.clone(), delta.clone());
        let scratch = union_build(&base_docs, &fresh);

        // The term is genuinely unknown to the sealed vocabulary…
        assert!(base.analyze_query("quantum").is_empty());
        // …but union analysis resolves it to the id the merge will assign.
        let union_terms = delta.analyze_query_union(base.vocab(), "quantum");
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
