//! Deploy-time document partitioning with scatter-gather retrieval.
//!
//! Horizontal partitioning is the standard route to serving large
//! collections "as fast as the hardware allows": split the documents into
//! `N` shards, score every shard in parallel, and merge the per-shard
//! top-`k` lists. [`ShardedIndex`] implements that over an existing
//! [`InvertedIndex`] without re-analyzing anything — at build time each
//! term's postings are split into per-shard compressed lists covering
//! contiguous global doc-id ranges, while the vocabulary, the document
//! store, the per-document lengths and (crucially) the **collection-wide
//! statistics stay global and shared**.
//!
//! # Bit-identical ranking
//!
//! Scoring a document only reads global quantities — its own length, the
//! term's global [`TermStats`](crate::index::TermStats) and the global
//! [`CollectionStats`](crate::index::CollectionStats) — so a document's
//! score is the same no matter which shard scores it. Every shard is
//! scored by the same retrieval kernel (`kernel::score_range`) as the
//! unsharded index, accumulating query terms in ascending term-id order
//! ([`query_weights`]) like the
//! [`SearchEngine`](crate::search::SearchEngine) oracle, so even the
//! floating-point summation order is identical. The scatter-gather merge
//! is a k-way heap merge ordered by `(score desc, doc id asc)` — the same
//! total order as the kernel's rank-key selection — which makes the
//! final ranking **bit-identical** to the single-shard result for every
//! shard count (asserted by the `sharded_equivalence` suite for shard
//! counts 1/2/4/7).

use crate::document::DocId;
use crate::executor::ScoringExecutor;
use crate::index::{InvertedIndex, StatsOverlay};
use crate::kernel::{score_range, IndexRange};
use crate::postings::{PostingsBuilder, PostingsList};
use crate::retriever::{Retrieval, Retriever};
use crate::search::{query_weights, ScoredDoc};
use serpdiv_text::TermId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// One document partition: the shard-local slice of every term's postings.
#[derive(Debug)]
struct Shard {
    /// Indexed by [`TermId`]; list `t` holds exactly the postings of term
    /// `t` whose doc ids fall in this shard's range.
    postings: Vec<PostingsList>,
    /// First global doc id of this shard's contiguous range.
    base: u32,
    /// Number of doc ids in the range (the last shard may cover fewer
    /// real documents).
    len: usize,
}

/// A horizontally partitioned view of an [`InvertedIndex`] with parallel
/// scatter-gather retrieval.
///
/// Built once at deploy time; immutable and `Sync` afterwards, so one
/// instance serves arbitrary concurrency. Large queries are scored shard-
/// parallel through the shared persistent [`ScoringExecutor`] when one is
/// attached ([`Self::with_executor`]); without one every query is scored
/// shard after shard on the calling thread.
pub struct ShardedIndex {
    index: Arc<InvertedIndex>,
    shards: Vec<Shard>,
    /// Documents per shard: shard of `doc` = `doc.index() / chunk`.
    chunk: usize,
    /// Minimum estimated matching postings before a query is worth
    /// scoring in parallel (see [`Self::with_parallel_threshold`]).
    parallel_threshold: u64,
    /// The shared persistent scoring pool, when deployed with one.
    executor: Option<Arc<ScoringExecutor>>,
    /// Test instrumentation: called with the shard number right before
    /// each shard is scored (see [`Self::with_fault_injection`]).
    fault_hook: Option<Arc<dyn Fn(usize) + Send + Sync>>,
}

impl std::fmt::Debug for ShardedIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedIndex")
            .field("shards", &self.shards.len())
            .field("chunk", &self.chunk)
            .field("parallel_threshold", &self.parallel_threshold)
            .field("executor", &self.executor)
            .field("fault_hook", &self.fault_hook.as_ref().map(|_| ".."))
            .finish()
    }
}

impl ShardedIndex {
    /// Partition `index` into `num_shards` contiguous doc-id ranges,
    /// scored with the paper's DPH model (`num_shards` is clamped to at
    /// least 1; shards beyond the document count stay empty and cost
    /// nothing at query time).
    pub fn build(index: Arc<InvertedIndex>, num_shards: usize) -> Self {
        let num_shards = num_shards.max(1);
        let num_docs = index.stats().num_docs as usize;
        let chunk = num_docs.div_ceil(num_shards).max(1);
        let num_terms = index.num_terms();
        let mut shard_postings: Vec<Vec<PostingsList>> = (0..num_shards)
            .map(|_| Vec::with_capacity(num_terms))
            .collect();
        // Global postings are in increasing doc order, so each shard's
        // slice arrives in increasing order too and re-compresses cleanly.
        let mut builders: Vec<PostingsBuilder> = Vec::new();
        for t in 0..num_terms {
            builders.clear();
            builders.resize_with(num_shards, PostingsBuilder::new);
            if let Some(postings) = index.postings(TermId(t as u32)) {
                for p in postings.iter() {
                    builders[(p.doc.index() / chunk).min(num_shards - 1)].push(p.doc, p.tf);
                }
            }
            for (s, b) in builders.drain(..).enumerate() {
                shard_postings[s].push(b.build());
            }
        }
        ShardedIndex {
            index,
            shards: shard_postings
                .into_iter()
                .enumerate()
                .map(|(s, postings)| {
                    // A trailing shard can start past a small
                    // collection: it is empty, at its end.
                    let base = (s * chunk).min(num_docs) as u32;
                    Shard {
                        postings,
                        base,
                        len: num_docs.saturating_sub(s * chunk).min(chunk),
                    }
                })
                .collect(),
            chunk,
            parallel_threshold: 16_384,
            executor: None,
            fault_hook: None,
        }
    }

    /// Attach a shared, long-lived [`ScoringExecutor`]: queries at or
    /// above the parallel threshold submit their shard tasks to the pool
    /// as one latched batch. The parallel path occupies the executor's
    /// threads (plus the submitting thread, which helps drain only its
    /// own batch while it would otherwise block), so a serving deployment
    /// that sizes the executor once bounds scoring threads at
    /// `request_workers + executor_threads` process-wide.
    pub fn with_executor(mut self, executor: Arc<ScoringExecutor>) -> Self {
        self.executor = Some(executor);
        self
    }

    /// The attached persistent scoring pool, if any.
    pub fn executor(&self) -> Option<&Arc<ScoringExecutor>> {
        self.executor.as_ref()
    }

    /// The scatter path's one fault seam, for tests: run `hook(shard)`
    /// immediately before each shard-scoring task — inside the executor's
    /// `catch_unwind` when the query goes through the attached executor,
    /// on the querying thread otherwise. A hook that sleeps models a slow
    /// shard; one that panics exercises the executor's panic containment
    /// through the full retrieval path — the panic is re-raised on the
    /// *querying* thread, and the pool stays healthy for the next query.
    /// `tests/chaos_soak.rs` drives its seeded shard delays and panics
    /// through it.
    pub fn with_fault_injection(mut self, hook: impl Fn(usize) + Send + Sync + 'static) -> Self {
        self.fault_hook = Some(Arc::new(hook));
        self
    }

    /// Tune when scatter scoring goes through the attached
    /// [`ScoringExecutor`]: queries whose estimated matching-postings
    /// count (Σ document frequency over query terms) falls below
    /// `threshold` are scored shard-after-shard on the calling thread —
    /// for small collections or selective queries, the queue hand-off
    /// costs more than the scoring it saves. `0` sends every multi-shard
    /// query to the executor; `u64::MAX` forces sequential. Without an
    /// executor the threshold is not consulted. The ranking is identical
    /// either way.
    pub fn with_parallel_threshold(mut self, threshold: u64) -> Self {
        self.parallel_threshold = threshold;
        self
    }

    /// The shared underlying index (global statistics, vocabulary,
    /// document store).
    pub fn index(&self) -> &Arc<InvertedIndex> {
        &self.index
    }

    /// Number of document partitions.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Score one shard: the retrieval kernel over the shard-local
    /// postings with **global** statistics — bit-identical per-document
    /// scores to the unsharded index — then the shard-local top `k`.
    fn score_shard(
        &self,
        shard: &Shard,
        weights: &[(TermId, u32)],
        k: usize,
        overlay: Option<&StatsOverlay>,
    ) -> Vec<ScoredDoc> {
        score_range(
            &IndexRange::shard(&self.index, &shard.postings, shard.base, shard.len, overlay),
            weights,
            &self.index.dph,
            k,
        )
    }

    /// Serialize shard `s` into a standalone artifact a fleet worker
    /// process can boot from: the shard-local postings slice plus every
    /// **global** statistic scoring reads (collection stats, per-term
    /// stats, the range's document lengths), so the worker's scores are
    /// bit-identical to scoring the same shard in-process. Decoded by
    /// [`ShardArtifact::from_bytes`](crate::artifact::ShardArtifact).
    ///
    /// # Panics
    /// Panics if `s` is out of range.
    pub fn export_shard(&self, s: usize) -> Vec<u8> {
        let shard = &self.shards[s];
        crate::artifact::encode_shard(
            &self.index,
            s as u32,
            self.shards.len() as u32,
            shard.base,
            shard.len,
            &shard.postings,
        )
    }

    /// Run the fault-injection hook for `shard`, if one is installed.
    #[inline]
    fn fault(&self, shard: usize) {
        if let Some(hook) = &self.fault_hook {
            hook(shard);
        }
    }

    /// Scatter: score every shard — through the attached executor at or
    /// above the postings threshold, inline below it or without one —
    /// then gather: k-way merge of the per-shard top-`k` lists. Both
    /// paths produce the same `f64` bits in the same order. When an
    /// `overlay` is given, every shard scores against its statistics (the
    /// NRT union contract) instead of the shared index's own.
    fn scatter_gather(
        &self,
        terms: &[TermId],
        k: usize,
        overlay: Option<&StatsOverlay>,
    ) -> Vec<ScoredDoc> {
        if terms.is_empty() || k == 0 {
            return Vec::new();
        }
        let weights = query_weights(terms);
        // Sequential scatter below the threshold: no hand-off at all —
        // the right call when the postings traversal is cheaper than
        // reaching another thread.
        let executor = self.executor.as_ref().filter(|_| {
            // Estimated matching postings: Σ doc_freq over the terms.
            let estimated = || -> u64 {
                weights
                    .iter()
                    .filter_map(|&(t, _)| self.index.term_stats(t))
                    .map(|ts| ts.doc_freq)
                    .sum()
            };
            self.shards.len() > 1 && estimated() >= self.parallel_threshold
        });
        let per_shard: Vec<Vec<ScoredDoc>> = match executor {
            None => self
                .shards
                .iter()
                .enumerate()
                .map(|(s, shard)| {
                    self.fault(s);
                    self.score_shard(shard, &weights, k, overlay)
                })
                .collect(),
            // One latched batch, one shard-scoring task per shard; the
            // pool's pinned workers (and this thread, which helps) reuse
            // their thread-local scratch — nothing is spawned.
            Some(executor) => match executor.scope_run(self.shards.len(), &|s| {
                self.fault(s);
                self.score_shard(&self.shards[s], &weights, k, overlay)
            }) {
                Ok(per_shard) => per_shard,
                // A panicked task poisons only this query: re-raise on the
                // querying thread; the pool keeps serving others.
                Err(payload) => std::panic::resume_unwind(payload),
            },
        };
        merge_top_k(per_shard, k)
    }
}

impl Retriever for ShardedIndex {
    fn query_terms(&self, query: &str) -> Vec<TermId> {
        self.index.analyze_query(query)
    }

    fn retrieve_terms_within(
        &self,
        terms: &[TermId],
        k: usize,
        _budget_us: Option<u64>,
    ) -> Retrieval {
        Retrieval::complete(self.scatter_gather(terms, k, None))
    }

    fn retrieve_terms_overlaid(
        &self,
        terms: &[TermId],
        k: usize,
        overlay: &StatsOverlay,
        _budget_us: Option<u64>,
    ) -> Option<Retrieval> {
        let hits = self.scatter_gather(terms, k, Some(overlay));
        Some(Retrieval::complete(hits))
    }
}

/// Head of one per-shard list inside the gather heap, ordered so the
/// max-heap pops by `(score desc, doc id asc)` — the exact total order of
/// the kernel's top-`k` selection.
struct MergeEntry {
    score: f64,
    doc: DocId,
    list: usize,
    pos: usize,
}

impl PartialEq for MergeEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for MergeEntry {}

impl Ord for MergeEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.score
            .total_cmp(&other.score)
            .then_with(|| other.doc.cmp(&self.doc))
    }
}

impl PartialOrd for MergeEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Gather step: k-way merge of per-shard rankings (each already sorted by
/// `(score desc, doc asc)`) into the global top `k` in the same order.
/// Each shard holds its global-top-k members in its local top-k, so
/// merging the heads is exhaustive.
///
/// Public because it is **the** gather: the fleet router merges per-shard
/// responses from worker processes through this exact function, which is
/// what keeps multi-process pages bit-identical to in-process ones (a
/// partial gather over the shards that answered is still this merge,
/// just over fewer lists).
pub fn merge_top_k(lists: Vec<Vec<ScoredDoc>>, k: usize) -> Vec<ScoredDoc> {
    let mut heap: BinaryHeap<MergeEntry> = lists
        .iter()
        .enumerate()
        .filter_map(|(list, hits)| {
            hits.first().map(|h| MergeEntry {
                score: h.score,
                doc: h.doc,
                list,
                pos: 0,
            })
        })
        .collect();
    let mut out = Vec::with_capacity(k.min(lists.iter().map(Vec::len).sum()));
    while out.len() < k {
        let Some(head) = heap.pop() else { break };
        out.push(ScoredDoc {
            doc: head.doc,
            score: head.score,
        });
        if let Some(next) = lists[head.list].get(head.pos + 1) {
            heap.push(MergeEntry {
                score: next.score,
                doc: next.doc,
                list: head.list,
                pos: head.pos + 1,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::ShardArtifact;
    use crate::builder::IndexBuilder;
    use crate::document::Document;
    use crate::search::SearchEngine;

    /// 30 docs over a small shared vocabulary, including exact duplicates
    /// (score ties) spread across shard boundaries.
    fn index() -> Arc<InvertedIndex> {
        let texts = [
            "apple iphone smartphone chip",
            "apple fruit orchard sweet",
            "apple pie cinnamon recipe",
            "weather storm rain wind",
            "apple iphone smartphone chip", // duplicate of 0 → tie
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

    #[test]
    fn matches_unsharded_oracle_exactly() {
        let idx = index();
        let oracle = SearchEngine::new(&idx);
        for shards in [1, 2, 4, 7, 30, 64] {
            let sharded = ShardedIndex::build(idx.clone(), shards);
            for query in ["apple", "apple iphone", "weather storm", "apple apple pie"] {
                for k in [1, 3, 10, 100] {
                    let expect = oracle.search(query, k);
                    let got = sharded.retrieve(query, k);
                    assert_eq!(expect.len(), got.len(), "{query} k={k} shards={shards}");
                    for (e, g) in expect.iter().zip(&got) {
                        assert_eq!(e.doc, g.doc, "{query} k={k} shards={shards}");
                        assert_eq!(
                            e.score.to_bits(),
                            g.score.to_bits(),
                            "{query} k={k} shards={shards}: {} vs {}",
                            e.score,
                            g.score
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn degenerate_inputs() {
        let idx = index();
        let sharded = ShardedIndex::build(idx, 4);
        assert!(sharded.retrieve("", 10).is_empty());
        assert!(sharded.retrieve("apple", 0).is_empty());
        assert!(sharded.retrieve("zeppelin", 10).is_empty());
        assert_eq!(sharded.num_shards(), 4);
    }

    #[test]
    fn executor_path_is_bit_identical_to_oracle() {
        let idx = index();
        let oracle = SearchEngine::new(&idx);
        let executor = Arc::new(ScoringExecutor::new(2));
        // Threshold 0: every query goes through the executor batch path.
        let sharded = ShardedIndex::build(idx.clone(), 4)
            .with_executor(executor)
            .with_parallel_threshold(0);
        for query in [
            "apple",
            "apple iphone smartphone",
            "storm",
            "apple apple pie",
        ] {
            let expect = oracle.search(query, 10);
            let got = sharded.retrieve(query, 10);
            assert_eq!(expect.len(), got.len(), "{query}");
            for (e, g) in expect.iter().zip(&got) {
                assert_eq!(e.doc, g.doc, "{query}");
                assert_eq!(e.score.to_bits(), g.score.to_bits(), "{query}");
            }
        }
    }

    #[test]
    fn injected_fault_poisons_one_query_not_the_pool() {
        use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
        let idx = index();
        let oracle = SearchEngine::new(&idx);
        let executor = Arc::new(ScoringExecutor::new(1));
        let arm = Arc::new(AtomicBool::new(true));
        let hook_arm = arm.clone();
        let sharded = ShardedIndex::build(idx.clone(), 4)
            .with_executor(executor)
            .with_parallel_threshold(0)
            .with_fault_injection(move |shard| {
                if shard == 2 && hook_arm.load(AtomicOrdering::Relaxed) {
                    panic!("injected fault in shard {shard}");
                }
            });
        // First query: the fault fires inside the executor and must
        // surface on *this* thread as a panic.
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sharded.retrieve("apple", 10)
        }));
        assert!(poisoned.is_err(), "the injected fault must surface");
        // Disarm and retry: the same executor worker serves the next
        // query with bit-identical results — the pool is not wedged.
        // (The hook fires before scoring dirties any scratch; the
        // mid-accumulation unwind case is covered by the kernel's
        // `mid_accumulation_panic_leaves_the_dense_scratch_clean`.)
        arm.store(false, AtomicOrdering::Relaxed);
        let expect = oracle.search("apple", 10);
        let got = sharded.retrieve("apple", 10);
        assert_eq!(expect.len(), got.len());
        for (e, g) in expect.iter().zip(&got) {
            assert_eq!(e.doc, g.doc);
            assert_eq!(e.score.to_bits(), g.score.to_bits());
        }
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let idx = index();
        let sharded = ShardedIndex::build(idx, 0);
        assert_eq!(sharded.num_shards(), 1);
        assert_eq!(sharded.retrieve("apple", 5).len(), 5);
    }

    #[test]
    fn empty_collection() {
        let idx = Arc::new(IndexBuilder::new().build());
        let sharded = ShardedIndex::build(idx, 3);
        assert!(sharded.retrieve("apple", 5).is_empty());
    }

    #[test]
    fn every_shard_of_a_small_collection_exports_and_scores_in_process() {
        // Small collections leave trailing shards empty (5 docs over 4
        // shards: chunk 2, shard 3 holds nothing); each still exports
        // inside the collection, decodes, and scores as in-process.
        for n in 0..=12u32 {
            let mut b = IndexBuilder::new();
            for i in 0..n {
                let text = ["apple iphone chip", "apple pie", "storm rain apple"][i as usize % 3];
                b.add(Document::new(i, format!("u{i}"), "", text));
            }
            let idx = Arc::new(b.build());
            for shards in 1..=6 {
                let sharded = ShardedIndex::build(idx.clone(), shards);
                let mut next = 0;
                for (s, shard) in sharded.shards.iter().enumerate() {
                    let what = format!("{n} docs, shard {s} of {shards}");
                    assert_eq!(shard.base, next, "{what}");
                    next += shard.len as u32;
                    let art = ShardArtifact::from_bytes(&sharded.export_shard(s))
                        .unwrap_or_else(|e| panic!("{what}: {e}"));
                    assert_eq!((art.base(), art.range_len()), (shard.base, shard.len));
                    for query in ["apple", "apple pie", "storm", "zebra"] {
                        let terms = idx.analyze_query(query);
                        for k in [1, 10] {
                            let local = sharded.score_shard(shard, &query_weights(&terms), k, None);
                            let exported = art.score_terms(&terms, k);
                            let bits = |hits: &[ScoredDoc]| -> Vec<(DocId, u64)> {
                                hits.iter().map(|h| (h.doc, h.score.to_bits())).collect()
                            };
                            assert_eq!(bits(&exported), bits(&local), "{what}: {query} k={k}");
                        }
                    }
                }
                assert_eq!(next, n, "{n} docs over {shards} shards");
            }
        }
    }

    #[test]
    fn partition_covers_all_postings() {
        let idx = index();
        let sharded = ShardedIndex::build(idx.clone(), 4);
        // Every posting of every term lands in exactly one shard.
        for t in 0..idx.num_terms() {
            let term = TermId(t as u32);
            let global: Vec<_> = idx.postings(term).unwrap().iter().collect();
            let mut scattered: Vec<_> = sharded
                .shards
                .iter()
                .flat_map(|s| s.postings[term.index()].iter())
                .collect();
            scattered.sort_by_key(|p| p.doc);
            assert_eq!(global, scattered);
        }
    }

    #[test]
    fn merge_handles_ties_across_lists() {
        let d = |id, score| ScoredDoc {
            doc: DocId(id),
            score,
        };
        let merged = merge_top_k(vec![vec![d(3, 1.0), d(1, 0.5)], vec![d(2, 1.0)], vec![]], 3);
        assert_eq!(
            merged.iter().map(|h| h.doc.0).collect::<Vec<_>>(),
            vec![2, 3, 1],
            "equal scores must order by ascending doc id"
        );
    }
}
