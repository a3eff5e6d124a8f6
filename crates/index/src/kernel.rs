//! The retrieval kernel: the one scoring loop of the serving path.
//!
//! Every in-process retriever — the plain [`InvertedIndex`] (with or
//! without a [`StatsOverlay`]), each shard of a
//! [`ShardedIndex`](crate::sharded::ShardedIndex), a fleet worker's
//! [`ShardArtifact`](crate::artifact::ShardArtifact) and the NRT
//! [`DeltaIndex`](crate::delta::DeltaIndex) — scores through
//! [`score_range`]. This is the **single definition** of per-document
//! score accumulation in production; the bit-identical scatter-gather
//! guarantee (in-process *and* across the fleet's process boundary)
//! depends on all of them sharing it. The hash-map
//! [`SearchEngine`](crate::search::SearchEngine) is the independent oracle
//! the equivalence suites hold it to, `f64` bit for bit.
//!
//! Term-at-a-time over a contiguous doc-id range, in the canonical
//! ascending-[`TermId`] order of [`query_weights`](crate::search::query_weights):
//!
//! * the model is a type parameter, specialised once per term
//!   ([`RankingModel::term_scorer`]) — no vtable and no per-term invariant
//!   inside the posting loop. A sealed range (a whole index, an
//!   in-process shard, a shard artifact) scores with the
//!   [`DphTable`](crate::dph::DphTable) built for the average document
//!   length its source carries: DPH takes `log₂(N / CF)` once per term,
//!   and a posting reads its `(tf, dl)` cell and scores one multiply and
//!   one add; under another average length (a delta's union overlay) the
//!   table runs the formula, and so does the delta itself;
//! * a **single live term** streams postings → score → candidates with no
//!   accumulator at all;
//! * **several terms** accumulate into a thread-local dense `f64` array
//!   over the range, with a first-touch list so that selection and
//!   clean-up cost `O(matches)`, not `O(range)`;
//! * **selection** maps each candidate to one `u128` rank key (the score's
//!   `total_cmp` image, inverted, above the doc id — the key OptSelect
//!   ranks by), so ascending keys are the exact `(score desc, doc asc)`
//!   total order. A candidate costs one comparison with a bound and, if
//!   it is below it, one push into a buffer of at most `2k` keys, which a
//!   linear-time `select_nth_unstable` halves back to the `k` smallest
//!   (the largest of them is the next bound). Only the final `k` are
//!   sorted: `O(matches + k log k)`, with no sift per displacement.
//!
//! Memory: the scratch is 8 B per doc id of the largest range a thread
//! has scored (plus one bit per id and 4 B per matched document), and the
//! key buffer 16 B per key, at most `2k` keys (3.2 KiB at `k` = 100),
//! both kept for the thread's lifetime — 0.35 MiB at 46 k documents. An
//! index's table is at most 2 MiB, about 63 KiB at 46 k documents, and
//! there is no per-posting array.

use crate::document::DocId;
use crate::index::{CollectionStats, InvertedIndex, StatsOverlay, TermStats};
use crate::postings::PostingsList;
use crate::search::{RankingModel, ScoredDoc};
use serpdiv_text::TermId;
use std::cell::RefCell;

/// What a scoring pass reads: a contiguous doc-id range's postings plus
/// the **global** statistics that make a document's score independent of
/// where it is scored.
pub(crate) trait RangeSource {
    /// Global collection statistics.
    fn coll(&self) -> CollectionStats;
    /// Global per-term statistics.
    fn term_stats(&self, t: TermId) -> Option<TermStats>;
    /// The range-local postings of term `t`.
    fn range_postings(&self, t: TermId) -> Option<&PostingsList>;
    /// First doc id of the contiguous range.
    fn base(&self) -> u32;
    /// Global lengths of the range's documents, indexed by `doc − base`;
    /// its length is the range's.
    fn doc_lens(&self) -> &[u32];
}

/// [`RangeSource`] over an [`InvertedIndex`] or one in-process shard of
/// it: postings for the range, every statistic from the shared global
/// index — or, under the NRT union contract, from the overlay first (with
/// the index's own statistics as the exact fallback for terms the overlay
/// leaves alone).
pub(crate) struct IndexRange<'a> {
    index: &'a InvertedIndex,
    /// Indexed by [`TermId`]: the range's slice of every term's postings.
    postings: &'a [PostingsList],
    base: u32,
    doc_lens: &'a [u32],
    overlay: Option<&'a StatsOverlay>,
}

impl<'a> IndexRange<'a> {
    /// The whole collection as one range.
    pub(crate) fn whole(index: &'a InvertedIndex, overlay: Option<&'a StatsOverlay>) -> Self {
        IndexRange {
            index,
            postings: &index.postings,
            base: 0,
            doc_lens: &index.doc_lens,
            overlay,
        }
    }

    /// The `len` doc ids from `base`, with that range's `postings` slices
    /// (a range past the last document is empty).
    pub(crate) fn shard(
        index: &'a InvertedIndex,
        postings: &'a [PostingsList],
        base: u32,
        len: usize,
        overlay: Option<&'a StatsOverlay>,
    ) -> Self {
        let start = base as usize;
        IndexRange {
            index,
            postings,
            base,
            doc_lens: index.doc_lens.get(start..start + len).unwrap_or(&[]),
            overlay,
        }
    }
}

impl RangeSource for IndexRange<'_> {
    fn coll(&self) -> CollectionStats {
        self.overlay
            .map_or_else(|| self.index.stats(), |o| o.coll())
    }

    fn term_stats(&self, t: TermId) -> Option<TermStats> {
        self.overlay
            .and_then(|o| o.term_stats(t))
            .or_else(|| self.index.term_stats(t))
    }

    fn range_postings(&self, t: TermId) -> Option<&PostingsList> {
        self.postings.get(t.index())
    }

    fn base(&self) -> u32 {
        self.base
    }

    fn doc_lens(&self) -> &[u32] {
        self.doc_lens
    }
}

/// Per-thread accumulation scratch. Invariant between uses: `acc` and
/// `seen` all zero, `touched` empty.
struct Scratch {
    /// Score accumulator, indexed by `doc − base`.
    acc: Vec<f64>,
    /// One bit per slot: set once the slot is in `touched`.
    seen: Vec<u64>,
    /// Slots in first-touch order.
    touched: Vec<u32>,
}

impl Scratch {
    /// Grow to cover a range of `len` doc ids.
    fn fit(&mut self, len: usize) {
        if self.acc.len() < len {
            self.acc.resize(len, 0.0);
            self.seen.resize(len.div_ceil(64), 0);
        }
    }

    /// `acc[i] += s`, recording a first touch. The slot is listed before
    /// it is dirtied, so whenever anything unwinds every dirty slot is in
    /// `touched` and [`Self::clean`] restores the invariant.
    #[inline]
    fn add(&mut self, i: usize, s: f64) {
        let (word, bit) = (i / 64, 1u64 << (i % 64));
        if self.seen[word] & bit == 0 {
            self.touched.push(i as u32);
            self.seen[word] |= bit;
        }
        self.acc[i] += s;
    }

    /// Restore the invariant, visiting only dirty slots.
    fn clean(&mut self) {
        for &i in &self.touched {
            self.acc[i as usize] = 0.0;
            self.seen[i as usize / 64] = 0;
        }
        self.touched.clear();
    }
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = const {
        RefCell::new(Scratch {
            acc: Vec::new(),
            seen: Vec::new(),
            touched: Vec::new(),
        })
    };
    /// Rank keys of the candidates being selected from; cleared on entry,
    /// so a panic that unwinds out of a fill leaves nothing to restore.
    static KEYS: RefCell<Vec<u128>> = const { RefCell::new(Vec::new()) };
}

/// The rank key of `hit`: ascending keys are `(score desc, doc asc)` under
/// `f64::total_cmp`. The high half is `total_cmp`'s order-preserving
/// unsigned image of the score's bits (a negative has every bit flipped,
/// a positive its sign bit set), inverted; the low half is the doc id.
#[inline]
fn rank_key(hit: ScoredDoc) -> u128 {
    let bits = hit.score.to_bits();
    let ascending = bits ^ (((bits as i64 >> 63) as u64) | 1 << 63);
    (u128::from(!ascending) << 64) | u128::from(hit.doc.0)
}

/// The hit a [`rank_key`] was made from, score bits included.
#[inline]
fn hit_of(key: u128) -> ScoredDoc {
    let ascending = !((key >> 64) as u64);
    // A set top bit marks a score that was non-negative (sign bit clear).
    let bits = ascending ^ (((!ascending as i64 >> 63) as u64) | 1 << 63);
    ScoredDoc {
        doc: DocId(key as u32),
        score: f64::from_bits(bits),
    }
}

/// The `k` best candidates by `(score desc, doc asc)` — the page
/// [`top_k`](crate::search::top_k) selects with a heap. Each candidate's
/// rank key goes into the thread's key buffer unless it is above the
/// bound, the largest key kept at the last compaction; when the buffer
/// holds `2k` keys a linear-time selection keeps the `k` smallest, whose
/// largest becomes the bound. Keys are unique (one per doc id), so a key
/// above the bound can never reach the page. At the end that prefix
/// alone is sorted.
fn select_top_k(candidates: impl Iterator<Item = ScoredDoc>, k: usize) -> Vec<ScoredDoc> {
    if k == 0 {
        return Vec::new();
    }
    KEYS.with(|cell| {
        let keys = &mut *cell.borrow_mut();
        keys.clear();
        let full = k.saturating_mul(2);
        let mut bound = u128::MAX;
        for key in candidates.map(rank_key) {
            if key < bound {
                keys.push(key);
                if keys.len() == full {
                    keys.select_nth_unstable(k - 1);
                    keys.truncate(k);
                    bound = keys[k - 1];
                }
            }
        }
        let k = k.min(keys.len());
        if k < keys.len() {
            keys.select_nth_unstable(k);
        }
        keys[..k].sort_unstable();
        keys[..k].iter().map(|&key| hit_of(key)).collect()
    })
}

/// The top `k` documents of `src`'s range for `weights` — `(term,
/// multiplicity)` pairs in ascending term order, see
/// [`query_weights`](crate::search::query_weights) — under `model`, by
/// `(score desc, doc asc)`. Each score is
/// `0.0 + Σ_terms model.score(..) · multiplicity` summed in that term
/// order: the `f64` bits of
/// [`SearchEngine::search_terms`](crate::search::SearchEngine::search_terms).
pub(crate) fn score_range<S: RangeSource, M: RankingModel>(
    src: &S,
    weights: &[(TermId, u32)],
    model: &M,
    k: usize,
) -> Vec<ScoredDoc> {
    if k == 0 {
        return Vec::new();
    }
    // Terms that can contribute, decided before choosing a path: an
    // unknown term or one without postings in this range (the common case
    // in a shard) must not push a one-term query onto the accumulator.
    let live: Vec<(&PostingsList, TermStats, f64)> = weights
        .iter()
        .filter_map(|&(t, weight)| {
            let postings = src.range_postings(t).filter(|p| !p.is_empty())?;
            Some((postings, src.term_stats(t)?, f64::from(weight)))
        })
        .collect();
    let (coll, base, lens) = (src.coll(), src.base(), src.doc_lens());
    match live[..] {
        [] => Vec::new(),
        [(postings, ts, weight)] => {
            let score = model.term_scorer(ts, coll);
            let candidates = postings.iter().map(|p| ScoredDoc {
                doc: p.doc,
                // `0.0 +`: what adding into a fresh accumulator slot
                // yields — a `-0.0` contribution ranks as `+0.0`.
                score: 0.0 + score(p.tf, lens[(p.doc.0 - base) as usize]) * weight,
            });
            select_top_k(candidates, k)
        }
        _ => SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            scratch.fit(lens.len());
            // A panic mid-accumulation (a faulting model, injected test
            // faults) must not leave dirty slots behind on a long-lived
            // worker: clean on both exits, then re-raise.
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                for &(postings, ts, weight) in &live {
                    let score = model.term_scorer(ts, coll);
                    for p in postings.iter() {
                        let i = (p.doc.0 - base) as usize;
                        scratch.add(i, score(p.tf, lens[i]) * weight);
                    }
                }
                let candidates = scratch.touched.iter().map(|&i| ScoredDoc {
                    doc: DocId(base + i),
                    score: scratch.acc[i as usize],
                });
                select_top_k(candidates, k)
            }));
            scratch.clean();
            result.unwrap_or_else(|payload| std::panic::resume_unwind(payload))
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IndexBuilder;
    use crate::document::Document;
    use crate::dph::Dph;
    use crate::search::{query_weights, SearchEngine};
    use crate::sharded::{merge_top_k, ShardedIndex};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    /// 30 docs over a small shared vocabulary, including exact duplicates
    /// (score ties).
    fn index() -> InvertedIndex {
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
        b.build()
    }

    /// Every posting scores the same constant.
    #[derive(Clone, Copy)]
    struct Constant(f64);

    impl RankingModel for Constant {
        fn score(&self, _: u32, _: u32, _: TermStats, _: CollectionStats) -> f64 {
            self.0
        }
    }

    fn kernel<M: RankingModel>(
        idx: &InvertedIndex,
        terms: &[TermId],
        model: &M,
        k: usize,
    ) -> Vec<ScoredDoc> {
        score_range(
            &IndexRange::whole(idx, None),
            &query_weights(terms),
            model,
            k,
        )
    }

    fn assert_same(got: &[ScoredDoc], expect: &[ScoredDoc], what: &str) {
        assert_eq!(got.len(), expect.len(), "{what}: length");
        for (g, e) in got.iter().zip(expect) {
            assert_eq!(g.doc, e.doc, "{what}");
            assert_eq!(g.score.to_bits(), e.score.to_bits(), "{what}");
        }
    }

    fn scratch_is_clean() -> bool {
        SCRATCH.with(|cell| {
            let s = cell.borrow();
            s.touched.is_empty()
                && s.acc.iter().all(|a| a.to_bits() == 0)
                && s.seen.iter().all(|&w| w == 0)
        })
    }

    #[test]
    fn matches_the_oracle_for_two_models() {
        let idx = index();
        for query in ["apple", "apple iphone", "weather storm", "apple apple pie"] {
            let terms = idx.analyze_query(query);
            for k in [1, 3, 10, 100] {
                assert_same(
                    &kernel(&idx, &terms, &Dph::new(), k),
                    &SearchEngine::new(&idx).search_terms(&terms, k),
                    &format!("dph {query} k={k}"),
                );
                assert_same(
                    &kernel(&idx, &terms, &idx.dph, k),
                    &SearchEngine::new(&idx).search_terms(&terms, k),
                    &format!("dph table {query} k={k}"),
                );
                // A model on the trait's default `term_scorer`.
                assert_same(
                    &kernel(&idx, &terms, &Constant(0.5), k),
                    &SearchEngine::with_model(&idx, Constant(0.5)).search_terms(&terms, k),
                    &format!("constant {query} k={k}"),
                );
            }
        }
    }

    /// A page as `(doc, score bits)`.
    fn bits(page: &[ScoredDoc]) -> Vec<(DocId, u64)> {
        page.iter().map(|h| (h.doc, h.score.to_bits())).collect()
    }

    /// The kernel's page for `terms` under `model`, as [`bits`].
    fn page_bits<M: RankingModel>(
        src: &impl RangeSource,
        terms: &[TermId],
        model: &M,
    ) -> Vec<(DocId, u64)> {
        bits(&score_range(src, &query_weights(terms), model, 100))
    }

    /// The `(tf, dl)` of `doc`'s posting for `term`.
    fn cell_of(idx: &InvertedIndex, term: TermId, doc: DocId) -> (u32, u32) {
        let p = idx.postings(term).unwrap().iter().find(|p| p.doc == doc);
        (p.expect("a posting of doc").tf, idx.doc_len(doc).unwrap())
    }

    #[test]
    fn a_one_ulp_change_to_a_table_cell_fails_the_oracle_comparison() {
        let idx = index();
        let oracle = SearchEngine::new(&idx);
        let whole = IndexRange::whole(&idx, None);
        for query in ["apple", "apple iphone"] {
            let terms = idx.analyze_query(query);
            let expect = bits(&oracle.search_terms(&terms, 100));
            assert_eq!(page_bits(&whole, &terms, &idx.dph), expect, "{query}");
            let (tf, dl) = cell_of(&idx, terms[0], expect[0].0);
            let planted = idx.dph.with_planted_ulp(tf, dl);
            assert_ne!(
                page_bits(&whole, &terms, &planted),
                expect,
                "{query}: the kernel must read the cell of ({tf}, {dl})"
            );
        }
    }

    #[test]
    fn a_table_is_never_read_under_statistics_it_was_not_built_for() {
        let idx = Arc::new(index());
        let oracle = SearchEngine::new(&idx);
        let terms = idx.analyze_query("apple iphone storm");
        let apple = idx.analyze_query("apple")[0];
        // Every cell a query can reach is planted, so a page that still
        // matches its oracle read none of them.
        let mut planted = idx.dph.clone();
        for tf in 1..=planted.tf_cap() {
            for dl in 1..=planted.dl_cap() {
                planted = planted.with_planted_ulp(tf, dl);
            }
        }

        // Under an overlay whose collection statistics differ.
        let coll = idx.stats();
        let overlay = StatsOverlay::new(
            CollectionStats::of(coll.num_docs + 7, coll.num_tokens + 40),
            vec![(
                apple,
                TermStats {
                    doc_freq: 30,
                    coll_freq: 31,
                },
            )],
        );
        let overlaid = IndexRange::whole(&idx, Some(&overlay));
        let expect = bits(&oracle.search_terms_overlaid(&terms, 100, &overlay));
        assert_eq!(page_bits(&overlaid, &terms, &idx.dph), expect);
        assert_eq!(page_bits(&overlaid, &terms, &planted), expect);

        // Under another index's statistics.
        let mut b = IndexBuilder::new();
        b.add(Document::new(0, "u", "", "apple apple pie storm"));
        let other = b.build();
        let whole = IndexRange::whole(&idx, None);
        let own = bits(&oracle.search_terms(&terms, 100));
        assert_eq!(page_bits(&whole, &terms, &other.dph), own);
        let planted_other = other.dph.with_planted_ulp(1, 1);
        assert_eq!(page_bits(&whole, &terms, &planted_other), own);
        assert_ne!(
            page_bits(&whole, &terms, &planted),
            own,
            "own statistics read"
        );

        // A shard decoded from bytes scores with a table built from the
        // global statistics it carries: the oracle's scores for its range.
        let bytes = ShardedIndex::build(idx.clone(), 3).export_shard(1);
        let shard = crate::ShardArtifact::from_bytes(&bytes).expect("valid artifact");
        let range = shard.base()..shard.base() + shard.range_len() as u32;
        let expect: Vec<(DocId, u64)> = own
            .iter()
            .copied()
            .filter(|(doc, _)| range.contains(&doc.0))
            .collect();
        assert!(!expect.is_empty());
        assert_eq!(bits(&shard.score_terms(&terms, 100)), expect);
    }

    #[test]
    fn single_term_negative_zero_contribution_comes_out_as_positive_zero() {
        let idx = index();
        let terms = idx.analyze_query("apple");
        let model = Constant(-0.0);
        let hits = kernel(&idx, &terms, &model, 5);
        assert_eq!(hits.len(), 5);
        for h in &hits {
            assert_eq!(
                h.score.to_bits(),
                0.0f64.to_bits(),
                "a fresh accumulator slot is +0.0, and +0.0 + -0.0 = +0.0"
            );
        }
        assert_same(
            &hits,
            &SearchEngine::with_model(&idx, model).search_terms(&terms, 5),
            "-0.0 model",
        );
    }

    #[test]
    fn equal_scores_at_the_kth_boundary_keep_the_smaller_doc() {
        // Offered in descending doc order, so every later candidate ties
        // the weakest kept score with a smaller id and must displace it.
        let ties = (0..10u32).rev().map(|d| ScoredDoc {
            doc: DocId(d),
            score: 1.0,
        });
        let kept: Vec<u32> = select_top_k(ties, 3).iter().map(|h| h.doc.0).collect();
        assert_eq!(kept, vec![0, 1, 2]);

        // Through both kernel paths: a constant model ties every match.
        let idx = index();
        for query in ["apple", "apple iphone"] {
            let terms = idx.analyze_query(query);
            let hits = kernel(&idx, &terms, &Constant(1.0), 4);
            assert_same(
                &hits,
                &SearchEngine::with_model(&idx, Constant(1.0)).search_terms(&terms, 4),
                query,
            );
            if terms.len() == 1 {
                let docs: Vec<u32> = hits.iter().map(|h| h.doc.0).collect();
                assert_eq!(docs, vec![0, 1, 2, 4], "the four smallest apple docs");
            }
        }
    }

    #[test]
    fn select_top_k_agrees_with_a_full_sort() {
        // Heavy ties and both zeros among ordinary scores, then the
        // key-packing edges: both infinities, the extreme finite values,
        // subnormals of both signs, a NaN of each sign, and the extreme
        // doc ids.
        let scores = [
            2.5,
            -1.0,
            0.0,
            -0.0,
            2.5,
            7.0,
            -1.0,
            0.0,
            3.25,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(1),
            -f64::from_bits(0x000F_FFFF_FFFF_FFFF),
            f64::NAN,
            -f64::NAN,
        ];
        // Ids shuffled; every score is shared by about ten of them, so
        // the extreme ids tie with smaller ones.
        let ids = (0..200u32)
            .map(|i| (i * 37) % 200)
            .chain([u32::MAX - 1, u32::MAX - 2]);
        let hits: Vec<ScoredDoc> = ids
            .enumerate()
            .map(|(i, doc)| ScoredDoc {
                doc: DocId(doc),
                score: scores[(i * 7) % scores.len()],
            })
            .collect();
        let n = hits.len();
        let mut sorted = hits.clone();
        sorted.sort_unstable_by(|a, b| b.score.total_cmp(&a.score).then(a.doc.cmp(&b.doc)));
        for k in [1, 3, 10, n - 1, n, n + 1, 500] {
            let got = select_top_k(hits.iter().copied(), k);
            assert_eq!(bits(&got), bits(&sorted[..k.min(n)]), "k={k}");
            let heap = crate::search::top_k(hits.iter().copied(), k);
            assert_eq!(bits(&got), bits(&heap), "k={k}: against the heap");
        }
        for &score in &scores {
            for doc in [0, u32::MAX - 1] {
                let hit = ScoredDoc {
                    doc: DocId(doc),
                    score,
                };
                let back = hit_of(rank_key(hit));
                assert_eq!((back.doc, back.score.to_bits()), (hit.doc, score.to_bits()));
            }
        }
    }

    #[test]
    fn dead_terms_are_dropped_before_choosing_a_path() {
        // On a fresh thread, so the scratch's size tells which path ran.
        std::thread::spawn(|| {
            let idx = Arc::new(index());
            let oracle = SearchEngine::new(&idx);
            let apple = idx.analyze_query("apple")[0];
            let storm = idx.analyze_query("storm")[0];
            let unknown = TermId(u32::MAX);
            assert!(kernel(&idx, &[unknown], &Dph::new(), 5).is_empty());
            assert!(kernel(&idx, &[unknown, unknown], &Dph::new(), 5).is_empty());
            for terms in [vec![apple, unknown], vec![unknown, apple, apple]] {
                assert_same(
                    &kernel(&idx, &terms, &Dph::new(), 10),
                    &oracle.search_terms(&terms, 10),
                    "one live term beside an unknown one",
                );
            }
            // A term without postings in the scored range: "storm" occurs
            // only in docs 3, 8, 13, …, none of them in shard 0 of 15
            // (docs 0 and 1, both "apple").
            let sharded = ShardedIndex::build(idx.clone(), 15);
            let shard0 = crate::ShardArtifact::from_bytes(&sharded.export_shard(0)).unwrap();
            let hits = score_range(&shard0, &query_weights(&[apple, storm]), &Dph::new(), 10);
            assert_same(&hits, &oracle.search_terms(&[apple], 2), "shard 0");
            assert_eq!(
                SCRATCH.with(|cell| cell.borrow().acc.len()),
                0,
                "one live term streams: none of these may reach the accumulator"
            );
            // …and with both terms live the same thread does accumulate.
            let terms = [apple, storm];
            assert_same(
                &kernel(&idx, &terms, &Dph::new(), 10),
                &oracle.search_terms(&terms, 10),
                "two live terms",
            );
            assert_eq!(SCRATCH.with(|cell| cell.borrow().acc.len()), 30);
        })
        .join()
        .expect("no panic");
    }

    #[test]
    fn duplicate_query_terms_keep_their_multiplicity() {
        assert_eq!(
            query_weights(&[
                TermId(3),
                TermId(1),
                TermId(3),
                TermId(3),
                TermId(2),
                TermId(1)
            ]),
            vec![(TermId(1), 2), (TermId(2), 1), (TermId(3), 3)]
        );
        let idx = index();
        let once = kernel(&idx, &idx.analyze_query("apple"), &Dph::new(), 30);
        let terms = idx.analyze_query("apple apple apple");
        let thrice = kernel(&idx, &terms, &Dph::new(), 30);
        assert_same(
            &thrice,
            &SearchEngine::new(&idx).search_terms(&terms, 30),
            "apple ×3",
        );
        // The multiplicity is a weight on the one term, not three terms.
        let tripled: Vec<u64> = once.iter().map(|h| (h.score * 3.0).to_bits()).collect();
        let mut got: Vec<u64> = thrice.iter().map(|h| h.score.to_bits()).collect();
        let mut expect = tripled.clone();
        got.sort_unstable();
        expect.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn k_beyond_the_matches_and_k_zero() {
        let idx = index();
        let oracle = SearchEngine::new(&idx);
        for query in ["apple", "apple storm"] {
            let terms = idx.analyze_query(query);
            assert!(kernel(&idx, &terms, &Dph::new(), 0).is_empty());
            let all = oracle.search_terms(&terms, 5000);
            assert!(all.len() <= 30);
            for k in [all.len() - 1, all.len(), all.len() + 1, 5000, usize::MAX] {
                let hits = kernel(&idx, &terms, &Dph::new(), k);
                assert_same(&hits, &all[..k.min(all.len())], query);
            }
        }
        assert!(kernel(&idx, &[], &Dph::new(), 10).is_empty());
    }

    /// DPH until the fuse burns down, then a panic *between* accumulator
    /// updates — i.e. after slots are already dirty.
    struct FusedModel(AtomicU32);

    impl RankingModel for FusedModel {
        fn score(&self, tf: u32, doc_len: u32, term: TermStats, coll: CollectionStats) -> f64 {
            if self.0.fetch_sub(1, Ordering::Relaxed) == 0 {
                panic!("model fault mid-accumulation");
            }
            Dph::new().score(tf, doc_len, term, coll)
        }
    }

    #[test]
    fn mid_accumulation_panic_leaves_the_dense_scratch_clean() {
        let idx = Arc::new(index());
        let sharded = ShardedIndex::build(idx.clone(), 2);
        let weights = query_weights(&idx.analyze_query("apple iphone chip"));
        let shard_bytes: Vec<Vec<u8>> = (0..2).map(|s| sharded.export_shard(s)).collect();
        let artifacts: Vec<_> = shard_bytes
            .iter()
            .map(|b| crate::ShardArtifact::from_bytes(b).expect("valid artifact"))
            .collect();
        // The unsharded view and a range view with a non-zero base.
        let whole = IndexRange::whole(&idx, None);
        let run_whole = |m: &FusedModel| score_range(&whole, &weights, m, 30);
        let run_shard = |m: &FusedModel| score_range(&artifacts[1], &weights, m, 30);
        type Run<'a> = &'a dyn Fn(&FusedModel) -> Vec<ScoredDoc>;
        let runs: [(&str, Run); 2] = [("whole index", &run_whole), ("shard 1", &run_shard)];
        for (what, run) in runs {
            // Sanity: the query touches enough postings that a fuse of 3
            // burns after some slots are dirty but before the pass ends.
            let clean = run(&FusedModel(AtomicU32::new(u32::MAX)));
            assert!(clean.len() > 3, "{what}");
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run(&FusedModel(AtomicU32::new(3)))
            }));
            assert!(unwound.is_err(), "{what}: the fused model must panic");
            // Accumulator, bitmap and touched list are all back to the
            // between-uses invariant, so this thread's next query is
            // bit-identical.
            assert!(scratch_is_clean(), "{what}");
            assert_same(&run(&FusedModel(AtomicU32::new(u32::MAX))), &clean, what);
            assert!(scratch_is_clean(), "{what}");
        }
        // And the two halves still gather to the oracle's page.
        let dph = Dph::new();
        let gathered = merge_top_k(
            artifacts
                .iter()
                .map(|a| score_range(a, &weights, &dph, 30))
                .collect(),
            30,
        );
        let terms = idx.analyze_query("apple iphone chip");
        assert_same(
            &gathered,
            &SearchEngine::new(&idx).search_terms(&terms, 30),
            "gather",
        );
    }

    /// Seeded random queries — one to four terms, repeats and unknown ids
    /// among them, k from 1 to 40 — over the whole index and over a shard
    /// whose range starts past doc 0. About half run a model that panics
    /// at a random posting; every call is followed by a check that the
    /// scratch is back to its invariant and by a clean query that must
    /// match the oracle bit for bit.
    #[test]
    fn random_queries_and_panics_leave_the_scratch_clean() {
        let words = [
            "apple", "iphone", "fruit", "chip", "storm", "wind", "pie", "rain", "orchard", "sweet",
        ];
        let mut rng = StdRng::seed_from_u64(0x5C7A);
        let mut b = IndexBuilder::new();
        for i in 0..120u32 {
            let len = rng.gen_range(1..12);
            let text: Vec<&str> = (0..len)
                .map(|_| words[rng.gen_range(0..words.len())])
                .collect();
            b.add(Document::new(
                i,
                format!("http://r/{i}"),
                "",
                text.join(" "),
            ));
        }
        let idx = Arc::new(b.build());
        let vocab: Vec<TermId> = words.iter().flat_map(|w| idx.analyze_query(w)).collect();
        assert_eq!(vocab.len(), words.len());
        let oracle = SearchEngine::new(&idx);
        let bytes = ShardedIndex::build(idx.clone(), 3).export_shard(1);
        let shard = crate::ShardArtifact::from_bytes(&bytes).expect("valid artifact");
        let range = shard.base()..shard.base() + shard.doc_lens().len() as u32;
        assert!(range.start > 0);
        let whole = IndexRange::whole(&idx, None);
        let mut panicked = 0;
        for seed in 0..400u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let terms: Vec<TermId> = (0..rng.gen_range(1..=4))
                .map(|_| {
                    if rng.gen_bool(0.1) {
                        TermId(u32::MAX)
                    } else {
                        vocab[rng.gen_range(0..vocab.len())]
                    }
                })
                .collect();
            let weights = query_weights(&terms);
            let k = rng.gen_range(1..=40);
            let on_shard = rng.gen_bool(0.5);
            let run = |model: &FusedModel| {
                if on_shard {
                    score_range(&shard, &weights, model, k)
                } else {
                    score_range(&whole, &weights, model, k)
                }
            };
            let expect: Vec<ScoredDoc> = oracle
                .search_terms(&terms, 1_000)
                .into_iter()
                .filter(|h| !on_shard || range.contains(&h.doc.0))
                .take(k)
                .collect();
            let what = format!("seed {seed}: {terms:?} k={k} shard={on_shard}");
            if rng.gen_bool(0.5) {
                let fuse = rng.gen_range(0..80);
                let fused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run(&FusedModel(AtomicU32::new(fuse)))
                }));
                match fused {
                    Ok(hits) => assert_same(&hits, &expect, &what),
                    Err(_) => panicked += 1,
                }
                assert!(scratch_is_clean(), "{what}: after a fused call");
            }
            assert_same(&run(&FusedModel(AtomicU32::new(u32::MAX))), &expect, &what);
            assert!(scratch_is_clean(), "{what}");
        }
        assert!(panicked >= 100, "only {panicked} calls panicked");
    }
}
