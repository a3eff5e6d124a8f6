//! The compiled forward index: zero-string snippet surrogates.
//!
//! §4 of the paper puts every expensive text operation in the *offline*
//! deployment phase so the serving loop only touches precompiled integer
//! data. The snippet-surrogate stage was the last place the request path
//! still ran the full analysis pipeline: every cache miss re-tokenized and
//! re-stemmed the whole document body, rescanned each candidate window
//! with linear probes, joined the winner back into a `String` and then
//! tokenized *that* a second time to vectorize it.
//!
//! [`ForwardIndex`] moves all of it to build time. Each document body is
//! tokenized **once** into a compact per-document stream of [`TermId`]s
//! in which stopword/out-of-vocabulary positions are kept as a sentinel
//! ([`STOP`]) — raw-token positions are preserved, so the query-biased
//! window semantics of
//! [`SnippetGenerator`](crate::snippet::SnippetGenerator) are unchanged.
//! Alongside the stream the index precomputes each document's title
//! term-frequency vector and caches the per-term IDF weight
//! `ln(1 + N/df)` used by [`SparseVector::from_text`].
//!
//! The rows (the body streams and title entries) are written by the
//! index build itself, in the one pass over the text that also counts
//! the postings: [`IndexBuilder`](crate::builder::IndexBuilder) resolves
//! each raw token once, through the memo the postings use, and counts
//! each row it writes into the document's `(term, tf)` runs (its title
//! entries merged with its sorted body ids). A merge appends a delta's
//! rows to its base's ([`merge_sealed`](crate::delta::merge_sealed)).
//! The index image holds the rows and nothing they determine
//! ([`InvertedIndex::to_bytes`]): a decoder validates them and counts
//! every row with the function the build counts with, so the postings,
//! lengths and statistics it gets are the ones the rows determine. The
//! IDF table is derived from those statistics. The build is the one
//! writer of rows, and nothing compiles them on load. The index owns the
//! view: [`InvertedIndex::forward`] borrows it, and
//! [`ForwardIndex::build`] is one [`Arc`] clone of it, so the §4.1 store
//! build, the serving generation and anyone else who asks share one set
//! of arrays.
//!
//! At request time, [`ForwardIndex::surrogate`] selects the best window
//! with an incremental O(n) slide (counts added/removed at the edges, a
//! tiny per-query-term counter array instead of `Vec::contains` rescans)
//! and emits the surrogate [`SparseVector`] straight from `TermId`s and
//! cached IDF weights — no snippet `String`, no re-tokenization, no
//! re-stemming anywhere on the hot path. A delta's documents go through
//! the same function over the delta's own rows
//! ([`DeltaIndex::surrogate`](crate::delta::DeltaIndex::surrogate)),
//! weighted with the union statistics. The result is **bit-identical**
//! to the text oracle (`SnippetGenerator::snippet` +
//! `SparseVector::from_text`); `tests/surrogate_equivalence.rs` proves it.
//!
//! # Example
//!
//! ```
//! use serpdiv_index::{Document, ForwardIndex, IndexBuilder, SnippetGenerator, SparseVector};
//!
//! let mut builder = IndexBuilder::new();
//! builder.add(Document::new(0, "http://a", "Apple iPhone", "apple announces the new iphone"));
//! let index = builder.build();
//! let forward = ForwardIndex::build(&index);
//!
//! let qterms = index.analyze_query("iphone");
//! let compiled = forward.surrogate(serpdiv_index::DocId(0), &qterms, 30);
//! // Identical to the offline text path:
//! let snippets = SnippetGenerator::with_window(30);
//! let doc = index.store().get(serpdiv_index::DocId(0)).unwrap();
//! let snippet = snippets.snippet(doc, &qterms, index.vocab());
//! assert_eq!(compiled, SparseVector::from_text(&snippet, &index));
//! ```

use crate::builder::TokenMemo;
use crate::document::{DocId, Document};
use crate::index::{InvertedIndex, TermStats};
use crate::reader::{ByteReader, ByteWriter};
use crate::serialize::DecodeError;
use crate::vector::{idf_weight, tf_idf_weight, SparseVector};
use serpdiv_text::{TermId, Tokenizer};
use std::sync::Arc;

/// Sentinel marking a body position whose raw token analyzed to nothing
/// usable (stopword, or out-of-vocabulary). Kept in the stream so window
/// offsets still count *raw* tokens, exactly like the text path.
pub const STOP: u32 = u32::MAX;

/// Deploy-time compiled forward index over a collection's documents.
///
/// One flat `TermId` stream holds every document body (offset-indexed),
/// one flat `(term, tf)` list holds every title vector, and a dense table
/// caches the per-term IDF weight. Written once, by the build of its
/// [`InvertedIndex`], through the one analysis pipeline the snippet
/// generator runs too, then shared immutably by all serving threads. The
/// arrays sit behind one [`Arc`]: a clone costs a reference count, and
/// clones share storage.
#[derive(Debug, Clone, PartialEq)]
pub struct ForwardIndex(Arc<Arrays>);

/// The compiled arrays a [`ForwardIndex`] shares.
#[derive(Debug, PartialEq)]
struct Arrays {
    rows: Rows,
    /// `ln(1 + N/df)` per term id — the exact `f32` factor
    /// [`SparseVector::from_text`] computes from the index statistics.
    idf: Vec<f32>,
}

/// The per-document part of a forward index, for a run of consecutive
/// documents: what the index build writes and counts its postings from,
/// what a merge appends to its base's, and all of an index image that
/// is not vocabulary or text.
#[derive(Debug, PartialEq)]
pub(crate) struct Rows {
    /// Concatenated per-document body token streams ([`STOP`] sentinels
    /// preserve raw positions).
    tokens: Vec<u32>,
    /// Per-document offsets into `tokens`; `len = num_docs + 1`.
    offsets: Vec<u32>,
    /// Concatenated per-document title `(term, tf)` entries, sorted by
    /// term id within each document.
    title_terms: Vec<(u32, u32)>,
    /// Per-document offsets into `title_terms`; `len = num_docs + 1`.
    title_offsets: Vec<u32>,
}

impl Default for Rows {
    fn default() -> Self {
        Rows {
            tokens: Vec::new(),
            offsets: vec![0],
            title_terms: Vec::new(),
            title_offsets: vec![0],
        }
    }
}

impl Rows {
    /// Append `doc`'s row: each raw title token, then each raw body token,
    /// resolved through `memo` (which calls `analyze` on a token it has not
    /// met); `scratch` sorts the title's term ids into its entries.
    pub(crate) fn push(
        &mut self,
        doc: &Document,
        memo: &mut TokenMemo,
        mut analyze: impl FnMut(&str) -> Option<TermId>,
        scratch: &mut Vec<u32>,
    ) {
        // Title tf vector: full analysis of the raw title — what
        // `from_text` sees for the title prefix.
        scratch.clear();
        Tokenizer::for_each_token(&doc.title, |raw| {
            scratch.extend(memo.resolve(raw, &mut analyze).map(|t| t.0));
        });
        scratch.sort_unstable();
        self.title_terms.extend(
            scratch
                .chunk_by(|a, b| a == b)
                .map(|run| (run[0], run.len() as u32)),
        );
        let title_end = u32_len(self.title_terms.len(), "title entries");
        self.title_offsets.push(title_end);

        Tokenizer::for_each_token(&doc.body, |raw| {
            let id = memo.resolve(raw, &mut analyze);
            self.tokens.push(id.map_or(STOP, |t| t.0));
        });
        let end = u32_len(self.tokens.len(), "forward stream");
        self.offsets.push(end);
    }

    /// The `doc`-th document's `(term, tf)` runs, appended to `out` in
    /// term-id order: its title entries merged with its body's non-[`STOP`]
    /// ids, which `scratch` sorts. These are the postings the document
    /// adds, the one per-document count of both the build and the
    /// decoder. Returns the document's length, the sum of its runs, or
    /// `None` (appending nothing) when that exceeds `u32`: a title entry
    /// is counted, never expanded.
    pub(crate) fn runs(
        &self,
        doc: usize,
        scratch: &mut Vec<u32>,
        out: &mut Vec<(u32, u32)>,
    ) -> Option<u32> {
        let title = run(&self.title_terms, &self.title_offsets, doc);
        scratch.clear();
        scratch.extend(
            run(&self.tokens, &self.offsets, doc)
                .iter()
                .filter(|&&t| t != STOP),
        );
        scratch.sort_unstable();
        let title_len: u64 = title.iter().map(|&(_, tf)| u64::from(tf)).sum();
        let len = u32::try_from(scratch.len() as u64 + title_len).ok()?;
        let mut title = title.iter().copied().peekable();
        for body in scratch.chunk_by(|a, b| a == b) {
            let term = body[0];
            while let Some(entry) = title.next_if(|&(t, _)| t < term) {
                out.push(entry);
            }
            let tf = title.next_if(|&(t, _)| t == term).map_or(0, |(_, tf)| tf);
            out.push((term, body.len() as u32 + tf));
        }
        out.extend(title);
        Some(len)
    }

    /// Make room for `parts` exactly, so appending them reallocates
    /// nothing and leaves no slack.
    pub(crate) fn reserve_exact<'a>(&mut self, parts: impl IntoIterator<Item = &'a Rows> + Clone) {
        let total = |len: fn(&Rows) -> usize| parts.clone().into_iter().map(len).sum::<usize>();
        self.tokens.reserve_exact(total(|r| r.tokens.len()));
        self.offsets.reserve_exact(total(|r| r.offsets.len() - 1));
        self.title_terms
            .reserve_exact(total(|r| r.title_terms.len()));
        self.title_offsets
            .reserve_exact(total(|r| r.title_offsets.len() - 1));
    }

    /// Append `other`'s documents, each term id `t` written as
    /// `remap(t)`; each title's entries are re-sorted under the new ids.
    pub(crate) fn append(&mut self, other: &Rows, remap: impl Fn(u32) -> u32) {
        let base = self.tokens.len();
        self.tokens.extend(
            other
                .tokens
                .iter()
                .map(|&t| if t == STOP { STOP } else { remap(t) }),
        );
        self.offsets.extend(
            other.offsets[1..]
                .iter()
                .map(|&end| u32_len(base + end as usize, "forward stream")),
        );
        for doc in other.title_offsets.windows(2) {
            let start = self.title_terms.len();
            let entries = &other.title_terms[doc[0] as usize..doc[1] as usize];
            self.title_terms
                .extend(entries.iter().map(|&(t, tf)| (remap(t), tf)));
            self.title_terms[start..].sort_unstable();
            let end = u32_len(self.title_terms.len(), "title entries");
            self.title_offsets.push(end);
        }
    }

    /// Drop the spare capacity growth left behind.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.tokens.shrink_to_fit();
        self.offsets.shrink_to_fit();
        self.title_terms.shrink_to_fit();
        self.title_offsets.shrink_to_fit();
    }

    /// Append the rows section of an index image: the row count, the
    /// body offsets and term ids, then the title offsets and `(term, tf)`
    /// entries.
    pub(crate) fn write(&self, w: &mut ByteWriter) {
        w.count(self.num_docs());
        w.u32s(&self.offsets);
        w.count(self.tokens.len());
        w.u32s(&self.tokens);
        w.u32s(&self.title_offsets);
        w.count(self.title_terms.len());
        for &(t, tf) in &self.title_terms {
            w.u32(t);
            w.u32(tf);
        }
    }

    /// Decode the rows section [`write`](Self::write) appends, for an
    /// index of `num_docs` documents over `num_terms` terms. A well-framed
    /// but corrupt section fails here, not a serving worker on its first
    /// request: one row per document, monotone offsets that end at their
    /// stream's length, body ids in the vocabulary or [`STOP`], and each
    /// title's terms in the vocabulary, strictly increasing (the window
    /// merge of [`surrogate`](Self::surrogate) relies on it) with `tf > 0`.
    pub(crate) fn read(
        r: &mut ByteReader,
        num_docs: usize,
        num_terms: usize,
    ) -> Result<Rows, DecodeError> {
        // `num_docs + 1` offsets follow; the count is bounded by them.
        if r.count(4)? != num_docs {
            return Err(DecodeError::Corrupt(
                "forward row count differs from document count",
            ));
        }
        let offsets = r.u32s(num_docs + 1)?;
        let n_tokens = r.count(4)?;
        let tokens = r.u32s(n_tokens)?;
        let title_offsets = r.u32s(num_docs + 1)?;
        let n_title = r.count(8)?;
        let title_terms: Vec<(u32, u32)> = r
            .u32s(2 * n_title)?
            .chunks_exact(2)
            .map(|e| (e[0], e[1]))
            .collect();

        let check = |ok: bool, what: &'static str| {
            if ok {
                Ok(())
            } else {
                Err(DecodeError::Corrupt(what))
            }
        };
        let monotone_to = |offs: &[u32], end: usize| {
            offs.first() == Some(&0)
                && offs.windows(2).all(|w| w[0] <= w[1])
                && offs.last().is_some_and(|&l| l as usize == end)
        };
        check(monotone_to(&offsets, tokens.len()), "body offsets")?;
        check(
            monotone_to(&title_offsets, title_terms.len()),
            "title offsets",
        )?;
        check(
            tokens
                .iter()
                .all(|&t| t == STOP || (t as usize) < num_terms),
            "body term ids",
        )?;
        check(
            title_terms
                .iter()
                .all(|&(t, tf)| (t as usize) < num_terms && tf > 0),
            "title entries",
        )?;
        check(
            title_offsets.windows(2).all(|doc| {
                title_terms[doc[0] as usize..doc[1] as usize]
                    .windows(2)
                    .all(|e| e[0].0 < e[1].0)
            }),
            "title terms not strictly increasing",
        )?;
        Ok(Rows {
            tokens,
            offsets,
            title_terms,
            title_offsets,
        })
    }

    pub(crate) fn num_docs(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The snippet-surrogate TF-IDF vector of the `doc`-th document for
    /// `query_terms` (the zero vector past the last row): the best window of
    /// its stream, counted with its title entries, each term weighted
    /// with `idf(term)` — bit-identical to `from_text` of the text
    /// oracle's snippet when `idf` gives `from_text`'s factor.
    pub(crate) fn surrogate(
        &self,
        doc: usize,
        query_terms: &[TermId],
        window: usize,
        idf: impl Fn(u32) -> f32,
    ) -> SparseVector {
        if doc >= self.num_docs() {
            return SparseVector::default();
        }
        let tokens = run(&self.tokens, &self.offsets, doc);
        let (start, len) = best_window_over(tokens, query_terms, window);

        // Term frequencies of the window: sort the (few) window terms and
        // count runs — no hashing.
        let mut win: Vec<u32> = tokens[start..start + len]
            .iter()
            .copied()
            .filter(|&t| t != STOP)
            .collect();
        win.sort_unstable();

        // Merge window counts with the sorted title tf entries. No term id
        // reaches `STOP`, so it stands for an exhausted side.
        let title = run(&self.title_terms, &self.title_offsets, doc);
        let mut pairs: Vec<(TermId, f32)> = Vec::with_capacity(win.len() + title.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < win.len() || j < title.len() {
            let term = win
                .get(i)
                .map_or(STOP, |&t| t)
                .min(title.get(j).map_or(STOP, |e| e.0));
            let mut tf = 0u32;
            while i < win.len() && win[i] == term {
                tf += 1;
                i += 1;
            }
            if j < title.len() && title[j].0 == term {
                tf += title[j].1;
                j += 1;
            }
            pairs.push((TermId(term), tf_idf_weight(tf, idf(term))));
        }
        SparseVector::from_sorted_pairs(pairs)
    }
}

impl ForwardIndex {
    /// The forward view of `index` ([`InvertedIndex::forward`]): each
    /// document body as a stream of term ids, title term frequencies and
    /// per-term IDF weights precomputed. A clone sharing the index's
    /// arrays.
    pub fn build(index: &InvertedIndex) -> Self {
        index.forward().clone()
    }

    /// Whether `a` and `b` share one set of arrays: the same view, not
    /// merely equal contents.
    pub fn ptr_eq(a: &Self, b: &Self) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }

    /// The forward index over `rows`, weighted with the IDF of
    /// `term_stats` (indexed by term id) over `num_docs` documents.
    pub(crate) fn from_rows(rows: Rows, num_docs: u64, term_stats: &[TermStats]) -> Self {
        assert!(
            (term_stats.len() as u64) < u64::from(STOP),
            "vocabulary too large for the u32 sentinel encoding"
        );
        // Cached IDF factors: the factor `SparseVector::from_text` computes.
        let idf = term_stats
            .iter()
            .map(|&ts| idf_weight(num_docs, Some(ts)))
            .collect();
        ForwardIndex(Arc::new(Arrays { rows, idf }))
    }

    /// The per-document arrays, for the index image.
    pub(crate) fn rows(&self) -> &Rows {
        &self.0.rows
    }

    /// Number of compiled documents.
    pub fn num_docs(&self) -> usize {
        self.0.rows.num_docs()
    }

    /// The compiled body token stream of `doc` (empty for unknown docs).
    pub fn doc_tokens(&self, doc: DocId) -> &[u32] {
        let a = &self.0.rows;
        run(&a.tokens, &a.offsets, doc.index())
    }

    /// The precomputed title `(term, tf)` entries of `doc`, sorted by
    /// term id (empty for unknown docs).
    pub fn title_tf(&self, doc: DocId) -> &[(u32, u32)] {
        let a = &self.0.rows;
        run(&a.title_terms, &a.title_offsets, doc.index())
    }

    /// The cached IDF weight `ln(1 + N/df)` of `term` (0 for unknown
    /// terms — they cannot occur in a compiled stream anyway).
    pub fn idf(&self, term: TermId) -> f32 {
        self.0.idf.get(term.index()).copied().unwrap_or(0.0)
    }

    /// Select the query-biased window of `doc`'s body: the `(start, len)`
    /// raw-token span (in the same coordinates as the text path) covering
    /// the most distinct query terms, ties broken by total query-term
    /// occurrences, then by earliest position. `len` is
    /// `min(window, body len)` — `(0, 0)` for an empty body.
    ///
    /// One incremental O(n) slide: entering/leaving edge tokens update a
    /// small per-query-term counter array; no window is ever rescanned.
    pub fn best_window(&self, doc: DocId, query_terms: &[TermId], window: usize) -> (usize, usize) {
        best_window_over(self.doc_tokens(doc), query_terms, window)
    }

    /// The snippet-surrogate TF-IDF vector of `doc` for `query_terms`,
    /// computed entirely over compiled data: best window selection on the
    /// `TermId` stream, term frequencies merged with the precomputed
    /// title vector, weights from the cached IDF table. Bit-identical to
    /// `SparseVector::from_text(SnippetGenerator::snippet(..), index)`;
    /// unknown documents yield the zero vector.
    pub fn surrogate(&self, doc: DocId, query_terms: &[TermId], window: usize) -> SparseVector {
        let idf = &self.0.idf;
        self.0
            .rows
            .surrogate(doc.index(), query_terms, window, |t| idf[t as usize])
    }
}

/// The `i`-th document's run of `items` under `offsets` (empty past the
/// last document).
fn run<'a, T>(items: &'a [T], offsets: &[u32], i: usize) -> &'a [T] {
    match offsets.get(i..i + 2) {
        Some(&[start, end]) => &items[start as usize..end as usize],
        _ => &[],
    }
}

/// `n` as a `u32` length of the `what` stream.
fn u32_len(n: usize, what: &str) -> u32 {
    u32::try_from(n).unwrap_or_else(|_| panic!("{what} exceed u32 offsets"))
}

/// The incremental sliding-window scan over one compiled token stream.
/// Same selection rule as the text oracle: maximize
/// `(distinct query terms, total query-term hits)`, earliest start wins
/// ties (strict-greater updates while scanning left to right).
fn best_window_over(tokens: &[u32], query_terms: &[TermId], window: usize) -> (usize, usize) {
    if tokens.is_empty() {
        return (0, 0);
    }
    // No .max(1): the oracle lets a zero window collapse the snippet to
    // the title alone, and bit-identity matters more than a lower bound
    // (SnippetGenerator construction clamps its window to ≥ 1 anyway).
    let w = window.min(tokens.len());
    if w == 0 || query_terms.is_empty() {
        // Every zero-width window scores (0, 0): earliest start wins.
        return (0, w);
    }
    // Deduplicate the (few) query terms so `distinct` counts term ids,
    // exactly like the oracle's scratch list.
    let mut q: Vec<u32> = Vec::with_capacity(query_terms.len());
    for t in query_terms {
        if !q.contains(&t.0) {
            q.push(t.0);
        }
    }
    let mut counts = vec![0u32; q.len()];
    let mut distinct = 0usize;
    let mut total = 0usize;
    macro_rules! edge {
        ($tok:expr, add) => {
            if $tok != STOP {
                if let Some(i) = q.iter().position(|&t| t == $tok) {
                    counts[i] += 1;
                    total += 1;
                    if counts[i] == 1 {
                        distinct += 1;
                    }
                }
            }
        };
        ($tok:expr, remove) => {
            if $tok != STOP {
                if let Some(i) = q.iter().position(|&t| t == $tok) {
                    counts[i] -= 1;
                    total -= 1;
                    if counts[i] == 0 {
                        distinct -= 1;
                    }
                }
            }
        };
    }
    for &tok in &tokens[..w] {
        edge!(tok, add);
    }
    let mut best = (distinct, total);
    let mut best_start = 0usize;
    for start in 1..=(tokens.len() - w) {
        edge!(tokens[start - 1], remove);
        edge!(tokens[start + w - 1], add);
        if (distinct, total) > best {
            best = (distinct, total);
            best_start = start;
        }
    }
    (best_start, w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IndexBuilder;
    use crate::document::Document;
    use crate::snippet::SnippetGenerator;

    fn build_world() -> InvertedIndex {
        let mut b = IndexBuilder::new();
        b.add(Document::new(
            0,
            "http://a",
            "Apple iPhone",
            "the apple iphone is announced today with a new chip and the camera",
        ));
        b.add(Document::new(1, "http://b", "Empty body", ""));
        b.add(Document::new(
            2,
            "http://c",
            "",
            "orchard harvest apple cider",
        ));
        b.add(Document::new(3, "http://d", "Stopwords", "the of and is"));
        b.build()
    }

    #[test]
    fn stream_preserves_raw_positions_with_sentinels() {
        let index = build_world();
        let f = ForwardIndex::build(&index);
        assert_eq!(f.num_docs(), 4);
        // Raw body of doc 0 has 13 tokens; stopwords become sentinels.
        let tokens = f.doc_tokens(DocId(0));
        assert_eq!(tokens.len(), 13);
        assert_eq!(tokens[0], STOP); // "the"
        let appl = index.vocab().id("appl").unwrap();
        assert_eq!(tokens[1], appl.0);
        // All-stopword body: all sentinels, positions intact.
        assert!(f.doc_tokens(DocId(3)).iter().all(|&t| t == STOP));
        assert_eq!(f.doc_tokens(DocId(3)).len(), 4);
        // Empty body / unknown doc.
        assert!(f.doc_tokens(DocId(1)).is_empty());
        assert!(f.doc_tokens(DocId(99)).is_empty());
    }

    #[test]
    fn title_tf_matches_full_analysis() {
        let index = build_world();
        let f = ForwardIndex::build(&index);
        let title = f.title_tf(DocId(0));
        let appl = index.vocab().id("appl").unwrap();
        let iphon = index.vocab().id("iphon").unwrap();
        let mut expected = vec![(appl.0, 1), (iphon.0, 1)];
        expected.sort_unstable();
        assert_eq!(title, expected.as_slice());
        assert!(f.title_tf(DocId(2)).is_empty());
    }

    #[test]
    fn surrogate_matches_text_oracle() {
        let index = build_world();
        let f = ForwardIndex::build(&index);
        let snippets = SnippetGenerator::with_window(5);
        for query in ["apple", "apple camera", "chip", "orchard cider", ""] {
            let qterms = index.analyze_query(query);
            for doc in 0..4u32 {
                let doc = DocId(doc);
                let d = index.store().get(doc).unwrap();
                let naive =
                    SparseVector::from_text(&snippets.snippet(d, &qterms, index.vocab()), &index);
                let compiled = f.surrogate(doc, &qterms, 5);
                assert_eq!(compiled, naive, "doc {doc:?} query {query:?}");
            }
        }
    }

    #[test]
    fn unknown_doc_yields_zero_vector() {
        let index = build_world();
        let f = ForwardIndex::build(&index);
        assert!(f.surrogate(DocId(77), &[], 30).is_zero());
    }

    #[test]
    fn incremental_window_matches_bruteforce() {
        // Direct check of the slide against a per-start rescan.
        let q = [TermId(1), TermId(2)];
        let tokens = [STOP, 1, STOP, 1, 2, STOP, 2, 2, 1, STOP, 1];
        for w in 1..=tokens.len() + 2 {
            let (fast_start, fast_len) = best_window_over(&tokens, &q, w);
            // Brute force.
            let eff = w.min(tokens.len());
            let mut best = (0usize, 0usize);
            let mut best_start = 0usize;
            for start in 0..=(tokens.len() - eff) {
                let mut distinct: Vec<u32> = Vec::new();
                let mut total = 0;
                for &t in &tokens[start..start + eff] {
                    if q.iter().any(|&x| x.0 == t) {
                        total += 1;
                        if !distinct.contains(&t) {
                            distinct.push(t);
                        }
                    }
                }
                if (distinct.len(), total) > best {
                    best = (distinct.len(), total);
                    best_start = start;
                }
            }
            assert_eq!((fast_start, fast_len), (best_start, eff), "window {w}");
        }
    }

    /// The rows section of an index image holding `rows`.
    fn rows_image(rows: &Rows) -> Vec<u8> {
        let mut w = ByteWriter::new();
        rows.write(&mut w);
        w.finish()
    }

    #[test]
    fn roundtrip_serialization() {
        // The index image carries the rows: a decoded index holds the
        // build's rows and IDF table, and re-encodes to the same bytes.
        let index = build_world();
        let bytes = index.to_bytes();
        let decoded = InvertedIndex::from_bytes(&bytes).unwrap();
        assert_eq!(*decoded.forward(), *index.forward());
        assert_eq!(decoded.to_bytes(), bytes);
        // The section ends the image; a cut anywhere inside it fails.
        let rows_len = rows_image(index.forward().rows()).len();
        assert!(bytes.ends_with(&rows_image(index.forward().rows())));
        for cut in bytes.len() - rows_len..bytes.len() {
            assert!(
                InvertedIndex::from_bytes(&bytes[..cut]).is_err(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn structurally_corrupt_buffers_fail_at_decode() {
        // Each check of the rows section, planted in a valid index image.
        let index = build_world();
        let bytes = index.to_bytes();
        let rows = index.forward().rows();
        let n = rows.num_docs();
        let count = bytes.len() - rows_image(rows).len();
        let body_offsets = count + 4;
        let tokens = body_offsets + 4 * (n + 1) + 4;
        let title_offsets = tokens + 4 * rows.tokens.len();
        let entries = title_offsets + 4 * (n + 1) + 4;
        assert_eq!(rows.offsets[..3], [0, 13, 13], "doc 1's body is empty");
        assert_eq!(
            rows.title_offsets[..2],
            [0, 2],
            "doc 0's title has two terms"
        );
        let (first, second) = (rows.title_terms[0].0, rows.title_terms[1].0);

        let planted = |edits: &[(usize, u32)]| {
            let mut bad = bytes.clone();
            for &(at, value) in edits {
                bad[at..at + 4].copy_from_slice(&value.to_le_bytes());
            }
            InvertedIndex::from_bytes(&bad).unwrap_err()
        };
        let cases: [(&[(usize, u32)], &str); 7] = [
            (
                &[(count, n as u32 - 1)],
                "forward row count differs from document count",
            ),
            (
                &[(count, n as u32 + 1)],
                "forward row count differs from document count",
            ),
            (&[(body_offsets + 4, 14)], "body offsets"),
            (&[(title_offsets + 4, 99)], "title offsets"),
            (&[(tokens + 4, index.num_terms() as u32)], "body term ids"),
            (&[(entries + 4, 0)], "title entries"),
            (
                &[(entries, second), (entries + 8, first)],
                "title terms not strictly increasing",
            ),
        ];
        for (edits, what) in cases {
            assert_eq!(planted(edits), DecodeError::Corrupt(what), "{edits:?}");
        }
        // The last term id and the sentinel are body ids the decoder keeps.
        let last = index.num_terms() as u32 - 1;
        for id in [last, STOP] {
            let mut ok = bytes.clone();
            ok[tokens + 4..tokens + 8].copy_from_slice(&id.to_le_bytes());
            let decoded = InvertedIndex::from_bytes(&ok).unwrap();
            assert_eq!(decoded.forward().doc_tokens(DocId(0))[1], id);
        }
    }

    #[test]
    fn zero_window_collapses_to_title_like_the_oracle() {
        let index = build_world();
        let f = ForwardIndex::build(&index);
        let qterms = index.analyze_query("apple");
        // Oracle with window 0: empty body part, title-only vector.
        assert_eq!(f.best_window(DocId(0), &qterms, 0), (0, 0));
        assert_eq!(
            f.surrogate(DocId(0), &qterms, 0),
            SparseVector::from_text("Apple iPhone", &index)
        );
        assert_eq!(f.best_window(DocId(0), &[], 0), (0, 0));
    }

    #[test]
    fn an_index_holds_one_forward_view() {
        let index = build_world();
        let first = ForwardIndex::build(&index);
        let again = ForwardIndex::build(&index);
        assert!(ForwardIndex::ptr_eq(&first, &again), "one view, shared");
        assert!(std::ptr::eq(
            first.doc_tokens(DocId(0)),
            again.doc_tokens(DocId(0))
        ));

        // A second index with the same documents has arrays of its own.
        let other = build_world();
        let theirs = ForwardIndex::build(&other);
        assert!(!ForwardIndex::ptr_eq(&first, &theirs));
        assert_eq!(theirs, first);

        // A decoded index holds the rows it was encoded with from the
        // moment it is decoded, in arrays of its own that every later
        // request for its view shares.
        let decoded = InvertedIndex::from_bytes(&index.to_bytes()).unwrap();
        assert!(!ForwardIndex::ptr_eq(decoded.forward(), &first));
        assert_eq!(*decoded.forward(), first);
        assert!(ForwardIndex::ptr_eq(
            decoded.forward(),
            &ForwardIndex::build(&decoded)
        ));
    }
}
