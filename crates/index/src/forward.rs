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
//! The build splits the collection into contiguous doc-id ranges, one per
//! available core, and compiles each on its own scoped thread into its
//! own part of the final body stream (sized by a counting pass first, so
//! no per-range stream is ever concatenated). Each distinct raw token is
//! *analyzed* once per range: a range keeps a memo from raw token to term
//! id (or to "nothing": stopword or unknown term), shared by its bodies
//! and titles, and runs the analyzer's stopword and stem step only on a
//! token it has not met. The memo lives for one [`ForwardIndex::build`]
//! call and is dropped with it, since its ids are that index's
//! vocabulary's. A token is its own tokenization, so each memo entry
//! equals `analyze(raw).first()` looked up in the vocabulary — the
//! per-raw-token normalization of the text oracle — and the index is the
//! same bytes whatever the number of ranges.
//!
//! At request time, [`ForwardIndex::surrogate`] selects the best window
//! with an incremental O(n) slide (counts added/removed at the edges, a
//! tiny per-query-term counter array instead of `Vec::contains` rescans)
//! and emits the surrogate [`SparseVector`] straight from `TermId`s and
//! cached IDF weights — no snippet `String`, no re-tokenization, no
//! re-stemming anywhere on the hot path. The result is **bit-identical**
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
use crate::index::InvertedIndex;
use crate::reader::{ByteReader, ByteWriter};
use crate::serialize::DecodeError;
use crate::vector::SparseVector;
use serpdiv_text::TermId;

/// Sentinel marking a body position whose raw token analyzed to nothing
/// usable (stopword, or out-of-vocabulary). Kept in the stream so window
/// offsets still count *raw* tokens, exactly like the text path.
pub const STOP: u32 = u32::MAX;

const MAGIC: u32 = 0x5E9D_F0D1;
const VERSION: u32 = 1;

/// Deploy-time compiled forward index over a collection's documents.
///
/// One flat `TermId` stream holds every document body (offset-indexed),
/// one flat `(term, tf)` list holds every title vector, and a dense table
/// caches the per-term IDF weight. Built once from an [`InvertedIndex`]
/// (whose analyzer must match the snippet generator's — both default to
/// the English pipeline everywhere in this workspace), then shared
/// immutably by all serving threads.
#[derive(Debug, Clone, PartialEq)]
pub struct ForwardIndex {
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
    /// `ln(1 + N/df)` per term id — the exact `f32` factor
    /// [`SparseVector::from_text`] computes from the index statistics.
    idf: Vec<f32>,
}

impl ForwardIndex {
    /// Compile the forward index from `index`: tokenize each document
    /// body once, precompute title term frequencies and per-term IDF
    /// weights. This is an offline deployment step (one full pass over the
    /// document store) that uses the available cores: contiguous doc-id
    /// ranges, one per core, compile concurrently, each analyzing each
    /// distinct raw token once, into disjoint parts of the final arrays —
    /// so the index is byte-identical for any core count.
    pub fn build(index: &InvertedIndex) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        Self::build_chunked(index, cores)
    }

    /// [`build`](Self::build) over `chunks` contiguous doc-id ranges (at
    /// most one per document): the calling thread compiles the first, a
    /// scoped thread each of the others, each range through its own memo.
    ///
    /// Two passes, so no per-range body stream is ever concatenated: the
    /// first counts each document's raw body tokens and compiles its title
    /// entries (kept: titles are a small share of the stream); one prefix
    /// sum then turns the per-document lengths into offsets, `tokens` is
    /// allocated once at the total and the second pass fills each range's
    /// own sub-slice of it.
    pub(crate) fn build_chunked(index: &InvertedIndex, chunks: usize) -> Self {
        let vocab = index.vocab();
        let analyzer = index.analyzer();
        assert!(
            (vocab.len() as u64) < u64::from(u32::MAX),
            "vocabulary too large for the u32 sentinel encoding"
        );
        let tokenizer = analyzer.tokenizer();
        let analyze = |raw: &str| analyzer.analyze_token(raw).and_then(|term| vocab.id(&term));
        let docs = index.store().as_slice();
        let per_range = docs.len().div_ceil(chunks.max(1)).max(1);
        let num_ranges = docs.chunks(per_range).len();
        let mut memos: Vec<TokenMemo> = (0..num_ranges).map(|_| TokenMemo::default()).collect();

        // First pass: per document, its body length and its title entries.
        let mut offsets = vec![0u32; docs.len() + 1];
        let mut title_offsets = vec![0u32; docs.len() + 1];
        let mut titles: Vec<Vec<(u32, u32)>> = vec![Vec::new(); num_ranges];
        let count = |docs: &[Document],
                     lens: &mut [u32],
                     title_lens: &mut [u32],
                     titles: &mut Vec<(u32, u32)>,
                     memo: &mut TokenMemo| {
            let mut title: Vec<u32> = Vec::new();
            for ((doc, len), title_len) in docs.iter().zip(lens).zip(title_lens) {
                let mut n = 0usize;
                tokenizer.for_each_token(&doc.body, |_| n += 1);
                *len = u32_len(n, "forward stream");

                // Title tf vector: full analysis of the raw title, unknown
                // terms dropped — what `from_text` sees for the title prefix.
                title.clear();
                tokenizer.for_each_token(&doc.title, |raw| {
                    title.extend(memo.resolve(raw, analyze).map(|t| t.0));
                });
                title.sort_unstable();
                let before = titles.len();
                titles.extend(
                    title
                        .chunk_by(|a, b| a == b)
                        .map(|run| (run[0], run.len() as u32)),
                );
                *title_len = u32_len(titles.len() - before, "title entries");
            }
        };
        std::thread::scope(|scope| {
            let mut ranges = docs
                .chunks(per_range)
                .zip(offsets[1..].chunks_mut(per_range))
                .zip(title_offsets[1..].chunks_mut(per_range))
                .zip(titles.iter_mut().zip(&mut memos));
            let first = ranges.next();
            for (((docs, lens), title_lens), (titles, memo)) in ranges {
                scope.spawn(move || count(docs, lens, title_lens, titles, memo));
            }
            if let Some((((docs, lens), title_lens), (titles, memo))) = first {
                count(docs, lens, title_lens, titles, memo);
            }
        });
        prefix_sum(&mut offsets, "forward stream");
        prefix_sum(&mut title_offsets, "title entries");
        let title_terms = titles.concat();
        drop(titles);

        // Second pass: the body streams — the same per-raw-token
        // normalization the text oracle applies (analyze the token, keep
        // the term if the vocabulary knows it).
        let mut tokens = vec![0u32; offsets[docs.len()] as usize];
        let fill = |docs: &[Document], body: &mut [u32], memo: &mut TokenMemo| {
            let mut body = body.iter_mut();
            for doc in docs {
                tokenizer.for_each_token(&doc.body, |raw| {
                    *body.next().expect("counted by the first pass") =
                        memo.resolve(raw, analyze).map_or(STOP, |t| t.0);
                });
            }
            assert!(body.next().is_none(), "the first pass over-counted");
        };
        std::thread::scope(|scope| {
            let (mut rest, mut start) = (&mut tokens[..], 0);
            let mut ranges = docs
                .chunks(per_range)
                .zip(offsets[1..].chunks(per_range))
                .zip(&mut memos)
                .map(|((docs, ends), memo)| {
                    let end = ends[ends.len() - 1];
                    let (body, tail) =
                        std::mem::take(&mut rest).split_at_mut((end - start) as usize);
                    (rest, start) = (tail, end);
                    (docs, body, memo)
                });
            let first = ranges.next();
            for (docs, body, memo) in ranges {
                scope.spawn(move || fill(docs, body, memo));
            }
            if let Some((docs, body, memo)) = first {
                fill(docs, body, memo);
            }
        });

        // Cached IDF factors, computed with the exact `f32` expression of
        // `SparseVector::from_text` so weights stay bit-identical.
        let n = index.stats().num_docs as f32;
        let idf = (0..vocab.len())
            .map(|t| {
                let df = index
                    .term_stats(TermId(t as u32))
                    .map(|s| s.doc_freq as f32)
                    .unwrap_or(0.0)
                    .max(1.0);
                (1.0 + n / df).ln()
            })
            .collect();

        ForwardIndex {
            tokens,
            offsets,
            title_terms,
            title_offsets,
            idf,
        }
    }

    /// Number of compiled documents.
    pub fn num_docs(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The compiled body token stream of `doc` (empty for unknown docs).
    pub fn doc_tokens(&self, doc: DocId) -> &[u32] {
        let i = doc.index();
        if i + 1 >= self.offsets.len() {
            return &[];
        }
        &self.tokens[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// The precomputed title `(term, tf)` entries of `doc`, sorted by
    /// term id (empty for unknown docs).
    pub fn title_tf(&self, doc: DocId) -> &[(u32, u32)] {
        let i = doc.index();
        if i + 1 >= self.title_offsets.len() {
            return &[];
        }
        &self.title_terms[self.title_offsets[i] as usize..self.title_offsets[i + 1] as usize]
    }

    /// The cached IDF weight `ln(1 + N/df)` of `term` (0 for unknown
    /// terms — they cannot occur in a compiled stream anyway).
    pub fn idf(&self, term: TermId) -> f32 {
        self.idf.get(term.index()).copied().unwrap_or(0.0)
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
        if doc.index() >= self.num_docs() {
            return SparseVector::default();
        }
        let tokens = self.doc_tokens(doc);
        let (start, len) = best_window_over(tokens, query_terms, window);

        // Term frequencies of the window: sort the (few) window terms and
        // count runs — no hashing.
        let mut win: Vec<u32> = tokens[start..start + len]
            .iter()
            .copied()
            .filter(|&t| t != STOP)
            .collect();
        win.sort_unstable();

        // Merge window counts with the sorted title tf entries.
        let title = self.title_tf(doc);
        let mut pairs: Vec<(TermId, f32)> = Vec::with_capacity(win.len() + title.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < win.len() || j < title.len() {
            let wt = win.get(i).copied();
            let tt = title.get(j).map(|&(t, _)| t);
            let term = match (wt, tt) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => unreachable!(),
            };
            let mut tf = 0u32;
            while i < win.len() && win[i] == term {
                tf += 1;
                i += 1;
            }
            if j < title.len() && title[j].0 == term {
                tf += title[j].1;
                j += 1;
            }
            // The exact weight expression of `SparseVector::from_text`.
            let w = (1.0 + (tf as f32).ln()) * self.idf[term as usize];
            pairs.push((TermId(term), w));
        }
        SparseVector::from_sorted_pairs(pairs)
    }

    /// Approximate in-memory footprint in bytes (reported by the benches
    /// next to the index and compiled-store footprints).
    pub fn byte_size(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.tokens.len() * std::mem::size_of::<u32>()
            + self.offsets.len() * std::mem::size_of::<u32>()
            + self.title_terms.len() * std::mem::size_of::<(u32, u32)>()
            + self.title_offsets.len() * std::mem::size_of::<u32>()
            + self.idf.len() * std::mem::size_of::<f32>()
    }

    /// Serialize to a binary buffer (deploy-time artifact, loaded next to
    /// the inverted index — see [`crate::serialize`] for the index side).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u32(MAGIC);
        w.u32(VERSION);
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
        w.count(self.idf.len());
        for &weight in &self.idf {
            w.u32(weight.to_bits());
        }
        w.finish()
    }

    /// Decode a buffer produced by [`ForwardIndex::to_bytes`].
    pub fn from_bytes(data: &[u8]) -> Result<Self, DecodeError> {
        let mut r = ByteReader::new(data);
        if r.u32()? != MAGIC {
            return Err(DecodeError::BadMagic);
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(DecodeError::BadVersion(version));
        }
        // `num_docs + 1` offsets follow; the count is bounded by them.
        let num_docs = r.count(4)?;
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
        let n_idf = r.count(4)?;
        let idf: Vec<f32> = r.u32s(n_idf)?.into_iter().map(f32::from_bits).collect();
        if r.finish().is_err() {
            return Err(DecodeError::Corrupt("trailing bytes after forward index"));
        }

        // Structural validation: a well-framed but corrupt artifact must
        // fail here, not panic a serving worker on its first request.
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
                .all(|&t| t == STOP || (t as usize) < idf.len()),
            "body term ids",
        )?;
        check(
            title_terms
                .iter()
                .all(|&(t, tf)| (t as usize) < idf.len() && tf > 0),
            "title entries",
        )?;
        // `surrogate` merges each title with the sorted window terms.
        check(
            title_offsets.windows(2).all(|doc| {
                title_terms[doc[0] as usize..doc[1] as usize]
                    .windows(2)
                    .all(|e| e[0].0 < e[1].0)
            }),
            "title terms not strictly increasing",
        )?;
        check(idf.iter().all(|w| w.is_finite() && *w >= 0.0), "idf table")?;

        Ok(ForwardIndex {
            tokens,
            offsets,
            title_terms,
            title_offsets,
            idf,
        })
    }
}

/// Turn per-document lengths (after the leading 0) into end offsets;
/// panics when the `what` stream outgrows the format's `u32` offsets.
fn prefix_sum(lens: &mut [u32], what: &str) {
    let mut total = 0u32;
    for len in lens {
        total = total
            .checked_add(*len)
            .unwrap_or_else(|| panic!("{what} exceed u32 offsets"));
        *len = total;
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

    #[test]
    fn roundtrip_serialization() {
        let index = build_world();
        let f = ForwardIndex::build(&index);
        let bytes = f.to_bytes();
        let restored = ForwardIndex::from_bytes(&bytes).unwrap();
        assert_eq!(restored, f);
        // Decoding garbage fails cleanly.
        assert_eq!(
            ForwardIndex::from_bytes(&[0u8; 16]).unwrap_err(),
            DecodeError::BadMagic
        );
        for cut in [0, 6, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                ForwardIndex::from_bytes(&bytes[..cut]).is_err(),
                "cut {cut}"
            );
        }
        let mut bad = bytes.clone();
        bad[4] = 9;
        assert_eq!(
            ForwardIndex::from_bytes(&bad).unwrap_err(),
            DecodeError::BadVersion(9)
        );
    }

    #[test]
    fn structurally_corrupt_buffers_fail_at_decode() {
        let index = build_world();
        let f = ForwardIndex::build(&index);
        let bytes = f.to_bytes();
        // First offset (right after magic/version/num_docs) made
        // non-zero: offsets no longer start at 0.
        let mut bad = bytes.clone();
        bad[12] = 0xff;
        assert_eq!(
            ForwardIndex::from_bytes(&bad).unwrap_err(),
            DecodeError::Corrupt("body offsets")
        );
        // A token patched to a term id outside the idf table (but not
        // the STOP sentinel): the stream references a term that does
        // not exist.
        let token_base = 12 + (f.num_docs() + 1) * 4 + 4;
        let mut bad = bytes.clone();
        bad[token_base..token_base + 4].copy_from_slice(&0x7fff_ffffu32.to_le_bytes());
        assert_eq!(
            ForwardIndex::from_bytes(&bad).unwrap_err(),
            DecodeError::Corrupt("body term ids")
        );
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
    fn chunked_builds_are_byte_identical_to_one_chunk() {
        // Empty bodies, title-only and body-only documents, an all-empty
        // one and stopword-only text land on every side of the chunk
        // boundaries below.
        let shapes = [
            (
                "Apple iPhone",
                "the apple iphone is announced today with a new chip",
            ),
            ("Title Only", ""),
            ("", "orchard harvest apple cider pressed in autumn"),
            ("", ""),
            ("The Of And", "the of and is"),
            (
                "Jaguar Cars",
                "jaguar unveils an electric car; the jaguar roars",
            ),
            ("Jaguar Cat", ""),
            ("Ünïcode Títle", "ÇAFÉ crème brûlée at the café"),
            ("", "apple apple apple iphone iphone"),
            ("Rain", "weather forecast rain cloud wind storm rain"),
            ("Empty Body Again", ""),
        ];
        let mut b = IndexBuilder::new();
        for (id, (title, body)) in shapes.iter().enumerate() {
            b.add(Document::new(
                id as u32,
                format!("http://x/{id}"),
                *title,
                *body,
            ));
        }
        let index = b.build();
        let one = ForwardIndex::build_chunked(&index, 1);
        assert_eq!(one.num_docs(), shapes.len());
        for chunks in [2, 3, 7, shapes.len() - 1, shapes.len(), shapes.len() + 5] {
            let chunked = ForwardIndex::build_chunked(&index, chunks);
            assert_eq!(chunked.to_bytes(), one.to_bytes(), "{chunks} chunks");
            assert_eq!(chunked, one, "{chunks} chunks");
        }
        assert_eq!(ForwardIndex::build(&index), one);
        let empty = IndexBuilder::new().build();
        for chunks in [1, 2, 3] {
            assert_eq!(ForwardIndex::build_chunked(&empty, chunks).num_docs(), 0);
        }
    }

    #[test]
    fn byte_size_is_positive_and_grows() {
        let index = build_world();
        let f = ForwardIndex::build(&index);
        assert!(f.byte_size() > 0);
        let empty = ForwardIndex::build(&IndexBuilder::new().build());
        assert!(empty.byte_size() < f.byte_size());
        assert_eq!(empty.num_docs(), 0);
    }
}
