//! Index construction.
//!
//! The builder holds the documents it is given and, when it freezes,
//! reads each one's text once: it tokenizes the title and body, resolves
//! every raw token to a term id through the one [`Analyzer`] pipeline
//! that query-time processing runs too, and writes the document's row of
//! the compiled forward view
//! ([`ForwardIndex`](crate::forward::ForwardIndex)) — its body as a
//! term-id stream, its title as `(term, tf)` entries. The postings are
//! counted from that row, by the per-document count an index decoder
//! runs on the rows of an image, and encoded into [`PostingsList`]s
//! with their statistics by the one function both use.
//! [`IndexBuilder::build`] hands the rows and postings to the one
//! assembly of an [`InvertedIndex`], which derives the collection
//! statistics, the IDF table and the DPH table, so no later step
//! tokenizes a body again.
//!
//! Each distinct raw token is analyzed once per pass, not once per
//! occurrence: a web collection repeats a small vocabulary millions of
//! times, so a pass keeps a `TokenMemo` from raw token to term id and
//! runs the pipeline's stopword and stem step
//! ([`Analyzer::analyze_token`]) only on a token it has not met. The memo
//! belongs to one pass and is dropped with it; the ids it holds are that
//! pass's vocabulary's, so nothing outlives the build.
//!
//! The pass is split over contiguous doc-id ranges, at most one per
//! available core and none under `MIN_RANGE_DOCS` documents (so a small
//! ingest starts no thread). The first range interns into the builder's
//! own vocabulary, every later one into a vocabulary of its own; the
//! ranges are then merged in order — each range's terms interned into
//! the builder's vocabulary, its rows remapped into exact-size final
//! arrays, its documents' `(term, tf)` entries appended to the postings
//! lists the first range counted into — so the ids, the postings and the
//! rows are the bytes one sequential pass writes: what
//! [`Analyzer::analyze_interned`] of each document's full text would
//! intern, in the same order.
//!
//! There is one builder for both ways an index grows. [`IndexBuilder::new`]
//! starts an empty collection; the crate-private `extending` starts from
//! a sealed index — a copy of its vocabulary, the next free
//! document id — so the documents a [`DeltaIndex`](crate::delta::DeltaIndex)
//! holds are interned, counted, encoded and written to forward rows by
//! the very loop that would have indexed them in a from-scratch build,
//! under the term ids that build would have assigned.

use crate::document::{DocId, Document};
use crate::forward::Rows;
use crate::index::{InvertedIndex, TermStats};
use crate::postings::{PostingsBuilder, PostingsList};
use serpdiv_text::{Analyzer, TermId, Vocabulary};

/// The fewest documents a doc-id range of the build's text pass holds:
/// below twice this many, the pass runs on the calling thread alone.
const MIN_RANGE_DOCS: usize = 2048;

/// Builder for an [`InvertedIndex`].
#[derive(Debug)]
pub struct IndexBuilder {
    vocab: Vocabulary,
    /// Id of the first document this builder takes: 0, or the size of the
    /// sealed collection it extends.
    first_doc: u32,
    docs: Vec<Document>,
}

/// Raw token → its analyzed term id, for one pass over the text.
///
/// `None` is a token that analyzes to nothing the build keeps: a stopword,
/// or, against a read-only vocabulary, a term the vocabulary lacks. The
/// memo is only as valid as the vocabulary its ids came from, so each
/// pass owns one and drops it with the pass; there is no shared or
/// static cache.
///
/// A flat open-addressing table: the keys are ranges of one string arena
/// and each slot carries its key's hash and length, so a probe compares
/// two integers before it reads any key bytes, and no key is a heap
/// allocation of its own. The hash is a multiplicative one over 8-byte
/// words; the table doubles at half load, so a miss ends within a few
/// slots. Its keys are the tokens of the documents being indexed, never
/// a query's: documents crafted to collide slow only their own build.
#[derive(Debug, Default)]
pub(crate) struct TokenMemo {
    /// Every distinct token met, back to back.
    arena: String,
    /// Power-of-two many slots (none before the first insert).
    slots: Vec<Slot>,
    len: usize,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    /// The high 32 bits of the key's hash.
    hash: u32,
    /// The key is `arena[start..start + len]`; [`Slot::EMPTY`] marks a
    /// free slot.
    start: u32,
    len: u32,
    /// The term id, or [`Slot::NO_TERM`] for `None`.
    id: u32,
}

impl Slot {
    const EMPTY: Slot = Slot {
        hash: 0,
        start: 0,
        len: u32::MAX,
        id: 0,
    };
    const NO_TERM: u32 = u32::MAX;
}

impl TokenMemo {
    /// The term id of `token`, calling `analyze` only the first time this
    /// memo meets `token`.
    pub(crate) fn resolve(
        &mut self,
        token: &str,
        analyze: impl FnOnce(&str) -> Option<TermId>,
    ) -> Option<TermId> {
        if self.len * 2 >= self.slots.len() {
            self.grow();
        }
        let hash = token_hash(token.as_bytes());
        let mask = self.slots.len() - 1;
        let mut i = self.home(hash);
        loop {
            let slot = self.slots[i];
            if slot.len == Slot::EMPTY.len {
                break;
            }
            if slot.hash == hash
                && slot.len as usize == token.len()
                && &self.arena[slot.start as usize..][..token.len()] == token
            {
                return (slot.id != Slot::NO_TERM).then_some(TermId(slot.id));
            }
            i = (i + 1) & mask;
        }
        let id = analyze(token);
        // Both casts below are in range once the arena's end is.
        u32::try_from(self.arena.len() + token.len()).expect("token memo arena exceeds u32");
        let start = self.arena.len() as u32;
        self.arena.push_str(token);
        let id_bits = id.map_or(Slot::NO_TERM, |t| t.0);
        assert!(
            id.is_none() || id_bits != Slot::NO_TERM,
            "term id {id_bits} is the memo's sentinel"
        );
        self.slots[i] = Slot {
            hash,
            start,
            len: token.len() as u32,
            id: id_bits,
        };
        self.len += 1;
        id
    }

    /// The first slot `hash` probes: its top bits, as many as the table
    /// has index bits.
    fn home(&self, hash: u32) -> usize {
        (hash >> (32 - self.slots.len().trailing_zeros())) as usize
    }

    /// Double the table (1024 slots at first) and re-seat every entry by
    /// its stored hash.
    fn grow(&mut self) {
        let cap = (self.slots.len() * 2).max(1024);
        let old = std::mem::replace(&mut self.slots, vec![Slot::EMPTY; cap]);
        let mask = cap - 1;
        for slot in old.into_iter().filter(|s| s.len != Slot::EMPTY.len) {
            let mut i = self.home(slot.hash);
            while self.slots[i].len != Slot::EMPTY.len {
                i = (i + 1) & mask;
            }
            self.slots[i] = slot;
        }
    }
}

/// Multiplicative hash of `bytes`: the length, then each 8-byte
/// little-endian word but the last, then a final word, are each folded in
/// and multiplied by an odd constant. The final word overlaps the one
/// before it rather than being zero-padded, and a key under 8 bytes is
/// read as two overlapping 4-byte words (under 4, its first, middle and
/// last byte), so every byte is read without a copy. One last fold of the
/// high half into the low spreads a difference in a word's top byte; the
/// high half is the best-mixed, so it is what the memo keeps.
fn token_hash(bytes: &[u8]) -> u32 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let n = bytes.len();
    let word = |i: usize| u64::from_le_bytes(bytes[i..i + 8].try_into().expect("8 bytes"));
    let half = |i: usize| {
        u64::from(u32::from_le_bytes(
            bytes[i..i + 4].try_into().expect("4 bytes"),
        ))
    };
    let mut h = (n as u64).wrapping_mul(K);
    let last = match n {
        0 => 0,
        1..=3 => u64::from(bytes[0]) | u64::from(bytes[n / 2]) << 8 | u64::from(bytes[n - 1]) << 16,
        4..=7 => half(0) | half(n - 4) << 32,
        _ => {
            let mut i = 0;
            while i + 8 < n {
                h = (h.rotate_left(26) ^ word(i)).wrapping_mul(K);
                i += 8;
            }
            word(n - 8)
        }
    };
    h = (h.rotate_left(26) ^ last).wrapping_mul(K);
    ((h ^ (h >> 32)).wrapping_mul(K) >> 32) as u32
}

/// What a builder freezes into: the postings, lengths, statistics and
/// forward rows of the documents it was given, under its (possibly
/// pre-seeded) vocabulary. From an empty start that *is* an
/// [`InvertedIndex`], as is what a decoder counts from an image's rows
/// and a merge appends; from a sealed start it is the body of a
/// [`DeltaIndex`](crate::delta::DeltaIndex).
#[derive(Debug)]
pub(crate) struct Segment {
    pub(crate) vocab: Vocabulary,
    /// The documents, ids `first_doc..`, in id order.
    pub(crate) docs: Vec<Document>,
    /// Indexed by [`TermId`] over the whole vocabulary; doc ids global.
    pub(crate) postings: Vec<PostingsList>,
    /// Statistics of this segment's documents only.
    pub(crate) term_stats: Vec<TermStats>,
    /// Indexed by `doc − first_doc`.
    pub(crate) doc_lens: Vec<u32>,
    pub(crate) num_tokens: u64,
    /// The forward rows of `docs`, in this segment's term ids.
    pub(crate) rows: Rows,
}

/// What the text pass over one doc-id range produces, in the term ids of
/// the vocabulary it interned into.
struct Pass {
    /// Each document's distinct terms (title and body) with their
    /// counts, sorted by id, the documents back to back — for a pass that
    /// was given no lists to count into.
    entries: Vec<(u32, u32)>,
    /// How many of `entries` each document holds.
    distinct: Vec<u32>,
    doc_lens: Vec<u32>,
    num_tokens: u64,
    rows: Rows,
}

impl Pass {
    /// The one per-document loop: tokenize, resolve each raw token
    /// through the pass's memo (interning new terms into `vocab`), write
    /// the forward row, then count the row's `(term, tf)` runs
    /// ([`Rows::runs`], as the decoder counts it) into `lists` (per-term
    /// `(doc, tf)` lists) when given, into the pass's `entries` otherwise.
    fn run(
        docs: &[Document],
        vocab: &mut Vocabulary,
        mut lists: Option<&mut Vec<Vec<(u32, u32)>>>,
    ) -> Pass {
        let mut pass = Pass {
            entries: Vec::new(),
            distinct: Vec::new(),
            doc_lens: Vec::with_capacity(docs.len()),
            num_tokens: 0,
            rows: Rows::default(),
        };
        let mut memo = TokenMemo::default();
        let mut scratch = Vec::new();
        for (row, doc) in docs.iter().enumerate() {
            let analyze = |raw: &str| Analyzer::analyze_token(raw).map(|term| vocab.intern(&term));
            pass.rows.push(doc, &mut memo, analyze, &mut scratch);
            let before = pass.entries.len();
            let doc_len = pass
                .rows
                .runs(row, &mut scratch, &mut pass.entries)
                .expect("document length exceeds u32");
            pass.doc_lens.push(doc_len);
            pass.num_tokens += u64::from(doc_len);
            if let Some(lists) = lists.as_deref_mut() {
                if lists.len() < vocab.len() {
                    lists.resize_with(vocab.len(), Vec::new);
                }
                for (term, tf) in pass.entries.drain(before..) {
                    lists[term as usize].push((doc.id.0, tf));
                }
            } else {
                pass.distinct.push((pass.entries.len() - before) as u32);
            }
        }
        pass
    }
}

impl Default for IndexBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl IndexBuilder {
    /// Builder for a new collection.
    pub fn new() -> Self {
        Self::starting_at(Vocabulary::new(), 0)
    }

    /// Builder that continues a sealed index: a copy of `base`'s
    /// vocabulary (so known terms keep their ids and new ones are
    /// numbered after them, in first-occurrence order) and its next free
    /// document id — what it freezes into holds only the documents added
    /// here.
    pub(crate) fn extending(base: &InvertedIndex) -> Self {
        let first_doc = u32::try_from(base.stats.num_docs).expect("corpus fits u32 ids");
        Self::starting_at(base.vocab.clone(), first_doc)
    }

    fn starting_at(vocab: Vocabulary, first_doc: u32) -> Self {
        IndexBuilder {
            vocab,
            first_doc,
            docs: Vec::new(),
        }
    }

    /// Number of documents added so far.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// True when no document has been added.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Add one document; its text is read when the builder freezes.
    ///
    /// # Panics
    /// Panics unless ids are dense and in order from the builder's first
    /// id — a gap or overlap would silently corrupt the doc-id space
    /// every layer above relies on.
    pub fn add(&mut self, doc: Document) {
        assert_eq!(
            doc.id.index(),
            self.first_doc as usize + self.docs.len(),
            "document ids must continue the collection densely, in insertion order"
        );
        self.docs.push(doc);
    }

    /// Run the text pass over every core this host offers, at most one
    /// range per core and none under `MIN_RANGE_DOCS` documents.
    pub(crate) fn freeze(self) -> Segment {
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        let ranges = cores.min(self.docs.len() / MIN_RANGE_DOCS).max(1);
        self.freeze_in(ranges)
    }

    /// The text pass over `ranges` contiguous doc-id ranges (at most one
    /// per document), merged into the bytes one range writes: the calling
    /// thread runs the first range, a scoped thread each of the others.
    pub(crate) fn freeze_in(self, ranges: usize) -> Segment {
        let IndexBuilder {
            mut vocab,
            first_doc,
            docs,
        } = self;
        let per_range = docs.len().div_ceil(ranges.max(1)).max(1);
        let mut chunks = docs.chunks(per_range);
        let head = chunks.next().unwrap_or_default();
        // The first range counts straight into the builder's postings
        // lists; a later range, on a thread of its own, hands its
        // documents' entries back in one flat array and the calling
        // thread appends them. (Lists grown on a short-lived thread stay
        // with that thread's allocator arena once freed: per-range lists
        // left about 12 MiB more resident after a 46 k-document build.)
        let mut accum: Vec<Vec<(u32, u32)>> = Vec::new();
        let (first, mut rest) = std::thread::scope(|scope| {
            let others: Vec<_> = chunks
                .map(|docs| {
                    scope.spawn(move || {
                        let mut local = Vocabulary::new();
                        (Pass::run(docs, &mut local, None), local)
                    })
                })
                .collect();
            let first = Pass::run(head, &mut vocab, Some(&mut accum));
            // Each later pass with the map from its term ids to the
            // builder's. Its terms join the builder's vocabulary in range
            // order and, within a range, in first-occurrence order: the
            // order one sequential pass meets them in.
            let rest: Vec<(Pass, Vec<u32>)> = others
                .into_iter()
                .map(|h| {
                    let (pass, local) = h.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
                    let remap = local.iter().map(|(_, term)| vocab.intern(term).0).collect();
                    (pass, remap)
                })
                .collect();
            (first, rest)
        });

        let Pass {
            mut doc_lens,
            mut num_tokens,
            mut rows,
            ..
        } = first;
        rows.reserve_exact(rest.iter().map(|(pass, _)| &pass.rows));
        for (pass, remap) in &mut rest {
            rows.append(&std::mem::take(&mut pass.rows), |t| remap[t as usize]);
        }
        rows.shrink_to_fit();

        // The later ranges' entries, remapped, in doc order; each pass is
        // dropped once read. A pre-seeded vocabulary holds terms no added
        // document used.
        accum.resize_with(vocab.len(), Vec::new);
        doc_lens.reserve_exact(docs.len() - doc_lens.len());
        let mut doc = first_doc + head.len() as u32;
        for (pass, remap) in rest {
            let mut entries = pass.entries.iter();
            for &n in &pass.distinct {
                for &(t, tf) in entries.by_ref().take(n as usize) {
                    accum[remap[t as usize] as usize].push((doc, tf));
                }
                doc += 1;
            }
            doc_lens.extend(pass.doc_lens);
            num_tokens += pass.num_tokens;
        }

        let (postings, term_stats) = encode(&accum);
        Segment {
            vocab,
            docs,
            postings,
            term_stats,
            doc_lens,
            num_tokens,
            rows,
        }
    }

    /// Freeze into an immutable index holding its own forward view.
    pub fn build(self) -> InvertedIndex {
        InvertedIndex::assemble(self.freeze())
    }
}

impl Segment {
    /// The segment of `docs` (ids from 0) whose forward rows are `rows`,
    /// over `vocab`: each row counted by [`Rows::runs`], as the build pass
    /// counts it, so its postings, lengths and statistics are the ones
    /// the rows determine. Refuses a document whose length exceeds `u32`.
    pub(crate) fn counted(
        vocab: Vocabulary,
        docs: Vec<Document>,
        rows: Rows,
    ) -> Result<Segment, &'static str> {
        let mut lists = vec![Vec::new(); vocab.len()];
        let mut doc_lens = Vec::with_capacity(rows.num_docs());
        let mut num_tokens = 0;
        let (mut scratch, mut runs) = (Vec::new(), Vec::new());
        for row in 0..rows.num_docs() {
            runs.clear();
            let doc_len = rows
                .runs(row, &mut scratch, &mut runs)
                .ok_or("document length exceeds u32")?;
            for &(term, tf) in &runs {
                lists[term as usize].push((row as u32, tf));
            }
            doc_lens.push(doc_len);
            num_tokens += u64::from(doc_len);
        }
        let (postings, term_stats) = encode(&lists);
        Ok(Segment {
            vocab,
            docs,
            postings,
            term_stats,
            doc_lens,
            num_tokens,
            rows,
        })
    }
}

/// Encode per-term `(doc, tf)` lists (each in doc order) into postings
/// and their statistics. The lists are dropped together by the caller
/// once all are encoded: freeing each as it went measured slower and
/// left no less memory resident.
fn encode(lists: &[Vec<(u32, u32)>]) -> (Vec<PostingsList>, Vec<TermStats>) {
    let mut postings = Vec::with_capacity(lists.len());
    let mut term_stats = Vec::with_capacity(lists.len());
    for list in lists {
        let mut pb = PostingsBuilder::new();
        let mut coll_freq = 0u64;
        for &(doc, tf) in list {
            pb.push(DocId(doc), tf);
            coll_freq += u64::from(tf);
        }
        term_stats.push(TermStats {
            doc_freq: list.len() as u64,
            coll_freq,
        });
        postings.push(pb.build());
    }
    (postings, term_stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::tests::counted_parts;

    #[test]
    fn empty_index() {
        let idx = IndexBuilder::new().build();
        assert_eq!(idx.stats().num_docs, 0);
        assert_eq!(idx.stats().avg_doc_len, 0.0);
        assert_eq!(idx.num_terms(), 0);
    }

    #[test]
    fn postings_are_in_doc_order() {
        let mut b = IndexBuilder::new();
        for i in 0..50 {
            b.add(Document::new(
                i,
                format!("u{i}"),
                "",
                "shared unique".to_string(),
            ));
        }
        let idx = b.build();
        let t = idx.vocab().id("share").or_else(|| idx.vocab().id("shared"));
        let t = t.expect("term present");
        let docs: Vec<u32> = idx.postings(t).unwrap().iter().map(|p| p.doc.0).collect();
        let mut sorted = docs.clone();
        sorted.sort_unstable();
        assert_eq!(docs, sorted);
        assert_eq!(docs.len(), 50);
    }

    #[test]
    fn term_frequencies_accumulate() {
        let mut b = IndexBuilder::new();
        b.add(Document::new(0, "u", "", "cat cat cat dog"));
        let idx = b.build();
        let cat = idx.vocab().id("cat").unwrap();
        let p: Vec<_> = idx.postings(cat).unwrap().iter().collect();
        assert_eq!(p[0].tf, 3);
        assert_eq!(p[0].doc, DocId(0));
    }

    #[test]
    fn token_memo_holds_any_token_across_growth() {
        // Short and long, ASCII and not (a 20-character token of 'ẞ' is
        // 60 bytes), tokens sharing a long prefix or differing only past
        // the first 8-byte word, and enough of them to grow the table
        // several times.
        let mut tokens: Vec<String> = vec!["a".into(), "ẞ".repeat(20), "ünïcödé".into()];
        tokens.extend((0..5000).map(|i| format!("prefixword{i}")));
        tokens.extend((0..5000).map(|i| format!("{i}ß")));
        let mut memo = TokenMemo::default();
        let id = |i: usize| (!i.is_multiple_of(3)).then_some(TermId(i as u32));
        for pass in 0..2 {
            for (i, token) in tokens.iter().enumerate() {
                let mut calls = 0;
                let got = memo.resolve(token, |raw| {
                    assert_eq!(raw, token);
                    calls += 1;
                    id(i)
                });
                assert_eq!(got, id(i), "{token:?}");
                assert_eq!(calls, usize::from(pass == 0), "{token:?} analyzed once");
            }
        }
    }

    /// Everything a segment holds, in comparable form: vocabulary,
    /// postings bytes, statistics, lengths and forward rows.
    fn segment_image(s: &Segment) -> impl PartialEq + std::fmt::Debug + '_ {
        let vocab: Vec<&str> = s.vocab.iter().map(|(_, term)| term).collect();
        let postings: Vec<&[u8]> = s.postings.iter().map(PostingsList::raw_bytes).collect();
        (
            vocab,
            postings,
            &s.term_stats,
            &s.doc_lens,
            s.num_tokens,
            &s.rows,
        )
    }

    #[test]
    fn range_counts_write_the_bytes_of_one_range() {
        // Empty bodies, title-only and body-only documents, an all-empty
        // one, stopword-only and non-ASCII text, a stem pair ("apples",
        // "apple") and terms first met in a later document, spread so
        // that each lands on every side of the range boundaries below;
        // then a generated tail that repeats and reorders a small pool.
        let shapes = [
            (
                "Apple iPhone",
                "the apple iphone is announced today with a new chip",
            ),
            ("Title Only", ""),
            ("", "orchard harvest apples cider pressed in autumn"),
            ("", ""),
            ("The Of And", "the of and is"),
            (
                "Jaguar Cars",
                "jaguar unveils an electric car; the jaguar roars",
            ),
            ("Apples", ""),
            ("Jaguar Cat", "apple"),
            ("Ünïcode Títle", "ÇAFÉ crème brûlée at the café"),
            ("", "apple apple apple iphone iphone"),
            ("Rain", "weather forecast rain cloud wind storm rain"),
            ("Empty Body Again", ""),
            ("Storms", "cider storm jaguars"),
        ];
        const POOL: [&str; 9] = [
            "apples", "Apple", "the", "zebra", "yak", "storms", "crème", "of", "x2",
        ];
        let mut texts: Vec<(String, String)> = shapes
            .iter()
            .map(|&(title, body)| (title.into(), body.into()))
            .collect();
        for i in 0..27usize {
            let words = |n: usize| {
                (0..n)
                    .map(|j| POOL[(i * 7 + j * (i % 4 + 1)) % POOL.len()])
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            texts.push((words(i % 3), words(i % 11)));
        }
        let docs = |ids: std::ops::Range<usize>| -> Vec<Document> {
            ids.map(|id| {
                let (title, body) = &texts[id];
                Document::new(id as u32, format!("u{id}"), title.as_str(), body.as_str())
            })
            .collect()
        };
        let freeze = |mut builder: IndexBuilder, docs: &[Document], ranges: usize| {
            for doc in docs {
                builder.add(doc.clone());
            }
            builder.freeze_in(ranges)
        };
        // The index image (which holds the forward rows), and beside it
        // what the image does not store.
        let images = |index: &InvertedIndex| (index.to_bytes(), counted_parts(index));

        for n in [shapes.len(), texts.len()] {
            let all = docs(0..n);
            let one = InvertedIndex::assemble(freeze(IndexBuilder::new(), &all, 1));
            // A decoded index re-encodes the rows its builder wrote and
            // counts the postings and statistics the build counted.
            let decoded = InvertedIndex::from_bytes(&one.to_bytes()).unwrap();
            assert_eq!(images(&decoded), images(&one), "{n} docs, decoded");

            // An extending builder: range 0 interns into the base's
            // vocabulary, later ranges meet base terms afresh.
            let base = InvertedIndex::assemble(freeze(IndexBuilder::new(), &docs(0..5), 1));
            let extending = |ranges| freeze(IndexBuilder::extending(&base), &docs(5..n), ranges);
            let extended_once = extending(1);
            assert!(extended_once.vocab.len() > base.vocab().len());

            for ranges in [2, 3, 7, n - 1, n, n + 5] {
                let index = InvertedIndex::assemble(freeze(IndexBuilder::new(), &all, ranges));
                assert!(images(&index) == images(&one), "{n} docs, {ranges} ranges");
                let decoded = InvertedIndex::from_bytes(&index.to_bytes()).unwrap();
                assert!(
                    images(&decoded) == images(&index),
                    "{n} docs, {ranges} ranges, decoded"
                );
                assert_eq!(
                    segment_image(&extending(ranges)),
                    segment_image(&extended_once),
                    "{n} docs extending, {ranges} ranges"
                );
            }
        }
        let empty = IndexBuilder::new().build();
        for ranges in [1, 2, 3] {
            let index = InvertedIndex::assemble(IndexBuilder::new().freeze_in(ranges));
            assert_eq!(images(&index), images(&empty));
            assert_eq!(index.forward().num_docs(), 0);
        }
    }

    #[test]
    fn stopword_only_document_has_zero_length() {
        let mut b = IndexBuilder::new();
        b.add(Document::new(0, "u", "", "the of and is"));
        let idx = b.build();
        assert_eq!(idx.doc_len(DocId(0)), Some(0));
        assert_eq!(idx.stats().num_tokens, 0);
    }
}
