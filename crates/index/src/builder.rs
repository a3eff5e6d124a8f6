//! Index construction.
//!
//! The builder accumulates per-term document/frequency pairs in memory and
//! freezes them into compressed [`PostingsList`]s, analyzing text with the
//! one [`Analyzer`] pipeline that query-time processing runs too.
//!
//! Each distinct raw token is analyzed once per build, not once per
//! occurrence: a web collection repeats a small vocabulary millions of
//! times, so the builder keeps a `TokenMemo` from raw token to term id
//! and runs the pipeline's stopword and stem step
//! ([`Analyzer::analyze_token`]) only on a token it has not met. The memo
//! belongs to one builder and is dropped when the builder freezes; the
//! ids it holds are that builder's vocabulary's, so nothing outlives the
//! build. What the builder interns is what [`Analyzer::analyze_interned`]
//! of each document's full text would intern, in the same order.
//!
//! There is one builder for both ways an index grows. [`IndexBuilder::new`]
//! starts an empty collection; the crate-private `extending` starts from
//! a sealed index — a copy of its vocabulary, the next free
//! document id — so the documents a [`DeltaIndex`](crate::delta::DeltaIndex)
//! holds are interned, counted and encoded by the very loop that would
//! have indexed them in a from-scratch build, under the term ids that
//! build would have assigned.

use crate::document::{DocId, Document, DocumentStore};
use crate::index::{CollectionStats, InvertedIndex, TermStats};
use crate::postings::{PostingsBuilder, PostingsList};
use serpdiv_text::{Analyzer, TermId, Tokenizer, Vocabulary};
use std::sync::OnceLock;

/// Builder for an [`InvertedIndex`].
#[derive(Debug)]
pub struct IndexBuilder {
    vocab: Vocabulary,
    /// Id of the first document this builder takes: 0, or the size of the
    /// sealed collection it extends.
    first_doc: u32,
    docs: Vec<Document>,
    /// Per-term `(doc, tf)` accumulators; docs arrive in increasing order
    /// because documents are added sequentially.
    accum: Vec<Vec<(u32, u32)>>,
    doc_lens: Vec<u32>,
    num_tokens: u64,
    memo: TokenMemo,
    /// Reused per-document term list (workhorse collection).
    terms: Vec<TermId>,
}

/// Raw token → its analyzed term id, for one build.
///
/// `None` is a token that analyzes to nothing the build keeps: a stopword,
/// or, against a read-only vocabulary, a term the vocabulary lacks. The
/// memo is only as valid as the vocabulary its ids came from, so each
/// build owns one and drops it with the build; there is no shared or
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

/// What a builder freezes into: the postings, lengths and statistics of
/// the documents it was given, under its (possibly pre-seeded) vocabulary.
/// From an empty start that *is* an [`InvertedIndex`]; from a sealed
/// start it is the body of a [`DeltaIndex`](crate::delta::DeltaIndex).
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
    /// document id, with empty accumulators — what it freezes into holds
    /// only the documents added here.
    pub(crate) fn extending(base: &InvertedIndex) -> Self {
        let first_doc = u32::try_from(base.stats.num_docs).expect("corpus fits u32 ids");
        Self::starting_at(base.vocab.clone(), first_doc)
    }

    fn starting_at(vocab: Vocabulary, first_doc: u32) -> Self {
        IndexBuilder {
            vocab,
            first_doc,
            docs: Vec::new(),
            accum: Vec::new(),
            doc_lens: Vec::new(),
            num_tokens: 0,
            memo: TokenMemo::default(),
            terms: Vec::new(),
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

    /// Add one document.
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
        let IndexBuilder {
            vocab, memo, terms, ..
        } = self;
        // `full_text` is the title, a space and the body: the title's
        // tokens, then the body's.
        terms.clear();
        for text in [&doc.title, &doc.body] {
            Tokenizer::for_each_token(text, |token| {
                terms.extend(memo.resolve(token, |token| {
                    Analyzer::analyze_token(token).map(|term| vocab.intern(&term))
                }));
            });
        }
        let doc_len = terms.len() as u32;
        self.doc_lens.push(doc_len);
        self.num_tokens += u64::from(doc_len);
        if self.accum.len() < self.vocab.len() {
            self.accum.resize_with(self.vocab.len(), Vec::new);
        }
        // Deterministic postings order: this document's terms in id order,
        // each with its count.
        self.terms.sort_unstable();
        for run in self.terms.chunk_by(|a, b| a == b) {
            self.accum[run[0].index()].push((doc.id.0, run.len() as u32));
        }
        self.docs.push(doc);
    }

    /// Freeze the accumulated postings.
    pub(crate) fn freeze(mut self) -> Segment {
        // A pre-seeded vocabulary holds terms no added document used.
        self.accum.resize_with(self.vocab.len(), Vec::new);
        let mut postings = Vec::with_capacity(self.accum.len());
        let mut term_stats = Vec::with_capacity(self.accum.len());
        for entries in &self.accum {
            let mut pb = PostingsBuilder::new();
            let mut coll_freq = 0u64;
            for &(doc, tf) in entries {
                pb.push(DocId(doc), tf);
                coll_freq += u64::from(tf);
            }
            term_stats.push(TermStats {
                doc_freq: entries.len() as u64,
                coll_freq,
            });
            postings.push(pb.build());
        }
        Segment {
            vocab: self.vocab,
            docs: self.docs,
            postings,
            term_stats,
            doc_lens: self.doc_lens,
            num_tokens: self.num_tokens,
        }
    }

    /// Freeze the accumulated postings into an immutable index.
    pub fn build(self) -> InvertedIndex {
        debug_assert_eq!(self.first_doc, 0, "an extending builder freezes");
        let segment = self.freeze();
        let mut store = DocumentStore::new();
        for doc in segment.docs {
            store.push(doc);
        }
        InvertedIndex {
            stats: CollectionStats::of(store.len() as u64, segment.num_tokens),
            vocab: segment.vocab,
            postings: segment.postings,
            term_stats: segment.term_stats,
            doc_lens: segment.doc_lens,
            store,
            forward: OnceLock::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn stopword_only_document_has_zero_length() {
        let mut b = IndexBuilder::new();
        b.add(Document::new(0, "u", "", "the of and is"));
        let idx = b.build();
        assert_eq!(idx.doc_len(DocId(0)), Some(0));
        assert_eq!(idx.stats().num_tokens, 0);
    }
}
