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
use std::collections::HashMap;

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
#[derive(Debug, Default)]
pub(crate) struct TokenMemo(HashMap<String, Option<TermId>>);

impl TokenMemo {
    /// The term id of `token`, calling `analyze` only the first time this
    /// memo meets `token`.
    pub(crate) fn resolve(
        &mut self,
        token: &str,
        analyze: impl FnOnce(&str) -> Option<TermId>,
    ) -> Option<TermId> {
        if let Some(&id) = self.0.get(token) {
            return id;
        }
        let id = analyze(token);
        self.0.insert(token.to_owned(), id);
        id
    }
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
    fn stopword_only_document_has_zero_length() {
        let mut b = IndexBuilder::new();
        b.add(Document::new(0, "u", "", "the of and is"));
        let idx = b.build();
        assert_eq!(idx.doc_len(DocId(0)), Some(0));
        assert_eq!(idx.stats().num_tokens, 0);
    }
}
