//! Index construction.
//!
//! The builder accumulates per-term document/frequency pairs in memory and
//! freezes them into compressed [`PostingsList`]s. Documents are analyzed
//! once; the same [`Analyzer`] is stored in the built index so query-time
//! processing matches indexing-time processing.

use crate::document::{Document, DocumentStore};
use crate::index::{CollectionStats, InvertedIndex, TermStats};
use crate::postings::{PostingsBuilder, PostingsList};
use serpdiv_text::{Analyzer, TermId, Vocabulary};
use std::collections::HashMap;

/// Builder for an [`InvertedIndex`].
#[derive(Debug)]
pub struct IndexBuilder {
    analyzer: Analyzer,
    vocab: Vocabulary,
    store: DocumentStore,
    /// Per-term `(doc, tf)` accumulators; docs arrive in increasing order
    /// because documents are added sequentially.
    accum: Vec<Vec<(u32, u32)>>,
    doc_lens: Vec<u32>,
    num_tokens: u64,
    /// Reused per-document tf map (workhorse collection).
    tf_scratch: HashMap<TermId, u32>,
}

impl Default for IndexBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl IndexBuilder {
    /// Builder with the standard English analysis pipeline.
    pub fn new() -> Self {
        Self::with_analyzer(Analyzer::english())
    }

    /// Builder with a custom analyzer.
    pub fn with_analyzer(analyzer: Analyzer) -> Self {
        IndexBuilder {
            analyzer,
            vocab: Vocabulary::new(),
            store: DocumentStore::new(),
            accum: Vec::new(),
            doc_lens: Vec::new(),
            num_tokens: 0,
            tf_scratch: HashMap::new(),
        }
    }

    /// Number of documents added so far.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True when no document has been added.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Add one document. Ids must be dense and in order (see
    /// [`DocumentStore::push`]).
    pub fn add(&mut self, doc: Document) {
        let text = doc.full_text();
        let doc_id = doc.id.0;
        self.store.push(doc);

        let terms = self.analyzer.analyze_interned(&text, &mut self.vocab);
        let doc_len = terms.len() as u32;
        self.doc_lens.push(doc_len);
        self.num_tokens += u64::from(doc_len);

        self.tf_scratch.clear();
        for term in terms {
            *self.tf_scratch.entry(term).or_insert(0) += 1;
        }
        if self.accum.len() < self.vocab.len() {
            self.accum.resize_with(self.vocab.len(), Vec::new);
        }
        // Deterministic postings order requires a stable iteration order;
        // sort the (few) distinct terms of this document.
        let mut entries: Vec<(TermId, u32)> =
            self.tf_scratch.iter().map(|(&t, &tf)| (t, tf)).collect();
        entries.sort_unstable_by_key(|&(t, _)| t);
        for (term, tf) in entries {
            self.accum[term.index()].push((doc_id, tf));
        }
    }

    /// Freeze the accumulated postings into an immutable index.
    pub fn build(self) -> InvertedIndex {
        let mut postings = Vec::with_capacity(self.accum.len());
        let mut term_stats = Vec::with_capacity(self.accum.len());
        let mut max_tfs = Vec::with_capacity(self.accum.len());
        for entries in &self.accum {
            let mut pb = PostingsBuilder::new();
            let mut coll_freq = 0u64;
            let mut max_tf = 0u32;
            for &(doc, tf) in entries {
                pb.push(crate::document::DocId(doc), tf);
                coll_freq += u64::from(tf);
                max_tf = max_tf.max(tf);
            }
            term_stats.push(TermStats {
                doc_freq: entries.len() as u64,
                coll_freq,
            });
            max_tfs.push(max_tf);
            postings.push(pb.build());
        }
        // Terms can exist in the vocabulary without postings only if the
        // vocabulary was pre-seeded; align the vectors defensively.
        while postings.len() < self.vocab.len() {
            postings.push(PostingsList::default());
            term_stats.push(TermStats {
                doc_freq: 0,
                coll_freq: 0,
            });
            max_tfs.push(0);
        }
        let min_doc_len = self
            .doc_lens
            .iter()
            .copied()
            .filter(|&l| l > 0)
            .min()
            .unwrap_or(0);

        let num_docs = self.store.len() as u64;
        let avg_doc_len = if num_docs == 0 {
            0.0
        } else {
            self.num_tokens as f64 / num_docs as f64
        };
        InvertedIndex {
            vocab: self.vocab,
            postings,
            term_stats,
            doc_lens: self.doc_lens,
            max_tfs,
            min_doc_len,
            store: self.store,
            analyzer: self.analyzer,
            stats: CollectionStats {
                num_docs,
                num_tokens: self.num_tokens,
                avg_doc_len,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::DocId;

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
