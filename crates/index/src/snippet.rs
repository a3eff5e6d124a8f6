//! Query-biased snippet extraction (document surrogates).
//!
//! §4.1 and §5 of the paper: "only short summaries, and not whole documents,
//! can be used without significative loss in the precision of our method" —
//! the utility function (Eq. 1) is applied "to the snippets returned by the
//! Terrier search engine instead of applying it to the whole documents".
//!
//! The generator slides a fixed-size window over the document tokens and
//! keeps the window covering the most *distinct* query terms (ties broken
//! by total query-term occurrences, then by earliest position — the classic
//! query-biased summarisation heuristic of Tombros & Sanderson).
//!
//! [`SnippetGenerator::snippet`] is the **text oracle**: it re-analyzes
//! the raw body and returns the window as a `String` (vectorized with
//! [`SparseVector::from_text`](crate::SparseVector::from_text)). It is the
//! reference the equivalence suites hold the served surrogates to, the
//! per-request path of an engine deployed with
//! `EngineConfig::forward_index = false`, and the human-readable display.
//! Every other surrogate is read from compiled forward rows —
//! [`ForwardIndex::surrogate`](crate::ForwardIndex::surrogate) over a
//! sealed index, [`DeltaIndex::surrogate`](crate::DeltaIndex::surrogate)
//! over a delta — with this generator's `window`, and is bit-identical
//! (`tests/surrogate_equivalence.rs`).

use crate::document::Document;
use serpdiv_text::{Analyzer, TermId, Vocabulary};

/// Query-biased snippet generator.
#[derive(Debug, Clone)]
pub struct SnippetGenerator {
    /// Window size in raw tokens (default 30 — a SERP-like summary).
    pub window: usize,
}

impl Default for SnippetGenerator {
    fn default() -> Self {
        SnippetGenerator { window: 30 }
    }
}

impl SnippetGenerator {
    /// Generator with a 30-token window.
    pub fn new() -> Self {
        Self::default()
    }

    /// Generator with a custom window size.
    pub fn with_window(window: usize) -> Self {
        SnippetGenerator {
            window: window.max(1),
        }
    }

    /// Extract a snippet of `self.window` raw tokens biased towards the
    /// query terms. Falls back to the document prefix when no query term
    /// occurs. Returns the raw-token window joined by spaces, prefixed by
    /// the title (titles are part of the surrogate on a SERP).
    pub fn snippet(&self, doc: &Document, query_terms: &[TermId], vocab: &Vocabulary) -> String {
        let raw_tokens: Vec<String> = serpdiv_text::tokenize(&doc.body);
        if raw_tokens.is_empty() {
            return doc.title.clone();
        }
        let (best_start, window) = self.scan_window(&raw_tokens, query_terms, vocab);
        let body_part = raw_tokens[best_start..best_start + window].join(" ");
        if doc.title.is_empty() {
            body_part
        } else {
            format!("{} {}", doc.title, body_part)
        }
    }

    /// The `(start, len)` raw-token window [`snippet`](Self::snippet)
    /// would extract for `doc` — `(0, 0)` for an empty body. Exposed so
    /// the equivalence suite can compare the text oracle's choice against
    /// [`ForwardIndex::best_window`](crate::ForwardIndex::best_window)
    /// directly.
    pub fn best_window_text(
        &self,
        doc: &Document,
        query_terms: &[TermId],
        vocab: &Vocabulary,
    ) -> (usize, usize) {
        let raw_tokens: Vec<String> = serpdiv_text::tokenize(&doc.body);
        if raw_tokens.is_empty() {
            return (0, 0);
        }
        self.scan_window(&raw_tokens, query_terms, vocab)
    }

    /// The per-start rescan over raw tokens (the oracle's selection rule).
    /// An empty query short-circuits to the prefix window *before* any
    /// normalization work — the fallback needs no analysis at all.
    fn scan_window(
        &self,
        raw_tokens: &[String],
        query_terms: &[TermId],
        vocab: &Vocabulary,
    ) -> (usize, usize) {
        let window = self.window.min(raw_tokens.len());
        if query_terms.is_empty() {
            return (0, window);
        }
        // Normal-form of each raw token (same pipeline as indexing); tokens
        // that are stopwords map to None.
        let normalized: Vec<Option<TermId>> = raw_tokens
            .iter()
            .map(|t| Analyzer::analyze(t).first().and_then(|term| vocab.id(term)))
            .collect();

        let mut best_start = 0usize;
        let mut best_key = (0usize, 0usize); // (distinct coverage, total hits)
        let mut distinct_scratch: Vec<TermId> = Vec::new();
        for start in 0..=(raw_tokens.len() - window) {
            let mut total = 0usize;
            distinct_scratch.clear();
            for norm in normalized[start..start + window].iter().flatten() {
                if query_terms.contains(norm) {
                    total += 1;
                    if !distinct_scratch.contains(norm) {
                        distinct_scratch.push(*norm);
                    }
                }
            }
            let key = (distinct_scratch.len(), total);
            if key > best_key {
                best_key = key;
                best_start = start;
            }
        }
        (best_start, window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(body: &str) -> (Document, Vocabulary) {
        let doc = Document::new(0, "u", "Title", body);
        let mut vocab = Vocabulary::new();
        Analyzer::analyze_interned(body, &mut vocab);
        (doc, vocab)
    }

    #[test]
    fn window_centers_on_query_terms() {
        let filler = "lorem ipsum dolor sit amet consectetur adipiscing elit sed do eiusmod ";
        let body = format!(
            "{}{}apple iphone announcement today{}",
            filler.repeat(5),
            "",
            filler.repeat(5)
        );
        let (doc, vocab) = setup(&body);
        let q = Analyzer::analyze_known("apple iphone", &vocab);
        let snip = SnippetGenerator::with_window(10).snippet(&doc, &q, &vocab);
        assert!(snip.contains("apple"), "snippet was: {snip}");
        assert!(snip.contains("iphone"));
    }

    #[test]
    fn fallback_to_prefix_without_matches() {
        let (doc, vocab) = setup("first second third fourth fifth sixth");
        let snip = SnippetGenerator::with_window(3).snippet(&doc, &[], &vocab);
        assert_eq!(snip, "Title first second third");
    }

    #[test]
    fn empty_body_returns_title() {
        let (doc, vocab) = setup("");
        let snip = SnippetGenerator::new().snippet(&doc, &[], &vocab);
        assert_eq!(snip, "Title");
    }

    #[test]
    fn short_document_is_returned_whole() {
        let (doc, vocab) = setup("tiny body");
        let q = Analyzer::analyze_known("tiny", &vocab);
        let snip = SnippetGenerator::with_window(50).snippet(&doc, &q, &vocab);
        assert_eq!(snip, "Title tiny body");
    }

    #[test]
    fn best_window_text_reports_the_extracted_span() {
        let body = format!("{}apple iphone review", "pad ".repeat(8));
        let (doc, vocab) = setup(&body);
        let q = Analyzer::analyze_known("apple iphone", &vocab);
        let gen = SnippetGenerator::with_window(3);
        // Starts 7 and 8 both cover the two distinct terms once; the tie
        // breaks to the earliest start.
        let (start, len) = gen.best_window_text(&doc, &q, &vocab);
        assert_eq!((start, len), (7, 3));
        // Empty query falls back to the prefix window; empty body to (0,0).
        assert_eq!(gen.best_window_text(&doc, &[], &vocab), (0, 3));
        let (empty, vocab2) = setup("");
        assert_eq!(gen.best_window_text(&empty, &q, &vocab2), (0, 0));
    }

    #[test]
    fn prefers_window_with_more_distinct_terms() {
        // First region repeats one query term; second region has both.
        let body = format!(
            "apple apple apple apple {} apple iphone review",
            "pad ".repeat(40)
        );
        let (doc, vocab) = setup(&body);
        let q = Analyzer::analyze_known("apple iphone", &vocab);
        let snip = SnippetGenerator::with_window(5).snippet(&doc, &q, &vocab);
        assert!(snip.contains("iphone"), "snippet was: {snip}");
    }
}
