//! The composed analysis pipeline: tokenize → stopword-filter → stem.
//!
//! This is the pipeline the paper's Terrier configuration applies both at
//! indexing and at query time ("Porter's stemmer and standard English
//! stopword removal", §5). Both sides must share one [`Analyzer`] so query
//! terms meet the same normal form stored in the index.

use crate::stem::porter_stem;
use crate::stopwords::is_stopword;
use crate::tokenizer::Tokenizer;
use crate::vocab::{TermId, Vocabulary};

/// Text-analysis pipeline configuration.
#[derive(Debug, Clone)]
pub struct Analyzer {
    tokenizer: Tokenizer,
    remove_stopwords: bool,
    stem: bool,
}

impl Default for Analyzer {
    fn default() -> Self {
        Self::english()
    }
}

impl Analyzer {
    /// The pipeline used throughout the reproduction: default tokenizer,
    /// English stopword removal, Porter stemming.
    pub fn english() -> Self {
        Analyzer {
            tokenizer: Tokenizer::default(),
            remove_stopwords: true,
            stem: true,
        }
    }

    /// A pipeline that only tokenizes (no stopwords, no stemming). Useful
    /// for tests and for exact-match query processing.
    pub fn plain() -> Self {
        Analyzer {
            tokenizer: Tokenizer::default(),
            remove_stopwords: false,
            stem: false,
        }
    }

    /// Analyze `text` into normalized terms.
    pub fn analyze(&self, text: &str) -> Vec<String> {
        let mut tokens = Vec::new();
        self.tokenizer.tokenize_into(text, &mut tokens);
        let mut out = Vec::with_capacity(tokens.len());
        for tok in tokens {
            if self.remove_stopwords && is_stopword(&tok) {
                continue;
            }
            if self.stem {
                out.push(porter_stem(&tok));
            } else {
                out.push(tok);
            }
        }
        out
    }

    /// Analyze `text` and intern every produced term into `vocab`.
    pub fn analyze_interned(&self, text: &str, vocab: &mut Vocabulary) -> Vec<TermId> {
        self.analyze(text).iter().map(|t| vocab.intern(t)).collect()
    }

    /// Analyze `text`, resolving terms against an existing (read-only)
    /// vocabulary. Terms absent from the vocabulary are dropped — this is
    /// the query-time behaviour: a query term the index has never seen
    /// cannot match anything.
    pub fn analyze_known(&self, text: &str, vocab: &Vocabulary) -> Vec<TermId> {
        self.analyze(text)
            .iter()
            .filter_map(|t| vocab.id(t))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_pipeline() {
        let a = Analyzer::english();
        assert_eq!(
            a.analyze("The leopards were running in the snow"),
            vec!["leopard", "run", "snow"]
        );
    }

    #[test]
    fn plain_pipeline_keeps_everything() {
        let a = Analyzer::plain();
        assert_eq!(
            a.analyze("The leopards were running"),
            vec!["the", "leopards", "were", "running"]
        );
    }

    #[test]
    fn interning_assigns_consistent_ids() {
        let a = Analyzer::english();
        let mut v = Vocabulary::new();
        let first = a.analyze_interned("apple iphone", &mut v);
        let second = a.analyze_interned("apple fruit", &mut v);
        assert_eq!(first[0], second[0]); // "apple" → "appl" shares one id
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn analyze_known_drops_oov_terms() {
        let a = Analyzer::english();
        let mut v = Vocabulary::new();
        a.analyze_interned("apple tree", &mut v);
        let ids = a.analyze_known("apple zeppelin", &v);
        assert_eq!(ids.len(), 1);
    }

    #[test]
    fn empty_text() {
        let a = Analyzer::english();
        assert!(a.analyze("").is_empty());
        let mut v = Vocabulary::new();
        assert!(a.analyze_interned("", &mut v).is_empty());
    }

    #[test]
    fn query_and_document_share_normal_form() {
        // The core property the retrieval pipeline depends on.
        let a = Analyzer::english();
        let doc_terms = a.analyze("Running shoes for marathon runners");
        let query_terms = a.analyze("running shoe");
        assert!(query_terms.iter().all(|q| doc_terms.contains(q)));
    }
}
