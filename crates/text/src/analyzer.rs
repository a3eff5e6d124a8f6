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
use std::borrow::Cow;

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

    /// The tokenizer every analysis of this pipeline runs.
    pub fn tokenizer(&self) -> &Tokenizer {
        &self.tokenizer
    }

    /// The per-token step of [`analyze`](Self::analyze): `None` for a
    /// removed stopword, else `token`, stemmed when the pipeline stems.
    ///
    /// `token` is one token as [`Tokenizer::for_each_token`] yields it. A
    /// token is its own tokenization, so for every such token
    /// `analyze(token)` is this step's result as a vector of at most one
    /// term — which is what lets an index build remember the step per
    /// distinct token instead of running it per occurrence.
    pub fn analyze_token<'a>(&self, token: &'a str) -> Option<Cow<'a, str>> {
        if self.remove_stopwords && is_stopword(token) {
            None
        } else if self.stem {
            Some(Cow::Owned(porter_stem(token)))
        } else {
            Some(Cow::Borrowed(token))
        }
    }

    /// Analyze `text` into normalized terms.
    pub fn analyze(&self, text: &str) -> Vec<String> {
        let mut out = Vec::new();
        self.for_each_term(text, |term| out.push(term.into_owned()));
        out
    }

    /// Analyze `text` and intern every produced term into `vocab`.
    pub fn analyze_interned(&self, text: &str, vocab: &mut Vocabulary) -> Vec<TermId> {
        let mut out = Vec::new();
        self.for_each_term(text, |term| out.push(vocab.intern(&term)));
        out
    }

    /// Analyze `text`, resolving terms against an existing (read-only)
    /// vocabulary. Terms absent from the vocabulary are dropped — this is
    /// the query-time behaviour: a query term the index has never seen
    /// cannot match anything.
    pub fn analyze_known(&self, text: &str, vocab: &Vocabulary) -> Vec<TermId> {
        let mut out = Vec::new();
        self.for_each_term(text, |term| out.extend(vocab.id(&term)));
        out
    }

    /// The one analysis loop: each token through [`analyze_token`](Self::analyze_token).
    fn for_each_term(&self, text: &str, mut f: impl FnMut(Cow<'_, str>)) {
        self.tokenizer.for_each_token(text, |token| {
            if let Some(term) = self.analyze_token(token) {
                f(term);
            }
        });
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
    fn analyze_token_is_the_analysis_of_one_token() {
        let text = "The RUNNERS were running to İstanbul's STRAẞE in 2009, café ΣΟΦΙΑ";
        for a in [Analyzer::english(), Analyzer::plain()] {
            for token in a.tokenizer().tokenize(text) {
                let step: Vec<String> = a
                    .analyze_token(&token)
                    .into_iter()
                    .map(Cow::into_owned)
                    .collect();
                assert_eq!(a.analyze(&token), step, "{token}");
            }
        }
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
