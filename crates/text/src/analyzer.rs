//! The composed analysis pipeline: tokenize → stopword-filter → stem.
//!
//! This is the pipeline the paper's Terrier configuration applies both at
//! indexing and at query time ("Porter's stemmer and standard English
//! stopword removal", §5). It is the only one: [`Analyzer`] holds no
//! configuration, so an index build, a query, a forward-index compile, a
//! delta ingest and the snippet oracle cannot disagree on a term's normal
//! form.

use crate::stem::porter_stem;
use crate::stopwords::is_stopword;
use crate::tokenizer::Tokenizer;
use crate::vocab::{TermId, Vocabulary};

/// The analysis pipeline: the [`Tokenizer`], English stopword removal,
/// Porter stemming.
#[derive(Debug)]
pub struct Analyzer;

impl Analyzer {
    /// The per-token step of [`analyze`](Self::analyze): `None` for a
    /// removed stopword, else the stemmed `token`.
    ///
    /// `token` is one token as [`Tokenizer::for_each_token`] yields it. A
    /// token is its own tokenization, so for every such token
    /// `analyze(token)` is this step's result as a vector of at most one
    /// term — which is what lets an index build remember the step per
    /// distinct token instead of running it per occurrence.
    pub fn analyze_token(token: &str) -> Option<String> {
        (!is_stopword(token)).then(|| porter_stem(token))
    }

    /// Analyze `text` into normalized terms.
    pub fn analyze(text: &str) -> Vec<String> {
        let mut out = Vec::new();
        Self::for_each_term(text, |term| out.push(term));
        out
    }

    /// Analyze `text` and intern every produced term into `vocab`.
    pub fn analyze_interned(text: &str, vocab: &mut Vocabulary) -> Vec<TermId> {
        let mut out = Vec::new();
        Self::for_each_term(text, |term| out.push(vocab.intern(&term)));
        out
    }

    /// Analyze `text`, resolving terms against an existing (read-only)
    /// vocabulary. Terms absent from the vocabulary are dropped — this is
    /// the query-time behaviour: a query term the index has never seen
    /// cannot match anything.
    pub fn analyze_known(text: &str, vocab: &Vocabulary) -> Vec<TermId> {
        let mut out = Vec::new();
        Self::for_each_term(text, |term| out.extend(vocab.id(&term)));
        out
    }

    /// The one analysis loop: each token through [`analyze_token`](Self::analyze_token).
    fn for_each_term(text: &str, mut f: impl FnMut(String)) {
        Tokenizer::for_each_token(text, |token| {
            if let Some(term) = Self::analyze_token(token) {
                f(term);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::tokenize;

    #[test]
    fn full_pipeline() {
        assert_eq!(
            Analyzer::analyze("The leopards were running in the snow"),
            vec!["leopard", "run", "snow"]
        );
    }

    #[test]
    fn interning_assigns_consistent_ids() {
        let mut v = Vocabulary::new();
        let first = Analyzer::analyze_interned("apple iphone", &mut v);
        let second = Analyzer::analyze_interned("apple fruit", &mut v);
        assert_eq!(first[0], second[0]); // "apple" → "appl" shares one id
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn analyze_known_drops_oov_terms() {
        let mut v = Vocabulary::new();
        Analyzer::analyze_interned("apple tree", &mut v);
        let ids = Analyzer::analyze_known("apple zeppelin", &v);
        assert_eq!(ids.len(), 1);
    }

    #[test]
    fn analyze_token_is_the_analysis_of_one_token() {
        let text = "The RUNNERS were running to İstanbul's STRAẞE in 2009, café ΣΟΦΙΑ";
        for token in tokenize(text) {
            let step: Vec<String> = Analyzer::analyze_token(&token).into_iter().collect();
            assert_eq!(Analyzer::analyze(&token), step, "{token}");
        }
    }

    #[test]
    fn empty_text() {
        assert!(Analyzer::analyze("").is_empty());
        let mut v = Vocabulary::new();
        assert!(Analyzer::analyze_interned("", &mut v).is_empty());
    }

    #[test]
    fn query_and_document_share_normal_form() {
        // The core property the retrieval pipeline depends on.
        let doc_terms = Analyzer::analyze("Running shoes for marathon runners");
        let query_terms = Analyzer::analyze("running shoe");
        assert!(query_terms.iter().all(|q| doc_terms.contains(q)));
    }
}
