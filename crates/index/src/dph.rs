//! DPH Divergence-From-Randomness weighting model.
//!
//! The paper retrieves the candidate sets with "a probabilistic document
//! weighting model: DPH Divergence From Randomness" (§5, citing Amati et
//! al., TREC 2007). DPH is the hypergeometric DFR model with Popper
//! normalization; it is *parameter-free*, which is why the paper (and TREC
//! Web-track participants generally) favour it — there is nothing to tune.
//!
//! Per query-term score for a document (Terrier's formulation):
//!
//! ```text
//! f    = tf / dl                         (relative within-document frequency)
//! norm = (1 − f)² / (tf + 1)
//! score = norm · [ tf · log₂( (tf · avg_dl / dl) · (N / CF) )
//!                  + 0.5 · log₂( 2π · tf · (1 − f) ) ]
//! ```
//!
//! where `dl` is the document length, `avg_dl` the average document length,
//! `N` the number of documents and `CF` the term's collection frequency.
//! Scores of a document are summed over the query terms (bag of words).

use crate::index::{CollectionStats, TermStats};
use crate::search::RankingModel;

/// The parameter-free DPH DFR model.
#[derive(Debug, Clone, Copy, Default)]
pub struct Dph;

impl Dph {
    /// Create the model (no parameters).
    pub fn new() -> Self {
        Dph
    }
}

impl RankingModel for Dph {
    fn score(&self, tf: u32, doc_len: u32, term: TermStats, coll: CollectionStats) -> f64 {
        self.term_scorer(term, coll)(tf, doc_len)
    }

    /// `N / CF` — the only part of the formula that depends on neither
    /// `tf` nor `dl` — is divided once per term instead of once per
    /// posting; the expression tree is otherwise the formula above, so the
    /// result is the same `f64` whichever way it is reached.
    fn term_scorer(&self, term: TermStats, coll: CollectionStats) -> impl Fn(u32, u32) -> f64 {
        let scorable = term.coll_freq != 0 && coll.num_docs != 0;
        let docs_per_occurrence = coll.num_docs as f64 / term.coll_freq as f64;
        move |tf, doc_len| {
            if tf == 0 || doc_len == 0 || !scorable {
                return 0.0;
            }
            let tf = f64::from(tf);
            let dl = f64::from(doc_len);
            // Clamp the relative frequency strictly below 1 so the Popper
            // normalization and the log term stay finite for documents that
            // consist solely of the query term (tf == dl).
            let f = (tf / dl).min(1.0 - 1e-9);
            let norm = (1.0 - f) * (1.0 - f) / (tf + 1.0);
            let ratio = (tf * coll.avg_doc_len / dl) * docs_per_occurrence;
            // A term can score negative when it is *more* frequent in the
            // collection than chance would predict; Terrier keeps negative
            // contributions, and so do we — they matter for ranking
            // stability.
            norm * (tf * ratio.log2() + 0.5 * (2.0 * std::f64::consts::PI * tf * (1.0 - f)).log2())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{CollectionStats, TermStats};
    use crate::search::RankingModel;

    fn coll() -> CollectionStats {
        CollectionStats {
            num_docs: 10_000,
            num_tokens: 1_000_000,
            avg_doc_len: 100.0,
        }
    }

    fn rare() -> TermStats {
        TermStats {
            doc_freq: 10,
            coll_freq: 15,
        }
    }

    fn common() -> TermStats {
        TermStats {
            doc_freq: 8_000,
            coll_freq: 200_000,
        }
    }

    #[test]
    fn zero_tf_scores_zero() {
        assert_eq!(Dph.score(0, 100, rare(), coll()), 0.0);
    }

    #[test]
    fn rare_terms_beat_common_terms() {
        let r = Dph.score(3, 100, rare(), coll());
        let c = Dph.score(3, 100, common(), coll());
        assert!(r > c, "rare {r} should exceed common {c}");
        assert!(r > 0.0);
    }

    #[test]
    fn higher_tf_scores_higher_for_rare_terms() {
        let s1 = Dph.score(1, 100, rare(), coll());
        let s3 = Dph.score(3, 100, rare(), coll());
        let s6 = Dph.score(6, 100, rare(), coll());
        assert!(s3 > s1);
        assert!(s6 > s3);
    }

    #[test]
    fn longer_documents_score_lower_at_equal_tf() {
        let short = Dph.score(3, 50, rare(), coll());
        let long = Dph.score(3, 500, rare(), coll());
        assert!(short > long);
    }

    #[test]
    fn degenerate_single_term_document_is_finite() {
        // tf == dl: the clamp must keep the score finite.
        let s = Dph.score(5, 5, rare(), coll());
        assert!(s.is_finite());
    }

    #[test]
    fn empty_collection_scores_zero() {
        let empty = CollectionStats {
            num_docs: 0,
            num_tokens: 0,
            avg_doc_len: 0.0,
        };
        assert_eq!(Dph.score(3, 100, rare(), empty), 0.0);
    }
}
