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
//!
//! **The `(tf, dl)` table.** Under fixed collection statistics three of the
//! formula's factors depend on `(tf, dl)` alone: `norm`, `tf · avg_dl / dl`
//! and `0.5 · log₂(2π · tf · (1 − f))`. A [`DphTable`] computes them once
//! for every `tf` and `dl` up to an index's largest (a sealed index, a
//! merge and a shard artifact each build one from their frozen
//! statistics), so a posting costs one `log₂` and three multiplies. The
//! table is exact, not an approximation: one private function computes
//! the factors for the table and for [`Dph::score`], and the posting's
//! score combines them by the same expression tree, so every operation
//! sees the same operands in the same order and IEEE-754 gives the same
//! `f64`. That holds as long as the compiler does not contract a multiply
//! and an add into one fused multiply-add, which Rust never does without
//! an explicit `mul_add`. A table is read only under the statistics it
//! was built for and only inside its bounds; every other posting (a range
//! scored under a delta's union overlay, a `tf` or `dl` past the table)
//! runs the formula.

use crate::index::{CollectionStats, TermStats};
use crate::postings::PostingsList;
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

/// `N / CF` — the only factor that depends on neither `tf` nor `dl` — or
/// `None` when the term cannot score (it never occurs, or the collection
/// is empty).
fn docs_per_occurrence(term: TermStats, coll: CollectionStats) -> Option<f64> {
    (term.coll_freq != 0 && coll.num_docs != 0)
        .then(|| coll.num_docs as f64 / term.coll_freq as f64)
}

/// The factors of the formula that depend only on `(tf, dl)` and the
/// average document length.
#[derive(Debug, Clone)]
struct Factors {
    /// `(1 − f)² / (tf + 1)`.
    norm: f64,
    /// `tf · avg_dl / dl`.
    length_ratio: f64,
    /// `0.5 · log₂(2π · tf · (1 − f))`.
    half_log: f64,
}

impl Factors {
    /// The factors of `tf ≥ 1` occurrences in a document of `dl ≥ 1`
    /// tokens — the one place they are computed, for the table and for
    /// [`Dph::score`] alike.
    fn of(tf: u32, doc_len: u32, avg_doc_len: f64) -> Self {
        let tf = f64::from(tf);
        let dl = f64::from(doc_len);
        // Clamp the relative frequency strictly below 1 so the Popper
        // normalization and the log term stay finite for documents that
        // consist solely of the query term (tf == dl).
        let f = (tf / dl).min(1.0 - 1e-9);
        Factors {
            norm: (1.0 - f) * (1.0 - f) / (tf + 1.0),
            length_ratio: tf * avg_doc_len / dl,
            half_log: 0.5 * (2.0 * std::f64::consts::PI * tf * (1.0 - f)).log2(),
        }
    }

    /// The score of `tf` occurrences of a term with `N / CF =
    /// docs_per_occurrence`.
    #[inline]
    fn score(&self, tf: u32, docs_per_occurrence: f64) -> f64 {
        // A term can score negative when it is *more* frequent in the
        // collection than chance would predict; Terrier keeps negative
        // contributions, and so do we — they matter for ranking
        // stability.
        self.norm
            * (f64::from(tf) * (self.length_ratio * docs_per_occurrence).log2() + self.half_log)
    }
}

impl RankingModel for Dph {
    fn score(&self, tf: u32, doc_len: u32, term: TermStats, coll: CollectionStats) -> f64 {
        self.term_scorer(term, coll)(tf, doc_len)
    }

    /// `N / CF` is divided once per term instead of once per posting; the
    /// expression tree is otherwise the formula above, so the result is
    /// the same `f64` whichever way it is reached.
    fn term_scorer(&self, term: TermStats, coll: CollectionStats) -> impl Fn(u32, u32) -> f64 {
        let per_occurrence = docs_per_occurrence(term, coll);
        move |tf, doc_len| match per_occurrence {
            Some(n_cf) if tf != 0 && doc_len != 0 => {
                Factors::of(tf, doc_len, coll.avg_doc_len).score(tf, n_cf)
            }
            _ => 0.0,
        }
    }
}

/// Upper bound on a table's cells: 24 B each, about 2 MiB in all.
const MAX_CELLS: usize = (2 << 20) / std::mem::size_of::<Factors>();

/// Fewest `tf` rows a table keeps when its documents are too long for
/// every row to span every length.
const MIN_TF_ROWS: usize = 16;

/// DPH with the `(tf, dl)`-only factors of every `(tf, dl)` up to
/// `tf_cap` × `dl_cap` precomputed under one collection's statistics (see
/// the module docs).
///
/// As a [`RankingModel`] it scores exactly what [`Dph`] scores, `f64` bit
/// for bit: its [`score`](RankingModel::score) is the formula, and its
/// [`term_scorer`](RankingModel::term_scorer) reads a cell only when asked
/// for the statistics the table was built for and for a `(tf, dl)` inside
/// it, and runs the formula otherwise. It is never serialized: whoever
/// decodes an index or a shard builds it again from the statistics.
#[derive(Debug, Clone)]
pub struct DphTable {
    coll: CollectionStats,
    tf_cap: usize,
    dl_cap: usize,
    /// Row-major by `tf`: the cell of `(tf, dl)` is at
    /// `(tf − 1) · dl_cap + (dl − 1)`.
    cells: Vec<Factors>,
}

impl DphTable {
    /// The table for scoring under `coll` postings whose frequencies reach
    /// `max_tf` in documents up to `max_dl` tokens long. Past about 2 MiB
    /// it keeps at least 16 `tf` rows and shortens the `dl` span, then
    /// keeps as many rows as fit.
    pub fn new(coll: CollectionStats, max_tf: u32, max_dl: u32) -> Self {
        Self::within(coll, max_tf, max_dl, MAX_CELLS)
    }

    /// [`new`](Self::new) with at most `max_cells` cells.
    fn within(coll: CollectionStats, max_tf: u32, max_dl: u32, max_cells: usize) -> Self {
        let (max_tf, max_dl) = (max_tf as usize, max_dl as usize);
        let tf_cap = max_tf.min(MIN_TF_ROWS.max(max_cells / max_dl.max(1)));
        let dl_cap = max_dl.min(max_cells / tf_cap.max(1));
        let mut cells = Vec::with_capacity(tf_cap * dl_cap);
        for tf in 1..=tf_cap as u32 {
            cells.extend((1..=dl_cap as u32).map(|dl| Factors::of(tf, dl, coll.avg_doc_len)));
        }
        DphTable {
            coll,
            tf_cap,
            dl_cap,
            cells,
        }
    }

    /// The table for a range's documents of lengths `doc_lens` and its
    /// `postings`, under `coll`. It holds no more cells than there are
    /// postings: a cell costs about what scoring one posting by the
    /// formula does, and a decoded image backs every posting with at
    /// least two bytes, so the table stays within a fixed multiple of the
    /// bytes it was decoded from, whatever lengths they claim.
    pub(crate) fn of(coll: CollectionStats, doc_lens: &[u32], postings: &[PostingsList]) -> Self {
        let max_tf = postings.iter().map(PostingsList::max_tf).max();
        let max_dl = doc_lens.iter().max();
        let num_postings = postings.iter().map(PostingsList::len).sum::<usize>();
        Self::within(
            coll,
            max_tf.unwrap_or(0),
            max_dl.copied().unwrap_or(0),
            num_postings.min(MAX_CELLS),
        )
    }

    /// The largest `tf` the table holds (its rows are `1..=tf_cap`).
    pub fn tf_cap(&self) -> u32 {
        self.tf_cap as u32
    }

    /// The largest document length the table holds (`1..=dl_cap`).
    pub fn dl_cap(&self) -> u32 {
        self.dl_cap as u32
    }

    /// Whether the table was built for exactly `coll`.
    fn built_for(&self, coll: CollectionStats) -> bool {
        self.coll.num_docs == coll.num_docs
            && self.coll.num_tokens == coll.num_tokens
            && self.coll.avg_doc_len.to_bits() == coll.avg_doc_len.to_bits()
    }

    /// The cell of `(tf, dl)`, when both lie inside the table (a zero
    /// wraps past either cap).
    #[inline]
    fn cell(&self, tf: u32, doc_len: u32) -> Option<&Factors> {
        let (row, col) = (
            tf.wrapping_sub(1) as usize,
            doc_len.wrapping_sub(1) as usize,
        );
        if row < self.tf_cap && col < self.dl_cap {
            self.cells.get(row * self.dl_cap + col)
        } else {
            None
        }
    }

    /// A copy of the table whose `(tf, dl)` cell scores one ulp higher:
    /// what the oracle comparisons must catch.
    #[cfg(test)]
    pub(crate) fn with_planted_ulp(&self, tf: u32, doc_len: u32) -> Self {
        let mut planted = self.clone();
        let i = (tf as usize - 1) * self.dl_cap + (doc_len as usize - 1);
        let norm = &mut planted.cells[i].norm;
        *norm = f64::from_bits(norm.to_bits() + 1);
        planted
    }
}

impl RankingModel for DphTable {
    fn score(&self, tf: u32, doc_len: u32, term: TermStats, coll: CollectionStats) -> f64 {
        Dph.score(tf, doc_len, term, coll)
    }

    fn term_scorer(&self, term: TermStats, coll: CollectionStats) -> impl Fn(u32, u32) -> f64 {
        let formula = Dph.term_scorer(term, coll);
        let table = match docs_per_occurrence(term, coll) {
            Some(n_cf) if self.built_for(coll) => Some((self, n_cf)),
            _ => None,
        };
        move |tf, doc_len| {
            let read = table.and_then(|(t, n_cf)| Some(t.cell(tf, doc_len)?.score(tf, n_cf)));
            read.unwrap_or_else(|| formula(tf, doc_len))
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
    fn a_table_spans_its_postings_within_their_count_and_2_mib() {
        let list = |tfs: &[u32]| {
            let mut b = crate::postings::PostingsBuilder::new();
            for (doc, &tf) in tfs.iter().enumerate() {
                b.push(crate::DocId(doc as u32), tf);
            }
            b.build()
        };
        let many = list(&[3; 5_000]);
        // Largest tf 33 and dl 123, as on a 46 k-document collection.
        let table = DphTable::of(coll(), &[7, 123, 2], &[list(&[1, 33]), many.clone()]);
        assert_eq!((table.tf_cap(), table.dl_cap()), (33, 123));
        assert_eq!(table.cells.len(), 33 * 123);
        // Lengths no posting count backs (a hostile image claims them):
        // no more cells than postings.
        let claimed = DphTable::of(coll(), &[u32::MAX, 4], &[list(&[2, 1, 9])]);
        assert!(claimed.cells.len() <= 3, "{} cells", claimed.cells.len());
        // Long documents and many postings: at most 2 MiB, 16 rows kept.
        let long = DphTable::of(coll(), &[1_000_000], &[list(&[40; 100_000]), many]);
        assert_eq!(long.tf_cap(), 16);
        assert!(long.cells.len() * std::mem::size_of::<Factors>() <= 2 << 20);
        assert_eq!(long.cells.len(), 16 * long.dl_cap() as usize);
        assert!(DphTable::of(coll(), &[], &[]).cells.is_empty());
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
