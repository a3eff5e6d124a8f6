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
//! **Evaluation order.** `log₂(x · y) = log₂ x + log₂ y` makes a term's
//! score `fixed + per_log · log₂(N / CF)`, with `per_log = norm · tf` and
//! `fixed = norm · (tf · log₂(tf · avg_dl / dl) + 0.5 · log₂(2π · tf · (1 − f)))`,
//! and every path computes it so, [`Dph::score`] included. These are not
//! Terrier's bits: rounding the two logs apart moves a score by a few
//! ulps of its largest summand (more of the score itself near `tf ·
//! avg_dl / dl · N / CF = 1`, where the logs cancel); the index crate's
//! `properties` suite bounds it.
//!
//! **The `(tf, dl)` table.** A [`DphTable`] holds `fixed` and `per_log`
//! for every `tf` and `dl` up to an index's largest (a sealed index, a
//! merge and a shard artifact each build one), so a posting costs one
//! multiply and one add after one `log₂` per term. It is exact: one
//! private function computes the cells and [`Dph::score`]'s factors, both
//! combined with `log₂(N / CF)` by one expression, so IEEE-754 gives the
//! same `f64` unless a multiply and an add are contracted into a fused
//! multiply-add (Rust never does without `mul_add`). A cell depends on
//! the collection only through `avg_dl`: a table is read under statistics
//! with its average's bits, inside its bounds; every other posting (a
//! delta's union overlay, a `tf` or `dl` past the table) runs the formula.

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

/// `log₂(N / CF)` — the only factor that depends on the term — or `None`
/// when the term cannot score (it never occurs, or the collection is
/// empty).
fn log_docs_per_occurrence(term: TermStats, coll: CollectionStats) -> Option<f64> {
    (term.coll_freq != 0 && coll.num_docs != 0)
        .then(|| (coll.num_docs as f64 / term.coll_freq as f64).log2())
}

/// The score of `(tf, dl)` as an affine function of `log₂(N / CF)`; see
/// the module docs.
#[derive(Debug, Clone)]
struct Factors {
    /// `norm · (tf · log₂(tf · avg_dl / dl) + 0.5 · log₂(2π · tf · (1 − f)))`.
    fixed: f64,
    /// `norm · tf`.
    per_log: f64,
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
        let norm = (1.0 - f) * (1.0 - f) / (tf + 1.0);
        let half_log = 0.5 * (2.0 * std::f64::consts::PI * tf * (1.0 - f)).log2();
        Factors {
            fixed: norm * (tf * (tf * avg_doc_len / dl).log2() + half_log),
            per_log: norm * tf,
        }
    }

    /// The score of a term with `log₂(N / CF) = log_docs_per_occurrence`.
    #[inline]
    fn score(&self, log_docs_per_occurrence: f64) -> f64 {
        // A term can score negative when it is *more* frequent in the
        // collection than chance would predict; Terrier keeps negative
        // contributions, and so do we — they matter for ranking
        // stability.
        self.fixed + self.per_log * log_docs_per_occurrence
    }
}

impl RankingModel for Dph {
    fn score(&self, tf: u32, doc_len: u32, term: TermStats, coll: CollectionStats) -> f64 {
        self.term_scorer(term, coll)(tf, doc_len)
    }

    /// `log₂(N / CF)` is taken once per term; the result is the same
    /// `f64` whichever way it is reached.
    fn term_scorer(&self, term: TermStats, coll: CollectionStats) -> impl Fn(u32, u32) -> f64 {
        let log_n_cf = log_docs_per_occurrence(term, coll);
        move |tf, doc_len| match log_n_cf {
            Some(log_n_cf) if tf != 0 && doc_len != 0 => {
                Factors::of(tf, doc_len, coll.avg_doc_len).score(log_n_cf)
            }
            _ => 0.0,
        }
    }
}

/// Upper bound on a table's cells: 16 B each, about 2 MiB in all.
const MAX_CELLS: usize = (2 << 20) / std::mem::size_of::<Factors>();

/// Fewest `tf` rows a table keeps when its documents are too long for
/// every row to span every length.
const MIN_TF_ROWS: usize = 16;

/// DPH with the `(tf, dl)`-only factors of every `(tf, dl)` up to
/// `tf_cap` × `dl_cap` precomputed for one average document length (see
/// the module docs).
///
/// As a [`RankingModel`] it scores exactly what [`Dph`] scores, `f64` bit
/// for bit: its [`score`](RankingModel::score) is the formula, and its
/// [`term_scorer`](RankingModel::term_scorer) reads a cell only under that
/// average length and for a `(tf, dl)` inside it, and runs the formula
/// otherwise. It is never serialized: whoever decodes an index or a
/// shard builds it again from the statistics.
#[derive(Debug, Clone)]
pub struct DphTable {
    avg_doc_len: f64,
    tf_cap: usize,
    dl_cap: usize,
    /// Row-major by `tf`: the cell of `(tf, dl)` is at
    /// `(tf − 1) · dl_cap + (dl − 1)`.
    cells: Vec<Factors>,
}

impl DphTable {
    /// The table for scoring postings whose frequencies reach `max_tf` in
    /// documents up to `max_dl` tokens long, of average `avg_doc_len`. Past
    /// about 2 MiB it keeps at least 16 `tf` rows and shortens the `dl`
    /// span, then keeps as many rows as fit.
    pub fn new(avg_doc_len: f64, max_tf: u32, max_dl: u32) -> Self {
        Self::within(avg_doc_len, max_tf, max_dl, MAX_CELLS)
    }

    /// [`new`](Self::new) with at most `max_cells` cells.
    fn within(avg_doc_len: f64, max_tf: u32, max_dl: u32, max_cells: usize) -> Self {
        let (max_tf, max_dl) = (max_tf as usize, max_dl as usize);
        let tf_cap = max_tf.min(MIN_TF_ROWS.max(max_cells / max_dl.max(1)));
        let dl_cap = max_dl.min(max_cells / tf_cap.max(1));
        let mut cells = Vec::with_capacity(tf_cap * dl_cap);
        for tf in 1..=tf_cap as u32 {
            cells.extend((1..=dl_cap as u32).map(|dl| Factors::of(tf, dl, avg_doc_len)));
        }
        DphTable {
            avg_doc_len,
            tf_cap,
            dl_cap,
            cells,
        }
    }

    /// The table for a range's documents of lengths `doc_lens` and its
    /// `postings`, of average length `avg_doc_len`. It holds no more cells
    /// than there are postings: a cell costs about what scoring one
    /// posting by the formula does, and a decoded image backs every posting
    /// with at least two bytes, so the table stays within a fixed multiple
    /// of the bytes it was decoded from, whatever lengths they claim.
    pub(crate) fn of(avg_doc_len: f64, doc_lens: &[u32], postings: &[PostingsList]) -> Self {
        let max_tf = postings.iter().map(PostingsList::max_tf).max();
        let max_dl = doc_lens.iter().max();
        let num_postings = postings.iter().map(PostingsList::len).sum::<usize>();
        Self::within(
            avg_doc_len,
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

    /// Whether `coll` has the average length the cells were computed for.
    fn built_for(&self, coll: CollectionStats) -> bool {
        self.avg_doc_len.to_bits() == coll.avg_doc_len.to_bits()
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

    /// A copy of the table whose `(tf, dl)` cell has a `fixed` one ulp
    /// higher: what the oracle comparisons must catch wherever the ulp
    /// outlives the add of a larger `per_log · log₂(N / CF)`.
    #[cfg(test)]
    pub(crate) fn with_planted_ulp(&self, tf: u32, doc_len: u32) -> Self {
        let mut planted = self.clone();
        let i = (tf as usize - 1) * self.dl_cap + (doc_len as usize - 1);
        let fixed = &mut planted.cells[i].fixed;
        *fixed = f64::from_bits(fixed.to_bits() + 1);
        planted
    }
}

impl RankingModel for DphTable {
    fn score(&self, tf: u32, doc_len: u32, term: TermStats, coll: CollectionStats) -> f64 {
        Dph.score(tf, doc_len, term, coll)
    }

    fn term_scorer(&self, term: TermStats, coll: CollectionStats) -> impl Fn(u32, u32) -> f64 {
        let formula = Dph.term_scorer(term, coll);
        let table = match log_docs_per_occurrence(term, coll) {
            Some(log_n_cf) if self.built_for(coll) => Some((self, log_n_cf)),
            _ => None,
        };
        move |tf, doc_len| {
            let read = table.and_then(|(t, log_n_cf)| Some(t.cell(tf, doc_len)?.score(log_n_cf)));
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
        let avg = coll().avg_doc_len;
        let many = list(&[3; 5_000]);
        // Largest tf 33 and dl 123, as on a 46 k-document collection.
        let table = DphTable::of(avg, &[7, 123, 2], &[list(&[1, 33]), many.clone()]);
        assert_eq!((table.tf_cap(), table.dl_cap()), (33, 123));
        assert_eq!(table.cells.len(), 33 * 123);
        // Lengths no posting count backs (a hostile image claims them):
        // no more cells than postings.
        let claimed = DphTable::of(avg, &[u32::MAX, 4], &[list(&[2, 1, 9])]);
        assert!(claimed.cells.len() <= 3, "{} cells", claimed.cells.len());
        // Long documents and many postings: at most 2 MiB, 16 rows kept.
        let long = DphTable::of(avg, &[1_000_000], &[list(&[40; 100_000]), many]);
        assert_eq!(long.tf_cap(), 16);
        assert!(long.cells.len() * std::mem::size_of::<Factors>() <= 2 << 20);
        assert_eq!(long.cells.len(), 16 * long.dl_cap() as usize);
        assert!(DphTable::of(avg, &[], &[]).cells.is_empty());
    }

    /// A cell depends on the collection only through its average length:
    /// a table is read, and scores the formula's bits, under another
    /// document count and other collection frequencies of the same
    /// average length, and is not read under another average length.
    #[test]
    fn a_table_is_read_under_every_statistic_of_its_average_length() {
        let table = DphTable::new(coll().avg_doc_len, 8, 200);
        let planted = table.with_planted_ulp(3, 100);
        // Five times the documents and tokens: the same average, 100.0.
        let larger = CollectionStats::of(50_000, 5_000_000);
        let longer = CollectionStats::of(10_000, 1_000_001);
        let other = TermStats {
            doc_freq: 40,
            coll_freq: 77,
        };
        for coll in [coll(), larger, longer] {
            for term in [rare(), common(), other] {
                let scorer = table.term_scorer(term, coll);
                for tf in 0..=9 {
                    for dl in 0..=201 {
                        let want = Dph.score(tf, dl, term, coll).to_bits();
                        assert_eq!(
                            scorer(tf, dl).to_bits(),
                            want,
                            "{tf} {dl} {term:?} {coll:?}"
                        );
                    }
                }
            }
            // `N = CF`: the score is the cell's `fixed`, so the planted ulp
            // shows exactly when the cell is read.
            let even = TermStats {
                doc_freq: coll.num_docs,
                coll_freq: coll.num_docs,
            };
            let read = planted.term_scorer(even, coll)(3, 100) != Dph.score(3, 100, even, coll);
            assert_eq!(read, coll.avg_doc_len == 100.0, "{coll:?}");
        }
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
