//! Diversity-aware retrieval evaluation.
//!
//! §5 of the paper: "The results obtained for the diversity task of the
//! TREC 2009 Web track are evaluated according to the two official metrics:
//! α-NDCG and IA-P ... both are reported at five different rank cutoffs: 5,
//! 10, 20, 100, and 1000 ... α-NDCG is computed with α = 0.5" and
//! significance is checked with "the Wilcoxon signed-rank test at 0.05
//! level of significance".
//!
//! * [`andcg`] — α-NDCG (Clarke et al., SIGIR 2008) with the standard
//!   greedy ideal ranking,
//! * [`iap`] — intent-aware precision (Agrawal et al., WSDM 2009),
//! * [`ndcg`] — classic NDCG (Järvelin & Kekäläinen) — the α = 0 limit,
//! * [`wilcoxon`] — the Wilcoxon signed-rank test,
//! * [`report`] — fixed-width table formatting shared by the bench
//!   binaries that regenerate the paper's tables.

#![forbid(unsafe_code)]

pub mod andcg;
pub mod iap;
pub mod ndcg;
pub mod report;
pub mod wilcoxon;

pub use andcg::{alpha_dcg_at, alpha_ndcg_at, ideal_alpha_dcg_at};
pub use iap::ia_precision_at;
pub use ndcg::ndcg_at;
pub use report::Table;
pub use wilcoxon::{wilcoxon_signed_rank, WilcoxonResult};

// Re-export the qrels types evaluated against (they live in the corpus
// crate because the synthetic testbed emits them at generation time).
pub use serpdiv_corpus::{Qrels, SubtopicId, TopicId};

/// The paper's five rank cutoffs (Table 3 columns).
pub const PAPER_CUTOFFS: [usize; 5] = [5, 10, 20, 100, 1000];
