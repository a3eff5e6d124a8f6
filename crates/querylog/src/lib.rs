//! Query-log substrate.
//!
//! §3.1 of the paper: "a query log Q is composed by a set of records
//! ⟨qᵢ, uᵢ, tᵢ, Vᵢ, Cᵢ⟩ storing, for each submitted query qᵢ: (i) the
//! anonymized user uᵢ; (ii) the timestamp tᵢ; (iii) the set Vᵢ of URLs of
//! documents returned as top-k results, and (iv) the set Cᵢ of URLs
//! corresponding to results clicked by uᵢ."
//!
//! The paper uses the AOL log (20M queries, 650k users, 3 months) and the
//! MSN log (15M queries, 1 month). Both are unavailable (AOL withdrawn, MSN
//! restricted), so [`generator`] synthesizes logs with the statistical
//! properties the method depends on — Zipfian topic popularity and sessions
//! in which ambiguous queries are refined into specializations with
//! probability proportional to subtopic popularity (the corpus side is
//! described in the `serpdiv-corpus` crate docs).
//!
//! * [`record`] — interned queries, log records, the [`QueryLog`] container,
//! * [`generator`] — the seeded session-level user simulator with
//!   [`LogConfig::aol_like`] / [`LogConfig::msn_like`] presets,
//! * [`session`] — timeout-based session splitting (the baseline; the
//!   query-flow-graph splitter lives in `serpdiv-mining`),
//! * [`stats`] — frequency tables: the popularity function `f()` of
//!   Algorithm 1,
//! * [`clicks`] — per-rank click-through rates and click entropy.

#![forbid(unsafe_code)]

pub mod clicks;
pub mod generator;
pub mod record;
pub mod session;
pub mod stats;

pub use clicks::ClickStats;
pub use generator::{GroundTruth, LogConfig, QueryKind, QueryLogGenerator};
pub use record::{LogRecord, QueryId, QueryLog, UserId};
pub use session::{split_sessions, Session, SessionSplitter};
pub use stats::FreqTable;
