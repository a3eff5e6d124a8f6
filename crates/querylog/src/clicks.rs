//! User click models.
//!
//! The log records carry a click set `Cᵢ` (§3.1); the paper lists
//! "the use of click-through data to improve our effectiveness results"
//! as future work (§6). This module provides the standard click models
//! from the literature so that extension is exercisable:
//!
//! * [`PositionModel`] — examination decays geometrically with rank;
//!   clicks are independent given examination (Craswell et al.'s
//!   baseline),
//! * [`CascadeModel`] — the user scans top-down and stops at the first
//!   satisfying click (Craswell et al., WSDM 2008),
//! * [`ClickStats`] — empirical click-through rates per rank, and the
//!   **click entropy** of a query — Clough et al.'s (SIGIR 2009) signal
//!   for ambiguity, which the paper's related-work section discusses.

use crate::record::QueryLog;
use rand::Rng;
use serpdiv_index::DocId;

/// A model deciding which of a ranked result list's items get clicked.
pub trait ClickModel {
    /// Simulate the clicks on `results` (best rank first).
    fn clicks<R: Rng + ?Sized>(&self, results: &[DocId], rng: &mut R) -> Vec<DocId>;
}

/// Examination decays by `decay` per rank; a clicked item is clicked with
/// `p_click` given examination; examination continues regardless of
/// clicks (independent-click position model).
#[derive(Debug, Clone, Copy)]
pub struct PositionModel {
    /// Click probability at an examined rank.
    pub p_click: f64,
    /// Multiplicative examination decay per rank.
    pub decay: f64,
}

impl Default for PositionModel {
    fn default() -> Self {
        PositionModel {
            p_click: 0.6,
            decay: 0.75,
        }
    }
}

impl ClickModel for PositionModel {
    fn clicks<R: Rng + ?Sized>(&self, results: &[DocId], rng: &mut R) -> Vec<DocId> {
        let mut out = Vec::new();
        let mut p = self.p_click;
        for &doc in results {
            if rng.gen_bool(p.clamp(0.0, 1.0)) {
                out.push(doc);
            }
            p *= self.decay;
        }
        out
    }
}

/// The cascade model: scan top-down, click with `p_click`, stop after the
/// first click with probability `p_satisfied`.
#[derive(Debug, Clone, Copy)]
pub struct CascadeModel {
    /// Click probability at the currently examined rank.
    pub p_click: f64,
    /// Probability a click satisfies the user (scan stops).
    pub p_satisfied: f64,
}

impl Default for CascadeModel {
    fn default() -> Self {
        CascadeModel {
            p_click: 0.45,
            p_satisfied: 0.7,
        }
    }
}

impl ClickModel for CascadeModel {
    fn clicks<R: Rng + ?Sized>(&self, results: &[DocId], rng: &mut R) -> Vec<DocId> {
        let mut out = Vec::new();
        for &doc in results {
            if rng.gen_bool(self.p_click.clamp(0.0, 1.0)) {
                out.push(doc);
                if rng.gen_bool(self.p_satisfied.clamp(0.0, 1.0)) {
                    break;
                }
            }
        }
        out
    }
}

/// Empirical click statistics over a log.
#[derive(Debug, Default, Clone)]
pub struct ClickStats {
    /// clicks[r] = number of clicks at result rank r (0-based).
    per_rank: Vec<u64>,
    /// Total records with at least one recorded result.
    records_with_results: u64,
}

impl ClickStats {
    /// Scan `log` and accumulate per-rank click counts.
    pub fn build(log: &QueryLog) -> Self {
        let mut per_rank: Vec<u64> = Vec::new();
        let mut records_with_results = 0u64;
        for r in log.records() {
            if r.results.is_empty() {
                continue;
            }
            records_with_results += 1;
            for c in &r.clicks {
                if let Some(rank) = r.results.iter().position(|d| d == c) {
                    if per_rank.len() <= rank {
                        per_rank.resize(rank + 1, 0);
                    }
                    per_rank[rank] += 1;
                }
            }
        }
        ClickStats {
            per_rank,
            records_with_results,
        }
    }

    /// Click-through rate at `rank` (0-based).
    pub fn ctr_at(&self, rank: usize) -> f64 {
        if self.records_with_results == 0 {
            return 0.0;
        }
        self.per_rank.get(rank).copied().unwrap_or(0) as f64 / self.records_with_results as f64
    }

    /// Click entropy of one query (Clough et al.): the Shannon entropy of
    /// the distribution of clicked documents over all submissions of the
    /// query. High entropy ⇒ users click many different results ⇒ the
    /// query is likely ambiguous.
    pub fn click_entropy(log: &QueryLog, query: crate::record::QueryId) -> f64 {
        use std::collections::HashMap;
        let mut counts: HashMap<DocId, u64> = HashMap::new();
        let mut total = 0u64;
        for r in log.records() {
            if r.query != query {
                continue;
            }
            for &c in &r.clicks {
                *counts.entry(c).or_insert(0) += 1;
                total += 1;
            }
        }
        if total == 0 {
            return 0.0;
        }
        counts
            .values()
            .map(|&c| {
                let p = c as f64 / total as f64;
                -p * p.log2()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{LogRecord, QueryLog, UserId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn docs(n: u32) -> Vec<DocId> {
        (0..n).map(DocId).collect()
    }

    #[test]
    fn position_model_prefers_top_ranks() {
        let model = PositionModel::default();
        let mut rng = StdRng::seed_from_u64(1);
        let results = docs(10);
        let mut rank_counts = [0usize; 10];
        for _ in 0..5_000 {
            for c in model.clicks(&results, &mut rng) {
                rank_counts[c.0 as usize] += 1;
            }
        }
        assert!(rank_counts[0] > rank_counts[4]);
        assert!(rank_counts[4] > rank_counts[9]);
    }

    #[test]
    fn cascade_model_stops_after_satisfaction() {
        let model = CascadeModel {
            p_click: 1.0,
            p_satisfied: 1.0,
        };
        let mut rng = StdRng::seed_from_u64(2);
        let clicks = model.clicks(&docs(10), &mut rng);
        assert_eq!(clicks, vec![DocId(0)], "always clicks rank 1 and stops");
    }

    #[test]
    fn empty_results_yield_no_clicks() {
        let mut rng = StdRng::seed_from_u64(3);
        assert!(PositionModel::default().clicks(&[], &mut rng).is_empty());
        assert!(CascadeModel::default().clicks(&[], &mut rng).is_empty());
    }

    fn log_with_clicks(clicks_per_record: &[Vec<u32>]) -> QueryLog {
        let mut log = QueryLog::new();
        let q = log.intern_query("q");
        for (t, clicked) in clicks_per_record.iter().enumerate() {
            log.push(LogRecord {
                query: q,
                user: UserId(0),
                time: t as u64,
                results: docs(5),
                clicks: clicked.iter().map(|&d| DocId(d)).collect(),
            });
        }
        log
    }

    #[test]
    fn click_stats_ctr() {
        let log = log_with_clicks(&[vec![0], vec![0, 2], vec![1]]);
        let stats = ClickStats::build(&log);
        assert!((stats.ctr_at(0) - 2.0 / 3.0).abs() < 1e-12);
        assert!((stats.ctr_at(1) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(stats.ctr_at(4), 0.0);
    }

    #[test]
    fn click_entropy_separates_focused_from_diffuse() {
        // Focused: every submission clicks the same doc → entropy 0.
        let focused = log_with_clicks(&[vec![0], vec![0], vec![0]]);
        let q = focused.query_id("q").unwrap();
        assert_eq!(ClickStats::click_entropy(&focused, q), 0.0);
        // Diffuse: three different docs → entropy log2(3).
        let diffuse = log_with_clicks(&[vec![0], vec![1], vec![2]]);
        let q = diffuse.query_id("q").unwrap();
        assert!((ClickStats::click_entropy(&diffuse, q) - 3f64.log2()).abs() < 1e-9);
    }

    #[test]
    fn entropy_of_unclicked_query_is_zero() {
        let log = log_with_clicks(&[vec![]]);
        let q = log.query_id("q").unwrap();
        assert_eq!(ClickStats::click_entropy(&log, q), 0.0);
    }
}
