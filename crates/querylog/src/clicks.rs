//! Click statistics over a log.
//!
//! The log records carry a click set `Cᵢ` (§3.1), simulated by the log
//! generator; the paper lists "the use of click-through data to improve
//! our effectiveness results" as future work (§6). [`ClickStats`] reads
//! it back: empirical click-through rates per rank, and the **click
//! entropy** of a query — Clough et al.'s (SIGIR 2009) signal for
//! ambiguity, which the paper's related-work section discusses.

use crate::record::QueryLog;
use serpdiv_index::DocId;

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

    fn docs(n: u32) -> Vec<DocId> {
        (0..n).map(DocId).collect()
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
