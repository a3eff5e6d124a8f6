//! Click statistics over a log.
//!
//! The log records carry a click set `Cᵢ` (§3.1), simulated by the log
//! generator; the paper lists "the use of click-through data to improve
//! our effectiveness results" as future work (§6). [`ClickStats`] reads
//! it back as empirical click-through rates per rank.

use crate::record::QueryLog;

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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{LogRecord, QueryLog, UserId};
    use serpdiv_index::DocId;

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
}
