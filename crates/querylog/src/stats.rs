//! Frequency statistics over a query log.
//!
//! Algorithm 1 of the paper needs "the popularity function f() that computes
//! the frequency of a query topic in Q". [`FreqTable`] materializes it once
//! per log.

use crate::record::{QueryId, QueryLog};

/// Submission counts per distinct query.
#[derive(Debug, Clone, Default)]
pub struct FreqTable {
    counts: Vec<u64>,
    total: u64,
}

impl FreqTable {
    /// Count query submissions in `log`.
    pub fn build(log: &QueryLog) -> Self {
        let mut counts = vec![0u64; log.num_queries()];
        for r in log.records() {
            counts[r.query.index()] += 1;
        }
        let total = counts.iter().sum();
        FreqTable { counts, total }
    }

    /// `f(q)`: number of submissions of `q`.
    pub fn freq(&self, q: QueryId) -> u64 {
        self.counts.get(q.index()).copied().unwrap_or(0)
    }

    /// Total number of submissions counted.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The `n` most frequent queries, by decreasing frequency (ties by id).
    pub fn top(&self, n: usize) -> Vec<(QueryId, u64)> {
        let mut pairs: Vec<(QueryId, u64)> = self
            .counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (QueryId(i as u32), c))
            .collect();
        pairs.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        pairs.truncate(n);
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{LogRecord, UserId};

    fn log() -> QueryLog {
        let mut log = QueryLog::new();
        for (q, t) in [("a", 0), ("b", 1), ("a", 2), ("a", 3), ("c", 4)] {
            let query = log.intern_query(q);
            log.push(LogRecord {
                query,
                user: UserId(0),
                time: t,
                results: Vec::new(),
                clicks: Vec::new(),
            });
        }
        log
    }

    #[test]
    fn counts_are_correct() {
        let log = log();
        let f = FreqTable::build(&log);
        assert_eq!(f.freq(log.query_id("a").unwrap()), 3);
        assert_eq!(f.freq(log.query_id("b").unwrap()), 1);
        assert_eq!(f.total(), 5);
        assert_eq!(f.freq(QueryId(99)), 0);
    }

    #[test]
    fn top_orders_by_frequency() {
        let log = log();
        let f = FreqTable::build(&log);
        let top = f.top(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0, log.query_id("a").unwrap());
        assert_eq!(top[0].1, 3);
    }
}
