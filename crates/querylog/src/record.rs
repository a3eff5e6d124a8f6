//! Log records and the query-log container.
//!
//! Query strings are interned to dense [`QueryId`]s: the mining structures
//! (query-flow graph, frequency tables, recommendation model) all work on
//! integer ids and only materialize strings at the API boundary.

use serpdiv_index::DocId;
use std::collections::HashMap;

/// Dense identifier of a distinct query string.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct QueryId(pub u32);

impl QueryId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Anonymized user identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct UserId(pub u32);

/// One record ⟨q, u, t, V, C⟩ of the log (Definition in §3.1).
#[derive(Debug, Clone)]
pub struct LogRecord {
    /// The submitted query.
    pub query: QueryId,
    /// The anonymized user.
    pub user: UserId,
    /// Submission timestamp, seconds since the log epoch.
    pub time: u64,
    /// Top-k result documents (Vᵢ) — may be empty if results were not
    /// recorded (the diversification method itself never reads them).
    pub results: Vec<DocId>,
    /// Clicked documents (Cᵢ) ⊆ results.
    pub clicks: Vec<DocId>,
}

/// A query log: interned query strings plus time-ordered records.
#[derive(Debug, Default, Clone)]
pub struct QueryLog {
    queries: Vec<String>,
    by_text: HashMap<String, QueryId>,
    records: Vec<LogRecord>,
}

impl QueryLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `text`, returning its stable id.
    pub fn intern_query(&mut self, text: &str) -> QueryId {
        if let Some(&id) = self.by_text.get(text) {
            return id;
        }
        let id = QueryId(self.queries.len() as u32);
        self.queries.push(text.to_string());
        self.by_text.insert(text.to_string(), id);
        id
    }

    /// Id of `text` if it occurs in the log.
    pub fn query_id(&self, text: &str) -> Option<QueryId> {
        self.by_text.get(text).copied()
    }

    /// The string of `id`.
    pub fn query_text(&self, id: QueryId) -> Option<&str> {
        self.queries.get(id.index()).map(String::as_str)
    }

    /// Number of distinct queries.
    pub fn num_queries(&self) -> usize {
        self.queries.len()
    }

    /// Append a record. Records should be pushed in nondecreasing time
    /// order; [`QueryLog::sort_by_time`] restores the invariant otherwise.
    pub fn push(&mut self, record: LogRecord) {
        debug_assert!(
            record.query.index() < self.queries.len(),
            "unknown query id"
        );
        self.records.push(record);
    }

    /// All records.
    pub fn records(&self) -> &[LogRecord] {
        &self.records
    }

    /// Number of records (query submissions).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the log has no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Sort records chronologically (stable: preserves submission order of
    /// equal timestamps).
    pub fn sort_by_time(&mut self) {
        self.records.sort_by_key(|r| r.time);
    }

    /// Crate-private mutable access for the generator's `attach_results`;
    /// callers must preserve the time-ordering invariant.
    pub(crate) fn records_mut(&mut self) -> &mut Vec<LogRecord> {
        &mut self.records
    }

    /// Split the record stream at `fraction` (by position in time order)
    /// into a training log and a test log sharing this log's interning.
    ///
    /// Appendix C: "The two query logs were split into two different
    /// subsets. The first one (containing approximatively the 70% of the
    /// queries) was used for training ... and the second one for testing."
    pub fn split_train_test(&self, fraction: f64) -> (QueryLog, QueryLog) {
        assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0,1]");
        let cut = (self.records.len() as f64 * fraction).round() as usize;
        let make = |records: &[LogRecord]| QueryLog {
            queries: self.queries.clone(),
            by_text: self.by_text.clone(),
            records: records.to_vec(),
        };
        (make(&self.records[..cut]), make(&self.records[cut..]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(log: &mut QueryLog, q: &str, u: u32, t: u64) -> LogRecord {
        let query = log.intern_query(q);
        LogRecord {
            query,
            user: UserId(u),
            time: t,
            results: Vec::new(),
            clicks: Vec::new(),
        }
    }

    #[test]
    fn interning_is_stable() {
        let mut log = QueryLog::new();
        let a = log.intern_query("apple");
        let b = log.intern_query("apple");
        assert_eq!(a, b);
        assert_eq!(log.num_queries(), 1);
        assert_eq!(log.query_text(a), Some("apple"));
        assert_eq!(log.query_id("apple"), Some(a));
        assert_eq!(log.query_id("pear"), None);
    }

    #[test]
    fn push_and_iterate() {
        let mut log = QueryLog::new();
        let r = rec(&mut log, "apple", 1, 100);
        log.push(r);
        assert_eq!(log.len(), 1);
        assert_eq!(log.records()[0].time, 100);
    }

    #[test]
    fn sort_by_time() {
        let mut log = QueryLog::new();
        let r2 = rec(&mut log, "b", 1, 200);
        let r1 = rec(&mut log, "a", 1, 100);
        log.push(r2);
        log.push(r1);
        log.sort_by_time();
        assert_eq!(log.records()[0].time, 100);
    }

    #[test]
    fn train_test_split_shares_interning() {
        let mut log = QueryLog::new();
        for i in 0..10u64 {
            let r = rec(&mut log, &format!("q{i}"), 1, i);
            log.push(r);
        }
        let (train, test) = log.split_train_test(0.7);
        assert_eq!(train.len(), 7);
        assert_eq!(test.len(), 3);
        // Shared interning: a query occurring only in the test slice still
        // resolves in the training log's dictionary.
        assert!(train.query_id("q9").is_some());
        assert_eq!(test.records()[0].time, 7);
    }

    #[test]
    fn split_edge_fractions() {
        let mut log = QueryLog::new();
        let r = rec(&mut log, "a", 1, 0);
        log.push(r);
        let (tr, te) = log.split_train_test(0.0);
        assert_eq!((tr.len(), te.len()), (0, 1));
        let (tr, te) = log.split_train_test(1.0);
        assert_eq!((tr.len(), te.len()), (1, 0));
    }
}
