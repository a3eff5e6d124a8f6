//! Session-co-occurrence query recommendation ("Search Shortcuts").
//!
//! The paper (§3.1) computes specializations with "a very efficient query
//! recommendation algorithm \[7\]" (Broccolo et al., *An efficient algorithm
//! to generate search shortcuts*, CNR TR 2010) that "learns the suggestion
//! model from the query log, and returns as related specializations only
//! queries that are present in Q".
//!
//! This implementation scores a candidate suggestion `q′` for query `q` by
//! its discounted co-occurrence *after* `q` within logical sessions:
//! every ordered pair `(q at position i, q′ at position j > i)` contributes
//! `1/(j−i)` — adjacent refinements weigh most, as in the shortcuts TR where
//! suggestions come from session "tails". Scores are aggregated over all
//! sessions of all users, so only reformulations repeated across the
//! population rank high.

use crate::detect::Recommender;
use serpdiv_querylog::{QueryId, QueryLog, Session};
use std::collections::HashMap;

/// Trained suggestion model.
#[derive(Debug, Default)]
pub struct ShortcutsModel {
    /// `q → [(q′, score)]` sorted by decreasing score.
    suggestions: HashMap<QueryId, Vec<(QueryId, f64)>>,
}

impl ShortcutsModel {
    /// Train from the logical `sessions` of `log`.
    ///
    /// `max_suggestions` truncates each suggestion list (the model is
    /// deployed in memory; only the head is ever used by Algorithm 1).
    pub fn train(log: &QueryLog, sessions: &[Session], max_suggestions: usize) -> Self {
        let mut scores: HashMap<QueryId, HashMap<QueryId, f64>> = HashMap::new();
        for session in sessions {
            let queries: Vec<QueryId> = session
                .records
                .iter()
                .map(|&i| log.records()[i].query)
                .collect();
            for i in 0..queries.len() {
                for j in (i + 1)..queries.len() {
                    if queries[i] == queries[j] {
                        continue;
                    }
                    let w = 1.0 / (j - i) as f64;
                    *scores
                        .entry(queries[i])
                        .or_default()
                        .entry(queries[j])
                        .or_insert(0.0) += w;
                }
            }
        }
        let mut suggestions: HashMap<QueryId, Vec<(QueryId, f64)>> =
            HashMap::with_capacity(scores.len());
        for (q, map) in scores {
            let mut list: Vec<(QueryId, f64)> = map.into_iter().collect();
            list.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            list.truncate(max_suggestions);
            suggestions.insert(q, list);
        }
        ShortcutsModel { suggestions }
    }

    /// Suggestions for `q`, best first.
    pub fn suggest(&self, q: QueryId) -> &[(QueryId, f64)] {
        self.suggestions.get(&q).map(Vec::as_slice).unwrap_or(&[])
    }
}

impl Recommender for ShortcutsModel {
    fn recommend(&self, q: QueryId, n: usize) -> Vec<(QueryId, f64)> {
        let s = self.suggest(q);
        s[..s.len().min(n)].to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serpdiv_querylog::{split_sessions, LogRecord, UserId};

    fn log_with(entries: &[(&str, u32, u64)]) -> QueryLog {
        let mut log = QueryLog::new();
        for &(q, u, t) in entries {
            let query = log.intern_query(q);
            log.push(LogRecord {
                query,
                user: UserId(u),
                time: t,
                results: Vec::new(),
                clicks: Vec::new(),
            });
        }
        log
    }

    #[test]
    fn frequent_refinements_rank_first() {
        let log = log_with(&[
            ("apple", 1, 0),
            ("apple iphone", 1, 30),
            ("apple", 2, 100),
            ("apple iphone", 2, 130),
            ("apple", 3, 200),
            ("apple fruit", 3, 230),
        ]);
        let sessions = split_sessions(&log);
        let model = ShortcutsModel::train(&log, &sessions, 10);
        let apple = log.query_id("apple").unwrap();
        let list = model.suggest(apple);
        assert_eq!(list.len(), 2);
        assert_eq!(list[0].0, log.query_id("apple iphone").unwrap());
        assert!(list[0].1 > list[1].1);
    }

    #[test]
    fn adjacency_discount() {
        // "a b c": (a→b) gets 1.0, (a→c) gets 0.5.
        let log = log_with(&[("a", 1, 0), ("b", 1, 10), ("c", 1, 20)]);
        let sessions = split_sessions(&log);
        let model = ShortcutsModel::train(&log, &sessions, 10);
        let a = log.query_id("a").unwrap();
        let list = model.suggest(a);
        assert_eq!(list[0], (log.query_id("b").unwrap(), 1.0));
        assert_eq!(list[1], (log.query_id("c").unwrap(), 0.5));
    }

    #[test]
    fn truncation_respected() {
        let log = log_with(&[("q", 1, 0), ("r1", 1, 10), ("r2", 1, 20), ("r3", 1, 30)]);
        let sessions = split_sessions(&log);
        let model = ShortcutsModel::train(&log, &sessions, 2);
        assert_eq!(model.suggest(log.query_id("q").unwrap()).len(), 2);
    }

    #[test]
    fn unseen_query_has_no_suggestions() {
        let log = log_with(&[("a", 1, 0), ("b", 1, 10)]);
        let sessions = split_sessions(&log);
        let model = ShortcutsModel::train(&log, &sessions, 10);
        assert!(model.suggest(QueryId(999)).is_empty());
        // The *last* query of every session never has successors.
        assert!(model.suggest(log.query_id("b").unwrap()).is_empty());
    }

    #[test]
    fn recommender_trait_limits_n() {
        let log = log_with(&[("q", 1, 0), ("r1", 1, 10), ("r2", 1, 20)]);
        let sessions = split_sessions(&log);
        let model = ShortcutsModel::train(&log, &sessions, 10);
        let q = log.query_id("q").unwrap();
        assert_eq!(model.recommend(q, 1).len(), 1);
        assert_eq!(model.recommend(q, 50).len(), 2);
    }
}
