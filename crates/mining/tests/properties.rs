//! Randomized properties of the mining stack. Each test runs `CASES`
//! cases, case `seed` drawing its input from `StdRng::seed_from_u64(seed)`;
//! a failure names its seed, and rerunning the test reproduces it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serpdiv_mining::{AmbiguityDetector, QueryFlowGraph, Recommender, ShortcutsModel};
use serpdiv_querylog::{split_sessions, FreqTable, LogRecord, QueryId, QueryLog, UserId};

const CASES: u64 = 256;

/// A log of fewer than `max_records` records, each from a random (user,
/// minute, query-index) triple of arbitrary `u8`, `u16` and `u8`; queries
/// come from a pool of 8 strings so reformulation edges repeat.
fn random_log(rng: &mut StdRng, max_records: usize) -> QueryLog {
    let mut rows: Vec<(u8, u16, u8)> = (0..rng.gen_range(0..max_records))
        .map(|_| (rng.gen(), rng.gen(), rng.gen()))
        .collect();
    rows.sort_by_key(|&(_, t, _)| t);
    let mut log = QueryLog::new();
    for (u, t, q) in rows {
        let id = log.intern_query(&format!("query-{}", q % 8));
        log.push(LogRecord {
            query: id,
            user: UserId(u32::from(u % 4)),
            time: u64::from(t) * 30,
            results: Vec::new(),
            clicks: Vec::new(),
        });
    }
    log
}

fn queries(log: &QueryLog) -> impl Iterator<Item = QueryId> {
    (0..log.num_queries() as u32).map(QueryId)
}

/// QFG chaining probabilities per node sum to ≤ 1 (= 1 for nodes with
/// outgoing edges).
#[test]
fn qfg_probabilities_normalized() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let log = random_log(&mut rng, 100);
        let sessions = split_sessions(&log);
        let g = QueryFlowGraph::build(&log, &sessions);
        for q in queries(&log) {
            let total: f64 = g
                .successors(q)
                .iter()
                .map(|&(q2, _)| g.chaining_probability(q, q2))
                .sum();
            assert!(total <= 1.0 + 1e-9, "seed {seed}: {q:?} sums to {total}");
            if !g.successors(q).is_empty() {
                assert!(
                    (total - 1.0).abs() < 1e-9,
                    "seed {seed}: {q:?} sums to {total}"
                );
            }
        }
    }
}

/// Logical-session extraction never loses or duplicates records and
/// never merges users, for any threshold.
#[test]
fn logical_sessions_partition() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let log = random_log(&mut rng, 100);
        let threshold = rng.gen_range(0.0..1.0);
        let physical = split_sessions(&log);
        let g = QueryFlowGraph::build(&log, &physical);
        let logical = g.extract_logical_sessions(&log, &physical, threshold);
        let mut seen: Vec<usize> = logical.iter().flat_map(|s| s.records.clone()).collect();
        seen.sort_unstable();
        let expected: Vec<usize> = (0..log.len()).collect();
        assert_eq!(seen, expected, "seed {seed}");
        // Logical sessions only split physical ones.
        assert!(logical.len() >= physical.len(), "seed {seed}");
    }
}

/// Shortcuts suggestion scores are positive and sorted descending.
#[test]
fn shortcuts_scores_sorted() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let log = random_log(&mut rng, 100);
        let sessions = split_sessions(&log);
        let model = ShortcutsModel::train(&log, &sessions, 8);
        for q in queries(&log) {
            let list = model.suggest(q);
            assert!(list.len() <= 8, "seed {seed}: {q:?}");
            for w in list.windows(2) {
                assert!(w[0].1 >= w[1].1, "seed {seed}: {q:?} unsorted");
            }
            for &(_, score) in list {
                assert!(score > 0.0, "seed {seed}: {q:?} score {score}");
            }
        }
    }
}

/// Algorithm 1's output is always either None or ≥ 2 specializations
/// whose probabilities sum to 1, each positive.
#[test]
fn detector_output_is_a_distribution() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let log = random_log(&mut rng, 120);
        let s = rng.gen_range(1.0..50.0);
        let sessions = split_sessions(&log);
        let model = ShortcutsModel::train(&log, &sessions, 8);
        let freq = FreqTable::build(&log);
        let detector = AmbiguityDetector::new(&model, &freq, s);
        for q in queries(&log) {
            let Some(specs) = detector.detect(q) else {
                continue;
            };
            assert!(specs.len() >= 2, "seed {seed}: {q:?}");
            let total: f64 = specs.iter().map(|sp| sp.probability).sum();
            assert!(
                (total - 1.0).abs() < 1e-9,
                "seed {seed}: {q:?} sums to {total}"
            );
            for sp in &specs {
                assert!(sp.probability > 0.0, "seed {seed}: {q:?}");
                assert!(sp.query != q, "seed {seed}: {q:?} specializes itself");
            }
        }
    }
}

/// The QFG recommender returns at most n suggestions with probabilities
/// in (0, 1].
#[test]
fn qfg_recommender_bounds() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let log = random_log(&mut rng, 80);
        let n = rng.gen_range(0..10);
        let sessions = split_sessions(&log);
        let g = QueryFlowGraph::build(&log, &sessions);
        for q in queries(&log) {
            let recs = g.recommend(q, n);
            assert!(recs.len() <= n, "seed {seed}: {q:?}");
            for &(_, p) in &recs {
                assert!(p > 0.0 && p <= 1.0, "seed {seed}: {q:?} p {p}");
            }
        }
    }
}
