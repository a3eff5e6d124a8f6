//! Integration test of the serving subsystem: synthetic corpus + query log
//! → mined model → deployed `serve::SearchEngine` → concurrent traffic
//! through the worker pool.

use serpdiv::core::AlgorithmKind;
use serpdiv::corpus::{Testbed, TestbedConfig};
use serpdiv::mining::{AmbiguityDetector, QueryFlowGraph, ShortcutsModel, SpecializationModel};
use serpdiv::querylog::{split_sessions, FreqTable, LogConfig, QueryLogGenerator};
use serpdiv::serve::{EngineConfig, QueryRequest, SearchEngine, WorkerPool};
use std::sync::Arc;

/// Offline stack: small synthetic corpus, query log, mined model.
fn deploy() -> (Arc<SearchEngine>, Vec<String>) {
    let mut cfg = TestbedConfig::small();
    cfg.num_topics = 4;
    cfg.docs_per_subtopic = 8;
    cfg.noise_docs = 80;
    let testbed = Testbed::generate(cfg);
    let generator = QueryLogGenerator::new(LogConfig::tiny(), &testbed.topics, &testbed.background);
    let (log, _) = generator.generate();
    let physical = split_sessions(&log);
    let qfg = QueryFlowGraph::build(&log, &physical);
    let logical = qfg.extract_logical_sessions(&log, &physical, 0.001);
    let shortcuts = ShortcutsModel::train(&log, &logical, 16);
    let freq = FreqTable::build(&log);
    let detector = AmbiguityDetector::new(&shortcuts, &freq, 10.0);
    let model = SpecializationModel::mine(&log, &detector);
    assert!(
        !model.is_empty(),
        "mining must detect some ambiguous queries"
    );

    let topic_queries: Vec<String> = testbed.topics.iter().map(|t| t.query.clone()).collect();
    let engine = SearchEngine::deploy(
        Arc::new(testbed.build_index()),
        Arc::new(model),
        EngineConfig {
            n_candidates: 50,
            ..EngineConfig::default()
        },
    );
    (Arc::new(engine), topic_queries)
}

#[test]
fn hundred_concurrent_queries_are_deterministic_and_cached() {
    let (engine, topics) = deploy();
    let pool = WorkerPool::new(engine.clone(), 8);
    assert_eq!(pool.num_workers(), 8);

    // 100 concurrent requests: 25 distinct (query, algorithm) pairs, each
    // repeated 4 times so the cache must serve repeats.
    let algorithms = [
        AlgorithmKind::OptSelect,
        AlgorithmKind::IaSelect,
        AlgorithmKind::XQuad,
        AlgorithmKind::Mmr,
        AlgorithmKind::Baseline,
    ];
    // The outer `repeat` loop emits each distinct key once per pass, so
    // the 4 repeats of a key are 19 requests apart in the schedule.
    let mut requests = Vec::new();
    for _repeat in 0..4 {
        for query in &topics {
            for &algo in &algorithms {
                requests.push(QueryRequest::new(query.clone(), 10, algo));
            }
        }
    }
    // 4 topics × 5 algorithms × 4 repeats = 80; pad to 100 with more
    // repeats of the first topic.
    while requests.len() < 100 {
        requests.push(QueryRequest::new(
            topics[0].clone(),
            10,
            AlgorithmKind::OptSelect,
        ));
    }
    assert_eq!(requests.len(), 100);

    let responses = pool.serve_batch(requests.clone());
    assert_eq!(responses.len(), 100);

    // Deterministic top-k: every response for the same (query, k,
    // algorithm) carries the same ranked doc ids — and matches a direct,
    // single-threaded call.
    for (req, resp) in requests.iter().zip(&responses) {
        let direct = engine.search(req.clone());
        assert_eq!(
            resp.results.iter().map(|r| r.doc).collect::<Vec<_>>(),
            direct.results.iter().map(|r| r.doc).collect::<Vec<_>>(),
            "query {:?} algo {:?}",
            req.query,
            req.algorithm,
        );
        assert_eq!(resp.diversified, direct.diversified);
    }

    // Repeated identical requests hit the result cache.
    let stats = engine.cache().expect("cache enabled").stats();
    assert!(
        stats.hits >= 75,
        "25 distinct keys over 100+ requests must mostly hit, got {stats:?}"
    );
    let metrics = engine.metrics();
    assert!(metrics.requests >= 100);
    assert_eq!(
        metrics.cache_hits + metrics.diversified + metrics.passthrough,
        metrics.requests
    );
}

#[test]
fn all_four_diversifiers_return_min_k_n_distinct_results() {
    let (engine, topics) = deploy();
    // Pick a topic query the model actually mined (ambiguous) so the
    // diversifiers run; fall back to the first topic otherwise.
    let generation = engine.generation();
    let query = topics
        .iter()
        .find(|q| generation.model().get(q).is_some())
        .expect("at least one topic mined")
        .clone();

    // n = the total candidate pool for this query.
    use serpdiv::index::SearchEngine as Retriever;
    let index = generation.index();
    let total_docs = index.stats().num_docs as usize;
    let n = Retriever::new(index).search(&query, total_docs + 1).len();
    assert!(n > 0);

    for algo in [
        AlgorithmKind::OptSelect,
        AlgorithmKind::IaSelect,
        AlgorithmKind::XQuad,
        AlgorithmKind::Mmr,
    ] {
        for k in [1, 5, n, n + 50] {
            let out = engine.search(QueryRequest::new(query.clone(), k, algo));
            let expected = k.min(n).min(engine.config().n_candidates.max(k));
            assert_eq!(out.results.len(), expected, "{algo:?} k={k} n={n}");
            let mut ids: Vec<u32> = out.results.iter().map(|r| r.doc.0).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), out.results.len(), "{algo:?} k={k} duplicates");
        }
    }
}

#[test]
fn per_stage_latency_accounting_is_populated() {
    let (engine, topics) = deploy();
    let query = topics
        .iter()
        .find(|q| engine.generation().model().get(q).is_some())
        .expect("ambiguous topic")
        .clone();
    let out = engine.search(QueryRequest::new(
        query.clone(),
        10,
        AlgorithmKind::OptSelect,
    ));
    assert!(out.diversified);
    assert!(!out.cache_hit);
    assert!(out.timings.total_us > 0);
    assert!(
        out.timings.total_us
            >= out.timings.retrieve_us + out.timings.utility_us + out.timings.select_us,
        "total covers the stages: {:?}",
        out.timings
    );
    // The cached repeat reports only total time.
    let again = engine.search(QueryRequest::new(query, 10, AlgorithmKind::OptSelect));
    assert!(again.cache_hit);
    assert_eq!(again.timings.utility_us, 0);
    let m = engine.metrics();
    assert_eq!(m.cache_hits, 1);
    assert!(m.stage_sums.utility_us > 0);
}
