//! Concurrency soak of the serving stack over the shared persistent
//! scoring executor: 16 client threads × 4 diversifiers hammer ONE engine
//! whose sharded retriever submits every scatter batch to one
//! [`ScoringExecutor`], for a fixed request budget.
//!
//! Asserted properties:
//! * **per-query determinism** — the same `(query, k, algorithm)` request
//!   returns the same page every single time, no matter how client
//!   threads and pool workers interleave (the result cache is disabled,
//!   so every page is recomputed through the executor);
//! * **no deadlock at `executor_threads = 1`** — 16 submitters contending
//!   for a one-thread pool still finish (the submitting thread helps
//!   drain its own batch), enforced by a watchdog;
//! * **clean teardown with in-flight work** — dropping a `WorkerPool` and
//!   its engine while requests are still queued neither hangs nor
//!   panics, and the shared executor keeps serving a second engine
//!   afterwards;
//! * **the `EngineConfig`-deployed shape under a bounded queue** — an
//!   engine built by `SearchEngine::deploy` with 2 index shards and a
//!   2-thread executor, behind a `WorkerPool` whose queue holds 64: a
//!   burst sheds its overflow with the shed label, serves everything it
//!   admitted exactly as the single-threaded engine would, and the
//!   counters partition the request total.
//!
//! Every client sends `PER_CLIENT` requests, a budget sized for tier-1.

use serpdiv::core::AlgorithmKind;
use serpdiv::index::{Document, IndexBuilder, InvertedIndex, Retriever, ShardedIndex};
use serpdiv::mining::{from_json, SpecializationModel};
use serpdiv::serve::{
    AdmissionPolicy, EngineConfig, QueryRequest, ScoringExecutor, SearchEngine, WorkerPool,
    LABEL_SHED,
};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

/// Requests per client thread (× 16 clients).
const PER_CLIENT: usize = 24;

const CLIENTS: usize = 16;
const DIVERSIFIERS: [AlgorithmKind; 4] = [
    AlgorithmKind::OptSelect,
    AlgorithmKind::IaSelect,
    AlgorithmKind::XQuad,
    AlgorithmKind::Mmr,
];

/// Fail loudly instead of hanging CI forever if the pool deadlocks.
fn with_watchdog(secs: u64, what: &str, f: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(()) => worker.join().expect("soak body panicked"),
        // Disconnected = the body panicked and dropped `tx` without
        // sending: join to re-raise the real failure, not a bogus
        // deadlock diagnosis.
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            if let Err(payload) = worker.join() {
                std::panic::resume_unwind(payload);
            }
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("{what}: not finished within {secs}s — deadlock?")
        }
    }
}

/// Two-interpretation "apple" corpus, large enough that every shard of a
/// 4-way split holds candidates for the diversified queries.
fn corpus() -> Arc<InvertedIndex> {
    let mut b = IndexBuilder::new();
    for i in 0..20u32 {
        b.add(Document::new(
            i,
            format!("http://tech/{i}"),
            "apple iphone",
            "apple iphone smartphone review chip battery display camera",
        ));
    }
    for i in 20..40u32 {
        b.add(Document::new(
            i,
            format!("http://food/{i}"),
            "apple fruit",
            "apple fruit orchard sweet harvest vitamin juice recipe",
        ));
    }
    for i in 40..60u32 {
        b.add(Document::new(
            i,
            format!("http://misc/{i}"),
            "",
            "weather forecast rain cloud wind storm pressure front",
        ));
    }
    Arc::new(b.build())
}

fn model() -> Arc<SpecializationModel> {
    Arc::new(
        from_json(
            r#"{"entries":{"apple":{"query":"apple","specializations":[["apple iphone",0.6],["apple fruit",0.4]]}}}"#,
        )
        .unwrap(),
    )
}

/// One engine over a 4-shard retriever that pushes EVERY retrieval
/// through `executor` (threshold 0); result cache off so each page is
/// recomputed — determinism must come from the computation itself.
fn deploy(executor: &Arc<ScoringExecutor>) -> Arc<SearchEngine> {
    let index = corpus();
    let retriever: Arc<dyn Retriever> = Arc::new(
        ShardedIndex::build(index.clone(), 4)
            .with_executor(executor.clone())
            .with_parallel_threshold(0),
    );
    let config = EngineConfig {
        n_candidates: 30,
        cache_capacity: 0,
        index_shards: 4,
        executor_threads: executor.num_threads(),
        ..EngineConfig::default()
    };
    let model = model();
    // Share the deployment artifacts through the explicit funnel, like a
    // real multi-engine deployment would.
    let forward = Arc::new(serpdiv::index::ForwardIndex::build(&index));
    let store = Arc::new(serpdiv::core::SpecializationStore::build_with(
        &model,
        retriever.as_ref(),
        &forward,
        config.params.k_spec_results,
        config.params.snippet_window,
    ));
    let compiled = Arc::new(serpdiv::core::CompiledSpecStore::compile(&store));
    Arc::new(SearchEngine::with_retriever_and_forward(
        index,
        retriever,
        model,
        store,
        compiled,
        Some(forward),
        config,
    ))
}

/// The soak schedule: client `t`'s `i`-th request. Mixes the ambiguous
/// query (diversified through all 4 algorithms), a passthrough query and
/// a no-hit query, at two k's.
fn request_for(t: usize, i: usize) -> QueryRequest {
    let algo = DIVERSIFIERS[(t + i) % DIVERSIFIERS.len()];
    match i % 5 {
        0..=2 => QueryRequest::new("apple", 6 + (i % 2) * 4, algo),
        3 => QueryRequest::new("weather storm", 8, algo),
        _ => QueryRequest::new("zeppelin", 5, algo),
    }
}

fn run_soak(executor_threads: usize) {
    let executor = Arc::new(ScoringExecutor::new(executor_threads));
    let engine = deploy(&executor);

    // Expected pages, computed single-threaded before the storm.
    let expected: Vec<Vec<(Vec<u32>, String)>> = (0..CLIENTS)
        .map(|t| {
            (0..PER_CLIENT)
                .map(|i| {
                    let out = engine.search(request_for(t, i));
                    (
                        out.results.iter().map(|r| r.doc.0).collect(),
                        out.algorithm.to_string(),
                    )
                })
                .collect()
        })
        .collect();

    std::thread::scope(|scope| {
        for (t, expect) in expected.iter().enumerate() {
            let engine = engine.clone();
            scope.spawn(move || {
                for (i, (docs, algo)) in expect.iter().enumerate() {
                    let out = engine.search(request_for(t, i));
                    assert_eq!(
                        &out.results.iter().map(|r| r.doc.0).collect::<Vec<_>>(),
                        docs,
                        "client {t} request {i}: page drifted under concurrency"
                    );
                    assert_eq!(&out.algorithm, algo, "client {t} request {i}");
                }
            });
        }
    });

    let m = engine.metrics();
    assert!(
        m.requests >= (CLIENTS * PER_CLIENT * 2) as u64,
        "all requests served: {m:?}"
    );
    assert_eq!(m.degraded, 0);
}

#[test]
fn sixteen_clients_four_diversifiers_are_deterministic() {
    with_watchdog(300, "16-client soak over a 2-thread executor", || {
        run_soak(2)
    });
}

#[test]
fn no_deadlock_with_a_single_executor_thread() {
    // The adversarial sizing: 16 submitters, one pool thread. Progress
    // relies on submitters helping drain their own batches.
    with_watchdog(300, "16-client soak over a 1-thread executor", || {
        run_soak(1)
    });
}

#[test]
fn engine_drops_cleanly_with_in_flight_work() {
    with_watchdog(120, "teardown with queued requests", || {
        let executor = Arc::new(ScoringExecutor::new(2));
        {
            let engine = deploy(&executor);
            let pool = WorkerPool::new(engine.clone(), 4);
            // Flood the queue and drop the reply receivers immediately —
            // clients that stopped waiting must not wedge teardown.
            for i in 0..64 {
                drop(pool.submit(request_for(i % CLIENTS, i)));
            }
            drop(pool); // drains + joins with work still queued
            drop(engine);
        }
        // The shared executor survives its first engine: a second engine
        // deploys onto the same pool and serves correctly.
        let engine = deploy(&executor);
        let out = engine.search(QueryRequest::new("apple", 6, AlgorithmKind::OptSelect));
        assert_eq!(out.results.len(), 6);
        assert!(out.diversified);
    });
}

#[test]
fn deployed_two_shard_engine_serves_a_burst_through_a_bounded_pool() {
    with_watchdog(300, "burst into a 64-deep queue", || {
        let engine = Arc::new(SearchEngine::deploy(
            corpus(),
            model(),
            EngineConfig {
                n_candidates: 30,
                cache_capacity: 0,
                index_shards: 2,
                executor_threads: 2,
                ..EngineConfig::default()
            },
        ));
        assert_eq!(engine.config().executor_threads, 2, "a pool was built");
        let requests: Vec<QueryRequest> = (0..CLIENTS)
            .flat_map(|t| (0..PER_CLIENT).map(move |i| request_for(t, i)))
            .collect();
        // Expected pages, computed single-threaded before the burst.
        let expected: Vec<_> = requests.iter().map(|r| engine.search(r.clone())).collect();
        let direct = engine.metrics().requests;

        let pool = WorkerPool::with_admission(
            engine.clone(),
            2,
            AdmissionPolicy {
                max_queue: 64,
                ..AdmissionPolicy::default()
            },
        );
        let replies = pool.serve_batch(requests);
        let mut shed = 0u64;
        for (i, (reply, expect)) in replies.iter().zip(&expected).enumerate() {
            if reply.algorithm == LABEL_SHED {
                assert!(reply.results.is_empty(), "request {i}: a shed page");
                shed += 1;
            } else {
                assert_eq!(reply.results, expect.results, "request {i}");
                assert_eq!(reply.algorithm, expect.algorithm, "request {i}");
            }
        }
        // 16 × PER_CLIENT requests enqueued back to back against 2 workers
        // and 64 slots: the overflow is shed, the admitted are served.
        assert!(
            shed > 0 && (shed as usize) < replies.len(),
            "{shed} of {} shed",
            replies.len()
        );
        let m = engine.metrics();
        assert_eq!(m.shed, shed);
        assert_eq!(m.requests, direct + replies.len() as u64);
        assert_eq!(
            m.requests,
            m.cache_hits + m.diversified + m.passthrough + m.shed + m.internal_errors,
            "{m:?}"
        );
    });
}
