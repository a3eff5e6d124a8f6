//! Layer bench for the serving pool's hand-off (dev aid, smoke-run by CI).
//!
//! Closed loop: each client thread `submit`s one `Baseline` request over
//! a tiny index and blocks on its reply before sending the next, for
//! (clients, workers) ∈ {(1,1), (2,2), (4,2), (4,4)}. The request itself
//! costs about a microsecond (printed first, measured by calling `search`
//! directly), so a row's round trip reads as the cost of crossing the
//! pool: enqueue, wake a worker, reply channel, wake the client.
//!
//! Usage: `pool_micro [--iters N]` — round trips per client (default
//! 50 000).

use serpdiv_core::AlgorithmKind;
use serpdiv_index::{Document, IndexBuilder};
use serpdiv_mining::SpecializationModel;
use serpdiv_serve::{EngineConfig, QueryRequest, SearchEngine, WorkerPool};
use std::sync::Arc;
use std::time::Instant;

fn engine() -> Arc<SearchEngine> {
    let mut b = IndexBuilder::new();
    for i in 0..8u32 {
        b.add(Document::new(
            i,
            format!("http://doc/{i}"),
            "apple",
            if i % 2 == 0 {
                "apple iphone smartphone review chip battery"
            } else {
                "apple fruit orchard sweet harvest juice"
            },
        ));
    }
    Arc::new(SearchEngine::deploy(
        Arc::new(b.build()),
        Arc::new(SpecializationModel::default()),
        EngineConfig {
            // Every request runs retrieval: a cache hit would make the
            // reference cost, not the hand-off, the thing that varies.
            cache_capacity: 0,
            n_candidates: 8,
            ..EngineConfig::default()
        },
    ))
}

fn request() -> QueryRequest {
    QueryRequest::new("apple", 4, AlgorithmKind::Baseline)
}

/// `(mean, p50, p99)` of `samples_ns`, in µs.
fn summarize(samples_ns: &mut [u64]) -> (f64, f64, f64) {
    samples_ns.sort_unstable();
    let at = |p: f64| samples_ns[((samples_ns.len() - 1) as f64 * p) as usize] as f64 / 1e3;
    let mean = samples_ns.iter().sum::<u64>() as f64 / samples_ns.len() as f64 / 1e3;
    (mean, at(0.50), at(0.99))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let iters: usize = args
        .iter()
        .position(|a| a == "--iters")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(50_000)
        .max(1);
    let engine = engine();
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!("pool_micro — {iters} round trips per client, nproc {nproc}");

    let mut direct: Vec<u64> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            let response = engine.search(std::hint::black_box(request()));
            assert_eq!(response.results.len(), 4);
            t.elapsed().as_nanos() as u64
        })
        .collect();
    let (direct_mean, p50, p99) = summarize(&mut direct);
    println!(
        "direct search                mean {direct_mean:>7.2}  p50 {p50:>7.2}  p99 {p99:>8.2} µs"
    );

    for (clients, workers) in [(1, 1), (2, 2), (4, 2), (4, 4)] {
        let pool = WorkerPool::new(engine.clone(), workers);
        let mut samples: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|_| {
                    scope.spawn(|| {
                        (0..iters)
                            .map(|_| {
                                let t = Instant::now();
                                let (_, response) = pool.submit(request()).recv().expect("a reply");
                                assert_eq!(response.results.len(), 4);
                                t.elapsed().as_nanos() as u64
                            })
                            .collect::<Vec<u64>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread"))
                .collect()
        });
        let (mean, p50, p99) = summarize(&mut samples);
        println!(
            "round trip {clients} clients {workers} workers  mean {mean:>7.2}  p50 {p50:>7.2}  p99 {p99:>8.2} µs  (hand-off ≈ {:.2})",
            mean - direct_mean
        );
    }
}
