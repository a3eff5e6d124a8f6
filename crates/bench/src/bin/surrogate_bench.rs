//! `surrogate_bench` — microbenchmark of snippet-surrogate construction:
//! the per-request text path (tokenize + stem the whole body, window
//! rescan, snippet `String`, re-tokenize to vectorize) versus the
//! compiled [`ForwardIndex`] path (incremental `TermId`-stream window
//! slide + direct TF-IDF emission), across document lengths and window
//! sizes, reporting ns/surrogate and the speedup. Also prints the
//! one-off forward-index compile time and footprint, and asserts the two
//! paths emit identical vectors on the benchmarked inputs.
//!
//! A second table times the *hit* path those misses amortize into: the
//! serving engine's whole surrogate stage (query analysis, one table
//! probe, one binary search + refcount bump per candidate) for a request
//! whose every candidate is already cached, at |Rq| ∈ {100, 1000}.
//!
//! Usage:
//! ```text
//! surrogate_bench [--docs N] [--iters N] [--lens A,B,...] [--windows A,B,...]
//!                 [--hit-iters N]
//! ```
//! Defaults: 24 docs per length, doc lengths {100, 1000, 10000} tokens,
//! windows {10, 30, 100}, iteration count auto-scaled per length, 2000
//! timed hit-path requests per row.

use serpdiv_index::{Document, ForwardIndex, IndexBuilder, SnippetGenerator, SparseVector};
use serpdiv_mining::SpecializationModel;
use serpdiv_serve::{
    AlgorithmKind, Budget, EngineConfig, PipelineContext, QueryRequest, SearchEngine, Stage,
    SurrogateStage,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Lcg(u64);
impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Web-ish token mix: a Zipf-lite content vocabulary plus frequent
/// stopwords, so the compiled streams carry realistic sentinel density.
fn body(rng: &mut Lcg, len: usize) -> String {
    const STOPS: [&str; 8] = ["the", "of", "and", "is", "to", "in", "that", "it"];
    let mut out = String::with_capacity(len * 7);
    for i in 0..len {
        if i > 0 {
            out.push(' ');
        }
        if rng.below(10) < 4 {
            out.push_str(STOPS[rng.below(STOPS.len() as u64) as usize]);
        } else {
            // w0 is ~64× likelier than w1023 — head terms recur.
            let r = rng.below(1 << 16) as f64 / f64::from(1u32 << 16);
            let id = ((r * r * r * 1024.0) as u64).min(1023);
            out.push_str(&format!("w{id}"));
        }
    }
    out
}

fn parse_list(v: &str) -> Vec<usize> {
    v.split(',').filter_map(|x| x.parse().ok()).collect()
}

fn arg_num(name: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn arg_list(name: &str, default: &[usize]) -> Vec<usize> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(|v| parse_list(v))
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| default.to_vec())
}

/// Time the serving engine's surrogate stage for requests whose
/// candidates are all cached, one row per candidate-pool size.
fn hit_path(rng: &mut Lcg, iters: usize) {
    const QUERY: &str = "w0 w1 w5";
    let mut b = IndexBuilder::new();
    for i in 0..1_200u32 {
        let text = format!("w0 {}", body(rng, 100));
        b.add(Document::new(
            i,
            format!("http://hit/{i}"),
            "w1 title",
            text,
        ));
    }
    let model = SpecializationModel::from_json(r#"{"entries":{}}"#).expect("empty model");
    let engine = SearchEngine::deploy(
        Arc::new(b.build()),
        Arc::new(model),
        EngineConfig::default(),
    );
    let generation = engine.generation();
    let request = QueryRequest::new(QUERY, 10, AlgorithmKind::OptSelect);
    println!("{:<44} {:>6} {:>14}", "hit path", "|Rq|", "us/request");
    for n in [100, 1_000] {
        let mut ctx = PipelineContext::new(&request, Instant::now(), Budget::unlimited());
        ctx.candidates = engine.retriever().retrieve(QUERY, n);
        assert_eq!(ctx.candidates.len(), n, "corpus too small for |Rq|={n}");
        SurrogateStage.run(&engine, &generation, &mut ctx); // fills the table
        let warm = engine.surrogate_cache().expect("default config").stats();
        let mut spent = Duration::ZERO;
        for _ in 0..iters {
            // The previous request's vectors are released outside the
            // stage, as the driver does at the end of a request.
            ctx.vectors = Vec::new();
            let t = Instant::now();
            SurrogateStage.run(&engine, &generation, &mut ctx);
            spent += t.elapsed();
            std::hint::black_box(&ctx.vectors);
        }
        let stats = engine.surrogate_cache().expect("default config").stats();
        assert_eq!(stats.misses, warm.misses, "the timed loop must be all hits");
        assert_eq!(stats.hits - warm.hits, (iters * n) as u64);
        println!(
            "{:<44} {:>6} {:>14.2}",
            "surrogate stage, 100% hits",
            n,
            spent.as_secs_f64() * 1e6 / iters as f64
        );
    }
}

fn main() {
    let docs_per_len = arg_num("--docs", 24).max(1);
    let iters_flag = arg_num("--iters", 0);
    let lens = arg_list("--lens", &[100, 1_000, 10_000]);
    let windows = arg_list("--windows", &[10, 30, 100]);

    println!(
        "surrogate_bench — text oracle vs compiled forward index \
         ({docs_per_len} docs/length, lens {lens:?}, windows {windows:?})"
    );
    println!(
        "{:<10} {:>8} {:>16} {:>16} {:>9}",
        "doc len", "window", "naive ns/surr", "compiled ns/surr", "speedup"
    );

    let mut rng = Lcg(0xbe9c_5e9d);
    for &len in &lens {
        // One corpus per document length; a 3-term query drawn from the
        // head of the content vocabulary so windows actually compete.
        let mut b = IndexBuilder::new();
        for i in 0..docs_per_len {
            b.add(Document::new(
                i as u32,
                format!("http://bench/{len}/{i}"),
                "w1 w2 benchmark title",
                body(&mut rng, len),
            ));
        }
        let index = b.build();
        let t = Instant::now();
        let forward = ForwardIndex::build(&index);
        let compile_ms = t.elapsed().as_secs_f64() * 1e3;
        let qterms = index.analyze_query("w0 w1 w5");
        assert!(!qterms.is_empty(), "query analyzed away");
        // Enough iterations to measure, few enough to finish: ~100k
        // tokens of naive work per (len, window) cell.
        let iters = if iters_flag > 0 {
            iters_flag
        } else {
            (200_000 / len).clamp(4, 400)
        };

        for &window in &windows {
            let snippets = SnippetGenerator::with_window(window);

            let t = Instant::now();
            let mut naive_sink = 0usize;
            for _ in 0..iters {
                for doc in index.store().iter() {
                    let snip = snippets.snippet(doc, &qterms, index.vocab());
                    let v = SparseVector::from_text(&snip, &index);
                    naive_sink += std::hint::black_box(&v).nnz();
                }
            }
            let naive_ns = t.elapsed().as_secs_f64() * 1e9 / (iters * docs_per_len) as f64;

            let t = Instant::now();
            let mut fast_sink = 0usize;
            for _ in 0..iters {
                for doc in index.store().iter() {
                    let v = snippets.surrogate(&forward, doc.id, &qterms);
                    fast_sink += std::hint::black_box(&v).nnz();
                }
            }
            let fast_ns = t.elapsed().as_secs_f64() * 1e9 / (iters * docs_per_len) as f64;

            assert_eq!(naive_sink, fast_sink, "paths diverged under the benchmark");
            // Full vector equality on the benchmarked inputs (the
            // equivalence suite covers the edge shapes; this pins the
            // exact corpus being timed).
            for doc in index.store().iter() {
                let snip = snippets.snippet(doc, &qterms, index.vocab());
                assert_eq!(
                    snippets.surrogate(&forward, doc.id, &qterms),
                    SparseVector::from_text(&snip, &index),
                    "doc {:?} window {window}",
                    doc.id
                );
            }

            println!(
                "{:<10} {:>8} {:>16.0} {:>16.0} {:>8.1}x",
                len,
                window,
                naive_ns,
                fast_ns,
                naive_ns / fast_ns
            );
        }
        println!(
            "  (forward index for {len}-token docs: {:.1} KiB, compiled in {compile_ms:.1} ms)",
            forward.byte_size() as f64 / 1024.0
        );
    }
    hit_path(&mut rng, arg_num("--hit-iters", 2_000).max(1));
}
