//! Quickstart: index a handful of documents, declare an ambiguous query's
//! specializations, deploy the serving engine, and compare the baseline
//! with OptSelect — all through the `serve::SearchEngine` request API.
//!
//! Run with: `cargo run --example quickstart`

use serpdiv::core::{AlgorithmKind, PipelineParams, UtilityParams};
use serpdiv::index::{Document, IndexBuilder};
use serpdiv::mining::from_json;
use serpdiv::serve::{EngineConfig, QueryRequest, SearchEngine};
use std::sync::Arc;

fn main() {
    // 1. Build a tiny web corpus: "jaguar" the car, the cat, the OS.
    let mut builder = IndexBuilder::new();
    let docs = [
        (
            "car",
            "jaguar xk sports car engine roadster speed luxury coupe",
        ),
        (
            "car",
            "jaguar car dealership price leasing warranty motor drive",
        ),
        (
            "car",
            "classic jaguar etype restoration engine chrome motor club",
        ),
        (
            "cat",
            "jaguar big cat rainforest predator habitat prey jungle",
        ),
        (
            "cat",
            "jaguar cat conservation amazon wildlife spotted fur jungle",
        ),
        (
            "cat",
            "jaguar panther feline hunting territory south america jungle",
        ),
        (
            "os",
            "jaguar mac os x operating system release apple software update",
        ),
        (
            "os",
            "installing jaguar os x on older apple hardware software guide",
        ),
    ];
    for (i, (kind, body)) in docs.iter().enumerate() {
        builder.add(Document::new(
            i as u32,
            format!("http://example.org/{kind}/{i}"),
            format!("jaguar {kind}"),
            body.to_string(),
        ));
    }
    let index = Arc::new(builder.build());

    // 2. The mined knowledge: "jaguar" is ambiguous with three popular
    //    specializations (normally produced by serpdiv-mining from a query
    //    log — see the `log_mining` example).
    let model = Arc::new(
        from_json(
            r#"{"entries":{"jaguar":{"query":"jaguar","specializations":[
                ["jaguar car",0.5],["jaguar cat",0.3],["jaguar os",0.2]]}}}"#,
        )
        .expect("valid model"),
    );

    // 3. Deploy the serving engine: this builds the §4.1 specialization
    //    store eagerly, then serves any number of concurrent requests over
    //    the shared immutable index/model/store.
    let engine = SearchEngine::deploy(
        index.clone(),
        model,
        EngineConfig {
            n_candidates: 8,
            params: PipelineParams {
                k_spec_results: 3,
                utility: UtilityParams { threshold_c: 0.3 },
                ..PipelineParams::default()
            },
            ..EngineConfig::default()
        },
    );

    println!("query: \"jaguar\" — top 3 results\n");
    for algo in [AlgorithmKind::Baseline, AlgorithmKind::OptSelect] {
        let response = engine.search(QueryRequest::new("jaguar", 3, algo));
        println!("{}:", response.algorithm);
        for (rank, result) in response.results.iter().enumerate() {
            println!("  {}. {} — {}", rank + 1, result.title, result.url);
        }
        println!(
            "  ({} µs: retrieve {} + surrogates {} + utility {} + select {})\n",
            response.timings.total_us,
            response.timings.retrieve_us,
            response.timings.surrogate_us,
            response.timings.utility_us,
            response.timings.select_us,
        );
    }

    // 4. A repeated request is served from the sharded result cache.
    let again = engine.search(QueryRequest::new("jaguar", 3, AlgorithmKind::OptSelect));
    println!(
        "repeat request: cache_hit={} in {} µs (cache {:?})",
        again.cache_hit,
        again.timings.total_us,
        engine.cache().expect("enabled").stats(),
    );
    println!("\nThe baseline ranks by DPH relevance alone; OptSelect packs all");
    println!("three interpretations into the first page (§1 of the paper).");
}
