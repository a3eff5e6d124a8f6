//! A miniature TREC 2009 Diversity-task run: build the synthetic testbed,
//! mine specializations from a synthetic log, diversify every topic with
//! all four algorithms, and score them with α-NDCG@20 and IA-P@20.
//!
//! This is the small sibling of the full Table 3 harness
//! (`cargo run -p serpdiv-bench --release --bin table3_effectiveness`).
//!
//! Run with: `cargo run --release --example trec_run`

use serpdiv::core::{AlgorithmKind, PipelineParams, UtilityParams};
use serpdiv::corpus::{Testbed, TestbedConfig};
use serpdiv::eval::{alpha_ndcg_at, ia_precision_at};
use serpdiv::index::DocId;
use serpdiv::mining::{AmbiguityDetector, QueryFlowGraph, ShortcutsModel, SpecializationModel};
use serpdiv::querylog::{split_sessions, FreqTable, LogConfig, QueryLogGenerator};
use serpdiv::serve::{EngineConfig, QueryRequest, SearchEngine};
use std::sync::Arc;

fn main() {
    // Testbed: 12 topics keeps this example under a few seconds in release.
    let mut cfg = TestbedConfig::small();
    cfg.num_topics = 12;
    cfg.docs_per_subtopic = 20;
    // Near-topic junk pages make the relevance-only baseline beatable —
    // see `serpdiv::corpus::docgen` on the distractor model.
    cfg.proportional_docs = true;
    cfg.distractors_per_topic = 60;
    let testbed = Testbed::generate(cfg);
    let index = Arc::new(testbed.build_index());

    // Mine the model from a synthetic log.
    let generator = QueryLogGenerator::new(
        LogConfig::aol_like(15_000),
        &testbed.topics,
        &testbed.background,
    );
    let (log, _) = generator.generate();
    let physical = split_sessions(&log);
    let qfg = QueryFlowGraph::build(&log, &physical);
    let logical = qfg.extract_logical_sessions(&log, &physical, 0.001);
    let shortcuts = ShortcutsModel::train(&log, &logical, 16);
    let freq = FreqTable::build(&log);
    let detector = AmbiguityDetector::new(&shortcuts, &freq, 20.0);
    let model = SpecializationModel::mine(&log, &detector);
    println!(
        "mined {} ambiguous queries from {} log records\n",
        model.len(),
        log.len()
    );

    let params = PipelineParams {
        k_spec_results: 20,
        utility: UtilityParams { threshold_c: 0.10 },
        ..PipelineParams::default()
    };
    let engine = SearchEngine::deploy(
        index,
        Arc::new(model),
        EngineConfig {
            n_candidates: 2_000,
            params,
            ..EngineConfig::default()
        },
    );

    let systems = [
        ("DPH baseline", AlgorithmKind::Baseline),
        ("OptSelect", AlgorithmKind::OptSelect),
        ("xQuAD", AlgorithmKind::XQuad),
        ("IASelect", AlgorithmKind::IaSelect),
        ("MMR", AlgorithmKind::Mmr),
    ];
    println!("{:<14} {:>10} {:>9}", "system", "aNDCG@20", "IA-P@20");
    for (name, algo) in systems {
        let (mut andcg, mut iap) = (0.0, 0.0);
        for topic in &testbed.topics {
            let out = engine.search(QueryRequest::new(topic.query.as_str(), 1_000, algo));
            let docs: Vec<DocId> = out.results.iter().map(|r| r.doc).collect();
            andcg += alpha_ndcg_at(&docs, &testbed.qrels, topic.id, 0.5, 20);
            iap += ia_precision_at(&docs, &testbed.qrels, topic.id, 20);
        }
        let n = testbed.topics.len() as f64;
        println!("{:<14} {:>10.3} {:>9.3}", name, andcg / n, iap / n);
    }
    println!("\nDiversifiers should beat the baseline on both diversity metrics");
    println!("(Table 3 of the paper shows the full c-threshold sweep).");
}
