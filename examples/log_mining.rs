//! End-to-end mining walkthrough: generate a synthetic query log over a
//! topical corpus, run the full §3 stack (timeout sessions → query-flow
//! graph → logical sessions → shortcuts recommender → Algorithm 1), and
//! inspect the mined specialization model.
//!
//! Run with: `cargo run --example log_mining`

use serpdiv::corpus::{Testbed, TestbedConfig};
use serpdiv::mining::{AmbiguityDetector, QueryFlowGraph, ShortcutsModel, SpecializationModel};
use serpdiv::querylog::{split_sessions, FreqTable, LogConfig, QueryLogGenerator};

fn main() {
    // 1. A small topical world: 6 ambiguous topics with 3–6 subtopics.
    let mut cfg = TestbedConfig::small();
    cfg.num_topics = 6;
    let testbed = Testbed::generate(cfg);
    println!(
        "corpus: {} documents, {} ambiguous topics",
        testbed.num_docs(),
        testbed.topics.len()
    );

    // 2. Simulate three months of users refining ambiguous queries.
    let generator = QueryLogGenerator::new(
        LogConfig::aol_like(8_000),
        &testbed.topics,
        &testbed.background,
    );
    let (log, _truth) = generator.generate();
    println!(
        "log: {} submissions of {} distinct queries",
        log.len(),
        log.num_queries()
    );

    // 3. The §3 mining stack.
    let physical = split_sessions(&log);
    println!("physical sessions (30-min timeout): {}", physical.len());

    let qfg = QueryFlowGraph::build(&log, &physical);
    println!(
        "query-flow graph: {} nodes with out-edges, {} edges",
        qfg.num_nodes(),
        qfg.num_edges()
    );

    let logical = qfg.extract_logical_sessions(&log, &physical, 0.001);
    println!("logical sessions after QFG refinement: {}", logical.len());

    let shortcuts = ShortcutsModel::train(&log, &logical, 16);
    let freq = FreqTable::build(&log);
    let detector = AmbiguityDetector::new(&shortcuts, &freq, 10.0);
    let model = SpecializationModel::mine(&log, &detector);
    println!("\nmined {} ambiguous queries:", model.len());

    // 4. Inspect: the mined probabilities should track the ground-truth
    //    subtopic weights of each topic.
    for topic in &testbed.topics {
        let Some(entry) = model.get(&topic.query) else {
            println!("  {:<12} (not detected — too few sessions)", topic.query);
            continue;
        };
        println!("  {:<12} |Sq| = {}", entry.query, entry.len());
        for (spec, p) in entry.specializations.iter().take(3) {
            let truth = topic
                .subtopics
                .iter()
                .find(|s| &s.query == spec)
                .map(|s| format!("{:.2}", s.weight))
                .unwrap_or_else(|| "?".into());
            println!("      P = {p:.2} (ground truth {truth})  {spec}");
        }
    }

    // 5. The model serializes for deployment (§4.1).
    let json = serpdiv::mining::to_json(&model);
    println!(
        "\nserialized model: {} bytes ({} bytes in-memory estimate)",
        json.len(),
        model.byte_size()
    );
}
