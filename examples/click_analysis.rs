//! Click-through analysis: attach simulated results and clicks to a
//! synthetic log and measure position bias and click entropy — the signal
//! Clough et al. use for ambiguity (and the paper's §6 "click-through
//! data" future-work direction).
//!
//! Run with: `cargo run --release --example click_analysis`

use serpdiv::corpus::{Testbed, TestbedConfig};
use serpdiv::querylog::{ClickStats, LogConfig, QueryLogGenerator};

fn main() {
    let mut cfg = TestbedConfig::small();
    cfg.num_topics = 6;
    let testbed = Testbed::generate(cfg);
    let index = testbed.build_index();

    let mut log_cfg = LogConfig::msn_like(3_000);
    log_cfg.noise_fraction = 0.1;
    let generator = QueryLogGenerator::new(log_cfg, &testbed.topics, &testbed.background);
    let (mut log, _) = generator.generate();
    let filled = generator.attach_results(&mut log, &index, &index, 10);
    println!("attached results+clicks to {filled} records\n");

    // Position bias: CTR must decay with rank.
    let stats = ClickStats::build(&log);
    println!("rank  CTR");
    for rank in 0..10 {
        let ctr = stats.ctr_at(rank);
        let bar = "#".repeat((ctr * 80.0) as usize);
        println!("{:>4}  {:.3} {}", rank + 1, ctr, bar);
    }

    // Click entropy over *interpretations*: map every clicked document to
    // its subtopic (via the qrels) and measure the entropy of that
    // distribution per query. Ambiguous queries scatter clicks across
    // interpretations; specializations concentrate on one.
    let subtopic_entropy = |query: &str, topic: &serpdiv::corpus::Topic| -> f64 {
        let Some(qid) = log.query_id(query) else {
            return 0.0;
        };
        let mut counts = std::collections::HashMap::new();
        let mut total = 0u64;
        for r in log.records().iter().filter(|r| r.query == qid) {
            for c in &r.clicks {
                for sub in testbed.qrels.subtopics_of(topic.id, *c) {
                    *counts.entry(sub).or_insert(0u64) += 1;
                    total += 1;
                }
            }
        }
        if total == 0 {
            return 0.0;
        }
        counts
            .values()
            .map(|&n| {
                let p = n as f64 / total as f64;
                -p * p.log2()
            })
            .sum::<f64>()
            .max(0.0)
    };

    println!("\nclick entropy over interpretations (bits):");
    for topic in testbed.topics.iter().take(3) {
        let ambiguous = subtopic_entropy(&topic.query, topic);
        let spec = subtopic_entropy(&topic.subtopics[0].query, topic);
        println!(
            "  {:<12} ambiguous = {ambiguous:.2}   \"{}\" = {spec:.2}",
            topic.query, topic.subtopics[0].query
        );
    }
    println!("\nAmbiguous queries scatter clicks across interpretations — the");
    println!("Clough et al. signal that a query would benefit from diversification.");
}
