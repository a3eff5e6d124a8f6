//! The shared end-to-end laboratory.
//!
//! Table 3, Figure 1, the recall measure and the footprint budget all need
//! the same scaffolding: a testbed (corpus + topics + qrels), its inverted
//! index, a synthetic query log split 70/30 into train/test, and the
//! specialization model mined from the training log through the full §3
//! stack (timeout sessions → query-flow graph → logical sessions →
//! shortcuts recommender → Algorithm 1). [`Lab::build`] runs that stack
//! once; the binaries [`deploy`](Lab::deploy) the serving engine on top
//! and measure what it serves.

use serpdiv_core::{AlgorithmKind, DiversifyInput, PipelineParams};
use serpdiv_corpus::{Testbed, TestbedConfig};
use serpdiv_index::{DocId, InvertedIndex, ScoredDoc};
use serpdiv_mining::{AmbiguityDetector, QueryFlowGraph, ShortcutsModel, SpecializationModel};
use serpdiv_querylog::{
    split_sessions, FreqTable, GroundTruth, LogConfig, QueryLog, QueryLogGenerator,
};
use serpdiv_serve::{
    default_stage_chain, Budget, EngineConfig, PipelineContext, QueryRequest, SearchEngine,
    StageOutcome,
};
use std::sync::Arc;
use std::time::Instant;

/// Laboratory configuration.
#[derive(Debug, Clone)]
pub struct LabConfig {
    /// Corpus/topics shape.
    pub testbed: TestbedConfig,
    /// Query-log generator preset.
    pub log: LogConfig,
    /// Suggestion-list truncation for the shortcuts model.
    pub shortcuts_max: usize,
    /// Algorithm 1's popularity divisor `s`.
    pub detector_s: f64,
    /// Chaining-probability threshold for logical-session extraction.
    pub qfg_threshold: f64,
    /// Train fraction of the 70/30 split (Appendix C).
    pub train_fraction: f64,
}

impl LabConfig {
    /// Small configuration for tests and quick runs.
    pub fn small() -> Self {
        LabConfig {
            testbed: TestbedConfig::small(),
            log: LogConfig::tiny(),
            shortcuts_max: 16,
            detector_s: 10.0,
            qfg_threshold: 0.001,
            train_fraction: 0.7,
        }
    }

    /// The Table 3 configuration: TREC-shaped testbed, AOL-like log.
    pub fn trec(log_sessions: usize) -> Self {
        LabConfig {
            testbed: TestbedConfig::trec_scaled(),
            log: LogConfig::aol_like(log_sessions),
            shortcuts_max: 32,
            detector_s: 20.0,
            qfg_threshold: 0.001,
            train_fraction: 0.7,
        }
    }
}

/// The built laboratory.
pub struct Lab {
    /// Configuration used.
    pub config: LabConfig,
    /// Corpus, topics and qrels.
    pub testbed: Testbed,
    /// The inverted index over the corpus.
    pub index: Arc<InvertedIndex>,
    /// Training log (first 70%).
    pub train: QueryLog,
    /// Test log (last 30%).
    pub test: QueryLog,
    /// Ground-truth annotation of the *full* log's queries (shared
    /// interning with both splits).
    pub truth: GroundTruth,
    /// The mined specialization model (from the training log only).
    pub model: Arc<SpecializationModel>,
}

impl Lab {
    /// Run the full offline stack.
    pub fn build(config: LabConfig) -> Self {
        let testbed = Testbed::generate(config.testbed.clone());
        let index = Arc::new(testbed.build_index());

        let generator =
            QueryLogGenerator::new(config.log.clone(), &testbed.topics, &testbed.background);
        let (log, truth) = generator.generate();
        let (train, test) = log.split_train_test(config.train_fraction);

        // §3: physical sessions → QFG → logical sessions → recommender →
        // Algorithm 1 sweep.
        let physical = split_sessions(&train);
        let qfg = QueryFlowGraph::build(&train, &physical);
        let logical = qfg.extract_logical_sessions(&train, &physical, config.qfg_threshold);
        let shortcuts = ShortcutsModel::train(&train, &logical, config.shortcuts_max);
        let freq = FreqTable::build(&train);
        let detector = AmbiguityDetector::new(&shortcuts, &freq, config.detector_s);
        let model = Arc::new(SpecializationModel::mine(&train, &detector));

        Lab {
            config,
            testbed,
            index,
            train,
            test,
            truth,
            model,
        }
    }

    /// Deploy the serving engine over the lab's index and mined model,
    /// retrieving `n_candidates` per diversified query.
    pub fn deploy(&self, n_candidates: usize, params: PipelineParams) -> SearchEngine {
        SearchEngine::deploy(
            self.index.clone(),
            self.model.clone(),
            EngineConfig {
                n_candidates,
                params,
                ..EngineConfig::default()
            },
        )
    }

    /// Fraction of ground-truth-ambiguous topic queries the mined model
    /// detected (mining quality diagnostic).
    pub fn detection_rate(&self) -> f64 {
        let total = self.testbed.topics.len();
        if total == 0 {
            return 0.0;
        }
        let detected = self
            .testbed
            .topics
            .iter()
            .filter(|t| self.model.get(&t.query).is_some())
            .count();
        detected as f64 / total as f64
    }
}

/// `Rq` and the [`DiversifyInput`] the engine would select `k` of them
/// from: Detect → Retrieve → Surrogate → Utility of the serving chain,
/// stopped before Select so a sweep over `c` or λ pays for them once per
/// query. `None` when the engine would serve `query` as a passthrough.
pub fn diversify_input(
    engine: &SearchEngine,
    query: &str,
    k: usize,
) -> Option<(Vec<ScoredDoc>, DiversifyInput)> {
    let request = QueryRequest::new(query, k, AlgorithmKind::OptSelect);
    let generation = engine.generation();
    let mut ctx = PipelineContext::new(&request, Instant::now(), Budget::unlimited());
    for stage in default_stage_chain().iter().take(4) {
        if stage.run(engine, &generation, &mut ctx) == StageOutcome::Finish {
            break;
        }
    }
    let input = ctx.input.take()?;
    Some((ctx.candidates, input))
}

/// The engine's DPH top-`k` for `query`, as document ids.
pub fn baseline_docs(engine: &SearchEngine, query: &str, k: usize) -> Vec<DocId> {
    engine
        .search(QueryRequest::new(query, k, AlgorithmKind::Baseline))
        .results
        .iter()
        .map(|r| r.doc)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lab() -> Lab {
        let mut cfg = LabConfig::small();
        cfg.testbed.num_topics = 5;
        cfg.testbed.docs_per_subtopic = 8;
        cfg.testbed.noise_docs = 100;
        cfg.log.num_sessions = 1500;
        Lab::build(cfg)
    }

    #[test]
    fn mines_most_topic_queries() {
        let lab = lab();
        let rate = lab.detection_rate();
        assert!(
            rate >= 0.6,
            "expected most ambiguous topics detected, got {rate}"
        );
    }

    #[test]
    fn model_probabilities_follow_subtopic_weights() {
        let lab = lab();
        // For the most popular topic (Zipf rank 0), the top mined
        // specialization must be the heaviest subtopic.
        let topic = &lab.testbed.topics[0];
        let Some(entry) = lab.model.get(&topic.query) else {
            panic!("top topic should be detected");
        };
        assert_eq!(entry.specializations[0].0, topic.subtopics[0].query);
    }

    #[test]
    fn train_test_split_fractions() {
        let lab = lab();
        let total = lab.train.len() + lab.test.len();
        let frac = lab.train.len() as f64 / total as f64;
        assert!((frac - 0.7).abs() < 0.02, "got {frac}");
    }
}
