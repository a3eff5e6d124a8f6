//! The benchmark's own fixture: corpus → index → query log → mining →
//! §4.1 store → compiled store → forward index, from explicit config
//! literals, with every phase timed between calibration slices.
//!
//! The literals below repeat (on purpose) what `TestbedConfig::trec_scaled`,
//! `LogConfig::aol_like` and `LabConfig::trec` hold today: a later PR may
//! edit those presets, and must not thereby change what is measured here.
//! The fingerprint guard catches the other way in — a generator change.

use crate::estimator::{speed, Kernel};
use serpdiv_core::{CompiledSpecStore, PipelineParams, SpecializationStore, UtilityParams};
use serpdiv_corpus::{DocGenConfig, Qrels, Testbed, TestbedConfig, Topic};
use serpdiv_index::{ForwardIndex, InvertedIndex, SearchEngine as DphEngine};
use serpdiv_mining::{AmbiguityDetector, QueryFlowGraph, ShortcutsModel, SpecializationModel};
use serpdiv_querylog::{split_sessions, FreqTable, LogConfig, QueryLogGenerator};
use serpdiv_serve::{PresentationTable, SearchEngine};
use serpdiv_text::TermId;
use std::sync::Arc;
use std::time::Instant;

/// Full scale (the measured benchmark) or the `--smoke` scale of the
/// crate's own test (≤ 1 000 documents).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// Shape of one fixture: fixture T of the issue, with the number of noise
/// documents as the one knob `retrieve_big` turns.
///
/// The fixture does not depend on `--seed`: reseeding corpus and log moved
/// every metric by more than the host did (ten seeds of `diversify_deep`:
/// 19–25 % quartile spread), which no bound survives. The seed orders the
/// requests instead (see `Workload::requests`).
#[derive(Debug, Clone, Copy)]
pub struct FixtureShape {
    pub scale: Scale,
    pub noise_docs: usize,
}

fn testbed_config(shape: FixtureShape) -> TestbedConfig {
    let full = shape.scale == Scale::Full;
    TestbedConfig {
        num_topics: if full { 50 } else { 8 },
        min_subtopics: 3,
        max_subtopics: if full { 8 } else { 5 },
        docs_per_subtopic: if full { 40 } else { 10 },
        proportional_docs: true,
        distractors_per_topic: if full { 120 } else { 10 },
        noise_docs: shape.noise_docs,
        background_vocab: if full { 6_000 } else { 1_500 },
        terms_per_subtopic: 30,
        subtopic_popularity_exponent: 1.0,
        docgen: DocGenConfig {
            p_head: 0.08,
            p_subtopic_name: 0.10,
            p_subtopic_pool: 0.32,
            min_len: 40,
            max_len: 120,
            background_exponent: 1.05,
            distractor_head_boost: 1.5,
        },
        seed: 0x7EC_2009,
    }
}

fn log_config(shape: FixtureShape) -> LogConfig {
    let num_sessions = if shape.scale == Scale::Full {
        10_000
    } else {
        1_500
    };
    LogConfig {
        num_sessions,
        num_users: num_sessions / 8,
        days: 92,
        p_start_ambiguous: 0.55,
        p_refine: 0.70,
        p_second_refine: 0.25,
        noise_fraction: 0.35,
        topic_exponent: 0.9,
        seed: 0xA01,
    }
}

/// The §5 pipeline parameters every workload serves with.
pub fn pipeline_params() -> PipelineParams {
    PipelineParams {
        k_spec_results: 20,
        lambda: 0.15,
        mmr_lambda: 0.5,
        utility: UtilityParams { threshold_c: 0.0 },
        snippet_window: 30,
        utility_parallel_threshold: 1024,
    }
}

const SHORTCUTS_MAX: usize = 32;
const DETECTOR_S: f64 = 20.0;
const QFG_THRESHOLD: f64 = 0.001;
const TRAIN_FRACTION: f64 = 0.7;

/// One timed set-up phase.
#[derive(Debug, Clone)]
pub struct Phase {
    pub name: &'static str,
    pub raw_s: f64,
    pub speed: f64,
}

/// Times set-up phases, taking one calibration slice between phases so
/// each phase is normalised by the host speed measured on both sides of it.
pub struct SetupClock {
    kernel: Kernel,
    last_kernel_us: f64,
    pub phases: Vec<Phase>,
}

impl SetupClock {
    pub fn new(mut kernel: Kernel) -> Self {
        let last_kernel_us = kernel.slice();
        SetupClock {
            kernel,
            last_kernel_us,
            phases: Vec::new(),
        }
    }

    /// Run and time one phase.
    pub fn phase<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        let raw_s = t.elapsed().as_secs_f64();
        let after = self.kernel.slice();
        self.phases.push(Phase {
            name,
            raw_s,
            speed: speed(self.last_kernel_us, after),
        });
        self.last_kernel_us = after;
        out
    }

    /// Set-up time as the wall clock saw it.
    pub fn raw_s(&self) -> f64 {
        self.phases.iter().map(|p| p.raw_s).sum()
    }

    /// Set-up time in reference seconds.
    pub fn ref_s(&self) -> f64 {
        self.phases.iter().map(|p| p.raw_s * p.speed).sum()
    }
}

/// Everything the workloads deploy from, `Arc`-shared like a real
/// deployment's artifacts.
pub struct Fixture {
    pub topics: Vec<Topic>,
    pub qrels: Qrels,
    pub index: Arc<InvertedIndex>,
    pub model: Arc<SpecializationModel>,
    pub store: Arc<SpecializationStore>,
    pub compiled: Arc<CompiledSpecStore>,
    pub forward: Arc<ForwardIndex>,
    pub presentation: PresentationTable,
    /// The test split's query texts, in log order.
    pub test_queries: Vec<String>,
    /// Records in the whole generated log (train + test).
    pub log_records: usize,
}

impl Fixture {
    /// Run the offline chain, one timed phase per artifact.
    pub fn build(shape: FixtureShape, clock: &mut SetupClock) -> Fixture {
        let params = pipeline_params();
        let testbed = clock.phase("corpus", || Testbed::generate(testbed_config(shape)));
        let index = clock.phase("index", || Arc::new(testbed.build_index()));
        // The index owns its own copy of every document; the generated
        // one would only inflate peak RSS.
        let Testbed {
            topics,
            qrels,
            background,
            ..
        } = testbed;

        let (train, test) = clock.phase("log", || {
            let (log, _truth) =
                QueryLogGenerator::new(log_config(shape), &topics, &background).generate();
            log.split_train_test(TRAIN_FRACTION)
        });
        let model = clock.phase("mining", || {
            let physical = split_sessions(&train);
            let qfg = QueryFlowGraph::build(&train, &physical);
            let logical = qfg.extract_logical_sessions(&train, &physical, QFG_THRESHOLD);
            let shortcuts = ShortcutsModel::train(&train, &logical, SHORTCUTS_MAX);
            let freq = FreqTable::build(&train);
            let detector = AmbiguityDetector::new(&shortcuts, &freq, DETECTOR_S);
            Arc::new(SpecializationModel::mine(&train, &detector))
        });
        let store = clock.phase("store", || {
            Arc::new(SpecializationStore::build(
                &model,
                &DphEngine::new(&index),
                params.k_spec_results,
                params.snippet_window,
            ))
        });
        let compiled = clock.phase("compiled", || Arc::new(CompiledSpecStore::compile(&store)));
        let (forward, presentation) = clock.phase("forward", || {
            (
                Arc::new(ForwardIndex::build(&index)),
                SearchEngine::intern_presentation(&index),
            )
        });
        let test_queries = test
            .records()
            .iter()
            .map(|r| test.query_text(r.query).expect("interned").to_string())
            .collect();
        Fixture {
            topics,
            qrels,
            index,
            model,
            store,
            compiled,
            forward,
            presentation,
            test_queries,
            log_records: train.len() + test.len(),
        }
    }

    /// Total postings of the sealed index.
    pub fn total_postings(&self) -> u64 {
        (0..self.index.num_terms())
            .filter_map(|t| self.index.postings(TermId(t as u32)))
            .map(|p| p.len() as u64)
            .sum()
    }
}

/// FNV-1a over the facts that define what a workload measures: document
/// count, total postings, mined-model size, specialization count and the
/// request list in log order. Compared with the constants in `workloads`;
/// a mismatch means a `corpus`/`querylog`/`mining` edit moved the workload
/// and the baseline with it.
pub fn fingerprint<'a>(fixture: &Fixture, requests: impl Iterator<Item = &'a str>) -> u64 {
    let mut h = Fnv::new();
    h.u64(fixture.index.stats().num_docs);
    h.u64(fixture.total_postings());
    h.u64(fixture.model.len() as u64);
    h.u64(fixture.store.len() as u64);
    for q in requests {
        h.bytes(q.as_bytes());
        h.bytes(&[0xFF]);
    }
    h.0
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}
