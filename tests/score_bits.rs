//! The served scores themselves, pinned bit for bit.
//!
//! Every fast path is held to an oracle elsewhere (the kernel and its
//! `DphTable` to `SearchEngine`, the compiled utility rows to the
//! merge-join, the pages to one another), and the goldens pin pages.
//! None of that notices a change to what the oracle itself computes
//! when the change leaves every page in place. This test digests the
//! `to_bits()` of what one deployment scores for a fixed request set on
//! `trec_run`'s world:
//!
//! * every served page's `(doc, score)` for the five algorithms — the
//!   DPH retrieval scores;
//! * for each diversified query, the `Ũ(d|R_q′)` cells and OptSelect's
//!   overall utility (Eq. 9) of every candidate, from the input the
//!   utility stage assembles (the test rebuilds it through the same
//!   public functions and checks that OptSelect then picks the served
//!   page).
//!
//! A one-ulp change to a DPH table cell that these requests read (a
//! planted `(tf, dl)` of `(1, 100)` or `(2, 50)`), to the DPH evaluation
//! order, or to λ (0.15 → 0.25) moves the digest. A moved digest means
//! some served score changed its bits: find out why, and re-pin only a
//! change that is meant.

use serpdiv::core::{
    assemble_input_with_scorer, candidate_surrogate, AlgorithmKind, PipelineParams, UtilityParams,
};
use serpdiv::corpus::{Testbed, TestbedConfig};
use serpdiv::index::{DocId, SnippetGenerator};
use serpdiv::mining::{AmbiguityDetector, QueryFlowGraph, ShortcutsModel, SpecializationModel};
use serpdiv::querylog::{split_sessions, FreqTable, LogConfig, QueryLogGenerator};
use serpdiv::serve::{EngineConfig, QueryRequest, SearchEngine};
use std::sync::Arc;

/// The digest of the request set below at the committed DPH, utility
/// and OptSelect definitions.
const DIGEST: u64 = 0x2e2f_7a75_3d1c_a691;

/// Page size of every request, and the candidate pool of a diversified
/// one.
const K: usize = 20;
const N_CANDIDATES: usize = 200;

const ALGORITHMS: [AlgorithmKind; 5] = [
    AlgorithmKind::Baseline,
    AlgorithmKind::OptSelect,
    AlgorithmKind::XQuad,
    AlgorithmKind::IaSelect,
    AlgorithmKind::Mmr,
];

/// FNV-1a, 64 bit: the digest is part of the test, not of a toolchain.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `trec_run`'s world: its testbed, log and mined model, deployed with
/// its utility threshold and every other parameter at its default.
fn deploy() -> (Testbed, SearchEngine) {
    let mut cfg = TestbedConfig::small();
    cfg.num_topics = 12;
    cfg.docs_per_subtopic = 20;
    cfg.proportional_docs = true;
    cfg.distractors_per_topic = 60;
    let testbed = Testbed::generate(cfg);
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
    let params = PipelineParams {
        k_spec_results: 20,
        utility: UtilityParams { threshold_c: 0.10 },
        ..PipelineParams::default()
    };
    let engine = SearchEngine::deploy(
        Arc::new(testbed.build_index()),
        Arc::new(model),
        EngineConfig {
            n_candidates: N_CANDIDATES,
            params,
            ..EngineConfig::default()
        },
    );
    (testbed, engine)
}

#[test]
fn served_scores_match_their_pinned_bits() {
    let (testbed, engine) = deploy();
    let params = engine.config().params;
    let generation = engine.generation();
    let index = generation.index();
    let snippets = SnippetGenerator::with_window(params.snippet_window);
    let mut bytes = Vec::new();
    let (mut diversified, mut useful) = (0, 0);
    for topic in &testbed.topics {
        let query = topic.query.as_str();
        for algorithm in ALGORITHMS {
            let page = engine.search(QueryRequest::new(query, K, algorithm));
            assert!(!page.degraded && !page.cache_hit, "{query}: {algorithm:?}");
            bytes.extend_from_slice(&(page.results.len() as u64).to_le_bytes());
            for r in page.results.iter() {
                bytes.extend_from_slice(&r.doc.0.to_le_bytes());
                bytes.extend_from_slice(&r.score.to_bits().to_le_bytes());
            }
            if algorithm != AlgorithmKind::OptSelect || !page.diversified {
                continue;
            }
            // The input the utility stage assembled for this request.
            diversified += 1;
            let entry = generation.model().get(query).expect("a diversified query");
            let scorer = generation.scorer_for(query).expect("a compiled scorer");
            let terms = generation.retriever().query_terms(query);
            let candidates = generation.retriever().retrieve_terms(&terms, N_CANDIDATES);
            let qterms = index.analyze_query(query);
            let vectors = candidates
                .iter()
                .map(|h| {
                    Arc::new(candidate_surrogate(
                        index.forward(),
                        h.doc,
                        &qterms,
                        &snippets,
                    ))
                })
                .collect();
            bytes.extend_from_slice(&(candidates.len() as u64).to_le_bytes());
            for h in &candidates {
                bytes.extend_from_slice(&h.doc.0.to_le_bytes());
                bytes.extend_from_slice(&h.score.to_bits().to_le_bytes());
            }
            let input = assemble_input_with_scorer(entry, scorer, &params, vectors, &candidates);
            let picks = engine.diversifier_for(algorithm).select(&input, K);
            let served: Vec<DocId> = page.results.iter().map(|r| r.doc).collect();
            let rebuilt: Vec<DocId> = picks.iter().map(|&i| candidates[i].doc).collect();
            assert_eq!(
                rebuilt, served,
                "{query}: the rebuilt input is not the served one"
            );
            let u = &input.utilities;
            bytes.extend_from_slice(&(u.num_candidates() as u64).to_le_bytes());
            bytes.extend_from_slice(&(u.num_specializations() as u64).to_le_bytes());
            for i in 0..u.num_candidates() {
                for j in 0..u.num_specializations() {
                    bytes.extend_from_slice(&u.get(i, j).to_bits().to_le_bytes());
                    useful += usize::from(u.get(i, j) != 0.0);
                }
                let overall = input.overall_utility(i, params.lambda);
                bytes.extend_from_slice(&overall.to_bits().to_le_bytes());
            }
        }
    }
    assert!(
        diversified == testbed.topics.len() && useful > 0,
        "degenerate request set: {diversified} diversified queries, \
         {useful} non-zero utilities"
    );
    assert_eq!(fnv1a(&bytes), DIGEST, "{:#018x}", fnv1a(&bytes));
}
