//! Union-statistics equivalence: the NRT bit-identity contract.
//!
//! A [`DeltaRetriever`] page must be `f64`-bit-identical to a from-scratch
//! build over the union (sealed + delta) corpus **at every instant** —
//! before the background merge, across every sealed retrieval layer the
//! serving engine deploys (plain index, sharded scatter-gather, executor-
//! backed scatter), across multi-step ingests, and for query terms the
//! sealed vocabulary has never seen. The sealed side scores under the
//! delta's union [`StatsOverlay`]; the delta side scores its local
//! postings with the same overlay in the same ascending-union-term order;
//! the k-way gather shares [`top_k`]'s total order — so every score bit
//! matches the union oracle's.

use serpdiv::core::AlgorithmKind;
use serpdiv::index::{
    DeltaIndex, DeltaRetriever, Document, IndexBuilder, InvertedIndex, Retriever, ScoredDoc,
    ScoringExecutor, ShardedIndex,
};
use serpdiv::mining::from_json;
use serpdiv::serve::{EngineConfig, QueryRequest, SearchEngine};
use std::sync::Arc;

/// Base corpus: three topics over a shared vocabulary so delta ingests
/// shift document frequencies the sealed documents' scores depend on.
fn base_docs() -> Vec<Document> {
    let bodies = [
        "apple iphone smartphone review chip battery display camera",
        "apple fruit orchard sweet harvest vitamin juice recipe",
        "weather forecast rain cloud wind storm pressure front",
    ];
    (0..18u32)
        .map(|i| {
            Document::new(
                i,
                format!("http://base/{i}"),
                format!("base {i}"),
                bodies[(i % 3) as usize],
            )
        })
        .collect()
}

/// Delta documents reuse the base vocabulary *and* introduce terms the
/// sealed collection has never seen ("quantum", "qubit").
fn delta_docs(range: std::ops::Range<u32>) -> Vec<Document> {
    range
        .map(|i| {
            let body = if i % 2 == 0 {
                "apple iphone chip storm warning battery"
            } else {
                "quantum computer qubit entanglement apple silicon"
            };
            Document::new(i, format!("http://delta/{i}"), format!("delta {i}"), body)
        })
        .collect()
}

fn build_index(docs: &[Document]) -> Arc<InvertedIndex> {
    let mut b = IndexBuilder::new();
    for d in docs {
        b.add(d.clone());
    }
    Arc::new(b.build())
}

fn assert_bits(got: &[ScoredDoc], expect: &[ScoredDoc], what: &str) {
    assert_eq!(got.len(), expect.len(), "{what}: length");
    for (g, e) in got.iter().zip(expect) {
        assert_eq!(g.doc, e.doc, "{what}");
        assert_eq!(
            g.score.to_bits(),
            e.score.to_bits(),
            "{what}: {} vs {}",
            g.score,
            e.score
        );
    }
}

const QUERIES: [&str; 6] = [
    "apple",
    "apple iphone",
    "weather storm",
    "quantum",
    "quantum apple",
    "orchard sweet harvest",
];

/// Every sealed retrieval layer the engine deploys, under a delta, against
/// the union oracle — including sealed-only and delta-only queries.
#[test]
fn delta_retriever_matches_union_oracle_over_every_sealed_layer() {
    let base_corpus = base_docs();
    let fresh = delta_docs(18..24);
    let base = build_index(&base_corpus);
    let delta = Arc::new(DeltaIndex::build(&base, fresh.clone()));

    let mut all = base_corpus.clone();
    all.extend(fresh.clone());
    let oracle = build_index(&all);

    let executor = Arc::new(ScoringExecutor::new(2));
    let sealed_layers: Vec<(String, Arc<dyn Retriever>)> = vec![
        ("plain".into(), base.clone() as Arc<dyn Retriever>),
        (
            "shards=2".into(),
            Arc::new(ShardedIndex::build(base.clone(), 2)),
        ),
        (
            "shards=4".into(),
            Arc::new(ShardedIndex::build(base.clone(), 4)),
        ),
        (
            "shards=7".into(),
            Arc::new(ShardedIndex::build(base.clone(), 7)),
        ),
        (
            "shards=4+executor".into(),
            Arc::new(
                ShardedIndex::build(base.clone(), 4)
                    .with_executor(executor)
                    .with_parallel_threshold(0),
            ),
        ),
    ];
    for (label, sealed) in sealed_layers {
        let retriever = DeltaRetriever::new(sealed, delta.clone()).unwrap();
        for query in QUERIES {
            for k in [1, 3, 10, 50] {
                let got = retriever.retrieve(query, k);
                let expect = Retriever::retrieve(oracle.as_ref(), query, k);
                assert_bits(&got, &expect, &format!("{label} {query} k={k}"));
            }
        }
    }
}

/// The contract holds at every step of a growing delta, and stays held by
/// the merged index afterwards.
#[test]
fn multi_step_ingest_matches_union_oracle_at_every_instant() {
    let base_corpus = base_docs();
    let base = build_index(&base_corpus);
    let mut union_corpus = base_corpus.clone();
    for step in 0..4u32 {
        let fresh: Vec<Document> = delta_docs(18 + 2 * step..18 + 2 * step + 2);
        union_corpus.extend(fresh.clone());
        // The engine accumulates the delta: every step re-builds it over
        // all documents ingested since the seal, exactly like
        // `SearchEngine::ingest`.
        let pending: Vec<Document> = union_corpus[base_corpus.len()..].to_vec();
        let delta = Arc::new(DeltaIndex::build(&base, pending));
        let retriever =
            DeltaRetriever::new(base.clone() as Arc<dyn Retriever>, delta.clone()).unwrap();
        let oracle = build_index(&union_corpus);
        for query in QUERIES {
            let got = retriever.retrieve(query, 30);
            let expect = Retriever::retrieve(oracle.as_ref(), query, 30);
            assert_bits(&got, &expect, &format!("step {step}: {query}"));
        }
        // The overlay *is* the merged statistics: collection stats down
        // to the f64 bits of the average document length.
        let merged = serpdiv::index::merge_sealed(&base, &delta);
        let (u, m) = (delta.union_stats(), merged.stats());
        assert_eq!(u.num_docs, m.num_docs, "step {step}");
        assert_eq!(u.num_tokens, m.num_tokens, "step {step}");
        assert_eq!(
            u.avg_doc_len.to_bits(),
            m.avg_doc_len.to_bits(),
            "step {step}"
        );
    }
}

/// Regression (silently-dropped terms): a query term that exists only in
/// the delta must contribute its df — both alone and mixed with sealed
/// terms, where its presence changes nothing for sealed docs (its
/// postings live only in the delta) but must still rank the delta docs
/// exactly as the union build does.
#[test]
fn delta_only_query_terms_are_not_dropped() {
    let base_corpus = base_docs();
    let fresh = delta_docs(18..22);
    let base = build_index(&base_corpus);
    let delta = Arc::new(DeltaIndex::build(&base, fresh.clone()));
    let retriever = DeltaRetriever::new(base.clone() as Arc<dyn Retriever>, delta).unwrap();

    // Sanity: the sealed vocabulary does not know the term.
    assert!(base.analyze_query("qubit").is_empty());

    let mut all = base_corpus;
    all.extend(fresh);
    let oracle = build_index(&all);
    for query in ["qubit", "quantum computer", "entanglement apple"] {
        let got = retriever.retrieve(query, 20);
        assert!(!got.is_empty(), "{query}: must match delta documents");
        let expect = Retriever::retrieve(oracle.as_ref(), query, 20);
        assert_bits(&got, &expect, query);
    }
}

/// Engine-level: a live engine's pre-merge Baseline pages (retrieval +
/// materialization, no diversification downstream of the contract) are
/// bit-identical to a from-scratch deployment over the union corpus.
#[test]
fn engine_premerge_baseline_pages_match_from_scratch_deployment() {
    let model = Arc::new(
        from_json(
            r#"{"entries":{"apple":{"query":"apple","specializations":[["apple iphone",0.6],["apple fruit",0.4]]}}}"#,
        )
        .unwrap(),
    );
    let config = EngineConfig {
        n_candidates: 16,
        cache_capacity: 0,
        ..EngineConfig::default()
    };
    let engine = SearchEngine::deploy(build_index(&base_docs()), model.clone(), config);

    let mut union_corpus = base_docs();
    for step in 0..3u32 {
        let fresh = delta_docs(18 + 2 * step..18 + 2 * step + 2);
        union_corpus.extend(fresh.clone());
        engine.ingest(fresh).expect("ingest");
        let oracle = SearchEngine::deploy(build_index(&union_corpus), model.clone(), config);
        for query in QUERIES {
            for k in [3, 8] {
                let req = QueryRequest::new(query, k, AlgorithmKind::Baseline);
                let got = engine.search(req.clone());
                let expect = oracle.search(req);
                assert_eq!(
                    got.results.len(),
                    expect.results.len(),
                    "step {step} {query} k={k}"
                );
                for (g, e) in got.results.iter().zip(expect.results.iter()) {
                    assert_eq!(g.doc, e.doc, "step {step} {query} k={k}");
                    assert_eq!(
                        g.score.to_bits(),
                        e.score.to_bits(),
                        "step {step} {query} k={k}"
                    );
                    assert_eq!(g.url, e.url, "step {step} {query} k={k}");
                }
            }
        }
    }
    // And after the merge the very same pages keep serving.
    engine.merge_delta().expect("merge");
    let oracle = SearchEngine::deploy(build_index(&union_corpus), model, config);
    for query in QUERIES {
        let req = QueryRequest::new(query, 8, AlgorithmKind::Baseline);
        let got = engine.search(req.clone());
        let expect = oracle.search(req);
        assert_eq!(got.results, expect.results, "post-merge {query}");
    }
}
