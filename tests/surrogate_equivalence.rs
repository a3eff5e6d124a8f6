//! Equivalence suite for the compiled forward-index surrogate path.
//!
//! The zero-string hot path (`ForwardIndex::surrogate`: incremental
//! `TermId`-stream window scan + direct TF-IDF emission) must be
//! **bit-identical** to the text oracle (`SnippetGenerator::snippet` +
//! `SparseVector::from_text`): same window choice, same `SparseVector`
//! entries and norm bits, and identical SERPs through every diversifier
//! whether the serving engine compiles a forward index or not. The §4.1
//! store a deployment builds is one more input: each of its vectors is
//! the oracle's surrogate of that hit for that specialization. Fixtures
//! cover the degenerate shapes (empty body, title-only, no-query-term
//! fallback, tie-heavy windows); a randomized corpus sweep covers the
//! rest.

use serpdiv::core::{
    candidate_surrogate_naive, AlgorithmKind, CompiledSpecStore, PipelineParams,
    SpecializationStore,
};
use serpdiv::index::{
    Document, ForwardIndex, IndexBuilder, InvertedIndex, SearchEngine as DphEngine,
    SnippetGenerator, SparseVector,
};
use serpdiv::mining::{from_json, SpecializationModel};
use serpdiv::serve::{EngineConfig, QueryRequest, SearchEngine};
use std::sync::Arc;

const ALGOS: [AlgorithmKind; 4] = [
    AlgorithmKind::OptSelect,
    AlgorithmKind::IaSelect,
    AlgorithmKind::XQuad,
    AlgorithmKind::Mmr,
];

/// Assert window choice and surrogate vector of `doc` agree between the
/// compiled path and the text oracle for `query`, for every window size
/// in `windows`.
fn assert_doc_equivalent(
    index: &serpdiv::index::InvertedIndex,
    forward: &ForwardIndex,
    doc: u32,
    query: &str,
    windows: &[usize],
    context: &str,
) {
    let doc = serpdiv::index::DocId(doc);
    let d = index.store().get(doc).expect("fixture doc");
    let qterms = index.analyze_query(query);
    for &w in windows {
        let snippets = SnippetGenerator::with_window(w);
        let naive_window = snippets.best_window_text(d, &qterms, index.vocab());
        let fast_window = forward.best_window(doc, &qterms, w);
        assert_eq!(
            fast_window, naive_window,
            "{context}: window diverged (doc {doc:?}, query {query:?}, w={w})"
        );
        let naive = SparseVector::from_text(&snippets.snippet(d, &qterms, index.vocab()), index);
        let fast = forward.surrogate(doc, &qterms, snippets.window);
        assert_eq!(
            fast, naive,
            "{context}: vector diverged (doc {doc:?}, query {query:?}, w={w})"
        );
        // PartialEq compares values; pin the norm down to the exact bits.
        assert_eq!(
            fast.norm().to_bits(),
            naive.norm().to_bits(),
            "{context}: norm bits diverged (doc {doc:?}, query {query:?}, w={w})"
        );
    }
}

/// The §4.1 store as one more input: deploy over `index` with requests
/// reading the forward view and with requests on the text path, and hold
/// every stored vector to the text oracle's surrogate of its
/// `(specialization, hit)` — hits from the hash-map oracle engine — bit
/// for bit. Both deployments build the store through the index's forward
/// view, and the pinned `build` wrapper compiles to the same bytes as
/// `build_with`.
/// Returns how many vectors were checked.
fn assert_deployed_store_matches_oracle(
    index: &Arc<InvertedIndex>,
    model: &Arc<SpecializationModel>,
    params: PipelineParams,
    context: &str,
) -> usize {
    let oracle = DphEngine::new(index);
    let snippets = SnippetGenerator::with_window(params.snippet_window);
    let wrapped = CompiledSpecStore::compile(&SpecializationStore::build(
        model,
        &oracle,
        params.k_spec_results,
        params.snippet_window,
    ))
    .to_bytes();
    let mut checked = 0;
    for forward_index in [true, false] {
        let config = EngineConfig {
            params,
            forward_index,
            ..EngineConfig::default()
        };
        let generation = SearchEngine::deploy(index.clone(), model.clone(), config).generation();
        let store = generation.store();
        for (spec, vectors) in store.iter() {
            let qterms = index.analyze_query(spec);
            let hits = oracle.search_terms(&qterms, params.k_spec_results);
            assert_eq!(vectors.len(), hits.len(), "{context}: {spec:?}");
            for (stored, hit) in vectors.iter().zip(&hits) {
                let naive = candidate_surrogate_naive(index, hit.doc, &qterms, &snippets);
                let what = format!("{context}: {spec:?} {:?} forward={forward_index}", hit.doc);
                assert_eq!(stored, &naive, "{what}");
                assert_eq!(stored.norm().to_bits(), naive.norm().to_bits(), "{what}");
                checked += 1;
            }
        }
        assert_eq!(
            generation.compiled().to_bytes(),
            wrapped,
            "{context}: build and build_with compile to different bytes"
        );
    }
    checked
}

/// Fixture docs exercising every degenerate shape at once.
fn fixture_index() -> serpdiv::index::InvertedIndex {
    let mut b = IndexBuilder::new();
    // 0: ordinary body with a query-term cluster away from the prefix.
    b.add(Document::new(
        0,
        "http://a",
        "Apple iPhone",
        format!(
            "{} apple iphone announcement today {}",
            "lorem ipsum dolor sit amet ".repeat(4),
            "consectetur adipiscing elit sed ".repeat(4)
        ),
    ));
    // 1: empty body (title-only surrogate).
    b.add(Document::new(1, "http://b", "Just A Title", ""));
    // 2: body with no title.
    b.add(Document::new(
        2,
        "http://c",
        "",
        "orchard harvest apple cider sweet vitamin",
    ));
    // 3: stopword-only body (every stream position is a sentinel).
    b.add(Document::new(
        3,
        "http://d",
        "Stop Words",
        "the of and is to in that it",
    ));
    // 4: tie-heavy — the query term repeats periodically so many windows
    // share the same (distinct, total) key and the earliest must win.
    b.add(Document::new(
        4,
        "http://e",
        "Ties",
        "apple pad pad ".repeat(12),
    ));
    // 5: both query terms everywhere (maximal ties on distinct coverage).
    b.add(Document::new(5, "http://f", "", "apple iphone ".repeat(15)));
    b.build()
}

#[test]
fn fixture_docs_match_oracle_bitwise() {
    let index = fixture_index();
    let forward = ForwardIndex::build(&index);
    let windows = [1, 3, 5, 30, 500];
    for query in [
        "apple",
        "apple iphone",
        "cider sweet",
        "zeppelin", // analyzed away (unknown term): prefix fallback
        "",         // empty query: prefix fallback
        "the of",   // stopwords only: analyzed to empty
    ] {
        for doc in 0..6u32 {
            assert_doc_equivalent(&index, &forward, doc, query, &windows, "fixture");
        }
    }
}

#[test]
fn title_only_and_empty_body_surrogates() {
    let index = fixture_index();
    let forward = ForwardIndex::build(&index);
    let doc = serpdiv::index::DocId(1);
    // The oracle returns the bare title for an empty body; the compiled
    // path must emit the same (title-only) vector, and the window (0,0).
    assert_eq!(
        forward.best_window(doc, &index.analyze_query("apple"), 30),
        (0, 0)
    );
    let compiled = forward.surrogate(doc, &index.analyze_query("apple"), 30);
    assert_eq!(compiled, SparseVector::from_text("Just A Title", &index));
    // Stopword-only body: all sentinels, surrogate reduces to the title.
    let stop = serpdiv::index::DocId(3);
    let compiled = forward.surrogate(stop, &index.analyze_query("apple"), 4);
    assert_eq!(
        compiled,
        SparseVector::from_text("Stop Words the of and is", &index)
    );
}

/// The serving layer must produce identical SERPs with and without the
/// compiled forward index, across all four diversifiers.
#[test]
fn serving_pages_identical_with_and_without_forward_index() {
    let mut b = IndexBuilder::new();
    for i in 0..6u32 {
        b.add(Document::new(
            i,
            format!("http://tech/{i}"),
            "apple iphone",
            "apple iphone smartphone review chip battery display camera app store",
        ));
    }
    for i in 6..12u32 {
        b.add(Document::new(
            i,
            format!("http://food/{i}"),
            "apple fruit",
            "apple fruit orchard sweet harvest vitamin juice recipe cider tree",
        ));
    }
    let index = Arc::new(b.build());
    let model = Arc::new(
        from_json(
            r#"{"entries":{"apple":{"query":"apple","specializations":[["apple iphone",0.6],["apple fruit",0.4]]}}}"#,
        )
        .unwrap(),
    );
    let config = EngineConfig {
        n_candidates: 12,
        cache_capacity: 0, // always recompute, so both paths actually run
        ..EngineConfig::default()
    };
    let with = SearchEngine::deploy(index.clone(), model.clone(), config);
    let without = SearchEngine::deploy(
        index,
        model,
        EngineConfig {
            forward_index: false,
            ..config
        },
    );
    // `None` takes the index's own forward view, and `forward_index`
    // alone selects whether requests read it.
    let generation = with.generation();
    let funnelled = SearchEngine::with_retriever_and_forward(
        generation.index().clone(),
        generation.retriever().clone(),
        generation.model().clone(),
        generation.store().clone(),
        generation.compiled().clone(),
        None,
        config,
    );
    let page = |out: &serpdiv::serve::SearchResponse| -> Vec<(serpdiv::index::DocId, u64)> {
        out.results
            .iter()
            .map(|r| (r.doc, r.score.to_bits()))
            .collect()
    };
    for algo in ALGOS {
        for query in ["apple", "apple fruit", "unknown query"] {
            let a = with.search(QueryRequest::new(query, 5, algo));
            let b = without.search(QueryRequest::new(query, 5, algo));
            let c = funnelled.search(QueryRequest::new(query, 5, algo));
            assert_eq!(a.results, b.results, "{query} {algo:?}");
            assert_eq!(a.algorithm, b.algorithm, "{query} {algo:?}");
            assert_eq!(a.diversified, b.diversified, "{query} {algo:?}");
            assert_eq!(page(&c), page(&b), "{query} {algo:?}: funnelled");
            assert_eq!(c.algorithm, b.algorithm, "{query} {algo:?}: funnelled");
        }
    }
}

/// A forward view is the index's own: an engine handed another index's
/// view would serve that collection's surrogates, so it refuses to start.
#[test]
#[should_panic(expected = "the index already holds another forward view")]
fn a_forward_view_of_another_index_is_refused() {
    let index = Arc::new(fixture_index());
    let other = fixture_index();
    let model = Arc::new(SpecializationModel::default());
    let store = Arc::new(SpecializationStore::default());
    let _ = SearchEngine::with_retriever_and_forward(
        index.clone(),
        index,
        model,
        store,
        Arc::new(CompiledSpecStore::default()),
        Some(Arc::new(ForwardIndex::build(&other))),
        EngineConfig::default(),
    );
}

/// Two ambiguous queries ("apple", "java") over 12 candidates each, plus
/// "the apple" — another string that analyzes to the "apple" terms.
fn table_world() -> (Arc<serpdiv::index::InvertedIndex>, Arc<SpecializationModel>) {
    let mut b = IndexBuilder::new();
    let bodies = [
        (
            "apple iphone",
            "apple iphone smartphone review chip battery display camera",
        ),
        (
            "apple fruit",
            "apple fruit orchard sweet harvest vitamin juice recipe",
        ),
        (
            "java coffee",
            "java coffee roast espresso bean island brew cup",
        ),
        (
            "java code",
            "java code compiler class virtual machine bytecode",
        ),
    ];
    for (group, (title, body)) in bodies.iter().enumerate() {
        for i in 0..6u32 {
            let id = group as u32 * 6 + i;
            // A per-document tail keeps scores (and surrogates) distinct.
            b.add(Document::new(
                id,
                format!("http://{group}/{id}"),
                *title,
                format!("{body} {}", "extra ".repeat(i as usize)),
            ));
        }
    }
    let model = from_json(
        r#"{"entries":{
            "apple":{"query":"apple","specializations":[["apple iphone",0.6],["apple fruit",0.4]]},
            "the apple":{"query":"the apple","specializations":[["apple iphone",0.6],["apple fruit",0.4]]},
            "java":{"query":"java","specializations":[["java coffee",0.5],["java code",0.5]]}
        }}"#,
    )
    .unwrap();
    (Arc::new(b.build()), Arc::new(model))
}

#[test]
fn deployed_store_matches_the_text_oracle() {
    let (index, model) = table_world();
    for (k_spec_results, snippet_window) in [(20, 30), (3, 4), (1, 1)] {
        let params = PipelineParams {
            k_spec_results,
            snippet_window,
            ..PipelineParams::default()
        };
        let checked = assert_deployed_store_matches_oracle(&index, &model, params, "table world");
        // Four distinct specializations, six matching documents each.
        assert_eq!(checked, 2 * 4 * k_spec_results.min(12));
    }
}

/// A surrogate-cached engine and its cache-less twin over
/// [`table_world`], result cache off so every request runs the stage.
fn cached_and_uncached(n_candidates: usize, capacity: usize) -> (SearchEngine, SearchEngine) {
    let (index, model) = table_world();
    let config = EngineConfig {
        n_candidates,
        cache_capacity: 0,
        surrogate_cache_capacity: capacity,
        ..EngineConfig::default()
    };
    let cached = SearchEngine::deploy(index.clone(), model.clone(), config);
    let uncached = SearchEngine::deploy(
        index,
        model,
        EngineConfig {
            surrogate_cache_capacity: 0,
            ..config
        },
    );
    assert!(cached.surrogate_cache().is_some() && uncached.surrogate_cache().is_none());
    (cached, uncached)
}

fn page_bits(out: &serpdiv::serve::SearchResponse) -> Vec<(u32, u64)> {
    out.results
        .iter()
        .map(|r| (r.doc.0, r.score.to_bits()))
        .collect()
}

/// Serve `req` from both engines, assert the pages f64-bit-identical, and
/// return how many candidates the surrogate stage resolved for it.
fn assert_same_page(cached: &SearchEngine, uncached: &SearchEngine, req: QueryRequest) -> u64 {
    let a = cached.search(req.clone());
    let b = uncached.search(req.clone());
    assert_eq!(page_bits(&a), page_bits(&b), "{req:?}");
    assert_eq!((a.algorithm, a.diversified), (b.algorithm, b.diversified));
    assert!(a.diversified, "{req:?} must run the surrogate stage");
    let n = cached.config().n_candidates.max(req.k);
    cached
        .generation()
        .retriever()
        .retrieve(&req.query, n)
        .len() as u64
}

/// (a) One query re-asked with a growing candidate pool: each deeper
/// request extends the query's table instead of starting over.
#[test]
fn growing_requests_extend_the_query_table() {
    let (cached, uncached) = cached_and_uncached(4, 1024);
    let mut served = 0;
    for (k, new_vectors) in [(2, 4), (4, 0), (7, 3), (12, 5), (3, 0), (12, 0)] {
        let before = cached.surrogate_cache().unwrap().stats();
        for algo in ALGOS {
            served += assert_same_page(&cached, &uncached, QueryRequest::new("apple", k, algo));
        }
        let after = cached.surrogate_cache().unwrap().stats();
        assert_eq!(after.misses - before.misses, new_vectors, "k={k}");
        assert_eq!(after.entries, before.entries + new_vectors as usize);
    }
    let stats = cached.surrogate_cache().unwrap().stats();
    assert_eq!(stats.hits + stats.misses, served, "one count per candidate");
    assert_eq!(stats.entries, 12, "one table, as deep as the deepest ask");
}

/// (b) Two query strings that analyze to the same terms share one table.
#[test]
fn queries_analyzing_alike_share_a_table() {
    let (cached, uncached) = cached_and_uncached(12, 1024);
    let index = cached.generation().index().clone();
    assert_eq!(
        index.analyze_query("apple"),
        index.analyze_query("the apple")
    );
    let req = |q: &str| QueryRequest::new(q, 5, AlgorithmKind::OptSelect);
    let first = assert_same_page(&cached, &uncached, req("apple"));
    let stats = cached.surrogate_cache().unwrap().stats();
    assert_eq!((stats.hits, stats.misses), (0, first));
    let second = assert_same_page(&cached, &uncached, req("the apple"));
    let stats = cached.surrogate_cache().unwrap().stats();
    assert_eq!((stats.hits, stats.misses), (second, first), "all hits");
    assert_eq!(stats.entries as u64, first, "no second table");
}

/// (c) Budgets so small that every request evicts (or cannot retain its
/// own table at all) change nothing but the hit ratio.
#[test]
fn tiny_budgets_evict_constantly_without_changing_pages() {
    for capacity in [1, 5, 12, 13, 23] {
        let (cached, uncached) = cached_and_uncached(12, capacity);
        let mut served = 0;
        for round in 0..3 {
            for query in ["apple", "java", "the apple"] {
                for algo in ALGOS {
                    let req = QueryRequest::new(query, 4 + round, algo);
                    served += assert_same_page(&cached, &uncached, req);
                    let entries = cached.surrogate_cache().unwrap().stats().entries;
                    assert!(
                        entries <= capacity,
                        "{entries} vectors over budget {capacity}"
                    );
                }
            }
        }
        let stats = cached.surrogate_cache().unwrap().stats();
        assert_eq!(stats.hits + stats.misses, served, "capacity {capacity}");
        if capacity < 12 {
            assert_eq!(stats.hits, 0, "a 12-vector table never fits in {capacity}");
        }
    }
}

/// (d) Eight threads ask the same cold query at once: every copy-on-write
/// publish race still serves the uncached page.
#[test]
fn racing_cold_requests_publish_equivalent_tables() {
    const THREADS: usize = 8;
    let (cached, uncached) = cached_and_uncached(12, 1024);
    for (round, query) in ["apple", "java"].into_iter().enumerate() {
        let want = page_bits(&uncached.search(QueryRequest::new(query, 6, AlgorithmKind::Mmr)));
        let barrier = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    barrier.wait();
                    let got = cached.search(QueryRequest::new(query, 6, AlgorithmKind::Mmr));
                    assert_eq!(page_bits(&got), want);
                });
            }
        });
        let stats = cached.surrogate_cache().unwrap().stats();
        assert_eq!(
            stats.hits + stats.misses,
            (THREADS * 12 * (round + 1)) as u64
        );
        assert_eq!(
            stats.entries,
            12 * (round + 1),
            "racing tables replace, not stack"
        );
    }
}

/// Twelve "apple" documents whose query-term frequency and length grow at
/// different rates, so that DPH's order among them depends on the
/// collection statistics an ingest moves.
fn rerank_world() -> (Arc<InvertedIndex>, Arc<SpecializationModel>) {
    let mut b = IndexBuilder::new();
    for i in 0..12u32 {
        let (title, topic) = if i % 2 == 0 {
            ("apple iphone", "iphone smartphone chip")
        } else {
            ("apple fruit", "fruit orchard juice")
        };
        let body = format!(
            "{}{topic} {}",
            "apple ".repeat(1 + i as usize % 4),
            "filler ".repeat(3 * i as usize)
        );
        b.add(Document::new(i, format!("http://apple/{i}"), title, body));
    }
    let model = from_json(
        r#"{"entries":{
            "apple":{"query":"apple","specializations":[["apple iphone",0.6],["apple fruit",0.4]]}
        }}"#,
    )
    .unwrap();
    (Arc::new(b.build()), Arc::new(model))
}

/// (e) An ingest moves the union statistics and re-ranks the sealed
/// candidates, but keeps the surrogate stamp: the query's table, ranked
/// in the old order, still serves every sealed candidate — most of them
/// no longer at the slot of their rank — and the pages match the
/// cache-less engine bit for bit.
#[test]
fn an_ingest_that_re_ranks_the_candidates_still_hits_every_sealed_one() {
    let (index, model) = rerank_world();
    let config = EngineConfig {
        n_candidates: 16,
        cache_capacity: 0,
        surrogate_cache_capacity: 1024,
        ..EngineConfig::default()
    };
    let cached = SearchEngine::deploy(index.clone(), model.clone(), config);
    let uncached = SearchEngine::deploy(
        index,
        model,
        EngineConfig {
            surrogate_cache_capacity: 0,
            ..config
        },
    );
    let ranked = |engine: &SearchEngine| -> Vec<u32> {
        let hits = engine.generation().retriever().retrieve("apple", 16);
        hits.iter().map(|h| h.doc.0).collect()
    };
    let sealed_order = |engine: &SearchEngine| -> Vec<u32> {
        ranked(engine).into_iter().filter(|&d| d < 12).collect()
    };
    let serve_all = || {
        for algo in ALGOS {
            assert_same_page(&cached, &uncached, QueryRequest::new("apple", 6, algo));
        }
    };
    serve_all();
    let before = sealed_order(&cached);
    assert_eq!(before.len(), 12);
    let stats = cached.surrogate_cache().unwrap().stats();
    assert_eq!((stats.hits, stats.misses), (3 * 12, 12));

    // Forty documents without the query term, two with it: N, F and the
    // average length all move, and a fresh "apple" page ranks between
    // sealed candidates.
    let mut fresh: Vec<Document> = (12..52u32)
        .map(|i| {
            let body = "storm warning wind forecast ".repeat(1 + i as usize % 3);
            Document::new(i, format!("http://storm/{i}"), "storm", body)
        })
        .collect();
    fresh.push(Document::new(
        52,
        "http://apple/52",
        "apple",
        "apple apple apple apple basket orchard",
    ));
    fresh.push(Document::new(
        53,
        "http://apple/53",
        "apple",
        "apple apple cider press vinegar",
    ));
    for engine in [&cached, &uncached] {
        engine.ingest(fresh.clone()).unwrap();
    }
    let after = sealed_order(&cached);
    let moved = before.iter().zip(&after).filter(|(a, b)| a != b).count();
    assert!(
        moved >= 2,
        "the ingest must re-rank: {before:?} → {after:?}"
    );
    let all = ranked(&cached);
    let last_sealed = all.iter().rposition(|&d| d < 12).unwrap();
    assert!(
        all[..last_sealed].iter().any(|&d| d >= 12),
        "a delta document must interleave: {all:?}"
    );

    serve_all();
    let stats = cached.surrogate_cache().unwrap().stats();
    assert_eq!(
        (stats.hits, stats.misses, stats.entries),
        (3 * 12 + 4 * 12, 12, 12),
        "every sealed candidate served from the pre-ingest table"
    );
}

/// Randomized corpus sweep: one seeded `StdRng` per world.
mod randomized {
    use super::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    /// A word pool mixing content words, stopwords and a rare long token
    /// (dropped by the tokenizer), so streams get sentinels and holes.
    fn word(rng: &mut StdRng) -> &'static str {
        const WORDS: [&str; 24] = [
            "apple", "iphone", "fruit", "orchard", "review", "battery", "camera", "harvest",
            "cider", "juice", "recipe", "chip", "display", "store", "vitamin", "sweet", "the",
            "of", "and", "is", "to", "in", "running", "leopards",
        ];
        WORDS.choose(rng).unwrap()
    }

    fn text(rng: &mut StdRng, len: usize) -> String {
        let mut out = String::new();
        for i in 0..len {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(word(rng));
        }
        out
    }

    /// 25 random corpora: every (doc, query, window) triple picks the
    /// same window and emits the identical vector through both paths, and
    /// so does every vector of the store deployed over the corpus with
    /// the world's queries as its specializations.
    #[test]
    fn random_corpora_match_oracle_bitwise() {
        let mut stored = 0;
        for seed in 0..25 {
            let mut rng = StdRng::seed_from_u64(seed);
            let num_docs = rng.gen_range(1..=12);
            let mut b = IndexBuilder::new();
            for i in 0..num_docs {
                let title_len = rng.gen_range(0..4); // empties included
                let body_len = rng.gen_range(0..120); // empties included
                let title = text(&mut rng, title_len);
                let body = text(&mut rng, body_len);
                b.add(Document::new(
                    i as u32,
                    format!("http://{seed}/{i}"),
                    title,
                    body,
                ));
            }
            let index = b.build();
            let forward = ForwardIndex::build(&index);
            let windows = [rng.gen_range(1..=6), 30, 200];
            let mut queries = Vec::new();
            for _ in 0..6 {
                let qlen = rng.gen_range(0..4); // empty queries included
                let query = text(&mut rng, qlen);
                queries.push(query.clone());
                for doc in 0..num_docs as u32 {
                    assert_doc_equivalent(
                        &index,
                        &forward,
                        doc,
                        &query,
                        &windows,
                        &format!("seed {seed}"),
                    );
                }
            }
            let p = 1.0 / queries.len() as f64;
            let specializations: Vec<String> =
                queries.iter().map(|q| format!("[{q:?},{p}]")).collect();
            let model = from_json(&format!(
                r#"{{"entries":{{"q":{{"query":"q","specializations":[{}]}}}}}}"#,
                specializations.join(",")
            ))
            .unwrap();
            let params = PipelineParams {
                k_spec_results: rng.gen_range(1..=8),
                snippet_window: windows[seed as usize % 3],
                ..PipelineParams::default()
            };
            stored += assert_deployed_store_matches_oracle(
                &Arc::new(index),
                &Arc::new(model),
                params,
                &format!("seed {seed}"),
            );
        }
        assert!(stored > 500, "only {stored} stored vectors were checked");
    }
}
