//! Generation hot-swap integration: the epoch-publish machinery driven
//! end-to-end through the public engine API.
//!
//! Covered here (the adversarial swap-under-load race lives in
//! `tests/swap_soak.rs`):
//!
//! * a shipped artifact bundle (`InvertedIndex` image, forward rows
//!   included, + `CompiledSpecStore` image) decodes, validates, publishes, and
//!   serves the *new* corpus — while the pre-swap page stays bit-exact
//!   for the old generation's oracle;
//! * corrupt or truncated artifacts are **rejected with a counted
//!   `swap_rejected`** and the old generation keeps serving untouched;
//! * a stale (non-advancing) generation id is refused, and so is a
//!   bundle whose compiled store has no column for a specialization of
//!   the model the engine keeps;
//! * cache keys name what an entry was computed from (the generation's
//!   content stamps): a republish keeps every cached page a hit, for any
//!   number of idle swaps, while any swap that could change a byte of a
//!   page (ingest, merge, shipped bundle) makes its first request
//!   recompute — checked on what clients and the caches report
//!   (`cache_hit`, `cache().stats()`, `surrogate_cache().stats()`);
//! * the surrogate cache's per-query tables follow the sealed artifacts:
//!   found whole with one probe when the sealed index (and the forward
//!   view it owns) is shared (republish, NRT ingest), recomputed when they are
//!   replaced (merge, re-encoded bundle), and orphaned tables leave the
//!   vector budget before live ones;
//! * NRT ingest accumulates across generations and `merge_delta` seals
//!   the delta into an index **bit-identical** to a from-scratch build;
//!   documents whose ids do not continue the id space densely are a
//!   counted rejection, not a panic;
//! * a delta document's surrogate names its terms in the sealed
//!   vocabulary's id space and is already the vector the merged
//!   generation computes, so a `k < n` page does not move at the merge;
//! * a query term first seen in the delta reaches only the delta's
//!   surrogates: sealed candidates and the surrogate table's key read the
//!   sealed vocabulary's share of the request's one analysis.

use serpdiv::core::{candidate_surrogate_naive, AlgorithmKind};
use serpdiv::index::{
    merge_sealed, DocId, Document, ForwardIndex, IndexBuilder, InvertedIndex, SnippetGenerator,
    SparseVector,
};
use serpdiv::mining::{from_json, SpecializationModel};
use serpdiv::serve::{
    default_stage_chain, Budget, EngineConfig, GenerationArtifacts, PipelineContext, PublishError,
    QueryRequest, SearchEngine,
};
use std::sync::Arc;
use std::time::Instant;

fn base_docs() -> Vec<Document> {
    let mut docs = Vec::new();
    for i in 0..6u32 {
        docs.push(Document::new(
            i,
            format!("http://tech/{i}"),
            "apple iphone",
            "apple iphone smartphone review chip battery display camera",
        ));
    }
    for i in 6..12u32 {
        docs.push(Document::new(
            i,
            format!("http://food/{i}"),
            "apple fruit",
            "apple fruit orchard sweet harvest vitamin juice recipe",
        ));
    }
    docs
}

fn storm_docs(range: std::ops::Range<u32>) -> Vec<Document> {
    range
        .map(|i| {
            Document::new(
                i,
                format!("http://storm/{i}"),
                "storm warning",
                "weather storm warning wind forecast emergency shelter",
            )
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

fn model() -> Arc<SpecializationModel> {
    Arc::new(
        from_json(
            r#"{"entries":{"apple":{"query":"apple","specializations":[["apple iphone",0.6],["apple fruit",0.4]]}}}"#,
        )
        .unwrap(),
    )
}

fn config(cache_capacity: usize) -> EngineConfig {
    EngineConfig {
        n_candidates: 12,
        cache_capacity,
        ..EngineConfig::default()
    }
}

fn deploy(docs: &[Document], cache_capacity: usize) -> Arc<SearchEngine> {
    Arc::new(SearchEngine::deploy(
        build_index(docs),
        model(),
        config(cache_capacity),
    ))
}

/// Serialize a corpus into the artifact bundle a deploy pipeline ships:
/// the index image (forward rows included) plus the serving engine's
/// compiled spec store (the model carries over on publish).
fn artifacts_for(engine: &SearchEngine, docs: &[Document], id: u64) -> GenerationArtifacts {
    GenerationArtifacts {
        id,
        index: build_index(docs).to_bytes(),
        compiled: engine.generation().compiled().to_bytes(),
    }
}

#[test]
fn published_artifacts_serve_the_new_corpus() {
    let engine = deploy(&base_docs(), 0);
    let before = engine.search(QueryRequest::new("storm", 5, AlgorithmKind::Baseline));
    assert_eq!(before.generation, 1);
    assert!(before.results.is_empty(), "old corpus has no storm docs");

    let mut grown = base_docs();
    grown.extend(storm_docs(12..16));
    let bundle = artifacts_for(&engine, &grown, 2);
    assert_eq!(engine.publish_artifacts(&bundle).unwrap(), 2);

    let after = engine.search(QueryRequest::new("storm", 5, AlgorithmKind::Baseline));
    assert_eq!(after.generation, 2);
    assert_eq!(after.results.len(), 4, "new docs retrievable post-swap");
    assert!(
        after
            .results
            .iter()
            .all(|r| r.url.starts_with("http://storm/")),
        "post-swap pages materialize the new generation's urls"
    );
    // The diversified path still works end-to-end on the swapped-in
    // generation (model + store carried over).
    let div = engine.search(QueryRequest::new("apple", 4, AlgorithmKind::OptSelect));
    assert!(div.diversified);
    assert_eq!(div.generation, 2);
    let m = engine.metrics();
    assert_eq!((m.swaps, m.swap_rejected, m.generation), (1, 0, 2));
}

/// Offsets of the document count and of the forward rows in an
/// `InvertedIndex` image: past the 8-byte header and the vocabulary (a
/// count, then length-prefixed strings), and past the documents after
/// that (three length-prefixed strings each).
fn document_and_rows_offsets(image: &[u8]) -> (usize, usize) {
    let u32_at = |at: usize| u32::from_le_bytes(image[at..at + 4].try_into().unwrap()) as usize;
    let skip_strings = |mut at: usize, n: usize| {
        for _ in 0..n {
            at += 4 + u32_at(at);
        }
        at
    };
    let n_docs_at = skip_strings(12, u32_at(8));
    (
        n_docs_at,
        skip_strings(n_docs_at + 4, 3 * u32_at(n_docs_at)),
    )
}

#[test]
fn corrupt_artifacts_are_rejected_and_the_old_generation_serves() {
    let engine = deploy(&base_docs(), 0);
    let request = || QueryRequest::new("apple", 4, AlgorithmKind::OptSelect);
    let oracle = engine.search(request());

    let mut grown = base_docs();
    grown.extend(storm_docs(12..16));
    let good = artifacts_for(&engine, &grown, 2);

    // Bad magic: the index image no longer starts with the format tag.
    let mut bad_magic = good.clone();
    bad_magic.index[0] ^= 0xFF;
    // Truncation: the compiled store image is cut mid-section.
    let mut truncated = good.clone();
    truncated.compiled.truncate(truncated.compiled.len() / 2);
    // Corruption in the forward rows that end the index image: the top
    // byte of the last title entry's term id, now past the vocabulary.
    let mut flipped = good.clone();
    let last_term_top = flipped.index.len() - 5;
    flipped.index[last_term_top] ^= 0xA5;
    // Counts the bytes present cannot back: a 12-byte store image
    // declaring u32::MAX specializations, and an index image declaring
    // u32::MAX documents. A decoder that sizes an allocation from either
    // aborts the process instead of rejecting the bundle.
    let mut huge_store = good.clone();
    huge_store.compiled.truncate(8);
    huge_store
        .compiled
        .extend_from_slice(&u32::MAX.to_le_bytes());
    let (n_docs_at, rows_at) = document_and_rows_offsets(&good.index);
    let mut huge_docs = good.clone();
    huge_docs.index[n_docs_at..n_docs_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    // The last title entry claims u32::MAX occurrences: its document's
    // length, which the decoder counts, no longer fits a u32.
    let mut overlong_title = good.clone();
    let last_tf = overlong_title.index.len() - 4;
    overlong_title.index[last_tf..].copy_from_slice(&u32::MAX.to_le_bytes());
    // One more document (three empty strings) than forward rows.
    let mut extra_doc = good.clone();
    extra_doc.index[n_docs_at] += 1;
    extra_doc.index.splice(rows_at..rows_at, [0u8; 12]);

    let cases = [
        ("bad magic", &bad_magic),
        ("truncated", &truncated),
        ("flipped byte", &flipped),
        ("store count beyond the image", &huge_store),
        ("document count beyond the image", &huge_docs),
        ("title tf beyond its document's length", &overlong_title),
        ("document count differs from row count", &extra_doc),
    ];
    for (what, bundle) in cases {
        match engine.publish_artifacts(bundle) {
            Err(PublishError::Decode(_)) => {}
            other => panic!("{what}: expected a decode rejection, got {other:?}"),
        }
        assert_eq!(engine.current_generation_id(), 1, "{what}: swapped anyway");
        // The old generation serves on, bit-exact.
        let after = engine.search(request());
        assert_eq!(after.generation, 1, "{what}");
        assert_eq!(page_bits(&oracle), page_bits(&after), "{what}");
        assert_eq!(oracle.results, after.results, "{what}");
    }
    let m = engine.metrics();
    assert_eq!((m.swaps, m.swap_rejected), (0, cases.len() as u64));

    // And the undamaged bundle still goes through afterwards.
    assert_eq!(engine.publish_artifacts(&good).unwrap(), 2);
    assert_eq!(engine.metrics().swaps, 1);
}

#[test]
fn stale_artifact_ids_are_refused() {
    let engine = deploy(&base_docs(), 0);
    let bundle = artifacts_for(&engine, &base_docs(), 1); // does not advance
    match engine.publish_artifacts(&bundle) {
        Err(PublishError::Stale { candidate, current }) => {
            assert_eq!((candidate, current), (1, 1));
        }
        other => panic!("expected Stale, got {other:?}"),
    }
    assert_eq!(engine.metrics().swap_rejected, 1);
}

#[test]
fn a_compiled_store_that_misses_a_model_specialization_is_refused() {
    let engine = deploy(&base_docs(), 0);
    let request = || QueryRequest::new("apple", 4, AlgorithmKind::OptSelect);
    let oracle = engine.search(request());
    assert!(oracle.diversified);

    // A store compiled for a model whose specializations are named
    // differently: it decodes cleanly, but the kept model's columns
    // would all be zero.
    let compiled_for = |json: &str| {
        let model = Arc::new(from_json(json).unwrap());
        let other = SearchEngine::deploy(build_index(&base_docs()), model, config(0));
        other.generation().compiled().to_bytes()
    };
    let torn = GenerationArtifacts {
        compiled: compiled_for(
            r#"{"entries":{"apple":{"query":"apple","specializations":[["apple phone",0.6],["apple orchard",0.4]]}}}"#,
        ),
        ..artifacts_for(&engine, &base_docs(), 2)
    };
    match engine.publish_artifacts(&torn) {
        Err(PublishError::Inconsistent(_)) => {}
        other => panic!("expected an inconsistency rejection, got {other:?}"),
    }
    assert_eq!(engine.current_generation_id(), 1, "swapped anyway");
    let after = engine.search(request());
    assert_eq!(page_bits(&oracle), page_bits(&after));
    assert_eq!(oracle.results, after.results);
    let m = engine.metrics();
    assert_eq!((m.swaps, m.swap_rejected), (0, 1));

    // A store covering the model and more besides is accepted.
    let superset = GenerationArtifacts {
        compiled: compiled_for(
            r#"{"entries":{
                "apple":{"query":"apple","specializations":[["apple iphone",0.6],["apple fruit",0.4]]},
                "storm":{"query":"storm","specializations":[["storm warning",1.0]]}}}"#,
        ),
        ..artifacts_for(&engine, &base_docs(), 2)
    };
    assert_eq!(engine.publish_artifacts(&superset).unwrap(), 2);
    assert_eq!(page_bits(&engine.search(request())), page_bits(&oracle));
}

#[test]
fn a_decoded_index_shares_its_rows_through_ingest_and_merge() {
    let engine = deploy(&base_docs(), 0);
    let mut grown = base_docs();
    grown.extend(storm_docs(12..16));
    // The decoded index holds the rows its image carried: asking it for
    // its view returns those arrays, an ingest shares them, and a merge
    // appends the delta's rows to them.
    engine
        .publish_artifacts(&artifacts_for(&engine, &grown, 2))
        .unwrap();
    let published = engine.generation();
    let view = published.index().forward();
    assert_eq!(*view, ForwardIndex::build(&build_index(&grown)));
    assert!(ForwardIndex::ptr_eq(
        view,
        &ForwardIndex::build(published.index())
    ));
    engine.ingest(storm_docs(16..18)).unwrap();
    assert!(ForwardIndex::ptr_eq(
        view,
        engine.generation().index().forward()
    ));
    engine.merge_delta().unwrap();
    grown.extend(storm_docs(16..18));
    assert_eq!(
        engine.generation().index().to_bytes(),
        build_index(&grown).to_bytes()
    );
}

#[test]
fn carry_over_keeps_identical_pages_and_drops_changed_ones() {
    let engine = deploy(&base_docs(), 256);
    let req = || QueryRequest::new("apple", 4, AlgorithmKind::OptSelect);
    let first = engine.search(req());
    assert!(!first.cache_hit);
    let second = engine.search(req());
    assert!(second.cache_hit, "same generation: the page is cached");
    assert_eq!(first.results, second.results);

    // Swap to an identical successor: it inherits the page stamp the
    // entry is filed under, so the repeat is a plain hit under the new
    // generation — no swap cold-start, nothing copied.
    engine.republish().unwrap();
    let third = engine.search(req());
    assert!(third.cache_hit, "an identical swap must keep the page");
    assert_eq!(third.generation, 2);
    assert_eq!(first.results, third.results);
    let stats = engine.cache().unwrap().stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (2, 1, 1));

    // Swap to a *different* corpus: the decoded bundle draws a fresh
    // stamp, the old entry stops matching, and the recompute serves the
    // new world. A cached page never hides a corpus change.
    let mut grown = base_docs();
    grown.extend(storm_docs(12..20));
    engine
        .publish_artifacts(&artifacts_for(&engine, &grown, 3))
        .unwrap();
    let apple = engine.search(req());
    assert!(!apple.cache_hit, "the pre-swap page is unreachable");
    assert_eq!(apple.generation, 3);
    assert_eq!(page_bits(&apple), fresh_page(&grown, req()));
    let stats = engine.cache().unwrap().stats();
    assert_eq!((stats.hits, stats.misses), (2, 2));
    let storm = engine.search(QueryRequest::new("storm", 5, AlgorithmKind::Baseline));
    assert!(!storm.cache_hit);
    assert_eq!(storm.results.len(), 5);
    // The new generation's pages cache under their own tag.
    assert!(
        engine
            .search(QueryRequest::new("storm", 5, AlgorithmKind::Baseline))
            .cache_hit
    );
}

#[test]
fn ingest_carries_surrogates_but_recomputes_pages() {
    let engine = deploy(&base_docs(), 256);
    let req = || QueryRequest::new("apple", 4, AlgorithmKind::OptSelect);
    let first = engine.search(req());
    assert!(!first.cache_hit && first.diversified);
    assert_eq!(surrogate_counters(&engine), (0, 12, 12));

    // An ingest changes the union statistics, so every cached page is
    // invalid (DPH scores move with df / num_docs / avg_doc_len) and
    // must recompute — but the sealed index and forward store are the
    // very same arcs, so the query's surrogate table is found under the
    // inherited stamp and the recompute only pays retrieval + selection,
    // not vectorization.
    engine.ingest(storm_docs(12..14)).unwrap();
    let after = engine.search(req());
    assert!(!after.cache_hit, "union stats changed: the page recomputes");
    assert_eq!(after.generation, 2);
    let pages = engine.cache().unwrap().stats();
    assert_eq!((pages.hits, pages.misses), (0, 2), "the cached page is out");
    assert_eq!(
        surrogate_counters(&engine),
        (12, 12, 12),
        "every surrogate is served from the pre-ingest table"
    );
}

/// `(surrogate hits, surrogate misses, vectors resident)` — what the
/// surrogate cache reports of the tables a swap kept or lost.
fn surrogate_counters(engine: &SearchEngine) -> (u64, u64, usize) {
    let stats = engine.surrogate_cache().unwrap().stats();
    (stats.hits, stats.misses, stats.entries)
}

/// The page a fresh, cache-less deployment over `docs` serves for `req`.
fn fresh_page(docs: &[Document], req: QueryRequest) -> Vec<(u32, u64)> {
    let oracle = SearchEngine::deploy(
        build_index(docs),
        model(),
        EngineConfig {
            surrogate_cache_capacity: 0,
            ..config(0)
        },
    );
    page_bits(&oracle.search(req))
}

fn page_bits(out: &serpdiv::serve::SearchResponse) -> Vec<(u32, u64)> {
    out.results
        .iter()
        .map(|r| (r.doc.0, r.score.to_bits()))
        .collect()
}

#[test]
fn shared_artifacts_promote_the_whole_surrogate_table_with_one_probe() {
    // Result cache off: every request runs the surrogate stage.
    let engine = deploy(&base_docs(), 0);
    let req = || QueryRequest::new("apple", 4, AlgorithmKind::OptSelect);
    let first = engine.search(req());
    assert_eq!(surrogate_counters(&engine), (0, 12, 12));

    // Republish: the successor inherits the surrogate stamp, so the same
    // table answers — 12 vectors served by one probe, none recomputed,
    // none counted twice against capacity.
    engine.republish().unwrap();
    assert_eq!(engine.search(req()).results, first.results);
    assert_eq!(surrogate_counters(&engine), (12, 12, 12));
    assert_eq!(engine.search(req()).generation, 2);
    assert_eq!(surrogate_counters(&engine), (24, 12, 12));

    // Two swaps with no request between them: the table is still one
    // probe away.
    engine.republish().unwrap();
    engine.republish().unwrap();
    assert_eq!(engine.search(req()).results, first.results);
    assert_eq!(surrogate_counters(&engine), (36, 12, 12));

    // NRT ingest shares the sealed index and forward store, so the table
    // is found whole again; the page itself moves with the union
    // statistics and must match a from-scratch build.
    engine.ingest(storm_docs(12..14)).unwrap();
    let mut grown = base_docs();
    grown.extend(storm_docs(12..14));
    assert_eq!(page_bits(&engine.search(req())), fresh_page(&grown, req()));
    assert_eq!(surrogate_counters(&engine), (48, 12, 12));
}

#[test]
fn a_re_encoded_bundle_recomputes_its_surrogate_table() {
    let engine = deploy(&base_docs(), 0);
    let req = || QueryRequest::new("apple", 4, AlgorithmKind::OptSelect);
    engine.search(req());
    assert_eq!(surrogate_counters(&engine), (0, 12, 12));

    // A decoded bundle shares no `Arc` with the serving generation. This
    // one has the same statistics and differs in one document only (the
    // same words in another order), so eleven of its twelve surrogates
    // would come out bit-equal — but a bundle that was not built from
    // the serving one draws fresh stamps, whatever it decodes to: the
    // table is recomputed whole and the page equals a fresh build.
    let mut docs = base_docs();
    docs[3].body = "camera display battery chip review smartphone iphone apple".into();
    engine
        .publish_artifacts(&artifacts_for(&engine, &docs, 2))
        .unwrap();
    assert_eq!(page_bits(&engine.search(req())), fresh_page(&docs, req()));
    // The unreachable table stays resident until the budget needs it.
    assert_eq!(surrogate_counters(&engine), (0, 24, 24));
    engine.search(req());
    assert_eq!(surrogate_counters(&engine), (12, 24, 24));
}

#[test]
fn moved_statistics_carry_no_surrogates() {
    let engine = deploy(&base_docs(), 0);
    let req = || QueryRequest::new("apple", 4, AlgorithmKind::OptSelect);
    engine.ingest(storm_docs(12..14)).unwrap();
    engine.search(req());
    assert_eq!(surrogate_counters(&engine), (0, 12, 12));

    // Sealing the delta grows the sealed collection, which moves every
    // idf weight: the merged generation draws a fresh surrogate stamp,
    // no vector of the old table is served, and the page is recomputed
    // against the merged index.
    engine.merge_delta().unwrap();
    let mut grown = base_docs();
    grown.extend(storm_docs(12..14));
    assert_eq!(page_bits(&engine.search(req())), fresh_page(&grown, req()));
    assert_eq!(surrogate_counters(&engine), (0, 24, 24));

    // Likewise a shipped bundle over a different corpus.
    grown.extend(storm_docs(14..20));
    engine
        .publish_artifacts(&artifacts_for(&engine, &grown, 4))
        .unwrap();
    assert_eq!(page_bits(&engine.search(req())), fresh_page(&grown, req()));
    assert_eq!(surrogate_counters(&engine), (0, 36, 36));
}

#[test]
fn delta_document_vectors_never_enter_a_table() {
    let engine = deploy(&base_docs(), 0);
    // Two fresh documents the ambiguous query retrieves: k = 14 pulls
    // all 12 sealed candidates plus both delta documents.
    let cider: Vec<Document> = (12..14u32)
        .map(|i| {
            Document::new(
                i,
                format!("http://cider/{i}"),
                "apple cider",
                "apple cider press orchard autumn",
            )
        })
        .collect();
    engine.ingest(cider.clone()).unwrap();
    let mut grown = base_docs();
    grown.extend(cider);
    let req = || QueryRequest::new("apple", 14, AlgorithmKind::OptSelect);
    let want = fresh_page(&grown, req());
    assert!(
        want.iter().any(|(doc, _)| *doc >= 12),
        "delta docs on the page"
    );

    // Only the sealed candidates are counted, stored and — after a
    // republish — found again; the delta vectors are rebuilt per request.
    assert_eq!(page_bits(&engine.search(req())), want);
    assert_eq!(surrogate_counters(&engine), (0, 12, 12));
    assert_eq!(page_bits(&engine.search(req())), want);
    assert_eq!(surrogate_counters(&engine), (12, 12, 12));
    engine.republish().unwrap();
    assert_eq!(page_bits(&engine.search(req())), want);
    assert_eq!(surrogate_counters(&engine), (24, 12, 12));

    // Once merged they are sealed documents like any other: all 14 are
    // computed into the merged generation's table (the 12-vector table
    // of the pre-merge stamp is still resident, unreachable).
    engine.merge_delta().unwrap();
    assert_eq!(page_bits(&engine.search(req())), want);
    assert_eq!(surrogate_counters(&engine), (24, 26, 26));
}

/// The surrogates the serving stages compute for every candidate of
/// `query` on the engine's current generation (detect → retrieve →
/// surrogate, the chain every request runs), in candidate order.
fn served_surrogates(engine: &SearchEngine, query: &str) -> Vec<(u32, Vec<(u32, u32)>)> {
    let generation = engine.generation();
    let request = QueryRequest::new(query, 13, AlgorithmKind::OptSelect);
    let mut ctx = PipelineContext::new(&request, Instant::now(), Budget::unlimited());
    for stage in default_stage_chain().iter().take(3) {
        stage.run(engine, &generation, &mut ctx);
    }
    ctx.candidates
        .iter()
        .zip(&ctx.vectors)
        .map(|(h, v)| (h.doc.0, vector_bits(v)))
        .collect()
}

/// The surrogate the serving stages compute for `doc` as a candidate of
/// `query` (see [`served_surrogates`]).
fn served_surrogate(engine: &SearchEngine, query: &str, doc: u32) -> Vec<(u32, u32)> {
    served_surrogates(engine, query)
        .into_iter()
        .find(|&(d, _)| d == doc)
        .expect("the document is a candidate")
        .1
}

fn vector_bits(v: &SparseVector) -> Vec<(u32, u32)> {
    v.entries()
        .iter()
        .map(|&(t, w)| (t.0, w.to_bits()))
        .collect()
}

#[test]
fn a_delta_document_is_scored_as_itself_before_the_merge() {
    // All 13 documents are candidates of every request below.
    let wide = |docs: &[Document]| {
        SearchEngine::deploy(
            build_index(docs),
            model(),
            EngineConfig {
                n_candidates: 13,
                ..config(0)
            },
        )
    };
    let engine = wide(&base_docs());
    // A fruit page with the sealed fruit pages' bag of words — DPH cannot
    // tell it from them — whose terms first occur in an order of their
    // own: numbered by a vocabulary of the delta's they would be
    // `TermId(0..=7)`, which the sealed vocabulary and the spec store
    // compiled against it read as the eight terms of a *phone* page.
    let body = "orchard juice vitamin harvest sweet fruit apple recipe fruit apple";
    let fresh = Document::new(12, "http://food/12", "", body);
    engine.ingest(vec![fresh.clone()]).unwrap();

    let sealed = engine.generation().index().clone();
    let mut own_terms = serpdiv::text::Analyzer::analyze(body);
    own_terms.sort();
    own_terms.dedup();
    let before = served_surrogate(&engine, "apple", 12);
    let mut named: Vec<&str> = before
        .iter()
        .map(|&(t, _)| {
            let id = serpdiv::text::TermId(t);
            sealed.vocab().term(id).expect("a sealed term id")
        })
        .collect();
    named.sort_unstable();
    assert_eq!(named, own_terms, "the surrogate names the page's own terms");

    // Which interpretation holds each rank of a `k < n` page: OptSelect
    // orders its picks by proportional apportionment over the
    // specializations, so a fruit page whose utility row says "phone" is
    // handed a phone rank. Before the merge the page must interleave
    // tech and food as a deployment built from scratch over all 13
    // documents does, the ingested page in a food place.
    let mut grown = base_docs();
    grown.push(fresh);
    let req = || QueryRequest::new("apple", 8, AlgorithmKind::OptSelect);
    let hosts = |out: &serpdiv::serve::SearchResponse| -> Vec<String> {
        let host = |url: &str| url.split('/').nth(2).unwrap_or_default().to_string();
        out.results.iter().map(|r| host(&r.url)).collect()
    };
    let scratch = wide(&grown).search(req());
    let live = engine.search(req());
    assert!(live.results.iter().any(|r| r.doc.0 == 12), "on the page");
    assert_eq!(hosts(&live), hosts(&scratch));

    // The merge changes no entry of the vector, and the merged generation
    // serves the from-scratch page bit for bit.
    engine.merge_delta().unwrap();
    assert_eq!(served_surrogate(&engine, "apple", 12), before);
    assert_eq!(page_bits(&engine.search(req())), page_bits(&scratch));
}

#[test]
fn a_query_term_first_seen_in_the_delta_reaches_only_delta_surrogates() {
    // "kiwi" is no sealed term; the model knows the query that names it.
    let model = Arc::new(
        from_json(
            r#"{"entries":{"apple kiwi":{"query":"apple kiwi","specializations":[["apple iphone",0.6],["apple fruit",0.4]]},"apple":{"query":"apple","specializations":[["apple iphone",0.6],["apple fruit",0.4]]}}}"#,
        )
        .unwrap(),
    );
    // All 13 documents are candidates of every request below.
    let wide = |docs: &[Document]| {
        SearchEngine::deploy(
            build_index(docs),
            model.clone(),
            EngineConfig {
                n_candidates: 13,
                ..config(0)
            },
        )
    };
    let engine = wide(&base_docs());
    // Longer than the snippet window, with "kiwi" at one end and "apple"
    // at the other: which window the snippet takes depends on whether the
    // query's kiwi id reaches it.
    let filler = "fruit orchard juice vitamin harvest sweet recipe";
    let body = format!("kiwi kiwi kiwi {} apple", [filler; 5].join(" "));
    let fresh = Document::new(12, "http://food/12", "", body);
    engine.ingest(vec![fresh.clone()]).unwrap();

    let query = "apple kiwi";
    let generation = engine.generation();
    let (index, delta) = (generation.index(), generation.delta().unwrap());
    let sealed_terms = index.analyze_query(query);
    let delta_terms = delta.analyze_query(query);
    assert_eq!(sealed_terms.len(), 1, "the sealed vocabulary lacks kiwi");
    assert_eq!(delta_terms.len(), 2, "the delta's vocabulary has it");

    // Sealed candidates read the sealed analysis, the delta candidate the
    // delta's, each bit for bit: the text oracle over the sealed index,
    // and over the index the merge will seal.
    let snippets = SnippetGenerator::with_window(config(0).params.snippet_window);
    let merged = merge_sealed(index, delta);
    let served = served_surrogates(&engine, query);
    assert_eq!(served.len(), 13);
    for (doc, bits) in &served {
        let expect = if *doc < 12 {
            candidate_surrogate_naive(index, DocId(*doc), &sealed_terms, &snippets)
        } else {
            candidate_surrogate_naive(&merged, DocId(*doc), &delta_terms, &snippets)
        };
        assert_eq!(bits, &vector_bits(&expect), "doc {doc}");
    }
    // The table the request published is keyed by the sealed analysis,
    // which "apple" shares: its sealed candidates, ranked alike (kiwi
    // scores none of them), are all found there.
    let (hits, misses, _) = surrogate_counters(&engine);
    served_surrogates(&engine, "apple");
    assert_eq!(surrogate_counters(&engine).0 - hits, 12, "every sealed one");
    assert_eq!(surrogate_counters(&engine).1, misses, "no sealed miss");

    // The page is the one a deployment built from scratch over all 13
    // documents serves, bit for bit, before the merge and after it.
    let mut grown = base_docs();
    grown.push(fresh);
    let req = || QueryRequest::new(query, 8, AlgorithmKind::OptSelect);
    let scratch = wide(&grown).search(req());
    let live = engine.search(req());
    assert!(live.diversified && scratch.diversified);
    assert!(live.results.iter().any(|r| r.doc.0 == 12), "on the page");
    assert_eq!(page_bits(&live), page_bits(&scratch));
    engine.merge_delta().unwrap();
    assert_eq!(page_bits(&engine.search(req())), page_bits(&scratch));
}

#[test]
fn merge_delta_recomputes_baseline_pages_to_the_same_bits() {
    let engine = deploy(&base_docs(), 256);
    engine.ingest(storm_docs(12..16)).unwrap();
    let req = || QueryRequest::new("storm", 4, AlgorithmKind::Baseline);
    let live = engine.search(req());
    assert!(!live.cache_hit);
    assert_eq!(live.results.len(), 4);

    // A merged generation draws a fresh page stamp, so the first request
    // per key recomputes — and the union-statistics contract makes that
    // recompute bit-equal to the pre-merge page: sealing the delta
    // changes no byte a client sees.
    engine.merge_delta().unwrap();
    let sealed = engine.search(req());
    assert!(!sealed.cache_hit, "a merged index is a new page stamp");
    assert_eq!(sealed.generation, engine.current_generation_id());
    assert_eq!(page_bits(&live), page_bits(&sealed));
    assert_eq!(live.results, sealed.results);
    assert!(engine.search(req()).cache_hit);
}

#[test]
fn twenty_idle_republishes_keep_pages_and_tables_reachable() {
    let engine = deploy(&base_docs(), 256);
    let req = |k| QueryRequest::new("apple", k, AlgorithmKind::OptSelect);
    let first = engine.search(req(4));
    assert!(!first.cache_hit);
    let tables = surrogate_counters(&engine);
    assert_eq!(tables, (0, 12, 12));

    // No request between the swaps: nothing gets a chance to re-anchor
    // an entry at an intermediate generation.
    for _ in 0..20 {
        engine.republish().unwrap();
    }
    let repeat = engine.search(req(4));
    assert_eq!(repeat.generation, 21);
    assert!(
        repeat.cache_hit,
        "the page outlives any number of idle swaps"
    );
    assert_eq!(first.results, repeat.results);
    // Another page size misses the result cache but finds the query's
    // surrogate table: no vector is recomputed.
    let deeper = engine.search(req(5));
    assert!(!deeper.cache_hit);
    assert_eq!(surrogate_counters(&engine), (12, 12, 12));
}

#[test]
fn result_cache_hit_rate_is_the_share_of_responses_served_from_it() {
    let engine = deploy(&base_docs(), 256);
    let requests = [
        QueryRequest::new("apple", 4, AlgorithmKind::OptSelect),
        QueryRequest::new("apple", 6, AlgorithmKind::Mmr),
        QueryRequest::new("apple fruit", 3, AlgorithmKind::Baseline),
    ];
    let (mut served, mut from_cache) = (0u64, 0u64);
    for round in 0..6 {
        for req in &requests {
            served += 1;
            from_cache += u64::from(engine.search(req.clone()).cache_hit);
        }
        if round % 2 == 0 {
            engine.republish().unwrap();
        }
    }
    assert_eq!(
        (served, from_cache),
        (18, 15),
        "only the first round computes"
    );
    let stats = engine.cache().unwrap().stats();
    assert_eq!(
        (stats.hits, stats.misses),
        (from_cache, served - from_cache)
    );
    assert_eq!(stats.hit_rate(), from_cache as f64 / served as f64);
}

#[test]
fn an_orphaned_table_is_evicted_before_a_live_one() {
    // A 30-vector budget holds two 12-vector tables, not three.
    let model = Arc::new(
        from_json(
            r#"{"entries":{
                "apple":{"query":"apple","specializations":[["apple iphone",0.6],["apple fruit",0.4]]},
                "apple fruit":{"query":"apple fruit","specializations":[["apple iphone",0.6],["apple fruit",0.4]]}}}"#,
        )
        .unwrap(),
    );
    let engine = SearchEngine::deploy(
        build_index(&base_docs()),
        model,
        EngineConfig {
            surrogate_cache_capacity: 30,
            ..config(0)
        },
    );
    let apple = || QueryRequest::new("apple", 4, AlgorithmKind::OptSelect);
    let fruit = || QueryRequest::new("apple fruit", 4, AlgorithmKind::OptSelect);
    assert!(engine.search(apple()).diversified);
    assert_eq!(surrogate_counters(&engine), (0, 12, 12));

    // A corpus-changing publish orphans the table: it is never probed
    // again, but nothing removes it eagerly either — it holds budget
    // until something needs the room.
    let mut docs = base_docs();
    docs[3].body = "camera display battery chip review smartphone iphone apple".into();
    engine
        .publish_artifacts(&artifacts_for(&engine, &docs, 2))
        .unwrap();
    engine.search(apple());
    assert_eq!(surrogate_counters(&engine), (0, 24, 24), "orphan + live");

    // A second live table needs that room: the orphan — least recently
    // used by construction — is the one that goes.
    assert!(engine.search(fruit()).diversified);
    assert_eq!(surrogate_counters(&engine), (0, 36, 24));
    engine.search(apple());
    engine.search(fruit());
    assert_eq!(
        surrogate_counters(&engine),
        (24, 36, 24),
        "both live tables survived the eviction"
    );
}

#[test]
fn ingest_refuses_ids_that_do_not_continue_the_id_space() {
    let engine = deploy(&base_docs(), 0);
    let mut reversed = storm_docs(12..14);
    reversed.reverse();
    let cases = [
        ("gap after the sealed base", storm_docs(13..15)),
        ("overlap with the sealed base", storm_docs(11..13)),
        ("out of order", reversed),
    ];
    for (what, docs) in cases {
        match engine.ingest(docs) {
            Err(PublishError::Inconsistent(_)) => {}
            other => panic!("{what}: expected an inconsistency rejection, got {other:?}"),
        }
        assert_eq!(engine.current_generation_id(), 1, "{what}: swapped anyway");
    }
    let m = engine.metrics();
    assert_eq!((m.swaps, m.swap_rejected), (0, 3));

    // Over a delta, ids continue after the delta's documents.
    engine.ingest(storm_docs(12..14)).unwrap();
    assert!(matches!(
        engine.ingest(storm_docs(12..14)),
        Err(PublishError::Inconsistent(_))
    ));
    engine.ingest(storm_docs(14..16)).unwrap();
    assert_eq!(engine.generation().delta().unwrap().len(), 4);
    let m = engine.metrics();
    assert_eq!((m.swaps, m.swap_rejected), (2, 4));
}

#[test]
fn ingest_accumulates_and_merge_matches_a_from_scratch_build() {
    let engine = deploy(&base_docs(), 0);
    engine.ingest(storm_docs(12..14)).unwrap();
    engine.ingest(storm_docs(14..16)).unwrap();
    assert_eq!(engine.current_generation_id(), 3);
    let gen = engine.generation();
    assert_eq!(gen.delta().unwrap().len(), 4, "deltas accumulate");

    let live = engine.search(QueryRequest::new("storm", 4, AlgorithmKind::Baseline));
    assert_eq!(live.results.len(), 4, "delta docs searchable pre-merge");
    assert!(live
        .results
        .iter()
        .all(|r| r.url.starts_with("http://storm/")));

    engine.merge_delta().unwrap();
    assert!(engine.generation().delta().is_none());
    let mut full = base_docs();
    full.extend(storm_docs(12..16));
    assert_eq!(
        engine.generation().index().to_bytes(),
        build_index(&full).to_bytes(),
        "merged index must be bit-identical to a from-scratch build"
    );
    // And the served page equals a fresh deployment's.
    let oracle = deploy(&full, 0);
    let merged = engine.search(QueryRequest::new("storm", 4, AlgorithmKind::Baseline));
    let want = oracle.search(QueryRequest::new("storm", 4, AlgorithmKind::Baseline));
    assert_eq!(merged.results, want.results);
}
