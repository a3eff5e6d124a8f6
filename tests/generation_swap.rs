//! Generation hot-swap integration: the epoch-publish machinery driven
//! end-to-end through the public engine API.
//!
//! Covered here (the adversarial swap-under-load race lives in
//! `tests/swap_soak.rs`):
//!
//! * a shipped artifact bundle (`InvertedIndex` + `ForwardIndex` +
//!   `CompiledSpecStore` images) decodes, validates, publishes, and
//!   serves the *new* corpus — while the pre-swap page stays bit-exact
//!   for the old generation's oracle;
//! * corrupt or truncated artifacts are **rejected with a counted
//!   `swap_rejected`** and the old generation keeps serving untouched;
//! * a stale (non-advancing) generation id is refused;
//! * the result cache is generation-tagged with provable carry-over: a
//!   swap whose artifacts leave a page byte-for-byte unchanged keeps it
//!   warm under the new generation, while any swap that could change a
//!   byte of it drops the entry and recomputes;
//! * the surrogate cache's per-query tables carry by the same proofs,
//!   one probe per request: whole (re-tagged) when the sealed artifacts
//!   are shared, per document when only the idf tables are bit-equal,
//!   not at all when the statistics moved;
//! * NRT ingest accumulates across generations and `merge_delta` seals
//!   the delta into an index **bit-identical** to a from-scratch build;
//! * the [`BackgroundMerger`] seals a growing delta on its own.

use serpdiv::core::AlgorithmKind;
use serpdiv::index::{Document, ForwardIndex, IndexBuilder, InvertedIndex};
use serpdiv::mining::SpecializationModel;
use serpdiv::serve::{EngineConfig, GenerationArtifacts, PublishError, QueryRequest, SearchEngine};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
        SpecializationModel::from_json(
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
/// index + forward images plus the serving engine's compiled spec store
/// (the model carries over on publish).
fn artifacts_for(engine: &SearchEngine, docs: &[Document], id: u64) -> GenerationArtifacts {
    let index = build_index(docs);
    GenerationArtifacts {
        id,
        index: index.to_bytes(),
        forward: Some(ForwardIndex::build(&index).to_bytes()),
        compiled: engine.compiled().to_bytes(),
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

/// Offsets of the vocabulary count and the postings count in an
/// `InvertedIndex` image: past the 24-byte header and the doc-length
/// table, and past the vocabulary strings after that.
fn term_and_postings_count_offsets(image: &[u8]) -> (usize, usize) {
    let u32_at = |at: usize| u32::from_le_bytes(image[at..at + 4].try_into().unwrap()) as usize;
    let n_terms_at = 24 + 4 + 4 * u32_at(24);
    let mut at = n_terms_at + 4;
    for _ in 0..u32_at(n_terms_at) {
        at += 4 + u32_at(at);
    }
    (n_terms_at, at)
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
    // Mid-buffer corruption in the forward image.
    let mut flipped = good.clone();
    let mid = flipped.forward.as_ref().unwrap().len() / 2;
    flipped.forward.as_mut().unwrap()[mid] ^= 0xA5;
    // Counts the bytes present cannot back: a 12-byte store image
    // declaring u32::MAX specializations, and an index image declaring
    // u32::MAX postings lists. A decoder that sizes an allocation from
    // either aborts the process instead of rejecting the bundle.
    let mut huge_store = good.clone();
    huge_store.compiled.truncate(8);
    huge_store
        .compiled
        .extend_from_slice(&u32::MAX.to_le_bytes());
    let (n_terms_at, n_postings_at) = term_and_postings_count_offsets(&good.index);
    let mut huge_postings = good.clone();
    huge_postings.index[n_postings_at..n_postings_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    // The first term claims one more posting than its payload encodes: a
    // trusting walk runs off the end of the payload.
    let mut overlong_list = good.clone();
    overlong_list.index[n_postings_at + 4] += 1;
    // One more vocabulary term than postings lists: its term id would
    // index past the postings table.
    let mut extra_term = good.clone();
    extra_term.index[n_terms_at] += 1;
    extra_term.index.splice(
        n_postings_at..n_postings_at,
        2u32.to_le_bytes().into_iter().chain(*b"zq"),
    );

    let cases = [
        ("bad magic", &bad_magic),
        ("truncated", &truncated),
        ("flipped byte", &flipped),
        ("store count beyond the image", &huge_store),
        ("postings count beyond the image", &huge_postings),
        ("doc_freq beyond the payload", &overlong_list),
        ("vocabulary count differs from postings count", &extra_term),
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
fn carry_over_keeps_identical_pages_and_drops_changed_ones() {
    let engine = deploy(&base_docs(), 256);
    let req = || QueryRequest::new("apple", 4, AlgorithmKind::OptSelect);
    let first = engine.search(req());
    assert!(!first.cache_hit);
    let second = engine.search(req());
    assert!(second.cache_hit, "same generation: the page is cached");
    assert_eq!(first.results, second.results);

    // Swap to an identical successor: the publish proves every byte of
    // the page unchanged, and the repeat's miss under the new tag
    // promotes the entry instead of recomputing — a warm hit under the
    // new generation, no swap cold-start.
    engine.republish().unwrap();
    let third = engine.search(req());
    assert!(third.cache_hit, "an identical swap must carry the page");
    assert_eq!(third.generation, 2);
    assert_eq!(first.results, third.results);
    assert!(engine.metrics().carried_over > 0);

    // Swap to a *different* corpus: carry validation fails (the corpus
    // — hence retrieval — changed), the entry drops, and the recompute
    // serves the new world. A carried page never hides a corpus change.
    let mut grown = base_docs();
    grown.extend(storm_docs(12..20));
    engine
        .publish_artifacts(&artifacts_for(&engine, &grown, 3))
        .unwrap();
    let apple = engine.search(req());
    assert!(!apple.cache_hit, "the pre-swap page was refused");
    assert_eq!(apple.generation, 3);
    assert!(
        engine.metrics().carry_skipped > 0,
        "changed corpus: cached pages must not carry"
    );
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

    // An ingest changes the union statistics, so every cached page is
    // invalid (DPH scores move with df / num_docs / avg_doc_len) and
    // must recompute — but the sealed index and forward store are the
    // very same arcs, so the per-document snippet surrogates carry and
    // the recompute only pays retrieval + selection, not vectorization.
    engine.ingest(storm_docs(12..14)).unwrap();
    let after = engine.search(req());
    assert!(!after.cache_hit, "union stats changed: the page recomputes");
    assert_eq!(after.generation, 2);
    let m = engine.metrics();
    assert!(m.carried_over > 0, "surrogates carry across an ingest");
    assert!(m.carry_skipped > 0, "the cached page must not");
}

/// `(surrogate hits, surrogate misses, vectors resident, carried_over,
/// carry_skipped)` — everything the table carry-over moves.
fn surrogate_counters(engine: &SearchEngine) -> (u64, u64, usize, u64, u64) {
    let stats = engine.surrogate_cache().unwrap().stats();
    let m = engine.metrics();
    (
        stats.hits,
        stats.misses,
        stats.entries,
        m.carried_over,
        m.carry_skipped,
    )
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
    assert_eq!(surrogate_counters(&engine), (0, 12, 12, 0, 0));

    // Republish: the table moves to the new tag — 12 vectors carried by
    // one probe, none recomputed, none counted twice against capacity.
    engine.republish().unwrap();
    assert_eq!(engine.search(req()).results, first.results);
    assert_eq!(surrogate_counters(&engine), (12, 12, 12, 12, 0));
    assert_eq!(engine.search(req()).generation, 2);
    assert_eq!(surrogate_counters(&engine), (24, 12, 12, 12, 0));

    // Two swaps with no request between them: the table is still one
    // probe away, two hops up the chain.
    engine.republish().unwrap();
    engine.republish().unwrap();
    assert_eq!(engine.search(req()).results, first.results);
    assert_eq!(surrogate_counters(&engine), (36, 12, 12, 24, 0));

    // NRT ingest shares the sealed index and forward store, so the table
    // carries whole again; the page itself moves with the union
    // statistics and must match a from-scratch build.
    engine.ingest(storm_docs(12..14)).unwrap();
    let mut grown = base_docs();
    grown.extend(storm_docs(12..14));
    assert_eq!(page_bits(&engine.search(req())), fresh_page(&grown, req()));
    assert_eq!(surrogate_counters(&engine), (48, 12, 12, 36, 0));
}

#[test]
fn bit_equal_statistics_promote_the_table_per_document() {
    let engine = deploy(&base_docs(), 0);
    let req = || QueryRequest::new("apple", 4, AlgorithmKind::OptSelect);
    engine.search(req());
    assert_eq!(surrogate_counters(&engine), (0, 12, 12, 0, 0));

    // A decoded bundle shares no `Arc` with the serving generation, but
    // this one has the same statistics (hence a bit-equal idf table) and
    // differs in one document only: the same words in another order.
    let mut docs = base_docs();
    docs[3].body = "camera display battery chip review smartphone iphone apple".into();
    engine
        .publish_artifacts(&artifacts_for(&engine, &docs, 2))
        .unwrap();
    assert_eq!(page_bits(&engine.search(req())), fresh_page(&docs, req()));
    // 11 vectors proven byte-identical and promoted, the rewritten
    // document refused, recomputed, and filed in the extended table.
    assert_eq!(surrogate_counters(&engine), (11, 13, 12, 11, 1));
    engine.search(req());
    assert_eq!(surrogate_counters(&engine), (23, 13, 12, 11, 1));
}

#[test]
fn moved_statistics_carry_no_surrogates() {
    let engine = deploy(&base_docs(), 0);
    let req = || QueryRequest::new("apple", 4, AlgorithmKind::OptSelect);
    engine.ingest(storm_docs(12..14)).unwrap();
    engine.search(req());
    assert_eq!(surrogate_counters(&engine), (0, 12, 12, 0, 0));

    // Sealing the delta grows the sealed collection, which moves every
    // idf weight: the whole table is refused (and dropped) on its one
    // probe, and the page is recomputed against the merged index.
    engine.merge_delta().unwrap();
    let mut grown = base_docs();
    grown.extend(storm_docs(12..14));
    assert_eq!(page_bits(&engine.search(req())), fresh_page(&grown, req()));
    assert_eq!(surrogate_counters(&engine), (0, 24, 12, 0, 12));

    // Likewise a shipped bundle over a different corpus.
    grown.extend(storm_docs(14..20));
    engine
        .publish_artifacts(&artifacts_for(&engine, &grown, 4))
        .unwrap();
    assert_eq!(page_bits(&engine.search(req())), fresh_page(&grown, req()));
    assert_eq!(surrogate_counters(&engine), (0, 36, 12, 0, 24));
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
    // republish — carried; the delta vectors are rebuilt per request.
    assert_eq!(page_bits(&engine.search(req())), want);
    assert_eq!(surrogate_counters(&engine), (0, 12, 12, 0, 0));
    assert_eq!(page_bits(&engine.search(req())), want);
    assert_eq!(surrogate_counters(&engine), (12, 12, 12, 0, 0));
    engine.republish().unwrap();
    assert_eq!(page_bits(&engine.search(req())), want);
    assert_eq!(surrogate_counters(&engine), (24, 12, 12, 12, 0));

    // Once merged they are sealed documents like any other.
    engine.merge_delta().unwrap();
    assert_eq!(page_bits(&engine.search(req())), want);
    assert_eq!(surrogate_counters(&engine), (24, 26, 14, 12, 12));
}

#[test]
fn merge_delta_carries_baseline_pages_via_the_union_contract() {
    let engine = deploy(&base_docs(), 256);
    engine.ingest(storm_docs(12..16)).unwrap();
    let req = || QueryRequest::new("storm", 4, AlgorithmKind::Baseline);
    let live = engine.search(req());
    assert!(!live.cache_hit);
    assert_eq!(live.results.len(), 4);

    // The union-statistics contract makes the pre-merge page bit-equal
    // to the post-merge one; the merge publish re-proves that per entry
    // and carries it, so sealing the delta does not cold-start traffic
    // whose pages did not change.
    engine.merge_delta().unwrap();
    let sealed = engine.search(req());
    assert!(sealed.cache_hit, "merge must carry the bit-identical page");
    assert_eq!(sealed.generation, engine.current_generation_id());
    assert_eq!(live.results, sealed.results);
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
        engine.index().to_bytes(),
        build_index(&full).to_bytes(),
        "merged index must be bit-identical to a from-scratch build"
    );
    // And the served page equals a fresh deployment's.
    let oracle = deploy(&full, 0);
    let merged = engine.search(QueryRequest::new("storm", 4, AlgorithmKind::Baseline));
    let want = oracle.search(QueryRequest::new("storm", 4, AlgorithmKind::Baseline));
    assert_eq!(merged.results, want.results);
}

#[test]
fn background_merger_seals_a_growing_delta() {
    let engine = deploy(&base_docs(), 0);
    let merger = engine.spawn_merger(3, Duration::from_millis(5));

    // Below threshold: the delta stays live.
    engine.ingest(storm_docs(12..14)).unwrap();
    std::thread::sleep(Duration::from_millis(40));
    assert!(
        engine.generation().delta().is_some(),
        "2 docs < threshold 3: no merge yet"
    );

    // Crossing the threshold: the merger seals it.
    engine.ingest(storm_docs(14..16)).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while engine.generation().delta().is_some() {
        assert!(Instant::now() < deadline, "merger never sealed the delta");
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(merger); // stops and joins

    let mut full = base_docs();
    full.extend(storm_docs(12..16));
    assert_eq!(engine.index().to_bytes(), build_index(&full).to_bytes());
    let out = engine.search(QueryRequest::new("storm", 4, AlgorithmKind::Baseline));
    assert_eq!(out.results.len(), 4);
    assert!(engine.metrics().swaps >= 3, "two ingests + one merge");
}
