//! Swap soak: the torn-request proof. 16 client threads hammer one
//! engine while a deployer thread repeatedly hot-swaps the whole serving
//! generation — index (forward rows included), compiled spec store — pacing its
//! publishes so that every swap lands among many in-flight requests.
//!
//! The invariant: **every response is internally consistent with exactly
//! one generation.** Each response carries the generation id its request
//! pinned; its page must be bit-identical to the page a single-threaded
//! oracle engine serves for that same generation. A request that read
//! the old index but the new spec store (or any other mix of epochs)
//! produces a page matching *no* generation's oracle and fails loudly.
//!
//! The oracle map is built by replaying the exact publish sequence on a
//! shadow engine, single-threaded, **before** the storm starts — same
//! artifacts, same decode path, same config.
//!
//! Also proven mid-soak: a corrupt artifact bundle is rejected with a
//! counted `swap_rejected` while the serving generation is untouched;
//! after the storm the metrics leaf classes partition the request total
//! (zero dropped requests) and the swap counters equal the deploy
//! schedule exactly.
//!
//! Two cache invariants ride on the same oracle discipline. Cache keys
//! name what an entry was computed from (the generation's content
//! stamps), not when — and every response, cache hits included, must
//! match its claimed generation's oracle, so an entry reachable under a
//! stamp whose artifacts moved would serve a stale generation's bytes
//! and fail `check` loudly. And what the caches report must agree with
//! which stamps the swaps kept: NRT ingest shares the sealed artifacts,
//! so surrogate tables are found again after every ingest, while result
//! pages (whose union statistics moved) recompute once per ingest. The
//! ingest oracle additionally pins the union-statistics contract: every
//! page holding *unmerged delta documents* is bit-identical to a
//! from-scratch sealed build over the union corpus.
//!
//! A third soak holds the surrogate cache to its vector budget while
//! tables stay reachable across 50 republishes under load: a table found
//! again under an inherited stamp is never counted (or kept) twice.
//!
//! Each test owns its engines, so the tests run in parallel.

use serpdiv::core::AlgorithmKind;
use serpdiv::index::{Document, IndexBuilder, InvertedIndex};
use serpdiv::mining::{from_json, SpecializationModel};
use serpdiv::serve::{
    EngineConfig, GenerationArtifacts, PublishError, QueryRequest, SearchEngine, SearchResponse,
};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

const CLIENTS: usize = 16;
const MIN_ROUNDS: usize = 8;
/// Generations 1 (deploy) through GENERATIONS (last publish).
const GENERATIONS: u64 = 6;

/// Fail loudly instead of hanging CI forever if anything deadlocks.
fn with_watchdog(secs: u64, what: &str, f: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    let body = std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(()) => body.join().expect("soak body panicked"),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            if let Err(payload) = body.join() {
                std::panic::resume_unwind(payload);
            }
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("{what}: not finished within {secs}s — hang under swaps?")
        }
    }
}

fn base_docs() -> Vec<Document> {
    let mut docs = Vec::new();
    for i in 0..8u32 {
        docs.push(Document::new(
            i,
            format!("http://tech/{i}"),
            "apple iphone",
            "apple iphone smartphone review chip battery display camera",
        ));
    }
    for i in 8..16u32 {
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

/// Generation `g`'s corpus: the base plus `2·(g−1)` storm documents, so
/// every successor changes both the "storm" page and (through the
/// collection statistics) the "apple" scores — a torn page cannot hide.
fn corpus_for(g: u64) -> Vec<Document> {
    let mut docs = base_docs();
    docs.extend(storm_docs(16..16 + 2 * (g as u32 - 1)));
    docs
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
        n_candidates: 16,
        cache_capacity,
        ..EngineConfig::default()
    }
}

fn bundle_for(engine: &SearchEngine, g: u64) -> GenerationArtifacts {
    GenerationArtifacts {
        id: g,
        index: build_index(&corpus_for(g)).to_bytes(),
        compiled: engine.generation().compiled().to_bytes(),
    }
}

/// The client request mix: the ambiguous query through all four
/// diversifiers at two page sizes, plus the generation-sensitive storm
/// query on the baseline path.
fn schedule() -> Vec<QueryRequest> {
    let mut reqs = Vec::new();
    for algo in [
        AlgorithmKind::OptSelect,
        AlgorithmKind::IaSelect,
        AlgorithmKind::XQuad,
        AlgorithmKind::Mmr,
    ] {
        reqs.push(QueryRequest::new("apple", 6, algo));
        reqs.push(QueryRequest::new("apple", 10, algo));
    }
    reqs.push(QueryRequest::new("storm", 6, AlgorithmKind::Baseline));
    reqs.push(QueryRequest::new(
        "weather storm",
        8,
        AlgorithmKind::OptSelect,
    ));
    reqs
}

type PageKey = (String, usize, AlgorithmKind);
type Oracle = HashMap<u64, HashMap<PageKey, Vec<(u32, u64)>>>;

fn page_bits(out: &SearchResponse) -> Vec<(u32, u64)> {
    out.results
        .iter()
        .map(|r| (r.doc.0, r.score.to_bits()))
        .collect()
}

/// Replay the publish sequence on a single-threaded shadow engine and
/// record every scheduled request's page per generation.
fn build_oracle(bundles: &[GenerationArtifacts]) -> Oracle {
    let shadow = SearchEngine::deploy(build_index(&corpus_for(1)), model(), config(0));
    let mut oracle = Oracle::new();
    let record = |engine: &SearchEngine, oracle: &mut Oracle, g: u64| {
        let mut pages = HashMap::new();
        for req in schedule() {
            let key = (req.query.clone(), req.k, req.algorithm);
            let out = engine.search(req);
            assert_eq!(out.generation, g, "shadow engine pinned the wrong epoch");
            assert!(!out.degraded, "oracle pages must be degradation-free");
            pages.insert(key, page_bits(&out));
        }
        oracle.insert(g, pages);
    };
    record(&shadow, &mut oracle, 1);
    for bundle in bundles {
        shadow.publish_artifacts(bundle).expect("shadow publish");
        record(&shadow, &mut oracle, bundle.id);
    }
    oracle
}

/// The soak core: validate one response against the oracle of the
/// generation it claims. Returns the generation id.
fn check(req: &QueryRequest, out: &SearchResponse, oracle: &Oracle) -> u64 {
    assert_eq!(out.query, req.query, "misattributed response");
    assert!(!out.degraded, "no pool, no deadline: nothing may degrade");
    let pages = oracle.get(&out.generation).unwrap_or_else(|| {
        panic!(
            "response claims unknown generation {} (published: 1..={GENERATIONS})",
            out.generation
        )
    });
    let key = (req.query.clone(), req.k, req.algorithm);
    assert_eq!(
        &page_bits(out),
        &pages[&key],
        "torn request: {}@k={} (algo {:?}) drifted from generation {}'s oracle",
        req.query,
        req.k,
        req.algorithm,
        out.generation,
    );
    out.generation
}

#[test]
fn sixteen_clients_race_repeated_swaps_without_a_single_torn_page() {
    with_watchdog(300, "swap-under-load soak", || {
        let engine = Arc::new(SearchEngine::deploy(
            build_index(&corpus_for(1)),
            model(),
            config(512),
        ));
        let bundles: Vec<GenerationArtifacts> =
            (2..=GENERATIONS).map(|g| bundle_for(&engine, g)).collect();
        // A poisoned bundle the deployer ships mid-soak: valid id, dead
        // payload. It must bounce without touching the serving epoch.
        let mut poisoned = bundle_for(&engine, 4);
        poisoned.index[0] ^= 0xFF;

        let oracle = Arc::new(build_oracle(&bundles));
        let stop = Arc::new(AtomicBool::new(false));
        let observed = Mutex::new(HashSet::new());
        let served = Mutex::new(0u64);

        std::thread::scope(|scope| {
            // The deployer: one corrupt publish wedged between good ones,
            // and 15 ms of traffic before every publish, so dozens of
            // requests overlap each swap.
            {
                let engine = engine.clone();
                let stop = stop.clone();
                scope.spawn(move || {
                    for bundle in &bundles {
                        if bundle.id == 4 {
                            match engine.publish_artifacts(&poisoned) {
                                Err(PublishError::Decode(_)) => {}
                                other => panic!("poisoned bundle accepted: {other:?}"),
                            }
                        }
                        std::thread::sleep(Duration::from_millis(15));
                        engine.publish_artifacts(bundle).expect("good publish");
                    }
                    stop.store(true, Ordering::Relaxed);
                });
            }
            for _ in 0..CLIENTS {
                let engine = engine.clone();
                let stop = stop.clone();
                let oracle = oracle.clone();
                let observed = &observed;
                let served = &served;
                scope.spawn(move || {
                    let mut local_gens = HashSet::new();
                    let mut count = 0u64;
                    let mut rounds = 0usize;
                    while rounds < MIN_ROUNDS || !stop.load(Ordering::Relaxed) {
                        for req in schedule() {
                            let out = engine.search(req.clone());
                            local_gens.insert(check(&req, &out, &oracle));
                            count += 1;
                        }
                        rounds += 1;
                    }
                    observed.lock().unwrap().extend(local_gens);
                    *served.lock().unwrap() += count;
                });
            }
        });

        // The storm saw the swaps happen: more than one epoch served, and
        // the engine ended on the last one.
        let observed = observed.into_inner().unwrap();
        assert!(
            observed.len() >= 2,
            "the soak never straddled a swap: {observed:?}"
        );
        assert!(observed.iter().all(|g| (1..=GENERATIONS).contains(g)));
        assert_eq!(engine.current_generation_id(), GENERATIONS);
        let last = engine.search(QueryRequest::new("storm", 6, AlgorithmKind::Baseline));
        assert_eq!(last.generation, GENERATIONS);

        // Zero dropped requests: every search answered and accounted for.
        let served = *served.lock().unwrap();
        let m = engine.metrics();
        assert!(served >= (CLIENTS * MIN_ROUNDS * schedule().len()) as u64);
        assert!(m.requests >= served, "metrics lost requests");
        assert_eq!(
            m.requests,
            m.cache_hits + m.diversified + m.passthrough + m.shed + m.internal_errors,
            "leaf classes must partition the request total: {m:?}"
        );
        // The deploy schedule, exactly: 5 good swaps, 1 poisoned reject.
        assert_eq!((m.swaps, m.swap_rejected), (GENERATIONS - 1, 1));
        assert_eq!(m.generation, GENERATIONS);
        // Cache staleness: every generation grows the corpus, which moves
        // every page's collection statistics and every surrogate's idf
        // table — each decoded bundle draws fresh content stamps, so no
        // cached byte stays reachable. (That nothing stale *was* served
        // is what `check` proved on every single response above; the
        // retired promotion counter can only read 0.)
        assert_eq!(
            m.carried_over, 0,
            "a corpus-changing swap must never carry a cache entry"
        );
    });
}

#[test]
fn nrt_ingest_races_clients_without_tearing() {
    with_watchdog(300, "ingest-under-load soak", || {
        // Replay the ingest sequence on a shadow engine first: each step
        // adds two storm documents to the live delta.
        let steps: Vec<Vec<Document>> = (0..4u32)
            .map(|s| storm_docs(16 + 2 * s..16 + 2 * s + 2))
            .collect();
        let shadow = SearchEngine::deploy(build_index(&base_docs()), model(), config(0));
        let mut oracle = Oracle::new();
        let record = |engine: &SearchEngine, oracle: &mut Oracle, g: u64| {
            let mut pages = HashMap::new();
            for req in schedule() {
                let key = (req.query.clone(), req.k, req.algorithm);
                let out = engine.search(req);
                assert_eq!(out.generation, g);
                pages.insert(key, page_bits(&out));
            }
            oracle.insert(g, pages);
        };
        record(&shadow, &mut oracle, 1);
        let sealed_docs = base_docs().len() as u32;
        let mut accumulated = base_docs();
        let mut delta_pages = 0usize;
        for (i, step) in steps.iter().enumerate() {
            shadow.ingest(step.clone()).expect("shadow ingest");
            record(&shadow, &mut oracle, i as u64 + 2);
            // The union-statistics contract, held *inside the oracle*:
            // at every ingest instant, each page containing unmerged
            // delta documents is f64-bit-identical to a from-scratch
            // sealed build over the union corpus — delta docs rank with
            // union statistics, not delta-local ones.
            accumulated.extend(step.iter().cloned());
            let scratch = SearchEngine::deploy(build_index(&accumulated), model(), config(0));
            for req in schedule() {
                let key = (req.query.clone(), req.k, req.algorithm);
                let live_page = &oracle[&(i as u64 + 2)][&key];
                if live_page.iter().any(|(doc, _)| *doc >= sealed_docs) {
                    delta_pages += 1;
                    assert_eq!(
                        live_page,
                        &page_bits(&scratch.search(req)),
                        "unmerged-delta page {key:?} drifted from the from-scratch union build"
                    );
                }
            }
        }
        assert!(
            delta_pages >= steps.len() * 2,
            "the schedule must exercise pages holding unmerged delta docs"
        );
        let oracle = Arc::new(oracle);
        let last_gen = steps.len() as u64 + 1;

        let engine = Arc::new(SearchEngine::deploy(
            build_index(&base_docs()),
            model(),
            config(512),
        ));
        // One single-threaded pass before the storm, so that what the
        // caches count afterwards is what the ingests cost, not how many
        // cold clients raced to compute the same entry.
        let one_pass = || {
            for req in schedule() {
                check(&req, &engine.search(req.clone()), &oracle);
            }
        };
        one_pass();
        let stop = Arc::new(AtomicBool::new(false));
        std::thread::scope(|scope| {
            {
                let engine = engine.clone();
                let stop = stop.clone();
                scope.spawn(move || {
                    for step in &steps {
                        std::thread::sleep(Duration::from_millis(8));
                        engine.ingest(step.clone()).expect("live ingest");
                    }
                    stop.store(true, Ordering::Relaxed);
                });
            }
            for _ in 0..8 {
                let engine = engine.clone();
                let stop = stop.clone();
                let oracle = oracle.clone();
                scope.spawn(move || {
                    let mut rounds = 0usize;
                    while rounds < MIN_ROUNDS || !stop.load(Ordering::Relaxed) {
                        for req in schedule() {
                            let out = engine.search(req.clone());
                            check(&req, &out, &oracle);
                        }
                        rounds += 1;
                    }
                });
            }
        });
        assert_eq!(engine.current_generation_id(), last_gen);
        assert_eq!(engine.generation().delta().unwrap().len(), 8);
        // Ingest publishes share the sealed index + forward store by Arc,
        // so every generation finds the surrogate table the first pass
        // filed — and `check` above proved every page those vectors fed
        // was still bit-exact for its generation. The one query with
        // sealed candidates ("apple", 16 of them) was computed exactly
        // once: four ingests under load cost no recompute.
        let tables = engine.surrogate_cache().unwrap().stats();
        assert_eq!(
            tables.misses, 16,
            "surrogate tables must stay reachable across NRT ingest publishes: {tables:?}"
        );
        assert!(tables.hits > 0, "{tables:?}");
        // Cached result pages must NOT stay reachable: every ingest moves
        // the union statistics under them. Ask for each page once more
        // under the last generation; first pass included, every page has
        // then been computed at least twice.
        one_pass();
        let pages = engine.cache().unwrap().stats();
        assert!(
            pages.misses >= 2 * schedule().len() as u64,
            "result pages must recompute after a union-stats change: {pages:?}"
        );
        // Sealing the accumulated delta yields the from-scratch index.
        engine.merge_delta().expect("merge");
        let mut full = base_docs();
        full.extend(storm_docs(16..24));
        assert_eq!(
            engine.generation().index().to_bytes(),
            build_index(&full).to_bytes()
        );
    });
}

#[test]
fn surrogate_tables_keep_their_budget_across_fifty_republishes() {
    with_watchdog(300, "republish-under-load soak", || {
        // Three ambiguous queries over the same 16 candidates: three
        // 16-vector tables competing for a 40-vector budget, so tables
        // are evicted, recomputed and re-tagged continuously.
        const CAPACITY: usize = 40;
        let queries = ["apple", "apple iphone", "apple fruit"];
        let specs = r#"[["apple iphone",0.6],["apple fruit",0.4]]"#;
        let entries: Vec<String> = queries
            .iter()
            .map(|q| format!(r#""{q}":{{"query":"{q}","specializations":{specs}}}"#))
            .collect();
        let model =
            Arc::new(from_json(&format!(r#"{{"entries":{{{}}}}}"#, entries.join(","))).unwrap());
        let deploy = |surrogate_cache_capacity| {
            SearchEngine::deploy(
                build_index(&base_docs()),
                model.clone(),
                EngineConfig {
                    surrogate_cache_capacity,
                    ..config(0)
                },
            )
        };
        // A republish changes no artifact, so one cache-less engine is
        // the oracle for every generation.
        let oracle = deploy(0);
        let engine = deploy(CAPACITY);
        let want: Vec<_> = queries
            .iter()
            .map(|q| page_bits(&oracle.search(QueryRequest::new(*q, 6, AlgorithmKind::OptSelect))))
            .collect();
        let budget_held = || {
            let entries = engine.surrogate_cache().unwrap().stats().entries;
            assert!(entries <= CAPACITY, "{entries} vectors over budget");
        };
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for _ in 0..50 {
                    std::thread::sleep(Duration::from_millis(1));
                    engine.republish().expect("republish");
                    budget_held();
                }
                stop.store(true, Ordering::Relaxed);
            });
            for client in 0..8 {
                let (engine, want, stop) = (&engine, &want, &stop);
                scope.spawn(move || {
                    let mut i = client;
                    while !stop.load(Ordering::Relaxed) {
                        let q = i % queries.len();
                        let out = engine.search(QueryRequest::new(
                            queries[q],
                            6,
                            AlgorithmKind::OptSelect,
                        ));
                        assert_eq!(page_bits(&out), want[q], "{} drifted", queries[q]);
                        budget_held();
                        i += 1;
                    }
                });
            }
        });
        budget_held();
        assert_eq!(engine.current_generation_id(), 51);
        // Three tables rotating through room for two is the LRU's worst
        // case, so most of the storm recomputes — but a resident table is
        // found under whichever of the 51 generations asks for it.
        let stats = || engine.surrogate_cache().unwrap().stats();
        assert!(stats().hits > 0, "no table was ever found: {:?}", stats());
        // And deterministically, now that the storm is over: a table
        // filed before a republish serves every candidate after it.
        let probe = || engine.search(QueryRequest::new(queries[0], 6, AlgorithmKind::OptSelect));
        assert_eq!(page_bits(&probe()), want[0]);
        let before = stats();
        engine.republish().expect("republish");
        assert_eq!(page_bits(&probe()), want[0]);
        let after = stats();
        assert_eq!(
            (after.hits, after.misses),
            (before.hits + 16, before.misses),
            "a republish must keep resident tables reachable"
        );
    });
}
