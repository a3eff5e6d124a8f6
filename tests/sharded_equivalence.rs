//! Scatter-gather correctness: `ShardedIndex` retrieval must be
//! **bit-identical** — same doc ids, same `f64` score bits, same order —
//! to the unsharded `SearchEngine` oracle, for every shard count.
//!
//! Three layers of evidence:
//! * a hand-built fixture with deliberate score ties straddling shard
//!   boundaries (the merge's tie-break is the part most likely to drift),
//! * a seeded randomized corpus/query sweep over shard counts {1, 2, 4, 7},
//! * an end-to-end check that a sharded serving engine returns the same
//!   pages as an unsharded one for every diversification algorithm.
//!
//! The same discipline covers the **unsharded** retriever: the shards and
//! `impl Retriever for InvertedIndex` score through one retrieval kernel
//! (dense thread-local accumulators, threshold-gated top-`k`), and the
//! hash-map `SearchEngine` is the oracle for both — plain, under a
//! `StatsOverlay`, and with eight threads sharing one index.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serpdiv::index::{
    CollectionStats, Document, IndexBuilder, InvertedIndex, Retriever, ScoredDoc, SearchEngine,
    ShardedIndex, StatsOverlay, TermStats,
};
use serpdiv::text::TermId;
use std::sync::Arc;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

fn assert_bit_identical(expect: &[ScoredDoc], got: &[ScoredDoc], context: &str) {
    assert_eq!(expect.len(), got.len(), "{context}: length");
    for (i, (e, g)) in expect.iter().zip(got).enumerate() {
        assert_eq!(e.doc, g.doc, "{context}: doc at rank {i}");
        assert_eq!(
            e.score.to_bits(),
            g.score.to_bits(),
            "{context}: score bits at rank {i} ({} vs {})",
            e.score,
            g.score
        );
    }
}

/// Fixture with exact duplicate documents (ties) placed so that every
/// shard count in the sweep splits at least one tie group across shards.
fn tie_heavy_index() -> Arc<InvertedIndex> {
    let texts = [
        "apple iphone smartphone chip battery",
        "apple fruit orchard sweet harvest",
        "apple pie cinnamon recipe baking",
        "storm wind rain forecast cloud",
    ];
    let mut b = IndexBuilder::new();
    // 28 docs: doc i and doc i+4 share the same text → identical length,
    // identical tf → identical DPH score for any query.
    for i in 0..28u32 {
        b.add(Document::new(
            i,
            format!("http://tie/{i}"),
            "",
            texts[i as usize % texts.len()],
        ));
    }
    Arc::new(b.build())
}

#[test]
fn tie_heavy_fixture_is_bit_identical_across_shard_counts() {
    let index = tie_heavy_index();
    let oracle = SearchEngine::new(&index);
    let queries = [
        "apple",
        "apple iphone",
        "apple pie recipe",
        "storm rain",
        "apple apple fruit", // duplicate query term (multiplicity weighting)
        "chip orchard cinnamon cloud",
    ];
    for &shards in &SHARD_COUNTS {
        let sharded = ShardedIndex::build(index.clone(), shards);
        assert_eq!(sharded.num_shards(), shards);
        for query in queries {
            for k in [1, 2, 7, 13, 28, 100] {
                let expect = oracle.search(query, k);
                let got = sharded.retrieve(query, k);
                assert_bit_identical(&expect, &got, &format!("{query:?} k={k} shards={shards}"));
            }
        }
    }
}

#[test]
fn randomized_corpora_and_queries_are_bit_identical() {
    let vocab = [
        "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel", "india",
        "juliet", "kilo", "lima",
    ];
    for seed in 0..5 {
        let mut rng = StdRng::seed_from_u64(seed);
        // Random corpus: 40–139 docs of 3–12 words from a 12-word
        // vocabulary — dense term overlap, frequent score ties.
        let num_docs = rng.gen_range(40..140);
        let mut b = IndexBuilder::new();
        for i in 0..num_docs {
            let len = rng.gen_range(3..13);
            let body = (0..len)
                .map(|_| *vocab.choose(&mut rng).unwrap())
                .collect::<Vec<_>>()
                .join(" ");
            b.add(Document::new(i, format!("http://r/{i}"), "", body));
        }
        let index = Arc::new(b.build());
        let oracle = SearchEngine::new(&index);
        for &shards in &SHARD_COUNTS {
            let sharded = ShardedIndex::build(index.clone(), shards);
            for q in 0..8 {
                let qlen = rng.gen_range(1..5);
                let query = (0..qlen)
                    .map(|_| *vocab.choose(&mut rng).unwrap())
                    .collect::<Vec<_>>()
                    .join(" ");
                let k = rng.gen_range(1..21);
                let expect = oracle.search(&query, k);
                let got = sharded.retrieve(&query, k);
                assert_bit_identical(
                    &expect,
                    &got,
                    &format!("seed={seed} q#{q} {query:?} k={k} shards={shards}"),
                );
            }
        }
    }
}

#[test]
fn retrieve_terms_matches_retrieve() {
    let index = tie_heavy_index();
    let sharded = ShardedIndex::build(index.clone(), 4);
    let terms = index.analyze_query("apple pie");
    assert_bit_identical(
        &sharded.retrieve("apple pie", 10),
        &sharded.retrieve_terms(&terms, 10),
        "terms vs raw query",
    );
}

#[test]
fn sharded_serving_pages_match_unsharded() {
    use serpdiv::core::AlgorithmKind;
    use serpdiv::mining::from_json;
    use serpdiv::serve::{EngineConfig, QueryRequest, SearchEngine as ServeEngine};

    let index = tie_heavy_index();
    let model = Arc::new(
        from_json(
            r#"{"entries":{"apple":{"query":"apple","specializations":[["apple iphone",0.5],["apple fruit",0.5]]}}}"#,
        )
        .unwrap(),
    );
    let config = EngineConfig {
        n_candidates: 20,
        cache_capacity: 0,
        ..EngineConfig::default()
    };
    let unsharded = ServeEngine::deploy(index.clone(), model.clone(), config);
    for shards in [2, 4, 7] {
        let sharded = ServeEngine::deploy(
            index.clone(),
            model.clone(),
            EngineConfig {
                index_shards: shards,
                ..config
            },
        );
        for algo in [
            AlgorithmKind::Baseline,
            AlgorithmKind::OptSelect,
            AlgorithmKind::IaSelect,
            AlgorithmKind::XQuad,
            AlgorithmKind::Mmr,
        ] {
            for query in ["apple", "storm rain", "zeppelin"] {
                let a = unsharded.search(QueryRequest::new(query, 6, algo));
                let b = sharded.search(QueryRequest::new(query, 6, algo));
                assert_eq!(a.results, b.results, "{query:?} {algo:?} shards={shards}");
                assert_eq!(a.algorithm, b.algorithm, "{query:?} {algo:?}");
                assert_eq!(a.diversified, b.diversified, "{query:?} {algo:?}");
            }
        }
    }
}

/// Seeded corpus over a **skewed** vocabulary: the cubed draw makes the first
/// few words occur several times in almost every document, so their
/// collection frequency exceeds the document count and their DPH
/// contributions go negative — the regime where a sloppy accumulator or
/// top-`k` gate shows.
fn skewed_index(rng: &mut StdRng, num_docs: u32) -> (Arc<InvertedIndex>, Vec<TermId>) {
    let vocab: Vec<String> = (0..40).map(|w| format!("word{w}x")).collect();
    let skewed = |rng: &mut StdRng| {
        let u = rng.gen_range(0..1000) as f64 / 1000.0;
        ((u * u * u) * vocab.len() as f64) as usize
    };
    let mut b = IndexBuilder::new();
    for i in 0..num_docs {
        let len = rng.gen_range(4..24);
        let body = (0..len)
            .map(|_| vocab[skewed(rng)].as_str())
            .collect::<Vec<_>>()
            .join(" ");
        b.add(Document::new(i, format!("http://s/{i}"), "", body));
    }
    let index = Arc::new(b.build());
    // Term ids in skew order; rare words may not have been drawn at all.
    let terms = vocab
        .iter()
        .flat_map(|w| index.analyze_query(w))
        .collect::<Vec<_>>();
    (index, terms)
}

/// 1–4 query terms drawn with the same skew, repeats allowed (and forced
/// now and then: multiplicity weighting).
fn random_terms(rng: &mut StdRng, vocab: &[TermId]) -> Vec<TermId> {
    let len = rng.gen_range(1..5);
    let mut terms: Vec<TermId> = (0..len)
        .map(|_| {
            let u = rng.gen_range(0..1000) as f64 / 1000.0;
            vocab[((u * u) * vocab.len() as f64) as usize]
        })
        .collect();
    if rng.gen_bool(0.25) {
        terms.push(terms[0]);
    }
    terms
}

/// `k` values around every boundary the gate has: 1, a page, more than a
/// page, and more than the query can match.
const KS: [usize; 4] = [1, 10, 100, 5000];

/// The unsharded retriever against the oracle at every `k` of [`KS`];
/// true when some score came out negative.
fn assert_kernel_matches_oracle(index: &InvertedIndex, terms: &[TermId], context: &str) -> bool {
    let oracle = SearchEngine::new(index);
    let mut negative = false;
    for k in KS {
        let expect = oracle.search_terms(terms, k);
        let got = Retriever::retrieve_terms(index, terms, k);
        assert_bit_identical(&expect, &got, &format!("{context} {terms:?} k={k}"));
        negative |= got.iter().any(|h| h.score < 0.0);
    }
    negative
}

#[test]
fn unsharded_retriever_is_bit_identical_to_the_oracle() {
    // The tie-heavy fixture, through the trait itself.
    let index = tie_heavy_index();
    let oracle = SearchEngine::new(&index);
    for query in [
        "apple",
        "apple iphone",
        "apple apple fruit",
        "chip orchard cinnamon cloud",
        "zeppelin",
    ] {
        let terms = index.analyze_query(query);
        for k in [1, 2, 7, 13, 28, 100] {
            let expect = oracle.search_terms(&terms, k);
            assert_bit_identical(
                &expect,
                &Retriever::retrieve_terms(&*index, &terms, k),
                &format!("tie fixture {query:?} k={k}"),
            );
            assert_bit_identical(
                &expect,
                &Retriever::retrieve(&*index, query, k),
                &format!("tie fixture, raw {query:?} k={k}"),
            );
        }
    }

    // Skewed corpora of 50–3000 documents.
    let mut rng = StdRng::seed_from_u64(0x0dd5_eed5);
    let mut saw_negative_scores = false;
    for num_docs in [50, 400, 3000] {
        let (index, vocab) = skewed_index(&mut rng, num_docs);
        for q in 0..40 {
            let terms = random_terms(&mut rng, &vocab);
            let context = format!("docs={num_docs} q#{q}");
            saw_negative_scores |= assert_kernel_matches_oracle(&index, &terms, &context);
        }
    }
    assert!(
        saw_negative_scores,
        "the skewed vocabulary must drive some DPH scores negative"
    );
}

#[test]
fn overlaid_retrieval_is_bit_identical_to_the_overlaid_oracle() {
    let mut rng = StdRng::seed_from_u64(0x0e71_a1d0);
    for num_docs in [60, 900] {
        let (index, vocab) = skewed_index(&mut rng, num_docs);
        let oracle = SearchEngine::new(&index);
        // A union-statistics overlay as a delta would carry: a larger
        // collection, and every third term's frequencies raised.
        let base = index.stats();
        let coll = CollectionStats {
            num_docs: base.num_docs + 17,
            num_tokens: base.num_tokens + 400,
            avg_doc_len: (base.num_tokens + 400) as f64 / (base.num_docs + 17) as f64,
        };
        let overrides = vocab
            .iter()
            .step_by(3)
            .map(|&t| {
                let ts = index.term_stats(t).expect("indexed term");
                let raised = TermStats {
                    doc_freq: ts.doc_freq + 5,
                    coll_freq: ts.coll_freq + 11,
                };
                (t, raised)
            })
            .collect();
        let overlay = StatsOverlay::new(coll, overrides);
        let sharded = ShardedIndex::build(index.clone(), 3);
        for q in 0..30 {
            let terms = random_terms(&mut rng, &vocab);
            for k in KS {
                let context = format!("docs={num_docs} q#{q} {terms:?} k={k}");
                let expect = oracle.search_terms_overlaid(&terms, k, &overlay);
                let got = index
                    .retrieve_terms_overlaid(&terms, k, &overlay, None)
                    .unwrap();
                assert!(got.complete);
                assert_bit_identical(&expect, &got.hits, &format!("unsharded {context}"));
                let got = sharded
                    .retrieve_terms_overlaid(&terms, k, &overlay, None)
                    .unwrap();
                assert_bit_identical(&expect, &got.hits, &format!("3 shards {context}"));
                // The overlay must matter, or this test proves nothing.
                if k == 10 && !expect.is_empty() {
                    let plain = oracle.search_terms(&terms, k);
                    assert_ne!(
                        expect[0].score.to_bits(),
                        plain[0].score.to_bits(),
                        "{context}: overlay changed no score"
                    );
                }
            }
        }
    }
}

#[test]
fn eight_threads_share_one_index_without_sharing_scratch() {
    let mut rng = StdRng::seed_from_u64(0x0874_ead5);
    let (index, vocab) = skewed_index(&mut rng, 1500);
    let sharded = ShardedIndex::build(index.clone(), 4);
    // Every thread gets its own queries — different terms, lengths and
    // k — and its answers computed up front by the single-threaded oracle.
    let oracle = SearchEngine::new(&index);
    struct Case {
        terms: Vec<TermId>,
        k: usize,
        expect: Vec<ScoredDoc>,
    }
    let work: Vec<Vec<Case>> = (0..8)
        .map(|_| {
            (0..60)
                .map(|_| {
                    let terms = random_terms(&mut rng, &vocab);
                    let k = *KS.choose(&mut rng).unwrap();
                    let expect = oracle.search_terms(&terms, k);
                    Case { terms, k, expect }
                })
                .collect()
        })
        .collect();
    let start = std::sync::Barrier::new(work.len());
    std::thread::scope(|scope| {
        for (t, queries) in work.iter().enumerate() {
            let (index, sharded, start) = (&index, &sharded, &start);
            scope.spawn(move || {
                start.wait();
                for round in 0..5 {
                    for (q, case) in queries.iter().enumerate() {
                        let context = format!("thread {t} round {round} q#{q}");
                        assert_bit_identical(
                            &case.expect,
                            &Retriever::retrieve_terms(&**index, &case.terms, case.k),
                            &context,
                        );
                        assert_bit_identical(
                            &case.expect,
                            &sharded.retrieve_terms(&case.terms, case.k),
                            &format!("sharded, {context}"),
                        );
                    }
                }
            });
        }
    });
}
