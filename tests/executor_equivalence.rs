//! Persistent-executor correctness: retrieval through the shared
//! [`ScoringExecutor`] must be **bit-identical** — same doc ids, same
//! `f64` score bits, same order — to the unsharded oracle and to the
//! sequential scatter path (a twin [`ShardedIndex`] with no executor),
//! for every tested `shard count × executor threads` combination.
//!
//! Three layers of evidence:
//! * a hand-built fixture with deliberate score ties straddling shard
//!   boundaries (the merge tie-break and the per-shard accumulation order
//!   are what could drift under a different scheduler),
//! * a sweep over three seeded random corpora, shard counts {1, 2, 4, 7}
//!   × executor threads {1, 2, 4},
//! * a check that one executor shared by several indexes (the intended
//!   deployment shape) still serves each bit-identically.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serpdiv::index::{
    Document, IndexBuilder, InvertedIndex, Retriever, ScoredDoc, ScoringExecutor, SearchEngine,
    ShardedIndex,
};
use std::sync::Arc;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];
const EXECUTOR_THREADS: [usize; 3] = [1, 2, 4];

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

/// A pooled index: threshold 0, so every query rides the executor.
fn pooled(
    index: &Arc<InvertedIndex>,
    shards: usize,
    executor: &Arc<ScoringExecutor>,
) -> ShardedIndex {
    ShardedIndex::build(index.clone(), shards)
        .with_executor(executor.clone())
        .with_parallel_threshold(0)
}

#[test]
fn tie_heavy_fixture_is_bit_identical_across_shards_and_threads() {
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
    for &threads in &EXECUTOR_THREADS {
        let executor = Arc::new(ScoringExecutor::new(threads));
        assert_eq!(executor.num_threads(), threads);
        for &shards in &SHARD_COUNTS {
            let pooled = pooled(&index, shards, &executor);
            // The same partition without a pool: every query is scored
            // shard after shard on this thread.
            let sequential = ShardedIndex::build(index.clone(), shards);
            for query in queries {
                let terms = index.analyze_query(query);
                for k in [1, 2, 7, 13, 28, 100] {
                    let ctx = format!("{query:?} k={k} shards={shards} threads={threads}");
                    let expect = oracle.search(query, k);
                    // Threshold 0 with a pool attached: the executor path.
                    assert_bit_identical(&expect, &pooled.retrieve(query, k), &ctx);
                    assert_bit_identical(
                        &expect,
                        &pooled.retrieve_terms(&terms, k),
                        &format!("{ctx} [executor]"),
                    );
                    assert_bit_identical(
                        &expect,
                        &sequential.retrieve_terms(&terms, k),
                        &format!("{ctx} [sequential]"),
                    );
                }
            }
        }
    }
}

#[test]
fn randomized_corpora_are_bit_identical_across_shards_and_threads() {
    let vocab = [
        "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel", "india",
        "juliet", "kilo", "lima",
    ];
    for seed in 0..3 {
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
        for &threads in &EXECUTOR_THREADS {
            let executor = Arc::new(ScoringExecutor::new(threads));
            for &shards in &SHARD_COUNTS {
                let pooled = pooled(&index, shards, &executor);
                for q in 0..6 {
                    let qlen = rng.gen_range(1..5);
                    let query = (0..qlen)
                        .map(|_| *vocab.choose(&mut rng).unwrap())
                        .collect::<Vec<_>>()
                        .join(" ");
                    let k = rng.gen_range(1..21);
                    let ctx = format!(
                        "seed={seed} q#{q} {query:?} k={k} shards={shards} threads={threads}"
                    );
                    let expect = oracle.search(&query, k);
                    assert_bit_identical(&expect, &pooled.retrieve(&query, k), &ctx);
                }
            }
        }
    }
}

#[test]
fn one_executor_shared_by_several_indexes_serves_each_correctly() {
    // The intended deployment shape: ONE pool, many sharded indexes (one
    // per corpus / shard layout) submitting into it.
    let executor = Arc::new(ScoringExecutor::new(2));
    let tie = tie_heavy_index();
    let mut b = IndexBuilder::new();
    for i in 0..12u32 {
        b.add(Document::new(
            i,
            format!("http://other/{i}"),
            "",
            if i % 2 == 0 {
                "golf hotel india juliet"
            } else {
                "alpha bravo charlie golf"
            },
        ));
    }
    let other = Arc::new(b.build());
    let tie_pooled = ShardedIndex::build(tie.clone(), 4)
        .with_executor(executor.clone())
        .with_parallel_threshold(0);
    let other_pooled = ShardedIndex::build(other.clone(), 3)
        .with_executor(executor.clone())
        .with_parallel_threshold(0);
    let tie_oracle = SearchEngine::new(&tie);
    let other_oracle = SearchEngine::new(&other);
    // Interleave queries so the two indexes' batches mingle in the queue.
    for _ in 0..10 {
        assert_bit_identical(
            &tie_oracle.search("apple pie", 9),
            &tie_pooled.retrieve("apple pie", 9),
            "tie corpus through shared pool",
        );
        assert_bit_identical(
            &other_oracle.search("golf charlie", 7),
            &other_pooled.retrieve("golf charlie", 7),
            "other corpus through shared pool",
        );
    }
}
