//! Randomized properties of the synthetic-corpus substrate. Each test runs
//! `CASES` cases, case `seed` drawing its input from
//! `StdRng::seed_from_u64(seed)`; a failure names its seed, and rerunning
//! the test reproduces it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serpdiv_corpus::{DocGenConfig, Testbed, TestbedConfig, Zipf};

/// Fewer cases than the other suites: a testbed is costly to generate.
const CASES: u64 = 32;

/// Zipf pmf sums to 1 and is monotone non-increasing over ranks.
#[test]
fn zipf_pmf_is_a_monotone_distribution() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..200);
        let s = rng.gen_range(0.0..3.0);
        let z = Zipf::new(n, s);
        let total: f64 = (0..n).map(|r| z.pmf(r)).sum();
        assert!((total - 1.0).abs() < 1e-9, "seed {seed}: sums to {total}");
        for r in 1..n {
            assert!(
                z.pmf(r - 1) >= z.pmf(r) - 1e-12,
                "seed {seed}: n={n} s={s} rises at rank {r}"
            );
        }
    }
}

/// Zipf samples always land in range.
#[test]
fn zipf_samples_in_range() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..50);
        let z = Zipf::new(n, rng.gen_range(0.0..2.5));
        let mut sampler = StdRng::seed_from_u64(rng.gen_range(0..1000));
        for _ in 0..100 {
            let r = z.sample(&mut sampler);
            assert!(r < n, "seed {seed}: rank {r} of {n}");
        }
    }
}

/// Testbed invariants hold for arbitrary small shapes: topic weights
/// normalized, qrels consistent with document counts, determinism.
#[test]
fn testbed_invariants() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let num_topics = rng.gen_range(1..5);
        let min_subs = rng.gen_range(1..4);
        let docs = rng.gen_range(1..8);
        let distractors = rng.gen_range(0..10);
        let cfg = TestbedConfig {
            num_topics,
            min_subtopics: min_subs,
            max_subtopics: min_subs + rng.gen_range(0..3),
            docs_per_subtopic: docs,
            proportional_docs: false,
            distractors_per_topic: distractors,
            noise_docs: 5,
            background_vocab: 300,
            terms_per_subtopic: 5,
            subtopic_popularity_exponent: 1.0,
            docgen: DocGenConfig {
                min_len: 10,
                max_len: 30,
                ..Default::default()
            },
            seed: rng.gen_range(0..100),
        };
        let tb = Testbed::generate(cfg.clone());
        assert_eq!(tb.topics.len(), num_topics, "seed {seed}");
        for t in &tb.topics {
            assert!(t.validate().is_ok(), "seed {seed}: topic {}", t.id);
            for s in &t.subtopics {
                assert_eq!(
                    tb.qrels.relevant_docs(t.id, s.id).len(),
                    docs,
                    "seed {seed}: topic {} subtopic {}",
                    t.id,
                    s.id
                );
            }
        }
        // Total documents = relevant + distractors + noise.
        let relevant: usize = tb.topics.iter().map(|t| t.num_subtopics() * docs).sum();
        assert_eq!(
            tb.num_docs(),
            relevant + num_topics * distractors + 5,
            "seed {seed}"
        );
        // Deterministic regeneration.
        let tb2 = Testbed::generate(cfg);
        assert_eq!(tb.num_docs(), tb2.num_docs(), "seed {seed}");
        assert_eq!(tb.topics[0].query, tb2.topics[0].query, "seed {seed}");
    }
}

/// Every topic's subtopic queries are distinct and extend the ambiguous
/// query (true refinements).
#[test]
fn subtopic_queries_are_refinements() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cfg = TestbedConfig::small();
        cfg.num_topics = 3;
        cfg.docs_per_subtopic = 2;
        cfg.noise_docs = 0;
        cfg.seed = rng.gen_range(0..50);
        let tb = Testbed::generate(cfg);
        for t in &tb.topics {
            let mut queries: Vec<&str> = t.subtopics.iter().map(|s| s.query.as_str()).collect();
            queries.sort_unstable();
            queries.dedup();
            assert_eq!(queries.len(), t.num_subtopics(), "seed {seed}: duplicates");
            for s in &t.subtopics {
                assert!(
                    s.query.starts_with(&t.query) && s.query.len() > t.query.len(),
                    "seed {seed}: {:?} does not refine {:?}",
                    s.query,
                    t.query
                );
            }
        }
    }
}
