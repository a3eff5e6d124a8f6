//! Randomized properties of the evaluation metrics. Each test runs
//! `CASES` cases, case `seed` drawing its input from
//! `StdRng::seed_from_u64(seed)`; a failure names its seed, and rerunning
//! the test reproduces it.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serpdiv_corpus::Qrels;
use serpdiv_eval::{alpha_ndcg_at, ia_precision_at, ndcg_at, wilcoxon_signed_rank};
use serpdiv_index::DocId;

const CASES: u64 = 256;

/// Random qrels of topic 0 over 1–5 subtopics and doc ids < 30 (up to 39
/// judgments), plus a random ranking of up to 24 doc ids < 40 (so it may
/// hold unjudged docs).
fn world(rng: &mut StdRng) -> (Qrels, Vec<DocId>) {
    let m = rng.gen_range(1..6);
    let mut q = Qrels::new();
    q.declare_topic(0, m);
    for _ in 0..rng.gen_range(0..40) {
        let sub = rng.gen_range(0..6);
        q.add(0, sub % m, DocId(rng.gen_range(0..30)));
    }
    let ranking = (0..rng.gen_range(0..25))
        .map(|_| DocId(rng.gen_range(0..40)))
        .collect();
    (q, ranking)
}

/// All metrics stay in [0, 1] on arbitrary inputs.
#[test]
fn metrics_bounded() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let (qrels, ranking) = world(&mut rng);
        let k = rng.gen_range(0..30);
        let alpha = rng.gen_range(0.0..1.0);
        let a = alpha_ndcg_at(&ranking, &qrels, 0, alpha, k);
        assert!((0.0..=1.0).contains(&a), "seed {seed}: alpha-ndcg {a}");
        let i = ia_precision_at(&ranking, &qrels, 0, k);
        assert!((0.0..=1.0).contains(&i), "seed {seed}: ia-p {i}");
        let n = ndcg_at(&ranking, &qrels, 0, k);
        assert!((0.0..=1.0).contains(&n), "seed {seed}: ndcg {n}");
    }
}

/// α-NDCG of any permutation of the judged pool never exceeds 1 (the
/// ideal reranking of the pool scores 1).
#[test]
fn alpha_ndcg_le_one_for_any_permutation() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let (qrels, _) = world(&mut rng);
        let mut pool: Vec<DocId> = (0..30)
            .map(DocId)
            .filter(|&d| (0..qrels.num_subtopics(0)).any(|s| qrels.is_relevant(0, s, d)))
            .collect();
        pool.shuffle(&mut rng);
        let score = alpha_ndcg_at(&pool, &qrels, 0, 0.5, pool.len().max(1));
        assert!(score <= 1.0 + 1e-9, "seed {seed}: {score}");
    }
}

/// Wilcoxon: p ∈ (0, 1], symmetric in the argument order, and equal
/// samples give p = 1.
#[test]
fn wilcoxon_properties() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let a: Vec<f64> = (0..rng.gen_range(0..40))
            .map(|_| rng.gen_range(-100.0..100.0))
            .collect();
        let b: Vec<f64> = a.iter().map(|x| x * 0.9 + 1.0).collect();
        let ab = wilcoxon_signed_rank(&a, &b);
        let ba = wilcoxon_signed_rank(&b, &a);
        assert!(
            ab.p_value > 0.0 && ab.p_value <= 1.0,
            "seed {seed}: p {}",
            ab.p_value
        );
        assert!(
            (ab.p_value - ba.p_value).abs() < 1e-9,
            "seed {seed}: symmetry"
        );
        assert_eq!(ab.w_plus, ba.w_minus, "seed {seed}");
        let same = wilcoxon_signed_rank(&a, &a);
        assert_eq!(same.p_value, 1.0, "seed {seed}");
    }
}
