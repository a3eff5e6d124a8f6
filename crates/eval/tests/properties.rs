//! Property-based tests for the evaluation metrics.

use proptest::prelude::*;
use serpdiv_corpus::Qrels;
use serpdiv_eval::{alpha_ndcg_at, ia_precision_at, ndcg_at, wilcoxon_signed_rank};
use serpdiv_index::DocId;

/// Random qrels over `subtopics` subtopics and doc ids < 30, plus a random
/// ranking (possibly containing unjudged docs).
fn arb_world() -> impl Strategy<Value = (Qrels, Vec<DocId>)> {
    (
        1usize..6,
        prop::collection::vec((0usize..6, 0u32..30), 0..40),
        prop::collection::vec(0u32..40, 0..25),
    )
        .prop_map(|(m, judgments, ranking)| {
            let mut q = Qrels::new();
            q.declare_topic(0, m);
            for (sub, doc) in judgments {
                q.add(0, sub % m, DocId(doc));
            }
            (q, ranking.into_iter().map(DocId).collect())
        })
}

proptest! {
    /// All metrics stay in [0, 1] on arbitrary inputs.
    #[test]
    fn metrics_bounded((qrels, ranking) in arb_world(), k in 0usize..30, alpha in 0.0f64..1.0) {
        let a = alpha_ndcg_at(&ranking, &qrels, 0, alpha, k);
        prop_assert!((0.0..=1.0).contains(&a), "alpha-ndcg {a}");
        let i = ia_precision_at(&ranking, &qrels, 0, k);
        prop_assert!((0.0..=1.0).contains(&i), "ia-p {i}");
        let n = ndcg_at(&ranking, &qrels, 0, k);
        prop_assert!((0.0..=1.0).contains(&n), "ndcg {n}");
    }

    /// α-NDCG of any ranking never exceeds the greedy ideal's own score
    /// (the ideal reranking of the judged pool scores 1).
    #[test]
    fn alpha_ndcg_le_one_for_any_permutation((qrels, _r) in arb_world(), seed in 0u64..50) {
        // Build a permutation of the judged pool.
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut pool: Vec<DocId> = (0..30).map(DocId).filter(|&d| {
            (0..qrels.num_subtopics(0)).any(|s| qrels.is_relevant(0, s, d))
        }).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        pool.shuffle(&mut rng);
        let score = alpha_ndcg_at(&pool, &qrels, 0, 0.5, pool.len().max(1));
        prop_assert!(score <= 1.0 + 1e-9);
    }

    /// Wilcoxon: p ∈ (0, 1], symmetric in the argument order, and equal
    /// samples give p = 1.
    #[test]
    fn wilcoxon_properties(
        a in prop::collection::vec(-100.0f64..100.0, 0..40),
    ) {
        let b: Vec<f64> = a.iter().map(|x| x * 0.9 + 1.0).collect();
        let ab = wilcoxon_signed_rank(&a, &b);
        let ba = wilcoxon_signed_rank(&b, &a);
        prop_assert!(ab.p_value > 0.0 && ab.p_value <= 1.0);
        prop_assert!((ab.p_value - ba.p_value).abs() < 1e-9, "symmetry");
        prop_assert_eq!(ab.w_plus, ba.w_minus);
        let same = wilcoxon_signed_rank(&a, &a);
        prop_assert_eq!(same.p_value, 1.0);
    }
}
