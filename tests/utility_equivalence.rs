//! Equivalence suite for the compiled utility fast path.
//!
//! The inverted utility index (`serpdiv::core::CompiledSpecStore`) must be
//! numerically indistinguishable from the naive Definition-2 oracle
//! (`UtilityMatrix::compute`): every matrix cell within 1e-9, and the
//! final rankings of all four diversifiers identical, both on a
//! deterministic end-to-end fixture and on randomized surrogate worlds.
//! Its rows are also bit-identical to the per-column merge-join oracle
//! (`CompiledSpecStore::score_into_merge_join`), and a digest pins every
//! cell's bits to those of the postings kernel the dense rows replaced.

use serpdiv::core::{
    assemble_input_from_surrogates, assemble_input_naive, candidate_surrogate, run_algorithm,
    AlgorithmKind, CompiledSpecStore, DiversifyInput, PipelineParams, SpecializationStore,
    UtilityMatrix, UtilityParams,
};
use serpdiv::index::{
    Document, ForwardIndex, IndexBuilder, SearchEngine, SnippetGenerator, SparseVector,
};
use serpdiv::mining::from_json;
use serpdiv::text::TermId;
use std::sync::Arc;

const ALGOS: [AlgorithmKind; 4] = [
    AlgorithmKind::OptSelect,
    AlgorithmKind::IaSelect,
    AlgorithmKind::XQuad,
    AlgorithmKind::Mmr,
];

fn assert_matrices_match(fast: &UtilityMatrix, naive: &UtilityMatrix, context: &str) {
    assert_eq!(fast.num_candidates(), naive.num_candidates(), "{context}");
    assert_eq!(
        fast.num_specializations(),
        naive.num_specializations(),
        "{context}"
    );
    for i in 0..fast.num_candidates() {
        for j in 0..fast.num_specializations() {
            let (f, n) = (fast.get(i, j), naive.get(i, j));
            assert!(
                (f - n).abs() < 1e-9,
                "{context}: cell ({i},{j}) fast {f} vs naive {n}"
            );
        }
    }
    for j in 0..fast.num_specializations() {
        assert_eq!(
            fast.coverage(j),
            naive.coverage(j),
            "{context}: coverage {j}"
        );
    }
}

fn assert_rankings_match(fast: &DiversifyInput, naive: &DiversifyInput, context: &str) {
    let params = PipelineParams::default();
    for algo in ALGOS {
        let (a, name) = run_algorithm(algo, fast, 10, params);
        let (b, _) = run_algorithm(algo, naive, 10, params);
        assert_eq!(a, b, "{context}: {name} ranking diverged");
    }
}

/// Deterministic end-to-end fixture: the two-interpretation "apple" world
/// driven through the real pipeline stages, fast path vs naive oracle.
#[test]
fn end_to_end_fixture_fast_path_matches_naive() {
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
    for i in 12..16u32 {
        b.add(Document::new(
            i,
            format!("http://misc/{i}"),
            "",
            "weather forecast rain cloud wind storm",
        ));
    }
    let index = b.build();
    let model = from_json(
        r#"{"entries":{"apple":{"query":"apple","specializations":[["apple iphone",0.6],["apple fruit",0.4]]}}}"#,
    )
    .unwrap();
    let engine = SearchEngine::new(&index);

    for threshold_c in [0.0, 0.3] {
        let params = PipelineParams {
            utility: UtilityParams { threshold_c },
            ..PipelineParams::default()
        };
        let store = SpecializationStore::build(
            &model,
            &engine,
            params.k_spec_results,
            params.snippet_window,
        );
        let compiled = CompiledSpecStore::compile(&store);
        let entry = model.get("apple").unwrap();
        let baseline = engine.search("apple", 12);
        assert!(!baseline.is_empty());

        let forward = ForwardIndex::build(&index);
        let snippets = SnippetGenerator::with_window(params.snippet_window);
        let qterms = index.analyze_query("apple");
        let vectors = baseline
            .iter()
            .map(|h| Arc::new(candidate_surrogate(&forward, h.doc, &qterms, &snippets)))
            .collect();
        let fast = assemble_input_from_surrogates(entry, &compiled, &params, vectors, &baseline);
        let naive = assemble_input_naive(&index, entry, &store, &params, "apple", &baseline);
        let ctx = format!("c={threshold_c}");
        assert_matrices_match(&fast.utilities, &naive.utilities, &ctx);
        assert_eq!(fast.relevance, naive.relevance, "{ctx}");
        assert_eq!(fast.spec_probs, naive.spec_probs, "{ctx}");
        assert_rankings_match(&fast, &naive, &ctx);
        // The fixture must actually exercise positive utilities.
        assert!(
            (0..fast.utilities.num_specializations()).any(|j| fast.utilities.coverage(j) > 0),
            "{ctx}: degenerate fixture"
        );
    }
}

/// Synthetic-vector fixture exercising edge shapes the end-to-end world
/// cannot hit: zero candidates, empty surrogate lists, unknown specs.
#[test]
fn synthetic_fixture_including_edge_shapes() {
    let v =
        |pairs: &[(u32, f32)]| SparseVector::from_pairs(pairs.iter().map(|&(t, w)| (TermId(t), w)));
    let lists: Vec<(String, Vec<SparseVector>)> = vec![
        (
            "a".into(),
            vec![v(&[(1, 2.0), (3, 1.0)]), v(&[(1, 1.0), (4, 2.5)])],
        ),
        ("b".into(), vec![v(&[(2, 1.0)]), SparseVector::default()]),
        ("empty".into(), Vec::new()),
    ];
    let compiled = CompiledSpecStore::build(
        lists
            .iter()
            .map(|(name, list)| (name.as_str(), list.iter())),
    );
    let candidates = [
        v(&[(1, 1.0), (2, 2.0)]),
        v(&[(3, 4.0), (4, 0.1)]),
        SparseVector::default(),
        v(&[(99, 1.0)]),
    ];
    // Column order includes an unknown spec and repeats are allowed.
    let names = ["b", "ghost", "a", "empty"];
    let params = UtilityParams::default();
    let scorer = compiled.scorer(names.iter().copied());
    let fast = scorer.matrix(&candidates, params);
    let naive_lists: Vec<Vec<SparseVector>> = names
        .iter()
        .map(|n| {
            lists
                .iter()
                .find(|(name, _)| name == n)
                .map(|(_, l)| l.clone())
                .unwrap_or_default()
        })
        .collect();
    let naive = UtilityMatrix::compute(&candidates, &naive_lists, params);
    assert_matrices_match(&fast, &naive, "synthetic fixture");
}

/// `score_into` against the merge-join oracle, bit for bit, across a
/// threshold sweep from `threshold_c = 0` to thresholds that zero most
/// rows.
#[test]
fn score_into_matches_merge_join_oracle() {
    let v =
        |pairs: &[(u32, f32)]| SparseVector::from_pairs(pairs.iter().map(|&(t, w)| (TermId(t), w)));
    let lists: Vec<(String, Vec<SparseVector>)> = vec![
        (
            "a".into(),
            vec![v(&[(1, 2.0), (3, 1.0)]), v(&[(1, 1.0), (4, 2.5)])],
        ),
        ("b".into(), vec![v(&[(2, 1.0)]), SparseVector::default()]),
        ("c".into(), vec![v(&[(7, 0.2)]), v(&[(8, 0.1), (1, 0.05)])]),
        ("empty".into(), Vec::new()),
    ];
    let compiled = CompiledSpecStore::build(
        lists
            .iter()
            .map(|(name, list)| (name.as_str(), list.iter())),
    );
    let candidates = [
        v(&[(1, 1.0), (2, 2.0)]),
        v(&[(3, 4.0), (4, 0.1)]),
        v(&[(7, 3.0), (8, 3.0)]), // weak specs only: zero at high c
        SparseVector::default(),
        v(&[(99, 1.0)]),
    ];
    let names = ["b", "ghost", "a", "empty", "c", "a"];
    let scorer = compiled.scorer(names.iter().copied());
    for threshold_c in [0.0, 0.01, 0.05, 0.3, 0.6, 0.9, 1.0] {
        let params = UtilityParams { threshold_c };
        for (ci, cand) in candidates.iter().enumerate() {
            let mut fast = vec![f64::NAN; names.len()];
            let mut oracle = vec![f64::NAN; names.len()];
            scorer.score_into(cand, &mut fast, params);
            compiled.score_into_merge_join(names.iter().copied(), cand, &mut oracle, params);
            assert_eq!(
                fast, oracle,
                "score_into c={threshold_c} candidate {ci} diverged"
            );
        }
    }
}

/// Randomized equivalence sweep: one seeded `StdRng` per world.
mod randomized {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_vector(rng: &mut StdRng, max_nnz: usize, vocab: u32) -> SparseVector {
        let nnz = rng.gen_range(0..=max_nnz);
        SparseVector::from_pairs((0..nnz).map(|_| {
            let t = rng.gen_range(0..vocab);
            let w = rng.gen_range(0..1000) as f32 / 50.0 + 0.01;
            (TermId(t), w)
        }))
    }

    /// 40 random worlds of up to 20 columns: utilities within 1e-9 of
    /// the oracle and identical rankings across all four diversifiers.
    #[test]
    fn random_worlds_match_oracle_and_rankings() {
        for seed in 0..40 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(1..=40);
            let m = rng.gen_range(1..=20);
            let lists: Vec<(String, Vec<SparseVector>)> = (0..m)
                .map(|s| {
                    let r = rng.gen_range(0..=20); // empties included
                    (
                        format!("s{s}"),
                        (0..r).map(|_| random_vector(&mut rng, 30, 120)).collect(),
                    )
                })
                .collect();
            let candidates: Vec<SparseVector> =
                (0..n).map(|_| random_vector(&mut rng, 30, 120)).collect();
            let compiled = CompiledSpecStore::build(
                lists
                    .iter()
                    .map(|(name, list)| (name.as_str(), list.iter())),
            );
            let params = UtilityParams::default();
            let names: Vec<&str> = lists.iter().map(|(n, _)| n.as_str()).collect();
            let scorer = compiled.scorer(names.iter().copied());
            let fast = scorer.matrix(&candidates, params);
            let naive_lists: Vec<Vec<SparseVector>> =
                lists.iter().map(|(_, l)| l.clone()).collect();
            let naive = UtilityMatrix::compute(&candidates, &naive_lists, params);
            let ctx = format!("seed {seed} (n={n}, m={m})");
            assert_matrices_match(&fast, &naive, &ctx);

            // Same selection behaviour on both matrices.
            let probs: Vec<f64> = {
                let raw: Vec<f64> = (0..m).map(|_| rng.gen_range(1..=9) as f64).collect();
                let total: f64 = raw.iter().sum();
                raw.into_iter().map(|p| p / total).collect()
            };
            let relevance: Vec<f64> = (0..n)
                .map(|_| rng.gen_range(0..1000) as f64 / 999.0)
                .collect();
            let fast_in = DiversifyInput::new(probs.clone(), relevance.clone(), fast);
            let naive_in = DiversifyInput::new(probs, relevance, naive);
            assert_rankings_match(&fast_in, &naive_in, &ctx);
        }
    }

    /// Random worlds of up to 20 columns: `score_into` is bit-identical
    /// to the merge-join oracle for every threshold in a sweep.
    #[test]
    fn random_score_into_bitwise_equals_merge_join() {
        for seed in 0..25 {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = rng.gen_range(1..=20);
            let lists: Vec<(String, Vec<SparseVector>)> = (0..m)
                .map(|s| {
                    let r = rng.gen_range(0..16);
                    (
                        format!("s{s}"),
                        (0..r).map(|_| random_vector(&mut rng, 20, 90)).collect(),
                    )
                })
                .collect();
            let compiled = CompiledSpecStore::build(
                lists
                    .iter()
                    .map(|(name, list)| (name.as_str(), list.iter())),
            );
            let names: Vec<&str> = lists.iter().map(|(n, _)| n.as_str()).collect();
            let scorer = compiled.scorer(names.iter().copied());
            let candidates: Vec<SparseVector> = (0..rng.gen_range(1..=30))
                .map(|_| random_vector(&mut rng, 20, 90))
                .collect();
            for threshold_c in [0.0, 0.02, 0.1, 0.4, 0.8] {
                let params = UtilityParams { threshold_c };
                for (ci, cand) in candidates.iter().enumerate() {
                    let mut fast = vec![f64::NAN; m];
                    let mut oracle = vec![f64::NAN; m];
                    scorer.score_into(cand, &mut fast, params);
                    compiled.score_into_merge_join(
                        names.iter().copied(),
                        cand,
                        &mut oracle,
                        params,
                    );
                    assert_eq!(
                        fast, oracle,
                        "seed {seed} c={threshold_c} candidate {ci}: score_into"
                    );
                }
            }
        }
    }

    /// Parallel row computation is bit-identical to sequential on random
    /// inputs, with columns past one 8-column block.
    #[test]
    fn random_parallel_rows_bitwise_equal() {
        let mut rng = StdRng::seed_from_u64(0xfeed_f00d);
        let lists: Vec<(String, Vec<SparseVector>)> = (0..11)
            .map(|s| {
                (
                    format!("s{s}"),
                    (0..15).map(|_| random_vector(&mut rng, 25, 200)).collect(),
                )
            })
            .collect();
        let candidates: Vec<SparseVector> =
            (0..333).map(|_| random_vector(&mut rng, 25, 200)).collect();
        let compiled = CompiledSpecStore::build(
            lists
                .iter()
                .map(|(name, list)| (name.as_str(), list.iter())),
        );
        let names: Vec<&str> = lists.iter().map(|(n, _)| n.as_str()).collect();
        let scorer = compiled.scorer(names.iter().copied());
        let params = UtilityParams { threshold_c: 0.05 };
        let seq = scorer.matrix(&candidates, params);
        for threads in [2, 5, 16] {
            assert_eq!(
                seq,
                scorer.matrix_parallel(&candidates, params, threads),
                "threads={threads}"
            );
        }
    }
}

/// The dense-row kernel against the postings kernel it replaced, bit for
/// bit: FNV-1a over the shape and every cell's bits of `scorer.matrix` on
/// 84 seeded worlds. They cover widths 0..=20 (across the 8-column
/// block), repeated and unknown column names, empty ranked lists,
/// zero-norm candidates (empty, and one whose `f32` norm underflows),
/// three thresholds, and term ids past the dense lookup table's cap. The
/// constant was computed with the postings kernel; a flipped bit in any
/// one cell moves it.
mod digest {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const DIGEST: u64 = 0xda3a_eddf_6300_1c72;
    /// Past the lookup table's cap (`1 << 21`): a scorer holding such a
    /// term looks terms up by binary search, a candidate holding one
    /// misses the table.
    const BEYOND: u32 = (1 << 21) + 7;

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    fn vector(rng: &mut StdRng, far: bool) -> SparseVector {
        let nnz = rng.gen_range(0..=12);
        SparseVector::from_pairs((0..nnz).map(|_| {
            let t = if far && rng.gen_bool(0.2) {
                BEYOND + rng.gen_range(0..3)
            } else {
                rng.gen_range(0..40)
            };
            (TermId(t), rng.gen_range(1..1000) as f32 / 50.0)
        }))
    }

    #[test]
    fn matrix_bits_match_the_postings_kernel_digest() {
        let mut bytes = Vec::new();
        let mut nonzero = [0usize; 3];
        for seed in 0..84u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = (seed % 21) as usize;
            let far = seed % 4 == 3;
            let num_specs = rng.gen_range(0..=6);
            let lists: Vec<(String, Vec<SparseVector>)> = (0..num_specs)
                .map(|s| {
                    let r = rng.gen_range(0..=8); // empties included
                    let list = (0..r).map(|_| vector(&mut rng, far)).collect();
                    (format!("s{s}"), list)
                })
                .collect();
            let compiled = CompiledSpecStore::build(
                lists
                    .iter()
                    .map(|(name, list)| (name.as_str(), list.iter())),
            );
            let names: Vec<String> = (0..m)
                .map(|_| {
                    if num_specs > 0 && rng.gen_bool(0.85) {
                        format!("s{}", rng.gen_range(0..num_specs))
                    } else {
                        "ghost".to_string()
                    }
                })
                .collect();
            let candidates: Vec<SparseVector> = (0..rng.gen_range(0..=25))
                .map(|_| match rng.gen_range(0..10) {
                    0 => SparseVector::default(),
                    1 => SparseVector::from_pairs([(TermId(rng.gen_range(0..40)), 1e-30)]),
                    _ => vector(&mut rng, far),
                })
                .collect();
            let scorer = compiled.scorer(names.iter().map(String::as_str));
            for (c, threshold_c) in [0.0, 0.05, 0.4].into_iter().enumerate() {
                let u = scorer.matrix(&candidates, UtilityParams { threshold_c });
                bytes.extend_from_slice(&(u.num_candidates() as u64).to_le_bytes());
                bytes.extend_from_slice(&(u.num_specializations() as u64).to_le_bytes());
                for i in 0..u.num_candidates() {
                    for j in 0..u.num_specializations() {
                        let cell = u.get(i, j);
                        nonzero[c] += usize::from(cell != 0.0);
                        bytes.extend_from_slice(&cell.to_bits().to_le_bytes());
                    }
                }
            }
        }
        assert!(
            nonzero.iter().all(|&n| n > 0),
            "degenerate worlds: {nonzero:?}"
        );
        assert_eq!(fnv1a(&bytes), DIGEST, "{:#018x}", fnv1a(&bytes));
    }
}
