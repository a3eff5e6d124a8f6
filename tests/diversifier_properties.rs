//! Randomized invariants of the diversification algorithms, exercised
//! through the facade crate. Each test runs `CASES` cases, case `seed`
//! drawing its input from `StdRng::seed_from_u64(seed)`; a failure names
//! its seed, and rerunning the test reproduces it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serpdiv::core::{Diversifier, DiversifyInput, IaSelect, Mmr, OptSelect, UtilityMatrix, XQuad};

const CASES: u64 = 64;

/// The chance of a utility cell being 0, drawn per input. At 0 every
/// candidate is useful to every specialization; above it coverage sets
/// are partial and overlap, which is what the OptSelect constraint needs
/// to be able to fail.
const ZERO_SHARES: [f64; 4] = [0.0, 0.3, 0.6, 0.9];

/// A random well-formed input: n ∈ [1, 60), m ∈ [0, 6), nonzero
/// utilities and relevance in [0, 1), probabilities drawn from [0.1, 1)
/// and normalized.
fn random_input(rng: &mut StdRng) -> DiversifyInput {
    let n = rng.gen_range(1..60);
    let m = rng.gen_range(0..6);
    let zero_share = ZERO_SHARES[rng.gen_range(0..ZERO_SHARES.len())];
    let values: Vec<f64> = (0..n * m)
        .map(|_| {
            if rng.gen_bool(zero_share) {
                0.0
            } else {
                rng.gen_range(0.0..1.0)
            }
        })
        .collect();
    let relevance: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
    let probs: Vec<f64> = (0..m).map(|_| rng.gen_range(0.1..1.0)).collect();
    let total: f64 = probs.iter().sum();
    let probs = probs.iter().map(|p| p / total).collect();
    DiversifyInput::new(probs, relevance, UtilityMatrix::from_values(n, m, values))
}

fn algorithms() -> Vec<Box<dyn Diversifier>> {
    vec![
        Box::new(OptSelect::new()),
        Box::new(OptSelect::with_lambda(0.0)),
        Box::new(OptSelect::with_lambda(1.0)),
        Box::new(IaSelect::new()),
        Box::new(XQuad::new()),
        Box::new(XQuad::with_lambda(1.0)),
        Box::new(Mmr::new()),
    ]
}

/// Every algorithm returns exactly min(k, n) distinct in-range indices.
#[test]
fn selections_are_well_formed() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let input = random_input(&mut rng);
        let k = rng.gen_range(0..80);
        let n = input.num_candidates();
        for algo in algorithms() {
            let name = algo.name();
            let s = algo.select(&input, k);
            assert_eq!(s.len(), k.min(n), "seed {seed}: {name} size");
            let mut d = s.clone();
            d.sort_unstable();
            d.dedup();
            assert_eq!(d.len(), s.len(), "seed {seed}: {name} duplicates");
            assert!(s.iter().all(|&i| i < n), "seed {seed}: {name} out of range");
        }
    }
}

/// Determinism: two runs produce identical rankings.
#[test]
fn selections_are_deterministic() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let input = random_input(&mut rng);
        let k = rng.gen_range(1..40);
        for algo in algorithms() {
            assert_eq!(
                algo.select(&input, k),
                algo.select(&input, k),
                "seed {seed}: {}",
                algo.name()
            );
        }
    }
}

/// k = n returns a permutation of all candidates.
#[test]
fn full_k_is_a_permutation() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let input = random_input(&mut rng);
        let n = input.num_candidates();
        for algo in algorithms() {
            let mut s = algo.select(&input, n);
            s.sort_unstable();
            assert!(s.iter().copied().eq(0..n), "seed {seed}: {}", algo.name());
        }
    }
}

/// OptSelect meets the MaxUtility coverage constraint for every λ: each
/// specialization j gets |S ⋈ j| ≥ min(⌊k·P(j)⌋, |Rq ⋈ j|) documents —
/// whenever Σ max(⌊k·P(j)⌋, 1) over the covered specializations is at
/// most k. Past that sum the first phase can spend the slots a quota
/// needed; the `optselect` module doc states the guarantee, and its
/// tests pin a counterexample.
#[test]
fn optselect_coverage_constraint() {
    let mut checked = 0;
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let input = random_input(&mut rng);
        let n = input.num_candidates();
        let m = input.num_specializations();
        let k = rng.gen_range(1..40).min(n);
        // The constraint binds the k most probable specializations: all
        // of them when m ≤ k.
        if m == 0 || m > k {
            continue;
        }
        let quota = |j: usize| (k as f64 * input.spec_probs[j]).floor() as usize;
        let available = |j: usize| input.utilities.coverage(j);
        let claimed: usize = (0..m)
            .filter(|&j| available(j) > 0)
            .map(|j| quota(j).max(1))
            .sum();
        if claimed > k {
            continue;
        }
        for lambda in [0.0, 0.15, 1.0] {
            let s = OptSelect::with_lambda(lambda).select(&input, k);
            for j in 0..m {
                let got = s
                    .iter()
                    .filter(|&&i| input.utilities.get(i, j) > 0.0)
                    .count();
                let floor = quota(j).min(available(j));
                assert!(
                    got >= floor,
                    "seed {seed}, λ={lambda}, spec {j}: got {got} < floor {floor} \
                     (quota {}, available {})",
                    quota(j),
                    available(j)
                );
            }
        }
        checked += 1;
    }
    assert!(
        checked * 2 >= CASES,
        "only {checked} of {CASES} cases were checked"
    );
}

/// The Eq. 4 objective of IASelect's greedy solution is monotone in k.
#[test]
fn iaselect_objective_monotone() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let input = random_input(&mut rng);
        let full = IaSelect::new().select(&input, input.num_candidates());
        let objective = |sol: &[usize]| -> f64 {
            (0..input.num_specializations())
                .map(|j| {
                    let unc: f64 = sol
                        .iter()
                        .map(|&i| 1.0 - input.utilities.get(i, j))
                        .product();
                    input.spec_probs[j] * (1.0 - unc)
                })
                .sum()
        };
        let mut prev = 0.0;
        for l in 1..=full.len() {
            let v = objective(&full[..l]);
            assert!(v >= prev - 1e-9, "seed {seed}: drops at {l}: {prev} → {v}");
            prev = v;
        }
    }
}

/// xQuAD with λ = 0 ranks purely by relevance.
#[test]
fn xquad_lambda_zero_is_relevance() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let input = random_input(&mut rng);
        let k = rng.gen_range(1..30);
        let s = XQuad::with_lambda(0.0).select(&input, k);
        for w in s.windows(2) {
            assert!(
                input.relevance[w[0]] >= input.relevance[w[1]] - 1e-12,
                "seed {seed}: not relevance-sorted"
            );
        }
    }
}
