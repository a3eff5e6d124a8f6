//! Equivalence suite for the lazy-greedy selection fast paths.
//!
//! PR 8 replaced the full-rescan greedy loops of IASelect, xQuAD and MMR
//! with stale-bound priority queues (`crates/core/src/lazy.rs`). The
//! optimization is *exact*, not approximate, so this suite pins it three
//! ways:
//!
//! 1. **Golden sequences** captured from the pre-optimization code on 12
//!    deterministic worlds — any tie-break drift against the shipped
//!    behaviour fails loudly, even if lazy and eager drift *together*.
//! 2. **Lazy vs eager oracle**: each diversifier's `select` must return
//!    index-for-index the same ranking as its verbatim `select_eager`
//!    copy of the old loop, across tie-heavy and smooth random worlds and
//!    a λ sweep including the degenerate 0 and 1 endpoints.
//! 3. An **extended randomized sweep** over many more random worlds.
//!
//! OptSelect is not greedy (one scoring pass, one selection of its top 2k
//! and one sort, Algorithm 2), so it has no lazy variant — the goldens
//! still cover it to pin its tie-breaking alongside the other three.

use serpdiv::core::{
    run_algorithm, AlgorithmKind, DiversifyInput, IaSelect, Mmr, PipelineParams, UtilityMatrix,
    XQuad,
};
use serpdiv::index::SparseVector;
use serpdiv::text::TermId;
use std::sync::Arc;

const ALGOS: [AlgorithmKind; 4] = [
    AlgorithmKind::OptSelect,
    AlgorithmKind::IaSelect,
    AlgorithmKind::XQuad,
    AlgorithmKind::Mmr,
];

/// The one hand-rolled generator left in the tests: the golden index
/// table below was captured from the pre-lazy code over *this* generator's
/// worlds, so swapping it for `StdRng` would orphan the goldens.
struct Lcg(u64);
impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn random_vector(rng: &mut Lcg, max_nnz: u64, vocab: u64) -> SparseVector {
    let nnz = rng.below(max_nnz + 1);
    SparseVector::from_pairs((0..nnz).map(|_| {
        let t = rng.below(vocab) as u32;
        let w = rng.below(1000) as f32 / 50.0 + 0.01;
        (TermId(t), w)
    }))
}

/// One random selection world. `tie: true` quantizes relevance and
/// utilities onto tiny grids so equal scores are common and the
/// score → tie-key → index comparison chain is genuinely exercised.
fn world(rng: &mut Lcg, tie: bool, with_vecs: bool) -> (DiversifyInput, usize) {
    let n = 2 + rng.below(60) as usize;
    let m = 1 + rng.below(8) as usize;
    let k = 1 + rng.below(12) as usize;
    let weights: Vec<u64> = (0..m).map(|_| 1 + rng.below(9)).collect();
    let total: u64 = weights.iter().sum();
    let spec_probs: Vec<f64> = weights.iter().map(|&w| w as f64 / total as f64).collect();
    let relevance: Vec<f64> = (0..n)
        .map(|_| {
            if tie {
                rng.below(8) as f64 / 7.0
            } else {
                rng.below(1_000_000) as f64 / 999_999.0
            }
        })
        .collect();
    let values: Vec<f64> = (0..n * m)
        .map(|_| {
            if tie {
                rng.below(5) as f64 / 4.0
            } else {
                rng.below(1_000_000) as f64 / 999_999.0
            }
        })
        .collect();
    let mut input = DiversifyInput::new(
        spec_probs,
        relevance,
        UtilityMatrix::from_values(n, m, values),
    );
    if with_vecs {
        input = input.with_vectors(
            (0..n)
                .map(|_| Arc::new(random_vector(rng, 5, 12)))
                .collect(),
        );
    }
    (input, k)
}

/// Golden rankings captured from the pre-optimization (eager) selection
/// loops at the PR 8 baseline commit, seed `0x601d_5eed`, world `w` built
/// with `tie = w < 6`, `with_vecs = w % 2 == 0`. Inner order follows
/// [`ALGOS`]: OptSelect, IASelect, xQuAD, MMR.
#[allow(clippy::type_complexity)]
fn golden() -> Vec<(usize, Vec<Vec<usize>>)> {
    vec![
        (
            0,
            vec![
                vec![38, 6, 30, 22, 14, 19, 35],
                vec![12, 21, 3, 6, 14, 22, 30],
                vec![6, 38, 14, 30, 22, 3, 11],
                vec![6, 14, 3, 19, 35, 9, 27],
            ],
        ),
        (
            1,
            vec![
                vec![2, 26, 34, 42, 10, 18],
                vec![1, 39, 2, 10, 18, 26],
                vec![2, 26, 18, 34, 42, 10],
                vec![2, 34, 26, 10, 18, 42],
            ],
        ),
        (
            2,
            vec![vec![0, 1, 2], vec![1, 0, 2], vec![1, 2, 0], vec![1, 2, 0]],
        ),
        (
            3,
            vec![
                vec![6, 22, 27, 11, 3, 14, 19, 28, 12, 20, 4],
                vec![22, 18, 14, 6, 3, 11, 19, 27, 4, 12, 20],
                vec![22, 6, 14, 27, 3, 11, 19, 28, 4, 20, 12],
                vec![6, 14, 27, 22, 3, 19, 11, 28, 12, 4, 25],
            ],
        ),
        (4, vec![vec![2, 18], vec![24, 2], vec![2, 18], vec![2, 7]]),
        (
            5,
            vec![
                vec![26, 18, 7, 2, 10],
                vec![29, 0, 23, 2, 10],
                vec![26, 2, 18, 10, 7],
                vec![2, 26, 10, 18, 7],
            ],
        ),
        (
            6,
            vec![
                vec![12, 14, 15, 16],
                vec![6, 10, 24, 13],
                vec![12, 14, 16, 2],
                vec![12, 33, 15, 43],
            ],
        ),
        (
            7,
            vec![
                vec![1, 4, 19, 41, 35, 42, 30, 37, 40, 44, 12],
                vec![9, 38, 20, 4, 5, 31, 1, 10, 41, 35, 11],
                vec![4, 1, 42, 30, 41, 19, 35, 37, 40, 44, 12],
                vec![4, 30, 42, 1, 41, 0, 19, 40, 35, 44, 37],
            ],
        ),
        (
            8,
            vec![vec![28, 22], vec![12, 14], vec![28, 31], vec![28, 31]],
        ),
        (
            9,
            vec![
                vec![21, 13, 5, 20, 19, 28, 10, 27, 3],
                vec![4, 20, 29, 32, 33, 8, 37, 36, 22],
                vec![5, 21, 13, 10, 19, 20, 27, 28, 3],
                vec![21, 5, 10, 13, 24, 28, 3, 19, 20],
            ],
        ),
        (
            10,
            vec![
                vec![3, 27, 28, 21],
                vec![26, 6, 28, 10],
                vec![3, 27, 21, 4],
                vec![27, 3, 4, 9],
            ],
        ),
        (
            11,
            vec![
                vec![1, 2, 33, 40, 11, 20, 0],
                vec![8, 29, 19, 16, 36, 20, 9],
                vec![20, 1, 33, 11, 2, 40, 0],
                vec![1, 30, 40, 11, 33, 2, 0],
            ],
        ),
    ]
}

/// The lazy selection paths must reproduce the pre-optimization rankings
/// bit-for-bit (captured as golden index sequences — see [`golden`]).
#[test]
fn lazy_selection_matches_pre_optimization_goldens() {
    let mut rng = Lcg(0x601d_5eed);
    let golden = golden();
    for (w, (gw, expected)) in golden.iter().enumerate() {
        let (input, k) = world(&mut rng, w < 6, w % 2 == 0);
        assert_eq!(*gw, w, "golden table out of order");
        for (algo, want) in ALGOS.iter().zip(expected) {
            let (got, name) = run_algorithm(*algo, &input, k, PipelineParams::default());
            assert_eq!(&got, want, "world {w}: {name} diverged from golden");
        }
    }
}

/// Compare every lazy `select` against its verbatim eager oracle on one
/// world, across a λ sweep (xQuAD and MMR) including both endpoints.
fn assert_lazy_matches_eager(input: &DiversifyInput, k: usize, context: &str) {
    let ia = IaSelect::new();
    assert_eq!(
        serpdiv::core::Diversifier::select(&ia, input, k),
        ia.select_eager(input, k),
        "{context}: IASelect lazy vs eager"
    );
    for lambda in [0.0, 0.15, 0.5, 0.85, 1.0] {
        let xq = XQuad::with_lambda(lambda);
        assert_eq!(
            serpdiv::core::Diversifier::select(&xq, input, k),
            xq.select_eager(input, k),
            "{context}: xQuAD(λ={lambda}) lazy vs eager"
        );
        let mmr = Mmr::with_lambda(lambda);
        assert_eq!(
            serpdiv::core::Diversifier::select(&mmr, input, k),
            mmr.select_eager(input, k),
            "{context}: MMR(λ={lambda}) lazy vs eager"
        );
    }
}

/// Deterministic sweep: tie-heavy and smooth worlds, with and without
/// surrogate vectors (vectors flip MMR between cosine and profile
/// similarity).
#[test]
fn lazy_matches_eager_on_mixed_worlds() {
    let mut rng = Lcg(0x1a2b_3c4d);
    for w in 0..24usize {
        let (input, k) = world(&mut rng, w % 3 != 0, w % 2 == 1);
        assert_lazy_matches_eager(&input, k, &format!("world {w}"));
        // Degenerate k values on a few worlds.
        if w % 8 == 0 {
            assert_lazy_matches_eager(&input, 0, &format!("world {w} k=0"));
            assert_lazy_matches_eager(&input, 1_000, &format!("world {w} k=n+"));
        }
    }
}

/// All-ties stress: constant relevance and a constant utility matrix force
/// every round through the full tie-break chain.
#[test]
fn lazy_matches_eager_on_all_constant_world() {
    for (n, m) in [(1usize, 1usize), (7, 3), (40, 5)] {
        let input = DiversifyInput::new(
            vec![1.0 / m as f64; m],
            vec![0.5; n],
            UtilityMatrix::from_values(n, m, vec![0.25; n * m]),
        );
        assert_lazy_matches_eager(&input, n, &format!("constant {n}x{m}"));
    }
}

/// Extended randomized sweep.
mod randomized {
    use super::*;

    #[test]
    fn lazy_matches_eager_on_many_random_worlds() {
        let mut rng = Lcg(0x5eed_1a2e);
        for w in 0..300usize {
            let (input, k) = world(&mut rng, w % 2 == 0, w % 5 < 2);
            assert_lazy_matches_eager(&input, k, &format!("random world {w}"));
        }
    }
}
