//! The diversification input bundle.
//!
//! Every algorithm of the framework consumes the same precomputed
//! quantities (this mirrors the paper's efficiency evaluation, whose cost
//! model counts selection work, with utilities as inputs):
//!
//! * `spec_probs[j]` — `P(q′_j|q)`, the specialization distribution of
//!   Definition 1 (sums to 1),
//! * `relevance[i]` — `P(dᵢ|q)`, the normalized baseline-retrieval score,
//! * `utilities[i][j]` — `Ũ(dᵢ|R_{q′_j})` (Definition 2, thresholded),
//! * `vectors` — optional snippet surrogates, needed only by [`Mmr`]
//!   (pairwise document similarity is not part of the paper's three
//!   algorithms).
//!
//! [`Mmr`]: crate::mmr::Mmr

use crate::utility::UtilityMatrix;
use serpdiv_index::SparseVector;
use std::sync::Arc;

/// Input to a [`Diversifier`](crate::Diversifier).
#[derive(Debug, Clone)]
pub struct DiversifyInput {
    /// `P(q′|q)` per specialization; sums to 1 (validated).
    pub spec_probs: Vec<f64>,
    /// `P(d|q)` per candidate, in `[0, 1]`, candidate order = the baseline
    /// ranking `Rq` (index 0 = rank 1).
    pub relevance: Vec<f64>,
    /// `Ũ(d|R_q′)` matrix, `n × m`.
    pub utilities: UtilityMatrix,
    /// Snippet surrogate vectors (candidate order), for similarity-based
    /// baselines; `None` when only the paper's algorithms run. `Arc`'d so
    /// serving layers can share memoized surrogates without copying.
    pub vectors: Option<Vec<Arc<SparseVector>>>,
}

impl DiversifyInput {
    /// Bundle and validate the inputs.
    ///
    /// # Panics
    /// Panics when dimensions disagree, probabilities don't sum to ≈ 1,
    /// or relevance values leave `[0, 1]`.
    pub fn new(spec_probs: Vec<f64>, relevance: Vec<f64>, utilities: UtilityMatrix) -> Self {
        assert_eq!(
            utilities.num_candidates(),
            relevance.len(),
            "one relevance value per candidate"
        );
        assert_eq!(
            utilities.num_specializations(),
            spec_probs.len(),
            "one probability per specialization"
        );
        if !spec_probs.is_empty() {
            let total: f64 = spec_probs.iter().sum();
            assert!(
                (total - 1.0).abs() < 1e-6,
                "specialization probabilities must sum to 1, got {total}"
            );
            assert!(spec_probs.iter().all(|&p| p >= 0.0));
        }
        assert!(
            relevance.iter().all(|r| (0.0..=1.0).contains(r)),
            "relevance must be normalized to [0,1]"
        );
        DiversifyInput {
            spec_probs,
            relevance,
            utilities,
            vectors: None,
        }
    }

    /// Attach surrogate vectors (enables MMR).
    ///
    /// # Panics
    /// Panics when the vector count differs from the candidate count.
    pub fn with_vectors(mut self, vectors: Vec<Arc<SparseVector>>) -> Self {
        assert_eq!(vectors.len(), self.num_candidates());
        self.vectors = Some(vectors);
        self
    }

    /// Number of candidates `n = |Rq|`.
    pub fn num_candidates(&self) -> usize {
        self.relevance.len()
    }

    /// Number of specializations `|Sq|`.
    pub fn num_specializations(&self) -> usize {
        self.spec_probs.len()
    }

    /// The paper's Eq. 9 — the overall utility of candidate `i`:
    ///
    /// ```text
    /// Ũ(d|q) = Σ_{q′∈Sq} (1−λ)·P(d|q) + λ·P(q′|q)·Ũ(d|R_q′)
    ///        = (1−λ)·|Sq|·P(d|q) + λ·Σ_j P(q′_j|q)·Ũ(d|R_q′_j)
    /// ```
    pub fn overall_utility(&self, i: usize, lambda: f64) -> f64 {
        let m = self.num_specializations();
        let rel = (1.0 - lambda) * m as f64 * self.relevance[i];
        let util: f64 = self
            .utilities
            .row(i)
            .iter()
            .zip(&self.spec_probs)
            .map(|(&u, &p)| p * u)
            .sum();
        rel + lambda * util
    }

    /// Normalize raw retrieval scores into `[0, 1]` relevance (min–max;
    /// an all-equal list maps to all-ones).
    pub fn normalize_scores(scores: &[f64]) -> Vec<f64> {
        let max = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let min = scores.iter().cloned().fold(f64::INFINITY, f64::min);
        if scores.is_empty() {
            return Vec::new();
        }
        if !(max.is_finite() && min.is_finite()) || (max - min) < 1e-12 {
            return vec![1.0; scores.len()];
        }
        scores.iter().map(|&s| (s - min) / (max - min)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input() -> DiversifyInput {
        // 3 candidates × 2 specializations.
        let u = UtilityMatrix::from_values(3, 2, vec![0.8, 0.0, 0.0, 0.6, 0.2, 0.2]);
        DiversifyInput::new(vec![0.7, 0.3], vec![1.0, 0.8, 0.5], u)
    }

    #[test]
    fn dimensions() {
        let inp = input();
        assert_eq!(inp.num_candidates(), 3);
        assert_eq!(inp.num_specializations(), 2);
    }

    #[test]
    fn overall_utility_matches_equation_nine() {
        let inp = input();
        let lambda = 0.15;
        // Candidate 0: (1-λ)·2·1.0 + λ·(0.7·0.8 + 0.3·0.0)
        let expected = 0.85 * 2.0 * 1.0 + 0.15 * (0.7 * 0.8);
        assert!((inp.overall_utility(0, lambda) - expected).abs() < 1e-12);
        // λ = 1: pure diversification utility.
        assert!((inp.overall_utility(2, 1.0) - (0.7 * 0.2 + 0.3 * 0.2)).abs() < 1e-12);
        // λ = 0: pure relevance (scaled by |Sq|).
        assert!((inp.overall_utility(1, 0.0) - 2.0 * 0.8).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn bad_probabilities_panic() {
        let u = UtilityMatrix::from_values(1, 2, vec![0.0, 0.0]);
        let _ = DiversifyInput::new(vec![0.9, 0.9], vec![1.0], u);
    }

    #[test]
    #[should_panic(expected = "per candidate")]
    fn mismatched_relevance_panics() {
        let u = UtilityMatrix::from_values(2, 1, vec![0.0, 0.0]);
        let _ = DiversifyInput::new(vec![1.0], vec![1.0], u);
    }

    #[test]
    fn normalize_scores_maps_to_unit_interval() {
        let scores = vec![2.0, 6.0, 4.0];
        let norm = DiversifyInput::normalize_scores(&scores);
        assert_eq!(norm, vec![0.0, 1.0, 0.5]);
    }

    #[test]
    fn normalize_constant_scores() {
        assert_eq!(
            DiversifyInput::normalize_scores(&[3.0, 3.0]),
            vec![1.0, 1.0]
        );
        assert!(DiversifyInput::normalize_scores(&[]).is_empty());
    }

    #[test]
    fn zero_specializations_is_allowed() {
        // Non-ambiguous queries flow through with m = 0 (pure baseline).
        let u = UtilityMatrix::from_values(2, 0, vec![]);
        let inp = DiversifyInput::new(vec![], vec![1.0, 0.5], u);
        assert_eq!(inp.overall_utility(0, 0.5), 0.0);
    }
}
