//! xQuAD — Santos et al.'s explicit query aspect diversification.
//!
//! §3.1.2: xQuAD greedily grows the solution by repeatedly picking the
//! document `d* ∈ R \ S` maximizing
//!
//! ```text
//! (1 − λ)·P(d|q) + λ·P(d, S̄|q)                                (Eq. 5)
//! P(d, S̄|q) = Σ_{q′∈Sq} P(q′|q)·P(d|q′)·Π_{dⱼ∈S}(1 − P(dⱼ|q′))  (Eq. 6)
//! ```
//!
//! In the paper's query-log adaptation `P(d|q′)` is measured by the
//! normalized utility `Ũ(d|R_q′)`. Like IASelect, the per-specialization
//! coverage product is maintained incrementally — `O(n·k·|Sq|)` (Table 1).
//! Unlike IASelect, xQuAD keeps the baseline relevance `P(d|q)` in the
//! selection criterion, mixed by λ.

use crate::candidates::DiversifyInput;
use crate::lazy::lazy_greedy;
use crate::Diversifier;

/// The xQuAD greedy algorithm.
#[derive(Debug, Clone, Copy)]
pub struct XQuad {
    /// Relevance/diversity mixing parameter (the paper uses λ = 0.15).
    pub lambda: f64,
}

impl Default for XQuad {
    fn default() -> Self {
        XQuad { lambda: 0.15 }
    }
}

impl XQuad {
    /// xQuAD with the paper's λ = 0.15.
    pub fn new() -> Self {
        Self::default()
    }

    /// xQuAD with a custom λ ∈ [0, 1].
    pub fn with_lambda(lambda: f64) -> Self {
        assert!((0.0..=1.0).contains(&lambda), "λ must lie in [0,1]");
        XQuad { lambda }
    }

    /// The pre-optimization full-rescan greedy, kept verbatim as the
    /// equivalence oracle for the lazy [`select`](Diversifier::select)
    /// (`tests/select_equivalence.rs` asserts identical index sequences).
    pub fn select_eager(&self, input: &DiversifyInput, k: usize) -> Vec<usize> {
        let n = input.num_candidates();
        let m = input.num_specializations();
        let k = k.min(n);
        let mut selected = Vec::with_capacity(k);
        let mut in_s = vec![false; n];
        // Π_{dⱼ∈S}(1 − Ũ(dⱼ|R_q′)) per specialization.
        let mut uncovered = vec![1.0f64; m];

        for _ in 0..k {
            let mut best: Option<(f64, usize)> = None;
            for (i, &taken) in in_s.iter().enumerate() {
                if taken {
                    continue;
                }
                let row = input.utilities.row(i);
                let diversity: f64 = (0..m)
                    .map(|j| input.spec_probs[j] * row[j] * uncovered[j])
                    .sum();
                let score = (1.0 - self.lambda) * input.relevance[i] + self.lambda * diversity;
                let better = match best {
                    None => true,
                    Some((bs, bi)) => score > bs || (score == bs && i < bi),
                };
                if better {
                    best = Some((score, i));
                }
            }
            let Some((_, idx)) = best else { break };
            in_s[idx] = true;
            selected.push(idx);
            let row = input.utilities.row(idx);
            for j in 0..m {
                uncovered[j] *= 1.0 - row[j];
            }
        }
        selected
    }
}

impl Diversifier for XQuad {
    fn name(&self) -> &'static str {
        "xQuAD"
    }

    /// Exact lazy-greedy xQuAD (identical picks to
    /// [`select_eager`](XQuad::select_eager), `O(n log n + k·m)`-ish on
    /// typical inputs instead of `O(n·k·m)`).
    ///
    /// Staleness invariant: `uncovered[j]` only shrinks (each factor
    /// `1 − Ũ ∈ [0,1]`), every diversity summand
    /// `P(q′|q)·Ũ·uncovered` is non-negative, and f64 `+`/`×` are
    /// monotone — so a score computed in an earlier round upper-bounds
    /// the current one, which is exactly what `lazy_greedy` needs.
    fn select(&self, input: &DiversifyInput, k: usize) -> Vec<usize> {
        let n = input.num_candidates();
        let m = input.num_specializations();
        // Both closures touch the uncovered-mass state; a RefCell gives
        // them disjoint dynamic borrows (the driver never overlaps them).
        let uncovered_cell = std::cell::RefCell::new(vec![1.0f64; m]);
        lazy_greedy(
            n,
            k,
            |i, _selected| {
                let uncovered = uncovered_cell.borrow();
                let row = input.utilities.row(i);
                let diversity: f64 = (0..m)
                    .map(|j| input.spec_probs[j] * row[j] * uncovered[j])
                    .sum();
                (
                    (1.0 - self.lambda) * input.relevance[i] + self.lambda * diversity,
                    0.0,
                )
            },
            |idx| {
                let mut uncovered = uncovered_cell.borrow_mut();
                let row = input.utilities.row(idx);
                for j in 0..m {
                    uncovered[j] *= 1.0 - row[j];
                }
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::utility::UtilityMatrix;

    fn input() -> DiversifyInput {
        #[rustfmt::skip]
        let u = vec![
            0.9, 0.0,
            0.8, 0.0,
            0.0, 0.7,
            0.0, 0.0,
        ];
        DiversifyInput::new(
            vec![0.6, 0.4],
            vec![1.0, 0.95, 0.5, 0.9],
            UtilityMatrix::from_values(4, 2, u),
        )
    }

    #[test]
    fn high_lambda_diversifies() {
        let inp = input();
        let s = XQuad::with_lambda(1.0).select(&inp, 2);
        // λ=1: first pick covers spec0 (0.6·0.9 beats 0.4·0.7); second
        // pick must switch to spec1 because spec0's mass collapsed.
        assert_eq!(s[0], 0);
        assert_eq!(s[1], 2);
    }

    #[test]
    fn zero_lambda_is_pure_relevance() {
        let inp = input();
        let s = XQuad::with_lambda(0.0).select(&inp, 4);
        assert_eq!(s, vec![0, 1, 3, 2]);
    }

    #[test]
    fn default_lambda_balances() {
        let inp = input();
        let s = XQuad::new().select(&inp, 3);
        // With λ=0.15, relevance dominates but diversity still reorders
        // doc2 (covers an untouched specialization) relative to pure
        // relevance at some prefix. At minimum the output is valid.
        assert_eq!(s.len(), 3);
        let mut d = s.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn redundant_documents_are_demoted() {
        // Two near-identical docs for spec0 and one for spec1: with a
        // diversity-leaning λ the spec1 doc outranks the duplicate.
        let u = UtilityMatrix::from_values(3, 2, vec![0.9, 0.0, 0.9, 0.0, 0.0, 0.8]);
        let inp = DiversifyInput::new(vec![0.5, 0.5], vec![1.0, 1.0, 0.6], u);
        let s = XQuad::with_lambda(0.9).select(&inp, 2);
        assert_eq!(s[0], 0);
        assert_eq!(s[1], 2, "the duplicate doc1 must lose to doc2");
    }

    #[test]
    fn matches_paper_cost_model_shape() {
        // Smoke: n=200, m=5, k=20 runs and returns k distinct docs.
        let n = 200;
        let m = 5;
        let values: Vec<f64> = (0..n * m)
            .map(|x| ((x * 37) % 100) as f64 / 100.0)
            .collect();
        let probs = vec![0.2; 5];
        let rel: Vec<f64> = (0..n).map(|i| (i % 97) as f64 / 96.0).collect();
        let inp = DiversifyInput::new(probs, rel, UtilityMatrix::from_values(n, m, values));
        let s = XQuad::new().select(&inp, 20);
        assert_eq!(s.len(), 20);
    }

    #[test]
    fn empty_input() {
        let inp = DiversifyInput::new(vec![], vec![], UtilityMatrix::from_values(0, 0, vec![]));
        assert!(XQuad::new().select(&inp, 5).is_empty());
    }
}
