//! IASelect — the greedy approximation of QL Diversify(k).
//!
//! §3.1.1 adapts Agrawal et al.'s Diversify(k) (WSDM 2009) to the query-log
//! setting: categories become mined specializations and the quality value
//! `V(d|q,c)` becomes the normalized utility `Ũ(d|R_q′)`. The objective,
//!
//! ```text
//! P(S|q) = Σ_{q′∈Sq} P(q′|q) · (1 − Π_{d∈S} (1 − Ũ(d|R_q′)))   (Eq. 4)
//! ```
//!
//! is submodular; the greedy algorithm that repeatedly inserts the document
//! with the largest *marginal* gain achieves a `(1−1/e)` approximation
//! (Nemhauser et al., 1978). The marginal gain of `d` given the current
//! solution `S` is
//!
//! ```text
//! g(d|S) = Σ_{q′} P(q′|q) · Ũ(d|R_q′) · Π_{d′∈S}(1 − Ũ(d′|R_q′))
//! ```
//!
//! Keeping the per-specialization "uncovered mass" `Π(1−Ũ)` incrementally
//! makes each of the `k` rounds a scan of the remaining candidates —
//! `O(n·k·|Sq|)` total (§4, Table 1).

use crate::candidates::DiversifyInput;
use crate::lazy::lazy_greedy;
use crate::Diversifier;

/// The IASelect greedy algorithm.
#[derive(Debug, Clone, Copy, Default)]
pub struct IaSelect;

impl IaSelect {
    /// Create the algorithm (no parameters: Eq. 4 has no λ).
    pub fn new() -> Self {
        IaSelect
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
        // Uncovered mass per specialization: Π_{d∈S}(1 − Ũ(d|R_q′)).
        let mut uncovered = vec![1.0f64; m];

        for _ in 0..k {
            let mut best: Option<(f64, f64, usize)> = None; // (gain, relevance, idx)
            for (i, &taken) in in_s.iter().enumerate() {
                if taken {
                    continue;
                }
                let row = input.utilities.row(i);
                let gain: f64 = (0..m)
                    .map(|j| input.spec_probs[j] * row[j] * uncovered[j])
                    .sum();
                let key = (gain, input.relevance[i], i);
                let better = match best {
                    None => true,
                    Some((bg, br, bi)) => {
                        gain > bg || (gain == bg && (key.1 > br || (key.1 == br && i < bi)))
                    }
                };
                if better {
                    best = Some(key);
                }
            }
            let Some((_, _, idx)) = best else { break };
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

impl Diversifier for IaSelect {
    fn name(&self) -> &'static str {
        "IASelect"
    }

    /// Exact lazy-greedy IASelect (identical picks to
    /// [`select_eager`](IaSelect::select_eager)).
    ///
    /// Staleness invariant: `uncovered[j]` only shrinks and every gain
    /// summand `P(q′|q)·Ũ·uncovered` is non-negative, so a stale gain
    /// upper-bounds the fresh one in f64 arithmetic. The secondary tie key
    /// is the (round-independent) baseline relevance, matching the eager
    /// `gain, relevance, index` comparison chain.
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
                let gain: f64 = (0..m)
                    .map(|j| input.spec_probs[j] * row[j] * uncovered[j])
                    .sum();
                (gain, input.relevance[i])
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

/// Evaluate the Eq. 4 objective of a solution (used by tests).
pub fn objective(input: &DiversifyInput, solution: &[usize]) -> f64 {
    (0..input.num_specializations())
        .map(|j| {
            let uncovered: f64 = solution
                .iter()
                .map(|&i| 1.0 - input.utilities.get(i, j))
                .product();
            input.spec_probs[j] * (1.0 - uncovered)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::utility::UtilityMatrix;

    /// Two specializations; doc2 covers both moderately.
    fn input() -> DiversifyInput {
        #[rustfmt::skip]
        let u = vec![
            0.9, 0.0,
            0.0, 0.9,
            0.5, 0.5,
            0.1, 0.1,
        ];
        DiversifyInput::new(
            vec![0.5, 0.5],
            vec![0.9, 0.8, 0.7, 0.6],
            UtilityMatrix::from_values(4, 2, u),
        )
    }

    #[test]
    fn first_pick_maximizes_weighted_utility() {
        let inp = input();
        let s = IaSelect::new().select(&inp, 1);
        // Gains: d0 = .5·.9 = .45, d1 = .45, d2 = .5·.5+.5·.5 = .5 → d2.
        assert_eq!(s, vec![2]);
    }

    #[test]
    fn second_pick_respects_coverage_decay() {
        let inp = input();
        let s = IaSelect::new().select(&inp, 3);
        assert_eq!(s[0], 2);
        // After d2, uncovered = (.5, .5); gains: d0 = .5·.9·.5 = .225,
        // d1 = .225 → tie → relevance breaks it: d0 (0.9) over d1 (0.8).
        assert_eq!(s[1], 0);
        assert_eq!(s[2], 1);
    }

    #[test]
    fn greedy_is_near_optimal_on_small_instances() {
        // Exhaustive check of the (1 − 1/e) guarantee on every C(6,3).
        let inp = {
            #[rustfmt::skip]
            let u = vec![
                0.8, 0.1, 0.0,
                0.1, 0.7, 0.0,
                0.0, 0.2, 0.9,
                0.4, 0.4, 0.1,
                0.2, 0.0, 0.5,
                0.6, 0.6, 0.6,
            ];
            DiversifyInput::new(
                vec![0.5, 0.3, 0.2],
                vec![1.0; 6],
                UtilityMatrix::from_values(6, 3, u),
            )
        };
        let greedy = IaSelect::new().select(&inp, 3);
        let greedy_val = objective(&inp, &greedy);
        let mut best_val = 0.0f64;
        for a in 0..6 {
            for b in (a + 1)..6 {
                for c in (b + 1)..6 {
                    best_val = best_val.max(objective(&inp, &[a, b, c]));
                }
            }
        }
        assert!(
            greedy_val >= (1.0 - 1.0 / std::f64::consts::E) * best_val,
            "greedy {greedy_val} < (1-1/e)·{best_val}"
        );
    }

    #[test]
    fn zero_utility_candidates_ranked_by_relevance() {
        let u = UtilityMatrix::from_values(3, 1, vec![0.0, 0.0, 0.0]);
        let inp = DiversifyInput::new(vec![1.0], vec![0.3, 0.9, 0.6], u);
        let s = IaSelect::new().select(&inp, 3);
        assert_eq!(s, vec![1, 2, 0]);
    }

    #[test]
    fn k_bounds() {
        let inp = input();
        assert!(IaSelect::new().select(&inp, 0).is_empty());
        assert_eq!(IaSelect::new().select(&inp, 99).len(), 4);
    }

    #[test]
    fn objective_monotone_in_solution_size() {
        let inp = input();
        let s = IaSelect::new().select(&inp, 4);
        let mut prev = 0.0;
        for l in 1..=4 {
            let v = objective(&inp, &s[..l]);
            assert!(v >= prev - 1e-12);
            prev = v;
        }
        assert!(prev <= 1.0 + 1e-12);
    }
}
