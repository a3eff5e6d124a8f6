//! Stale-bound priority queue for **exact** lazy-greedy selection.
//!
//! xQuAD, IASelect and MMR are greedy maximizers of objectives whose
//! per-candidate score can only *decrease* as the solution grows (for
//! xQuAD/IASelect the per-specialization uncovered mass `Π(1−Ũ)` shrinks
//! monotonically and every summand is non-negative; for MMR `max_sim`
//! grows, entering the score with a negative sign). A score computed in an
//! earlier round is therefore an *upper bound* on the current one — in
//! IEEE f64, not just in exact arithmetic: every bound argument reduces to
//! the monotonicity of floating-point `+`, `×` and `/` by a positive
//! value, which rounding preserves.
//!
//! The classic lazy-greedy trick (Minoux 1978) exploits this: keep
//! candidates in a max-heap under their possibly-stale scores and, each
//! round, re-evaluate only popped entries until the top is *fresh* (its
//! score was computed this round). A fresh top dominates every other
//! entry's upper bound, hence every other fresh score — so the pick is
//! **identical** to the eager full rescan, element for element, while
//! typical rounds re-evaluate a handful of candidates instead of all `n`.
//! `tests/select_equivalence.rs` pins the lazy paths against the verbatim
//! eager oracles (`select_eager`) on tie-heavy and randomized inputs.
//!
//! Tie-breaking is the delicate part. The eager loops compare scores with
//! `>`/`==` (so `-0.0` and `+0.0` are *equal*) and break ties by a
//! secondary key and then by the smaller index. The heap must reproduce
//! this exactly, so [`LazyEntry::new`] normalizes `-0.0` to `+0.0`
//! (`+ 0.0` does exactly that and nothing else; NaN cannot occur — every
//! input is validated into `[0,1]` by `DiversifyInput::new`), after which
//! `f64::total_cmp` coincides with the eager `>`/`==` semantics, and the
//! [`Ord`] impl orders equal-keyed entries by ascending index. When a
//! stale entry with a winning index refreshes to an equal score it
//! re-enters the heap *above* any equal-scored larger index, exactly as
//! the eager left-to-right scan would have picked it.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One heap entry: a candidate under its (possibly stale) score.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LazyEntry {
    /// Primary key (stale ⇒ upper bound of the fresh value).
    score: f64,
    /// Secondary tie key (IASelect: relevance; others: constant `0.0`).
    tie: f64,
    /// Candidate index — final tie key, ascending.
    pub(crate) idx: usize,
    /// Round the score was computed in; fresh ⇔ `round == selected.len()`.
    pub(crate) round: usize,
}

impl LazyEntry {
    /// Build an entry, normalizing `-0.0` keys to `+0.0` so `total_cmp`
    /// ordering matches the eager oracles' `>`/`==` comparisons.
    pub(crate) fn new(score: f64, tie: f64, idx: usize, round: usize) -> Self {
        LazyEntry {
            score: score + 0.0,
            tie: tie + 0.0,
            idx,
            round,
        }
    }
}

impl PartialEq for LazyEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for LazyEntry {}

impl PartialOrd for LazyEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for LazyEntry {
    /// Max-heap priority: higher score, then higher tie key, then *lower*
    /// index.
    fn cmp(&self, other: &Self) -> Ordering {
        #[cfg(test)]
        crate::opcount::comparison();
        self.score
            .total_cmp(&other.score)
            .then_with(|| self.tie.total_cmp(&other.tie))
            .then_with(|| other.idx.cmp(&self.idx))
    }
}

/// Drive one exact lazy-greedy selection of up to `k` items over `n`
/// candidates.
///
/// `fresh(i, selected)` must return the candidate's exact `(score, tie)`
/// for the current solution prefix (called for round-0 initialization and
/// for every refresh); `on_select(i)` applies the solution-state update
/// after index `i` is committed. Scores from earlier rounds must
/// upper-bound current ones — the caller's invariant, documented per
/// algorithm.
pub(crate) fn lazy_greedy(
    n: usize,
    k: usize,
    mut fresh: impl FnMut(usize, &[usize]) -> (f64, f64),
    mut on_select: impl FnMut(usize),
) -> Vec<usize> {
    let k = k.min(n);
    let mut selected: Vec<usize> = Vec::with_capacity(k);
    let mut heap: BinaryHeap<LazyEntry> = (0..n)
        .map(|i| {
            let (score, tie) = fresh(i, &selected);
            LazyEntry::new(score, tie, i, 0)
        })
        .collect();
    while selected.len() < k {
        let Some(top) = heap.pop() else { break };
        let round = selected.len();
        if top.round == round {
            selected.push(top.idx);
            on_select(top.idx);
        } else {
            let (score, tie) = fresh(top.idx, &selected);
            heap.push(LazyEntry::new(score, tie, top.idx, round));
        }
    }
    selected
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_score_then_tie_then_low_index() {
        let mut heap = BinaryHeap::new();
        heap.push(LazyEntry::new(1.0, 0.0, 7, 0));
        heap.push(LazyEntry::new(1.0, 0.0, 2, 0));
        heap.push(LazyEntry::new(1.0, 0.5, 9, 0));
        heap.push(LazyEntry::new(2.0, 0.0, 8, 0));
        let order: Vec<usize> = std::iter::from_fn(|| heap.pop().map(|e| e.idx)).collect();
        assert_eq!(order, vec![8, 9, 2, 7]);
    }

    #[test]
    fn negative_zero_ties_break_by_index_like_the_eager_scan() {
        let mut heap = BinaryHeap::new();
        heap.push(LazyEntry::new(0.0, 0.0, 3, 0));
        heap.push(LazyEntry::new(-0.0, 0.0, 1, 0));
        // Eager `==` treats -0.0 and +0.0 as a tie ⇒ index 1 wins.
        assert_eq!(heap.pop().unwrap().idx, 1);
    }

    #[test]
    fn lazy_greedy_with_constant_scores_is_index_order() {
        let picked = lazy_greedy(5, 3, |_, _| (1.0, 0.0), |_| {});
        assert_eq!(picked, vec![0, 1, 2]);
    }

    #[test]
    fn lazy_greedy_refreshes_stale_entries() {
        // Scores halve every round: candidate i starts at i+1. Exact
        // greedy picks 4, 3, 2 — the lazy loop must reach the same picks
        // through refreshes.
        let picked = lazy_greedy(
            5,
            3,
            |i, sel: &[usize]| (((i + 1) as f64) / (1u64 << sel.len()) as f64, 0.0),
            |_| {},
        );
        assert_eq!(picked, vec![4, 3, 2]);
    }

    #[test]
    fn lazy_greedy_handles_empty_and_oversized_k() {
        assert!(lazy_greedy(0, 3, |_, _| (0.0, 0.0), |_| {}).is_empty());
        assert_eq!(lazy_greedy(2, 99, |_, _| (1.0, 0.0), |_| {}).len(), 2);
    }
}
