//! Maximal Marginal Relevance (Carbonell & Goldstein, SIGIR 1998).
//!
//! The pioneering diversifier the paper's related-work section opens with
//! — included as the fourth baseline for the ablation benches. MMR greedily
//! picks
//!
//! ```text
//! d* = argmax_{d ∈ R\S} (1−λ)·rel(d) − λ·max_{d′∈S} sim(d, d′)
//! ```
//!
//! MMR needs pairwise document similarity, which the paper's three
//! algorithms deliberately avoid (their diversity signal comes from the
//! mined specializations). When surrogate vectors are attached to the
//! input, `sim` is the snippet cosine; otherwise the utility *profile*
//! rows act as low-dimensional document descriptions and `sim` is their
//! cosine — documents useful for the same specializations count as similar.
//!
//! Complexity: `O(n·k)` similarity evaluations thanks to the incremental
//! `max_sim` array (each new selection updates every candidate's best
//! similarity in one pass).

use crate::candidates::DiversifyInput;
use crate::lazy::lazy_greedy;
use crate::Diversifier;
use serpdiv_index::cosine;

/// The MMR algorithm.
#[derive(Debug, Clone, Copy)]
pub struct Mmr {
    /// Diversity weight λ ∈ [0, 1] (0 = pure relevance).
    pub lambda: f64,
}

impl Default for Mmr {
    fn default() -> Self {
        Mmr { lambda: 0.5 }
    }
}

impl Mmr {
    /// MMR with the conventional λ = 0.5.
    pub fn new() -> Self {
        Self::default()
    }

    /// MMR with a custom λ ∈ [0, 1].
    pub fn with_lambda(lambda: f64) -> Self {
        assert!((0.0..=1.0).contains(&lambda), "λ must lie in [0,1]");
        Mmr { lambda }
    }

    fn similarity(&self, input: &DiversifyInput, a: usize, b: usize) -> f64 {
        if let Some(vectors) = &input.vectors {
            return f64::from(cosine(&vectors[a], &vectors[b]));
        }
        // Fallback: cosine of the utility profiles.
        let ra = input.utilities.row(a);
        let rb = input.utilities.row(b);
        let dot: f64 = ra.iter().zip(rb).map(|(x, y)| x * y).sum();
        let na: f64 = ra.iter().map(|x| x * x).sum::<f64>().sqrt();
        let nb: f64 = rb.iter().map(|x| x * x).sum::<f64>().sqrt();
        if na == 0.0 || nb == 0.0 {
            0.0
        } else {
            (dot / (na * nb)).clamp(0.0, 1.0)
        }
    }
}

impl Mmr {
    /// The pre-optimization full-rescan greedy, kept verbatim as the
    /// equivalence oracle for the lazy [`select`](Diversifier::select)
    /// (`tests/select_equivalence.rs` asserts identical index sequences).
    pub fn select_eager(&self, input: &DiversifyInput, k: usize) -> Vec<usize> {
        let n = input.num_candidates();
        let k = k.min(n);
        let mut selected = Vec::with_capacity(k);
        let mut in_s = vec![false; n];
        // max_{d′∈S} sim(d, d′) per candidate, updated incrementally.
        let mut max_sim = vec![0.0f64; n];

        for round in 0..k {
            let mut best: Option<(f64, usize)> = None;
            for i in 0..n {
                if in_s[i] {
                    continue;
                }
                let score = if round == 0 {
                    input.relevance[i]
                } else {
                    (1.0 - self.lambda) * input.relevance[i] - self.lambda * max_sim[i]
                };
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
            for i in 0..n {
                if !in_s[i] {
                    max_sim[i] = max_sim[i].max(self.similarity(input, i, idx));
                }
            }
        }
        selected
    }
}

impl Diversifier for Mmr {
    fn name(&self) -> &'static str {
        "MMR"
    }

    /// Exact lazy-greedy MMR (identical picks to
    /// [`select_eager`](Mmr::select_eager)).
    ///
    /// Two optimizations over the eager loop, both bit-preserving:
    ///
    /// * Utility-profile norms (the fallback `sim` denominators) are
    ///   computed once per candidate instead of per pair — the same
    ///   `Σx²` → `sqrt` expression over the same row, so the same f64.
    /// * Similarity folding is *deferred*: each candidate's `max_sim` is
    ///   folded against `selected[applied[i]..]` only when the candidate
    ///   is re-scored, in selection order — the identical sequence of f64
    ///   `max` folds the eager loop performs eagerly for everyone.
    ///
    /// Staleness invariant: a round-0 score is `rel(i)`, which
    /// upper-bounds `(1−λ)·rel(i) − λ·max_sim` for every later round
    /// (`rel ≥ 0`, `max_sim ≥ 0`, `λ ∈ [0,1]`); from round 1 on,
    /// `max_sim` only grows and enters negatively, so stale scores only
    /// overestimate — exactly what `lazy_greedy` needs.
    fn select(&self, input: &DiversifyInput, k: usize) -> Vec<usize> {
        let n = input.num_candidates();
        // Per-candidate profile norms for the no-vectors fallback,
        // hoisted out of the O(n·k) similarity evaluations.
        let norms: Option<Vec<f64>> = if input.vectors.is_none() {
            Some(
                (0..n)
                    .map(|i| {
                        input
                            .utilities
                            .row(i)
                            .iter()
                            .map(|x| x * x)
                            .sum::<f64>()
                            .sqrt()
                    })
                    .collect(),
            )
        } else {
            None
        };
        let sim = |a: usize, b: usize| -> f64 {
            if let Some(vectors) = &input.vectors {
                return f64::from(cosine(&vectors[a], &vectors[b]));
            }
            let norms = norms.as_ref().expect("norms exist when vectors don't");
            let (na, nb) = (norms[a], norms[b]);
            if na == 0.0 || nb == 0.0 {
                return 0.0;
            }
            let ra = input.utilities.row(a);
            let rb = input.utilities.row(b);
            let dot: f64 = ra.iter().zip(rb).map(|(x, y)| x * y).sum();
            (dot / (na * nb)).clamp(0.0, 1.0)
        };
        // (max_sim, applied): candidate i's similarity max is folded
        // against selected[applied[i]..] lazily, on re-score.
        let state = std::cell::RefCell::new((vec![0.0f64; n], vec![0usize; n]));
        lazy_greedy(
            n,
            k,
            |i, selected: &[usize]| {
                if selected.is_empty() {
                    return (input.relevance[i], 0.0);
                }
                let mut st = state.borrow_mut();
                let (max_sim, applied) = &mut *st;
                while applied[i] < selected.len() {
                    max_sim[i] = max_sim[i].max(sim(i, selected[applied[i]]));
                    applied[i] += 1;
                }
                (
                    (1.0 - self.lambda) * input.relevance[i] - self.lambda * max_sim[i],
                    0.0,
                )
            },
            |_idx| {},
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::utility::UtilityMatrix;
    use serpdiv_index::SparseVector;
    use serpdiv_text::TermId;

    fn v(pairs: &[(u32, f32)]) -> SparseVector {
        SparseVector::from_pairs(pairs.iter().map(|&(t, w)| (TermId(t), w)))
    }

    /// docs 0 and 1 are near-duplicates; doc 2 is different.
    fn input_with_vectors() -> DiversifyInput {
        let u = UtilityMatrix::from_values(3, 1, vec![0.5, 0.5, 0.5]);
        DiversifyInput::new(vec![1.0], vec![1.0, 0.98, 0.6], u).with_vectors(vec![
            std::sync::Arc::new(v(&[(1, 1.0), (2, 1.0)])),
            std::sync::Arc::new(v(&[(1, 1.0), (2, 0.9)])),
            std::sync::Arc::new(v(&[(9, 1.0)])),
        ])
    }

    #[test]
    fn first_pick_is_most_relevant() {
        let inp = input_with_vectors();
        let s = Mmr::new().select(&inp, 1);
        assert_eq!(s, vec![0]);
    }

    #[test]
    fn duplicates_are_penalized() {
        let inp = input_with_vectors();
        let s = Mmr::with_lambda(0.6).select(&inp, 2);
        assert_eq!(s[0], 0);
        assert_eq!(s[1], 2, "near-duplicate doc1 must lose to doc2");
    }

    #[test]
    fn lambda_zero_is_relevance_order() {
        let inp = input_with_vectors();
        let s = Mmr::with_lambda(0.0).select(&inp, 3);
        assert_eq!(s, vec![0, 1, 2]);
    }

    #[test]
    fn utility_profile_fallback_without_vectors() {
        // docs 0,1 share a specialization profile; doc 2 differs.
        let u = UtilityMatrix::from_values(3, 2, vec![0.9, 0.0, 0.8, 0.0, 0.0, 0.9]);
        let inp = DiversifyInput::new(vec![0.5, 0.5], vec![1.0, 0.95, 0.5], u);
        let s = Mmr::with_lambda(0.8).select(&inp, 2);
        assert_eq!(s[0], 0);
        assert_eq!(s[1], 2);
    }

    #[test]
    fn output_size_and_distinctness() {
        let inp = input_with_vectors();
        for k in [0, 1, 2, 3, 10] {
            let s = Mmr::new().select(&inp, k);
            assert_eq!(s.len(), k.min(3));
            let mut d = s.clone();
            d.sort_unstable();
            d.dedup();
            assert_eq!(d.len(), s.len());
        }
    }
}
