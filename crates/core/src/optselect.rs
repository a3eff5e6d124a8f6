//! OptSelect — Algorithm 2, for MaxUtility Diversify(k).
//!
//! The paper's key observation (§3.1.3): because the MaxUtility objective is
//! *additive* over the selected set,
//!
//! ```text
//! Ũ(S|q) = Σ_{d∈S} Ũ(d|q)                                  (Eq. 8)
//! Ũ(d|q) = Σ_{q′∈Sq} (1−λ)P(d|q) + λP(q′|q)Ũ(d|R_q′)       (Eq. 9)
//! ```
//!
//! the problem reduces to scoring each candidate once and keeping the top-k
//! — subject to the constraint that "every specialization is covered
//! proportionally to its probability": `|Rq ⋈ q′| ≥ ⌊k·P(q′|q)⌋` where
//! `Rq ⋈ q′ = {d : U(d|R_q′) > 0}`.
//!
//! Implementation, following Algorithm 2's heap discipline:
//!
//! 1. one pass over the `n` candidates feeds |Sq| **bounded heaps** of
//!    capacity `⌊k·P(q′|q)⌋+1` (only candidates useful for that
//!    specialization enter) plus a global heap `M` — every push is
//!    `O(log k)`, so the whole algorithm is `O(n·|Sq|·log k)`;
//! 2. the selection phase first takes the best document of every covered
//!    specialization (Algorithm 2 lines 07–09), then keeps drawing from the
//!    specialization heaps until each one reaches its proportional quota
//!    (the constraint of the problem statement), and finally fills the
//!    remaining slots from `M` by decreasing overall utility (lines 10–12).
//!
//! Two pseudocode ambiguities are resolved in favour of the problem
//! statement, and documented here: (a) line 06 pushes a candidate into `M`
//! only when it is useless for the specialization under scan — we push every
//! candidate into `M` (same asymptotic cost, a superset of line 06's
//! content, and `M` is what the fill phase draws from); `M`'s capacity is
//! `2k` so that after up to `k` picks from the specialization heaps it still
//! holds `k` fresh candidates; (b) lines 07–09 take one document per
//! specialization, which under-enforces the `⌊k·P⌋` quota — step 2 above
//! then draws each specialization up to it. When `|Sq| > k` only the `k`
//! most probable specializations are considered (§3.1.3: "we select from
//! Sq the k specializations with the largest probabilities").
//!
//! The guarantee: every active specialization gets `|S ∩ Rq⋈q′| ≥
//! min(⌊k·P(q′|q)⌋, |Rq⋈q′|)` whenever `Σ max(⌊k·P(q′|q)⌋, 1)` over the
//! covered active specializations is at most `k` — lines 07–09 spend at
//! most one slot on each, and each quota draw one more. Past that sum,
//! lines 07–09 can give specializations whose quota is 0 the slots a
//! larger quota needed; a test pins a four-document counterexample.

use crate::candidates::DiversifyInput;
use crate::heap::BoundedHeap;
use crate::Diversifier;

/// The OptSelect algorithm.
#[derive(Debug, Clone, Copy)]
pub struct OptSelect {
    /// Relevance/diversity mixing parameter λ of Eq. 9 (the paper uses
    /// 0.15, "the value maximizing α-NDCG@20 in \[24\]").
    pub lambda: f64,
}

impl Default for OptSelect {
    fn default() -> Self {
        OptSelect { lambda: 0.15 }
    }
}

impl OptSelect {
    /// OptSelect with the paper's λ = 0.15.
    pub fn new() -> Self {
        Self::default()
    }

    /// OptSelect with a custom λ ∈ [0, 1].
    pub fn with_lambda(lambda: f64) -> Self {
        assert!((0.0..=1.0).contains(&lambda), "λ must lie in [0,1]");
        OptSelect { lambda }
    }
}

impl Diversifier for OptSelect {
    fn name(&self) -> &'static str {
        "OptSelect"
    }

    fn select(&self, input: &DiversifyInput, k: usize) -> Vec<usize> {
        let n = input.num_candidates();
        let m = input.num_specializations();
        let k = k.min(n);
        if k == 0 {
            return Vec::new();
        }
        if m == 0 {
            // Not ambiguous: Eq. 9's relevance term carries a |Sq| factor,
            // so with no specializations the ranking is pure relevance.
            let mut heap = BoundedHeap::new(k);
            for (i, &r) in input.relevance.iter().enumerate() {
                heap.push(r, i);
            }
            return heap
                .into_sorted_desc()
                .into_iter()
                .map(|(_, i)| i)
                .collect();
        }

        // Eq. 9 — one score per candidate, computed once.
        let overall: Vec<f64> = (0..n)
            .map(|i| input.overall_utility(i, self.lambda))
            .collect();

        // Active specializations: the k most probable when |Sq| > k.
        let mut spec_order: Vec<usize> = (0..m).collect();
        spec_order.sort_unstable_by(|&a, &b| {
            input.spec_probs[b]
                .total_cmp(&input.spec_probs[a])
                .then(a.cmp(&b))
        });
        spec_order.truncate(k);

        // Algorithm 2 lines 02–06: the bounded heaps.
        let quotas: Vec<usize> = spec_order
            .iter()
            .map(|&j| (k as f64 * input.spec_probs[j]).floor() as usize)
            .collect();
        let mut spec_heaps: Vec<BoundedHeap> =
            quotas.iter().map(|&q| BoundedHeap::new(q + 1)).collect();
        let mut global = BoundedHeap::new(2 * k);
        for (i, &score) in overall.iter().enumerate() {
            global.push(score, i);
            let row = input.utilities.row(i);
            for (h, &j) in spec_order.iter().enumerate() {
                if row[j] > 0.0 {
                    spec_heaps[h].push(score, i);
                }
            }
        }

        // Selection state: S plus per-specialization coverage counts.
        let mut selected: Vec<usize> = Vec::with_capacity(k);
        let mut in_s = vec![false; n];
        let mut coverage = vec![0usize; spec_order.len()];
        let spec_lists: Vec<Vec<(f64, usize)>> = spec_heaps
            .into_iter()
            .map(BoundedHeap::into_sorted_desc)
            .collect();
        let add = |i: usize,
                   selected: &mut Vec<usize>,
                   in_s: &mut Vec<bool>,
                   coverage: &mut Vec<usize>| {
            if in_s[i] {
                return false;
            }
            in_s[i] = true;
            selected.push(i);
            let row = input.utilities.row(i);
            for (h, &j) in spec_order.iter().enumerate() {
                if row[j] > 0.0 {
                    coverage[h] += 1;
                }
            }
            true
        };

        // Lines 07–09: the single best document of every covered
        // specialization, in decreasing-probability order.
        for list in &spec_lists {
            if selected.len() >= k {
                break;
            }
            if let Some(&(_, i)) = list.iter().find(|&&(_, i)| !in_s[i]) {
                add(i, &mut selected, &mut in_s, &mut coverage);
            }
        }

        // Constraint phase: round-robin the specializations until each
        // reaches its ⌊k·P⌋ quota (or its heap runs dry).
        let mut cursors = vec![0usize; spec_lists.len()];
        let mut progressed = true;
        while progressed && selected.len() < k {
            progressed = false;
            for h in 0..spec_lists.len() {
                if selected.len() >= k || coverage[h] >= quotas[h] {
                    continue;
                }
                let list = &spec_lists[h];
                while cursors[h] < list.len() && in_s[list[cursors[h]].1] {
                    cursors[h] += 1;
                }
                if cursors[h] < list.len() {
                    let i = list[cursors[h]].1;
                    add(i, &mut selected, &mut in_s, &mut coverage);
                    progressed = true;
                }
            }
        }

        // Lines 10–12: fill from M by decreasing overall utility.
        for (_, i) in global.into_sorted_desc() {
            if selected.len() >= k {
                break;
            }
            add(i, &mut selected, &mut in_s, &mut coverage);
        }
        debug_assert_eq!(selected.len(), k, "M holds 2k candidates ≥ k fresh");

        // Final SERP order: the paper defines S as a *set*; for the
        // evaluated run we order it by proportional apportionment over the
        // specializations (each rank goes to the specialization with the
        // largest deficit P(q'|q)·rank − emitted, docs within a
        // specialization by decreasing overall utility). Early ranks thus
        // cover the interpretations proportionally to their probability —
        // the MaxUtility constraint carried into the presentation order.
        order_selected(input, &spec_order, &overall, selected)
    }
}

/// Proportional-apportionment presentation order of a selected set (see
/// the trailing comment in [`OptSelect::select`]). `O(k·|Sq| + k log k)`.
fn order_selected(
    input: &DiversifyInput,
    spec_order: &[usize],
    overall: &[f64],
    selected: Vec<usize>,
) -> Vec<usize> {
    let k = selected.len();
    // Assign each document to its strongest specialization.
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); spec_order.len()];
    let mut unassigned: Vec<usize> = Vec::new();
    for &i in &selected {
        let row = input.utilities.row(i);
        let mut best: Option<(f64, usize)> = None;
        for (h, &j) in spec_order.iter().enumerate() {
            if row[j] > 0.0 {
                let score = input.spec_probs[j] * row[j];
                if best.is_none_or(|(bs, _)| score > bs) {
                    best = Some((score, h));
                }
            }
        }
        match best {
            Some((_, h)) => buckets[h].push(i),
            None => unassigned.push(i),
        }
    }
    let desc = |v: &mut Vec<usize>| {
        v.sort_unstable_by(|&a, &b| overall[b].total_cmp(&overall[a]).then(a.cmp(&b)));
    };
    for b in &mut buckets {
        desc(b);
    }
    desc(&mut unassigned);

    // Largest-deficit scheduling.
    let mut out = Vec::with_capacity(k);
    let mut cursors = vec![0usize; buckets.len()];
    let mut emitted = vec![0f64; buckets.len()];
    let mut un_cursor = 0usize;
    for rank in 1..=k {
        let mut pick: Option<(f64, usize)> = None;
        for (h, bucket) in buckets.iter().enumerate() {
            if cursors[h] >= bucket.len() {
                continue;
            }
            let deficit = input.spec_probs[spec_order[h]] * rank as f64 - emitted[h];
            if pick.is_none_or(|(pd, _)| deficit > pd) {
                pick = Some((deficit, h));
            }
        }
        match pick {
            Some((_, h)) => {
                out.push(buckets[h][cursors[h]]);
                cursors[h] += 1;
                emitted[h] += 1.0;
            }
            None => {
                if un_cursor < unassigned.len() {
                    out.push(unassigned[un_cursor]);
                    un_cursor += 1;
                }
            }
        }
    }
    while out.len() < k && un_cursor < unassigned.len() {
        out.push(unassigned[un_cursor]);
        un_cursor += 1;
    }
    debug_assert_eq!(out.len(), k);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::utility::UtilityMatrix;

    /// 6 candidates × 2 specializations with probabilities (0.75, 0.25).
    fn input() -> DiversifyInput {
        #[rustfmt::skip]
        let u = vec![
            // spec0, spec1
            0.9, 0.0, // 0: strong for spec0
            0.8, 0.0, // 1: strong for spec0
            0.7, 0.0, // 2: strong for spec0
            0.0, 0.6, // 3: only doc (with 4) for spec1
            0.0, 0.5, // 4
            0.0, 0.0, // 5: useless for both
        ];
        DiversifyInput::new(
            vec![0.75, 0.25],
            vec![1.0, 0.9, 0.8, 0.4, 0.3, 0.99],
            UtilityMatrix::from_values(6, 2, u),
        )
    }

    #[test]
    fn returns_min_k_n_distinct_indices() {
        let inp = input();
        let algo = OptSelect::new();
        for k in [0usize, 1, 3, 6, 10] {
            let s = algo.select(&inp, k);
            assert_eq!(s.len(), k.min(6), "k={k}");
            let mut dedup = s.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), s.len(), "duplicates at k={k}");
        }
    }

    #[test]
    fn covers_both_specializations() {
        let inp = input();
        let s = OptSelect::with_lambda(1.0).select(&inp, 4);
        // Quotas: ⌊4·0.75⌋ = 3 for spec0, ⌊4·0.25⌋ = 1 for spec1.
        let cov0 = s.iter().filter(|&&i| inp.utilities.get(i, 0) > 0.0).count();
        let cov1 = s.iter().filter(|&&i| inp.utilities.get(i, 1) > 0.0).count();
        assert!(cov0 >= 3, "spec0 coverage {cov0}");
        assert!(cov1 >= 1, "spec1 coverage {cov1}");
    }

    /// The smallest input past the module doc's guarantee: k = 3,
    /// P = (0.7, 0.15, 0.15), so the quotas are (2, 0, 0) but the covered
    /// specializations claim 2 + 1 + 1 = 4 > k slots. Lines 07–09 seed one
    /// document per specialization and fill S before spec 0 reaches its
    /// quota, although {0, 1, 2} meets every quota. This pins today's set;
    /// changing `select` should change it.
    #[test]
    fn early_seeding_can_miss_a_larger_quota() {
        #[rustfmt::skip]
        let u = vec![
            // spec0, spec1, spec2
            0.9, 0.0, 0.0, // 0: spec0 only
            0.8, 0.0, 0.0, // 1: spec0 only
            0.0, 0.7, 0.0, // 2: spec1 only
            0.0, 0.0, 0.6, // 3: spec2 only
        ];
        let inp = DiversifyInput::new(
            vec![0.7, 0.15, 0.15],
            vec![0.9, 0.8, 0.7, 0.6],
            UtilityMatrix::from_values(4, 3, u),
        );
        for lambda in [0.0, 0.15, 1.0] {
            let mut s = OptSelect::with_lambda(lambda).select(&inp, 3);
            s.sort_unstable();
            assert_eq!(s, vec![0, 2, 3], "λ={lambda}");
            let spec0 = s.iter().filter(|&&i| inp.utilities.get(i, 0) > 0.0).count();
            assert_eq!(spec0, 1, "λ={lambda}: one document against a quota of 2");
        }
    }

    #[test]
    fn pure_relevance_lambda_zero_is_top_k_relevance() {
        let inp = input();
        let s = OptSelect::with_lambda(0.0).select(&inp, 3);
        // λ=0 ⇒ overall utility ∝ relevance; but the coverage constraint
        // still guarantees spec1 gets its ⌊3·0.25⌋ = 0 docs and spec0 its
        // ⌊3·0.75⌋ = 2: picks follow relevance among useful docs.
        // Top relevance overall: 0 (1.0), 5 (0.99), 1 (0.9).
        // Phase 1 seeds best-per-spec first: 0 (spec0) and 3 (spec1).
        assert!(s.contains(&0));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn unconstrained_case_equals_top_k_by_overall_utility() {
        // Single specialization, quota ⌊k·1⌋ = k: every useful doc counts;
        // with all docs useful the output must be the global top-k.
        let u = UtilityMatrix::from_values(5, 1, vec![0.9, 0.7, 0.5, 0.3, 0.1]);
        let inp = DiversifyInput::new(vec![1.0], vec![0.1, 0.2, 0.3, 0.4, 0.5], u);
        let algo = OptSelect::with_lambda(1.0);
        let s = algo.select(&inp, 3);
        // λ=1 ⇒ overall = 1.0·Ũ; top-3 by utility = docs 0,1,2.
        assert_eq!(s, vec![0, 1, 2]);
    }

    /// Algorithm 2 with every bounded heap replaced by a full sort: the
    /// same seeding, quota and fill phases over unbounded lists.
    fn full_sort_reference(input: &DiversifyInput, k: usize, lambda: f64) -> Vec<usize> {
        let (n, m) = (input.num_candidates(), input.num_specializations());
        let overall: Vec<f64> = (0..n).map(|i| input.overall_utility(i, lambda)).collect();
        let by_overall = |list: &mut Vec<usize>| {
            list.sort_by(|&a, &b| overall[b].total_cmp(&overall[a]).then(a.cmp(&b)));
        };
        let useful = |i: usize, j: usize| input.utilities.get(i, j) > 0.0;
        let mut specs: Vec<usize> = (0..m).collect();
        specs.sort_by(|&a, &b| input.spec_probs[b].total_cmp(&input.spec_probs[a]));
        let lists: Vec<Vec<usize>> = specs
            .iter()
            .map(|&j| {
                let mut list: Vec<usize> = (0..n).filter(|&i| useful(i, j)).collect();
                by_overall(&mut list);
                list
            })
            .collect();
        let mut picked: Vec<usize> = Vec::new();
        for list in &lists {
            picked.extend(list.iter().find(|i| !picked.contains(i)));
        }
        loop {
            let before = picked.len();
            for (list, &j) in lists.iter().zip(&specs) {
                let quota = (k as f64 * input.spec_probs[j]).floor() as usize;
                let covered = picked.iter().filter(|&&i| useful(i, j)).count();
                if picked.len() < k && covered < quota {
                    picked.extend(list.iter().find(|i| !picked.contains(i)));
                }
            }
            if picked.len() == before {
                break;
            }
        }
        let mut rest: Vec<usize> = (0..n).filter(|i| !picked.contains(i)).collect();
        by_overall(&mut rest);
        picked.extend(rest.into_iter().take(k - picked.len()));
        picked
    }

    #[test]
    fn bounded_heaps_lose_nothing_against_a_full_sort() {
        // Heaps of ⌊k·P⌋+1 and 2k entries see every candidate a full
        // sort would have ranked first: the selected set, and so the
        // MaxUtility objective Σ Ũ(d|q), is the same.
        for seed in [0x5EED, 0xA01, 0x11D] {
            let inp = crate::opcount::workload(3_000, seed);
            let algo = OptSelect::new();
            let mut heap = algo.select(&inp, 100);
            let mut sort = full_sort_reference(&inp, 100, algo.lambda);
            heap.sort_unstable();
            sort.sort_unstable();
            assert_eq!(heap, sort, "seed {seed:#x}");
        }
    }

    #[test]
    fn no_specializations_falls_back_to_relevance_ranking() {
        let u = UtilityMatrix::from_values(4, 0, vec![]);
        let inp = DiversifyInput::new(vec![], vec![0.2, 0.9, 0.5, 0.7], u);
        let s = OptSelect::new().select(&inp, 3);
        assert_eq!(s, vec![1, 3, 2]);
    }

    #[test]
    fn more_specializations_than_k_keeps_most_probable() {
        // 3 specs, k = 2: the two most probable specs are active.
        let u = UtilityMatrix::from_values(
            3,
            3,
            vec![
                0.9, 0.0, 0.0, // doc0 → spec0
                0.0, 0.9, 0.0, // doc1 → spec1
                0.0, 0.0, 0.9, // doc2 → spec2 (least probable spec)
            ],
        );
        let inp = DiversifyInput::new(vec![0.5, 0.3, 0.2], vec![0.5, 0.5, 0.5], u);
        let s = OptSelect::with_lambda(1.0).select(&inp, 2);
        assert_eq!(s.len(), 2);
        assert!(s.contains(&0), "most probable spec covered");
        assert!(s.contains(&1), "second spec covered");
    }

    #[test]
    fn all_utilities_zero_degenerates_to_relevance() {
        let u = UtilityMatrix::from_values(4, 2, vec![0.0; 8]);
        let inp = DiversifyInput::new(vec![0.5, 0.5], vec![0.1, 0.9, 0.4, 0.6], u);
        let s = OptSelect::new().select(&inp, 2);
        assert_eq!(s, vec![1, 3]);
    }

    #[test]
    fn deterministic() {
        let inp = input();
        let algo = OptSelect::new();
        assert_eq!(algo.select(&inp, 4), algo.select(&inp, 4));
    }

    #[test]
    fn k_larger_than_n_returns_everything() {
        let inp = input();
        let s = OptSelect::new().select(&inp, 100);
        assert_eq!(s.len(), 6);
    }

    #[test]
    #[should_panic(expected = "λ")]
    fn invalid_lambda_panics() {
        let _ = OptSelect::with_lambda(1.5);
    }
}
