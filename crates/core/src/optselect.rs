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
//! Implementation, following Algorithm 2's lists with a flat ranking in
//! place of its heaps:
//!
//! 1. one pass computes every candidate's Eq. 9 score into a dense array
//!    and packs it with the candidate's index into one `u128` rank key,
//!    so that ascending keys are Algorithm 2's strict total
//!    order — score descending by `f64::total_cmp`, then index ascending;
//! 2. a linear-time selection isolates the `min(n, 2k)` smallest keys and
//!    one sort orders them: that list is `M`;
//! 3. each active specialization's list is the first `⌊k·P(q′|q)⌋+1`
//!    documents of `M` useful for it (`U(d|R_q′) > 0`). Only a
//!    specialization that `M` leaves short draws the rest of its list from
//!    the candidates outside `M`, in one scan that reads each of their
//!    rows at most once;
//! 4. the selection phase first takes the best document of every covered
//!    specialization (Algorithm 2 lines 07–09), then keeps drawing from the
//!    specialization lists until each one reaches its proportional quota
//!    (the constraint of the problem statement), and finally fills the
//!    remaining slots from `M` by decreasing overall utility (lines 10–12).
//!
//! **Why this is Algorithm 2's result.** A bounded heap of capacity `c`
//! fed every candidate keeps exactly the `c` best under its order, and
//! drains them in that order. Here the order is the same strict total
//! order (the key is unique per candidate, so there are no ties left to
//! break), `M` is the first `2k` of it and each specialization list the
//! first `⌊k·P⌋+1` useful documents of it: the lists a heap would drain,
//! element for element. A specialization's list read from `M` is its
//! global prefix because every candidate outside `M` ranks after every
//! candidate in it; a short list continues with the best useful
//! candidates of the remainder, which is again the global order.
//!
//! **Why it stays within `O(n log k)`.** The score pass reads `n` rows;
//! the selection is `O(n)` comparisons; the sort is `O(k log k)`; the scan
//! of `M` reads at most `2k` rows and stops once every list is full; the
//! remainder scan, when it runs, reads each of the other rows once. With
//! `|Sq|` constant that is `O(n + k log k)`, within Table 1's
//! `O(n log k)` — the paper's bound counts `|Sq|` heaps of size `≤ k`,
//! this counts one selection and one sort of `2k` keys.
//!
//! Two pseudocode ambiguities are resolved in favour of the problem
//! statement, and documented here: (a) line 06 pushes a candidate into `M`
//! only when it is useless for the specialization under scan — we rank
//! every candidate into `M` (same asymptotic cost, a superset of line 06's
//! content, and `M` is what the fill phase draws from); `M` holds `2k`
//! candidates so that after up to `k` picks from the specialization lists
//! it still holds `k` fresh ones; (b) lines 07–09 take one document per
//! specialization, which under-enforces the `⌊k·P⌋` quota — step 4 above
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
use crate::Diversifier;
use std::cmp::Ordering;

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

/// The rank key of candidate `i` under `score`: ascending keys are the
/// order Algorithm 2 ranks by — `score` descending by `f64::total_cmp`,
/// then `i` ascending. The high half is `total_cmp`'s order-preserving
/// unsigned image of the bits (a negative has every bit flipped, a
/// positive its sign bit set), inverted; the low half is `i`.
fn rank_key(score: f64, i: usize) -> u128 {
    let bits = score.to_bits();
    let ascending = bits ^ (((bits as i64 >> 63) as u64) | 1 << 63);
    (u128::from(!ascending) << 64) | i as u128
}

/// Candidate `i`'s rank key under `scores[i]`, for every `i`.
fn rank_keys(scores: &[f64]) -> Vec<u128> {
    scores
        .iter()
        .enumerate()
        .map(|(i, &s)| rank_key(s, i))
        .collect()
}

/// The candidate a [`rank_key`] belongs to.
fn candidate(key: u128) -> usize {
    key as u64 as usize
}

/// The order of rank keys, one comparison for the operation-count test.
fn compare(a: &u128, b: &u128) -> Ordering {
    #[cfg(test)]
    crate::opcount::comparison();
    a.cmp(b)
}

/// Move the `len` smallest keys to the front, in ascending order: a
/// linear-time selection, then a sort of that prefix alone.
fn rank_prefix(keys: &mut [u128], len: usize) {
    if len < keys.len() {
        keys.select_nth_unstable_by(len, compare);
    }
    keys[..len].sort_unstable_by(compare);
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
            let mut keys = rank_keys(&input.relevance);
            rank_prefix(&mut keys, k);
            return keys[..k].iter().map(|&key| candidate(key)).collect();
        }

        // Eq. 9 — one score per candidate, computed once.
        let overall: Vec<f64> = (0..n)
            .map(|i| input.overall_utility(i, self.lambda))
            .collect();
        let mut keys = rank_keys(&overall);

        // Active specializations: the k most probable when |Sq| > k.
        let mut spec_order: Vec<usize> = (0..m).collect();
        spec_order.sort_unstable_by(|&a, &b| {
            input.spec_probs[b]
                .total_cmp(&input.spec_probs[a])
                .then(a.cmp(&b))
        });
        spec_order.truncate(k);
        let quotas: Vec<usize> = spec_order
            .iter()
            .map(|&j| (k as f64 * input.spec_probs[j]).floor() as usize)
            .collect();

        // M: the best min(n, 2k) candidates, in order.
        let len_m = n.min(2 * k);
        rank_prefix(&mut keys, len_m);
        let (global, rest) = keys.split_at(len_m);

        // Algorithm 2 lines 02–06: each specialization's ⌊k·P⌋+1 best
        // useful documents, read off M until every list is full.
        let mut spec_lists: Vec<Vec<usize>> =
            quotas.iter().map(|&q| Vec::with_capacity(q + 1)).collect();
        let mut short = spec_lists.len();
        for &key in global {
            if short == 0 {
                break;
            }
            let i = candidate(key);
            let row = input.utilities.row(i);
            for (h, &j) in spec_order.iter().enumerate() {
                if row[j] > 0.0 && spec_lists[h].len() <= quotas[h] {
                    spec_lists[h].push(i);
                    short -= usize::from(spec_lists[h].len() > quotas[h]);
                }
            }
        }
        if short > 0 {
            // A list M left short continues with the best useful
            // candidates outside M, all of which rank after M.
            let mut extra: Vec<Vec<u128>> = vec![Vec::new(); spec_lists.len()];
            for &key in rest {
                let row = input.utilities.row(candidate(key));
                for (h, &j) in spec_order.iter().enumerate() {
                    if row[j] > 0.0 && spec_lists[h].len() <= quotas[h] {
                        extra[h].push(key);
                    }
                }
            }
            for (h, mut keys) in extra.into_iter().enumerate() {
                let need = (quotas[h] + 1 - spec_lists[h].len()).min(keys.len());
                rank_prefix(&mut keys, need);
                spec_lists[h].extend(keys[..need].iter().map(|&key| candidate(key)));
            }
        }

        // Selection state: S plus per-specialization coverage counts.
        let mut selected: Vec<usize> = Vec::with_capacity(k);
        let mut in_s = vec![false; n];
        let mut coverage = vec![0usize; spec_order.len()];
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
            if let Some(&i) = list.iter().find(|&&i| !in_s[i]) {
                add(i, &mut selected, &mut in_s, &mut coverage);
            }
        }

        // Constraint phase: round-robin the specializations until each
        // reaches its ⌊k·P⌋ quota (or its list runs dry).
        let mut cursors = vec![0usize; spec_lists.len()];
        let mut progressed = true;
        while progressed && selected.len() < k {
            progressed = false;
            for h in 0..spec_lists.len() {
                if selected.len() >= k || coverage[h] >= quotas[h] {
                    continue;
                }
                let list = &spec_lists[h];
                while cursors[h] < list.len() && in_s[list[cursors[h]]] {
                    cursors[h] += 1;
                }
                if cursors[h] < list.len() {
                    let i = list[cursors[h]];
                    add(i, &mut selected, &mut in_s, &mut coverage);
                    progressed = true;
                }
            }
        }

        // Lines 10–12: fill from M by decreasing overall utility.
        for &key in global {
            if selected.len() >= k {
                break;
            }
            add(candidate(key), &mut selected, &mut in_s, &mut coverage);
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
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    /// Algorithm 2 by full sorts: every specialization's useful documents
    /// and the fill candidates are sorted whole, and a specialization list
    /// is then cut to ⌊k·P⌋+1 entries, Algorithm 2's heap capacity (with
    /// overlapping coverage the cut matters: a list can run dry while
    /// further useful documents exist). The same seeding, quota and fill
    /// phases, then the same presentation order ([`order_selected`]).
    fn full_sort_reference(input: &DiversifyInput, k: usize, lambda: f64) -> Vec<usize> {
        let (n, m) = (input.num_candidates(), input.num_specializations());
        let k = k.min(n);
        let by_desc = |score: &[f64], list: &mut Vec<usize>| {
            list.sort_by(|&a, &b| score[b].total_cmp(&score[a]).then(a.cmp(&b)));
        };
        if m == 0 {
            let mut all: Vec<usize> = (0..n).collect();
            by_desc(&input.relevance, &mut all);
            all.truncate(k);
            return all;
        }
        let overall: Vec<f64> = (0..n).map(|i| input.overall_utility(i, lambda)).collect();
        let useful = |i: usize, j: usize| input.utilities.get(i, j) > 0.0;
        let mut specs: Vec<usize> = (0..m).collect();
        specs.sort_by(|&a, &b| input.spec_probs[b].total_cmp(&input.spec_probs[a]));
        specs.truncate(k);
        let quotas: Vec<usize> = specs
            .iter()
            .map(|&j| (k as f64 * input.spec_probs[j]).floor() as usize)
            .collect();
        let lists: Vec<Vec<usize>> = specs
            .iter()
            .zip(&quotas)
            .map(|(&j, &quota)| {
                let mut list: Vec<usize> = (0..n).filter(|&i| useful(i, j)).collect();
                by_desc(&overall, &mut list);
                list.truncate(quota + 1);
                list
            })
            .collect();
        // S, in pick order; membership; coverage per specialization.
        let mut s = (Vec::new(), vec![false; n], vec![0usize; specs.len()]);
        // Take the first document of `list` not in S, if there is one.
        let take_from = |list: &[usize], s: &mut (Vec<usize>, Vec<bool>, Vec<usize>)| {
            let i = *list.iter().find(|&&i| !s.1[i])?;
            s.0.push(i);
            s.1[i] = true;
            for (h, &j) in specs.iter().enumerate() {
                s.2[h] += usize::from(useful(i, j));
            }
            Some(i)
        };
        for list in &lists {
            take_from(list, &mut s);
        }
        let mut dry = vec![false; specs.len()];
        loop {
            let before = s.0.len();
            for (h, list) in lists.iter().enumerate() {
                if s.0.len() < k && !dry[h] && s.2[h] < quotas[h] {
                    dry[h] = take_from(list, &mut s).is_none();
                }
            }
            if s.0.len() == before {
                break;
            }
        }
        let (mut picked, taken, _) = s;
        let mut rest: Vec<usize> = (0..n).filter(|&i| !taken[i]).collect();
        by_desc(&overall, &mut rest);
        picked.extend(rest.into_iter().take(k - picked.len()));
        order_selected(input, &specs, &overall, picked)
    }

    /// One case of the selection sweep: an input, `k` and λ drawn from
    /// `seed`. It mixes every shape the bounded lists have edges at: n from
    /// 0 to 3 000, k from 0 to n + 3, up to 12 specializations (so |Sq| > k
    /// and quota-0 specializations), probabilities that are 0 or tied,
    /// tied scores (including ±0 relevance), all-zero rows, and "buried"
    /// specializations whose useful documents have little relevance, so
    /// that the top 2k holds fewer than ⌊k·P⌋+1 of them.
    fn sweep_case(seed: u64) -> (DiversifyInput, usize, f64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n: usize = match rng.gen_range(0..4) {
            0 => rng.gen_range(0..=8),
            1 => rng.gen_range(0..=64),
            2 => rng.gen_range(0..=600),
            _ => rng.gen_range(0..=3_000),
        };
        let k = if rng.gen_bool(0.5) {
            rng.gen_range(0..=n + 3)
        } else {
            rng.gen_range(0..=n / 8 + 3)
        };
        let m: usize = rng.gen_range(0..=12);
        let lambda = [0.0, 0.15, 0.5, 1.0][rng.gen_range(0..4)];
        let tied = rng.gen_bool(0.5);
        let zero_rows = [0.0, 0.5, 0.9][rng.gen_range(0..3)];
        let mut weights: Vec<f64> = (0..m)
            .map(|_| [0.0, 0.001, 0.25, 1.0, rng.gen::<f64>()][rng.gen_range(0..5)])
            .collect();
        if weights.iter().all(|&w| w == 0.0) {
            if let Some(w) = weights.first_mut() {
                *w = 1.0;
            }
        }
        let total: f64 = weights.iter().sum();
        let probs: Vec<f64> = weights.iter().map(|w| w / total).collect();
        let density: Vec<f64> = (0..m)
            .map(|_| [0.0, 0.005, 0.05, 0.3, 1.0][rng.gen_range(0..5)])
            .collect();
        let buried: Vec<bool> = (0..m).map(|_| rng.gen_bool(0.3)).collect();
        let mut values = vec![0.0f64; n * m];
        let mut relevance = Vec::with_capacity(n);
        for i in 0..n {
            let mut rel = if tied {
                [-0.0, 0.0, 0.5, 1.0][rng.gen_range(0..4)]
            } else {
                rng.gen::<f64>()
            };
            if !rng.gen_bool(zero_rows) {
                for j in 0..m {
                    if rng.gen_bool(density[j]) {
                        values[i * m + j] = if tied {
                            [0.25, 0.5, 1.0][rng.gen_range(0..3)]
                        } else {
                            rng.gen::<f64>()
                        };
                        if buried[j] {
                            rel *= 0.01;
                        }
                    }
                }
            }
            relevance.push(rel);
        }
        let input = DiversifyInput::new(probs, relevance, UtilityMatrix::from_values(n, m, values));
        (input, k, lambda)
    }

    /// Whether some active specialization has fewer than ⌊k·P⌋+1 useful
    /// documents among the best min(n, 2k), while more exist further down:
    /// the case where a list continues outside M.
    fn reaches_past_m(input: &DiversifyInput, k: usize, lambda: f64) -> bool {
        let (n, m) = (input.num_candidates(), input.num_specializations());
        let k = k.min(n);
        let mut order: Vec<usize> = (0..n).collect();
        let overall: Vec<f64> = (0..n).map(|i| input.overall_utility(i, lambda)).collect();
        order.sort_by(|&a, &b| overall[b].total_cmp(&overall[a]).then(a.cmp(&b)));
        let mut specs: Vec<usize> = (0..m).collect();
        specs.sort_by(|&a, &b| input.spec_probs[b].total_cmp(&input.spec_probs[a]));
        specs.iter().take(k).any(|&j| {
            let want = (k as f64 * input.spec_probs[j]).floor() as usize + 1;
            let useful = |&&i: &&usize| input.utilities.get(i, j) > 0.0;
            let in_m = order[..n.min(2 * k)].iter().filter(useful).count();
            in_m < want && order.iter().filter(useful).count() > in_m
        })
    }

    /// FNV-1a over the returned index sequences, each preceded by its
    /// length.
    fn fnv1a(digest: &mut u64, words: impl IntoIterator<Item = u64>) {
        for word in words {
            for byte in word.to_le_bytes() {
                *digest ^= u64::from(byte);
                *digest = digest.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }

    /// Every returned index sequence of the sweep, digested. Captured at
    /// `9d9ec5c` with the bounded-heap kernel (a `BinaryHeap` of capacity
    /// 2k and one of ⌊k·P⌋+1 per specialization) that this selection
    /// replaced.
    const SWEEP_DIGEST: u64 = 0xDC9C_726E_6A4F_E555;

    #[test]
    fn selection_matches_a_full_sort_reference() {
        let mut digest = 0xCBF2_9CE4_8422_2325u64;
        let mut past_m = 0;
        let workloads =
            [0x5EED, 0xA01, 0x11D].map(|seed| (crate::opcount::workload(3_000, seed), 100, 0.15));
        let sweep = (0..400).map(sweep_case);
        for (case, (input, k, lambda)) in workloads.into_iter().chain(sweep).enumerate() {
            let got = OptSelect::with_lambda(lambda).select(&input, k);
            let want = full_sort_reference(&input, k, lambda);
            assert_eq!(
                got,
                want,
                "case {case}: n {} k {k} λ {lambda}",
                input.num_candidates()
            );
            past_m += usize::from(reaches_past_m(&input, k, lambda));
            fnv1a(
                &mut digest,
                std::iter::once(got.len() as u64).chain(got.iter().map(|&i| i as u64)),
            );
        }
        assert!(
            past_m >= 20,
            "only {past_m} cases continue a list outside M"
        );
        assert_eq!(digest, SWEEP_DIGEST, "digest {digest:#018x}");
    }

    #[test]
    fn rank_key_orders_like_total_cmp() {
        let values = [
            0.0,
            -0.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::from_bits(0x000F_FFFF_FFFF_FFFF),
            -f64::from_bits(0x000F_FFFF_FFFF_FFFF),
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            0.5,
            1.0,
            -1.0,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7FF0_0000_0000_0001),
            f64::from_bits(0x7FF8_0000_0000_0001),
            f64::from_bits(0x7FFF_FFFF_FFFF_FFFF),
            f64::from_bits(0xFFF0_0000_0000_0001),
            f64::from_bits(0xFFFF_FFFF_FFFF_FFFF),
        ];
        for (i, &a) in values.iter().enumerate() {
            for (j, &b) in values.iter().enumerate() {
                let want = b.total_cmp(&a).then(i.cmp(&j));
                let got = rank_key(a, i).cmp(&rank_key(b, j));
                assert_eq!(got, want, "{a:?} (#{i}) against {b:?} (#{j})");
            }
            assert!(
                rank_key(a, 7) < rank_key(a, 8),
                "{a:?}: ties go to the smaller index"
            );
        }
        assert_eq!(candidate(rank_key(-0.0, usize::MAX)), usize::MAX);
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
