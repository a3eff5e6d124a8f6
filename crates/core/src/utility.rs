//! Results' utility — Definition 2 of the paper.
//!
//! The utility of a result `d ∈ Rq` for a specialization `q′` is
//!
//! ```text
//! U(d|R_q′) = Σ_{d′ ∈ R_q′} (1 − δ(d, d′)) / rank(d′, R_q′)        (Eq. 1)
//! δ(d₁,d₂)  = 1 − cosine(d₁, d₂)                                   (Eq. 2)
//! ```
//!
//! "a result d ∈ Rq is more useful for specialization q′ if it is very
//! similar to a highly ranked item contained in the results list R_q′."
//!
//! The normalized utility divides by the harmonic number `H_{|R_q′|}` (the
//! value U would take if `d` were at distance 0 from every item), bringing
//! `Ũ` into `[0, 1]`. §5 additionally forces the value to 0 when it falls
//! below a threshold `c` — Table 3 sweeps `c` over nine values.

use serpdiv_index::{cosine64, SparseVector};
use std::sync::OnceLock;

/// Size of the memoized prefix of harmonic numbers. `|R_q′|` is 20 in the
/// paper and rarely above a few hundred in any configuration; 4096 covers
/// every realistic list length with a 32 KiB table.
const HARMONIC_TABLE: usize = 4096;

fn harmonic_table() -> &'static [f64; HARMONIC_TABLE + 1] {
    static TABLE: OnceLock<Box<[f64; HARMONIC_TABLE + 1]>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = Box::new([0.0f64; HARMONIC_TABLE + 1]);
        for i in 1..=HARMONIC_TABLE {
            // Same ascending recurrence as the direct sum, so memoized
            // values are bitwise-identical to the unmemoized ones.
            t[i] = t[i - 1] + 1.0 / i as f64;
        }
        t
    })
}

/// `H_n = Σ_{i=1..n} 1/i`; `H_0 = 0`.
///
/// Memoized: the first `HARMONIC_TABLE` values come from a
/// once-initialized table (the utility stage asks for `H_{|R_q′|}` for
/// every candidate × specialization cell); larger arguments extend the
/// table's last entry by the remaining terms, preserving the ascending
/// summation order of the direct definition.
pub fn harmonic(n: usize) -> f64 {
    let table = harmonic_table();
    if n <= HARMONIC_TABLE {
        table[n]
    } else {
        (HARMONIC_TABLE + 1..=n).fold(table[HARMONIC_TABLE], |h, i| h + 1.0 / i as f64)
    }
}

/// Parameters of the utility computation.
#[derive(Debug, Clone, Copy)]
pub struct UtilityParams {
    /// The §5 threshold `c`: normalized utilities below `c` are forced
    /// to 0. `c = 0` keeps every positive utility.
    pub threshold_c: f64,
}

impl Default for UtilityParams {
    fn default() -> Self {
        // §5: OptSelect performs best for c ∈ {0, 0.05}; 0 is neutral.
        UtilityParams { threshold_c: 0.0 }
    }
}

/// Raw utility `U(d|R_q′)` of a candidate surrogate against the ranked
/// result list of one specialization (Eq. 1).
///
/// Cosines are evaluated in double precision ([`cosine64`]) so this naive
/// per-pair evaluation is the *reference oracle* for the compiled fast
/// path ([`crate::specindex`]), which computes the algebraically identical
/// sum in a different association order.
pub fn utility(candidate: &SparseVector, spec_results: &[SparseVector]) -> f64 {
    spec_results
        .iter()
        .enumerate()
        .map(|(i, d2)| cosine64(candidate, d2) / (i + 1) as f64)
        .sum()
}

/// Normalized utility `Ũ(d|R_q′) = U(d|R_q′)/H_{|R_q′|}`, thresholded by
/// `c` (returns 0 when below `c` or when the list is empty).
pub fn normalized_utility(
    candidate: &SparseVector,
    spec_results: &[SparseVector],
    params: UtilityParams,
) -> f64 {
    if spec_results.is_empty() {
        return 0.0;
    }
    let u = utility(candidate, spec_results) / harmonic(spec_results.len());
    if u < params.threshold_c {
        0.0
    } else {
        u
    }
}

/// Dense `n × m` matrix of `Ũ(dᵢ | R_{q′_j})` values.
#[derive(Debug, Clone, PartialEq)]
pub struct UtilityMatrix {
    n: usize,
    m: usize,
    values: Vec<f64>,
    /// `coverage[j] = |{i : values[i][j] > 0}|` — precomputed at
    /// construction because selection algorithms (and the property suite)
    /// probe it per specialization per round.
    coverage: Vec<usize>,
}

fn count_coverage(n: usize, m: usize, values: &[f64]) -> Vec<usize> {
    let mut coverage = vec![0usize; m];
    for row in values.chunks_exact(m.max(1)).take(n) {
        for (c, &v) in coverage.iter_mut().zip(row) {
            if v > 0.0 {
                *c += 1;
            }
        }
    }
    coverage
}

impl UtilityMatrix {
    /// Compute the matrix from candidate surrogates and each
    /// specialization's ranked surrogate list. `candidates` may hold
    /// owned, borrowed or `Arc`'d vectors.
    pub fn compute<V: std::borrow::Borrow<SparseVector>>(
        candidates: &[V],
        spec_results: &[Vec<SparseVector>],
        params: UtilityParams,
    ) -> Self {
        let n = candidates.len();
        let m = spec_results.len();
        let mut values = Vec::with_capacity(n * m);
        for cand in candidates {
            for spec in spec_results {
                values.push(normalized_utility(cand.borrow(), spec, params));
            }
        }
        let coverage = count_coverage(n, m, &values);
        UtilityMatrix {
            n,
            m,
            values,
            coverage,
        }
    }

    /// Build directly from precomputed values (row-major `n × m`).
    ///
    /// # Panics
    /// Panics when `values.len() != n·m`, or any value is outside `[0, 1]`.
    pub fn from_values(n: usize, m: usize, values: Vec<f64>) -> Self {
        assert_eq!(values.len(), n * m, "dimension mismatch");
        assert!(
            values.iter().all(|v| (0.0..=1.0).contains(v)),
            "normalized utilities must lie in [0,1]"
        );
        let coverage = count_coverage(n, m, &values);
        UtilityMatrix {
            n,
            m,
            values,
            coverage,
        }
    }

    /// Number of candidates (rows).
    pub fn num_candidates(&self) -> usize {
        self.n
    }

    /// Number of specializations (columns).
    pub fn num_specializations(&self) -> usize {
        self.m
    }

    /// `Ũ(dᵢ | R_{q′_j})`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.n && j < self.m);
        #[cfg(test)]
        crate::opcount::utility_read();
        self.values[i * self.m + j]
    }

    /// The row of candidate `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        #[cfg(test)]
        crate::opcount::utility_read();
        &self.values[i * self.m..(i + 1) * self.m]
    }

    /// Number of candidates with positive utility for specialization `j` —
    /// `|Rq ⋈ q′|` in the MaxUtility Diversify(k) constraint. `O(1)`: the
    /// counts are computed once at construction.
    pub fn coverage(&self, j: usize) -> usize {
        self.coverage[j]
    }

    /// Apply (or tighten) a threshold after construction.
    pub fn with_threshold(mut self, c: f64) -> Self {
        for v in &mut self.values {
            if *v < c {
                *v = 0.0;
            }
        }
        self.coverage = count_coverage(self.n, self.m, &self.values);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serpdiv_text::TermId;

    fn v(pairs: &[(u32, f32)]) -> SparseVector {
        SparseVector::from_pairs(pairs.iter().map(|&(t, w)| (TermId(t), w)))
    }

    #[test]
    fn harmonic_numbers() {
        assert_eq!(harmonic(0), 0.0);
        assert_eq!(harmonic(1), 1.0);
        assert!((harmonic(2) - 1.5).abs() < 1e-12);
        assert!((harmonic(4) - (1.0 + 0.5 + 1.0 / 3.0 + 0.25)).abs() < 1e-12);
    }

    #[test]
    fn harmonic_memoization_matches_direct_sum() {
        // Table region and the lazy extension past it must both agree with
        // the ascending direct sum, bitwise.
        for n in [
            1usize,
            20,
            HARMONIC_TABLE,
            HARMONIC_TABLE + 1,
            HARMONIC_TABLE + 37,
        ] {
            let direct = (1..=n).fold(0.0f64, |h, i| h + 1.0 / i as f64);
            assert_eq!(harmonic(n), direct, "n={n}");
        }
    }

    #[test]
    fn identical_top_ranked_doc_gives_max_contribution() {
        let d = v(&[(1, 1.0)]);
        let spec = vec![d.clone(), v(&[(2, 1.0)])];
        // cosine(d, spec[0]) = 1 at rank 1; cosine with spec[1] = 0.
        assert!((utility(&d, &spec) - 1.0).abs() < 1e-9);
        // Normalized by H_2 = 1.5.
        let u = normalized_utility(&d, &spec, UtilityParams::default());
        assert!((u - 1.0 / 1.5).abs() < 1e-9);
    }

    #[test]
    fn rank_discount_matters() {
        let d = v(&[(1, 1.0)]);
        let other = v(&[(9, 1.0)]);
        let high = vec![d.clone(), other.clone()]; // match at rank 1
        let low = vec![other, d.clone()]; // match at rank 2
        assert!(utility(&d, &high) > utility(&d, &low));
    }

    #[test]
    fn perfect_match_everywhere_normalizes_to_one() {
        let d = v(&[(1, 2.0)]);
        let spec = vec![d.clone(), d.clone(), d.clone()];
        let u = normalized_utility(&d, &spec, UtilityParams::default());
        assert!((u - 1.0).abs() < 1e-9);
    }

    #[test]
    fn threshold_zeroes_small_values() {
        let d = v(&[(1, 1.0), (2, 1.0)]);
        let spec = vec![v(&[(2, 1.0), (3, 1.0)])]; // cosine = 0.5
        let free = normalized_utility(&d, &spec, UtilityParams { threshold_c: 0.0 });
        assert!(free > 0.0);
        let strict = normalized_utility(&d, &spec, UtilityParams { threshold_c: 0.9 });
        assert_eq!(strict, 0.0);
    }

    #[test]
    fn empty_spec_list_has_zero_utility() {
        let d = v(&[(1, 1.0)]);
        assert_eq!(normalized_utility(&d, &[], UtilityParams::default()), 0.0);
    }

    #[test]
    fn matrix_layout_and_coverage() {
        let c0 = v(&[(1, 1.0)]);
        let c1 = v(&[(2, 1.0)]);
        let spec0 = vec![v(&[(1, 1.0)])]; // matches c0 only
        let spec1 = vec![v(&[(2, 1.0)])]; // matches c1 only
        let m = UtilityMatrix::compute(&[c0, c1], &[spec0, spec1], UtilityParams::default());
        assert_eq!(m.num_candidates(), 2);
        assert_eq!(m.num_specializations(), 2);
        assert!(m.get(0, 0) > 0.9 && m.get(0, 1) == 0.0);
        assert!(m.get(1, 1) > 0.9 && m.get(1, 0) == 0.0);
        assert_eq!(m.coverage(0), 1);
        assert_eq!(m.coverage(1), 1);
        assert_eq!(m.row(0), &[m.get(0, 0), m.get(0, 1)]);
    }

    #[test]
    fn with_threshold_tightens() {
        let m = UtilityMatrix::from_values(1, 3, vec![0.1, 0.5, 0.9]).with_threshold(0.4);
        assert_eq!(m.row(0), &[0.0, 0.5, 0.9]);
        // Precomputed coverage counts must track the thresholding.
        assert_eq!((m.coverage(0), m.coverage(1), m.coverage(2)), (0, 1, 1));
    }

    #[test]
    #[should_panic(expected = "dimension")]
    fn bad_dimensions_panic() {
        let _ = UtilityMatrix::from_values(2, 2, vec![0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "normalized")]
    fn out_of_range_values_panic() {
        let _ = UtilityMatrix::from_values(1, 1, vec![1.5]);
    }
}
