//! Sparse TF-IDF document vectors and cosine similarity.
//!
//! The paper's distance function (Eq. 2) is `δ(d₁,d₂) = 1 − cosine(d₁,d₂)`,
//! computed over document *surrogates* (snippets). A [`SparseVector`] stores
//! `(TermId, weight)` pairs sorted by term id with a cached L2 norm, so the
//! dot product is a linear merge and cosine is two multiplies away.
//!
//! Weights are the standard `(1 + ln tf) · ln(1 + N/df)` TF-IDF, which is
//! non-negative — hence `cosine ∈ [0, 1]` and `δ ∈ [0, 1]` as Definition 2
//! requires.

use crate::index::{InvertedIndex, TermStats};
use serpdiv_text::TermId;
use std::collections::HashMap;

/// `ln(1 + N/df)`: the IDF factor of a term with statistics `stats` in a
/// collection of `num_docs` documents, `df` floored at 1. With
/// [`tf_idf_weight`] this is the one `f32` expression behind every
/// surrogate weight — the text path's, the forward index's cached table
/// and a delta's union-statistics weights alike — so they stay
/// bit-identical.
pub(crate) fn idf_weight(num_docs: u64, stats: Option<TermStats>) -> f32 {
    let df = stats.map_or(0.0, |s| s.doc_freq as f32).max(1.0);
    (1.0 + num_docs as f32 / df).ln()
}

/// `(1 + ln tf) · idf`: the weight of a term occurring `tf` times.
pub(crate) fn tf_idf_weight(tf: u32, idf: f32) -> f32 {
    (1.0 + (tf as f32).ln()) * idf
}

/// A sparse vector over the term space with cached norm.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparseVector {
    /// `(term, weight)` pairs sorted by term id, weights ≥ 0.
    entries: Vec<(TermId, f32)>,
    norm: f32,
}

impl SparseVector {
    /// Build from unsorted `(term, weight)` pairs; duplicate terms are
    /// summed, non-finite or negative weights rejected.
    ///
    /// # Panics
    /// Panics if any weight is negative or non-finite.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (TermId, f32)>) -> Self {
        let mut map: HashMap<TermId, f32> = HashMap::new();
        for (t, w) in pairs {
            assert!(w.is_finite() && w >= 0.0, "weights must be finite and ≥ 0");
            *map.entry(t).or_insert(0.0) += w;
        }
        let mut entries: Vec<(TermId, f32)> = map.into_iter().filter(|&(_, w)| w > 0.0).collect();
        entries.sort_unstable_by_key(|&(t, _)| t);
        // From +0.0, as `default()` holds: a float `sum` starts at -0.0.
        let norm = entries.iter().fold(0.0f32, |n, &(_, w)| n + w * w).sqrt();
        SparseVector { entries, norm }
    }

    /// Build from `(term, weight)` pairs already sorted by strictly
    /// ascending term id (no duplicates). The zero-allocation-overhead
    /// constructor of the compiled forward-index path: it skips the
    /// aggregation map of [`from_pairs`](Self::from_pairs) but applies the
    /// same contract — zero weights are dropped, and the cached norm is
    /// accumulated over the retained entries in the same (sorted) order,
    /// so the result is bit-identical to the `from_pairs` equivalent.
    ///
    /// # Panics
    /// Panics if any weight is negative or non-finite, or if terms are
    /// not strictly ascending.
    pub fn from_sorted_pairs(pairs: impl IntoIterator<Item = (TermId, f32)>) -> Self {
        let mut entries: Vec<(TermId, f32)> = Vec::new();
        for (t, w) in pairs {
            assert!(w.is_finite() && w >= 0.0, "weights must be finite and ≥ 0");
            if let Some(&(last, _)) = entries.last() {
                assert!(last < t, "terms must be strictly ascending");
            }
            if w > 0.0 {
                entries.push((t, w));
            }
        }
        let norm = entries.iter().fold(0.0f32, |n, &(_, w)| n + w * w).sqrt();
        SparseVector { entries, norm }
    }

    /// TF-IDF vector of a text under `index`'s statistics.
    ///
    /// This is how the text oracle vectorizes a snippet: analyze it,
    /// weight each term by `(1 + ln tf) · ln(1 + N/df)`.
    pub fn from_text(text: &str, index: &InvertedIndex) -> Self {
        let num_docs = index.stats().num_docs;
        let mut tf: HashMap<TermId, u32> = HashMap::new();
        for t in index.analyze_query(text) {
            *tf.entry(t).or_insert(0) += 1;
        }
        Self::from_pairs(tf.into_iter().map(|(t, f)| {
            (
                t,
                tf_idf_weight(f, idf_weight(num_docs, index.term_stats(t))),
            )
        }))
    }

    /// Number of nonzero entries.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// True when the vector is all-zero.
    pub fn is_zero(&self) -> bool {
        self.entries.is_empty()
    }

    /// Cached L2 norm.
    pub fn norm(&self) -> f32 {
        self.norm
    }

    /// The sorted entries.
    pub fn entries(&self) -> &[(TermId, f32)] {
        &self.entries
    }

    /// Dot product by sorted merge — `O(nnz(a) + nnz(b))`.
    pub fn dot(&self, other: &SparseVector) -> f32 {
        let (mut i, mut j) = (0usize, 0usize);
        let (a, b) = (&self.entries, &other.entries);
        let mut acc = 0.0f32;
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    acc += a[i].1 * b[j].1;
                    i += 1;
                    j += 1;
                }
            }
        }
        acc
    }

    /// Dot product accumulated in `f64` — same merge as [`dot`](Self::dot)
    /// but each product and the running sum are double precision, so
    /// utility computations that fold many dot products stay comparable
    /// across algebraically equivalent evaluation orders.
    pub fn dot64(&self, other: &SparseVector) -> f64 {
        let (mut i, mut j) = (0usize, 0usize);
        let (a, b) = (&self.entries, &other.entries);
        let mut acc = 0.0f64;
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    acc += f64::from(a[i].1) * f64::from(b[j].1);
                    i += 1;
                    j += 1;
                }
            }
        }
        acc
    }

    /// Approximate in-memory footprint in bytes (for the §4.1 memory
    /// feasibility experiment).
    pub fn byte_size(&self) -> usize {
        std::mem::size_of::<Self>() + self.entries.len() * std::mem::size_of::<(TermId, f32)>()
    }
}

/// Cosine similarity in `[0, 1]`; zero vectors have similarity 0 with
/// everything (a zero snippet carries no evidence of relatedness).
pub fn cosine(a: &SparseVector, b: &SparseVector) -> f32 {
    if a.is_zero() || b.is_zero() {
        return 0.0;
    }
    let c = a.dot(b) / (a.norm() * b.norm());
    // Guard floating error so callers can rely on the [0,1] contract.
    c.clamp(0.0, 1.0)
}

/// Double-precision cosine in `[0, 1]` — the reference similarity for the
/// utility stage, where the compiled fast path re-associates the same sum
/// and the two must agree to ~1e-12 rather than f32's ~1e-7.
pub fn cosine64(a: &SparseVector, b: &SparseVector) -> f64 {
    if a.is_zero() || b.is_zero() {
        return 0.0;
    }
    let c = a.dot64(b) / (f64::from(a.norm()) * f64::from(b.norm()));
    c.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(pairs: &[(u32, f32)]) -> SparseVector {
        SparseVector::from_pairs(pairs.iter().map(|&(t, w)| (TermId(t), w)))
    }

    #[test]
    fn identical_vectors_have_cosine_one() {
        let a = v(&[(1, 2.0), (5, 3.0)]);
        assert!((cosine(&a, &a) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn disjoint_vectors_have_cosine_zero() {
        let a = v(&[(1, 2.0)]);
        let b = v(&[(2, 2.0)]);
        assert_eq!(cosine(&a, &b), 0.0);
    }

    #[test]
    fn cosine_is_symmetric() {
        let a = v(&[(1, 1.0), (2, 2.0), (9, 0.5)]);
        let b = v(&[(2, 1.5), (9, 4.0)]);
        assert!((cosine(&a, &b) - cosine(&b, &a)).abs() < 1e-9);
    }

    #[test]
    fn zero_vector_cosine_is_zero() {
        let z = SparseVector::default();
        let a = v(&[(1, 1.0)]);
        assert_eq!(cosine(&z, &a), 0.0);
        assert_eq!(cosine(&z, &z), 0.0);
    }

    #[test]
    fn duplicates_are_summed() {
        let a = SparseVector::from_pairs(vec![(TermId(3), 1.0), (TermId(3), 2.0)]);
        assert_eq!(a.nnz(), 1);
        assert_eq!(a.entries()[0].1, 3.0);
    }

    #[test]
    fn zero_weights_dropped() {
        let a = SparseVector::from_pairs(vec![(TermId(3), 0.0), (TermId(4), 1.0)]);
        assert_eq!(a.nnz(), 1);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn negative_weight_panics() {
        let _ = SparseVector::from_pairs(vec![(TermId(1), -1.0)]);
    }

    #[test]
    fn dot_merge_matches_naive() {
        let a = v(&[(0, 1.0), (2, 2.0), (4, 3.0)]);
        let b = v(&[(1, 5.0), (2, 7.0), (4, 0.5)]);
        assert!((a.dot(&b) - (2.0 * 7.0 + 3.0 * 0.5)).abs() < 1e-6);
    }

    #[test]
    fn dot64_and_cosine64_match_f32_versions() {
        let a = v(&[(0, 1.5), (2, 2.0), (7, 3.0)]);
        let b = v(&[(2, 7.0), (7, 0.5), (9, 4.0)]);
        assert!((a.dot64(&b) - f64::from(a.dot(&b))).abs() < 1e-5);
        assert!((cosine64(&a, &b) - f64::from(cosine(&a, &b))).abs() < 1e-6);
        // The cached norm is f32, so self-similarity is 1 up to f32 eps.
        assert!((cosine64(&a, &a) - 1.0).abs() < 1e-6);
        let z = SparseVector::default();
        assert_eq!(cosine64(&z, &a), 0.0);
    }

    #[test]
    fn from_sorted_pairs_matches_from_pairs_bitwise() {
        let pairs = [(TermId(1), 0.25f32), (TermId(4), 3.5), (TermId(9), 0.125)];
        let a = SparseVector::from_pairs(pairs);
        let b = SparseVector::from_sorted_pairs(pairs);
        assert_eq!(a, b);
        assert_eq!(a.norm().to_bits(), b.norm().to_bits());
        // Zero weights are dropped by both constructors.
        let z = SparseVector::from_sorted_pairs([(TermId(0), 0.0), (TermId(2), 1.0)]);
        assert_eq!(z.nnz(), 1);
    }

    #[test]
    fn an_empty_vector_has_one_norm() {
        let bits = SparseVector::default().norm().to_bits();
        assert_eq!(bits, 0.0f32.to_bits());
        let zero_weights = [(TermId(1), 0.0f32), (TermId(3), 0.0)];
        for (what, v) in [
            ("from_pairs of nothing", SparseVector::from_pairs([])),
            (
                "from_sorted_pairs of nothing",
                SparseVector::from_sorted_pairs([]),
            ),
            (
                "from_pairs of zeros",
                SparseVector::from_pairs(zero_weights),
            ),
            (
                "from_sorted_pairs of zeros",
                SparseVector::from_sorted_pairs(zero_weights),
            ),
        ] {
            assert!(v.is_zero(), "{what}");
            assert_eq!(v.norm().to_bits(), bits, "{what}");
        }
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn from_sorted_pairs_rejects_unsorted() {
        let _ = SparseVector::from_sorted_pairs([(TermId(4), 1.0), (TermId(1), 1.0)]);
    }

    #[test]
    fn from_text_uses_index_statistics() {
        use crate::builder::IndexBuilder;
        use crate::document::Document;
        let mut b = IndexBuilder::new();
        b.add(Document::new(0, "u0", "", "apple banana apple"));
        b.add(Document::new(1, "u1", "", "banana cherry"));
        let idx = b.build();
        let va = SparseVector::from_text("apple banana apple", &idx);
        let vb = SparseVector::from_text("banana cherry", &idx);
        let sim = cosine(&va, &vb);
        assert!(sim > 0.0 && sim < 1.0);
        // apple (df=1) must outweigh banana (df=2) at the same tf.
        let vap = SparseVector::from_text("apple", &idx);
        let vba = SparseVector::from_text("banana", &idx);
        assert!(vap.entries()[0].1 > vba.entries()[0].1);
    }
}
