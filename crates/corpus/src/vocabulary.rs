//! Deterministic synthetic vocabulary.
//!
//! Generates pronounceable pseudo-words (alternating consonant/vowel
//! syllables) that are (a) deterministic in the seed, (b) pairwise distinct
//! *after Porter stemming* — so every generated word occupies its own slot
//! in the index's term space and subtopic language models stay separable —
//! and (c) free of stopword collisions.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serpdiv_text::{is_stopword, porter_stem};
use std::collections::HashSet;

const CONSONANTS: &[u8] = b"bcdfghjklmnpqrstvwz";
const VOWELS: &[u8] = b"aeiou";

/// A pool of distinct pseudo-words.
#[derive(Debug, Clone)]
pub struct SyntheticVocabulary {
    words: Vec<String>,
}

impl SyntheticVocabulary {
    /// Generate `n` distinct pseudo-words from `seed`.
    pub fn generate(n: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut words = Vec::with_capacity(n);
        let mut seen_stems: HashSet<String> = HashSet::with_capacity(n);
        while words.len() < n {
            let word = Self::pseudo_word(&mut rng);
            if is_stopword(&word) {
                continue;
            }
            let stem = porter_stem(&word);
            if seen_stems.insert(stem) {
                words.push(word);
            }
        }
        SyntheticVocabulary { words }
    }

    fn pseudo_word<R: Rng + ?Sized>(rng: &mut R) -> String {
        let syllables = rng.gen_range(2..=4);
        let mut w = String::with_capacity(syllables * 2 + 1);
        for _ in 0..syllables {
            w.push(CONSONANTS[rng.gen_range(0..CONSONANTS.len())] as char);
            w.push(VOWELS[rng.gen_range(0..VOWELS.len())] as char);
        }
        // Occasionally close with a consonant for variety.
        if rng.gen_bool(0.3) {
            w.push(CONSONANTS[rng.gen_range(0..CONSONANTS.len())] as char);
        }
        w
    }

    /// Number of words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True when the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Word at `i`.
    pub fn word(&self, i: usize) -> &str {
        &self.words[i]
    }

    /// All words.
    pub fn words(&self) -> &[String] {
        &self.words
    }

    /// Split the pool into `parts` disjoint consecutive slices of equal
    /// size (the remainder goes to the last slice).
    pub fn partition(&self, parts: usize) -> Vec<&[String]> {
        assert!(parts > 0);
        let chunk = (self.words.len() / parts).max(1);
        let mut out = Vec::with_capacity(parts);
        for p in 0..parts {
            let start = (p * chunk).min(self.words.len());
            let end = if p + 1 == parts {
                self.words.len()
            } else {
                ((p + 1) * chunk).min(self.words.len())
            };
            out.push(&self.words[start..end]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_in_seed() {
        let a = SyntheticVocabulary::generate(100, 42);
        let b = SyntheticVocabulary::generate(100, 42);
        assert_eq!(a.words(), b.words());
        let c = SyntheticVocabulary::generate(100, 43);
        assert_ne!(a.words(), c.words());
    }

    #[test]
    fn words_are_distinct_after_stemming() {
        let v = SyntheticVocabulary::generate(500, 7);
        let stems: HashSet<String> = v.words().iter().map(|w| porter_stem(w)).collect();
        assert_eq!(stems.len(), 500);
    }

    #[test]
    fn no_stopwords() {
        let v = SyntheticVocabulary::generate(300, 9);
        assert!(v.words().iter().all(|w| !is_stopword(w)));
    }

    #[test]
    fn partition_is_disjoint_and_covering() {
        let v = SyntheticVocabulary::generate(103, 1);
        let parts = v.partition(4);
        assert_eq!(parts.len(), 4);
        let total: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(total, 103);
        let mut all: Vec<&String> = parts.iter().flat_map(|p| p.iter()).collect();
        all.dedup();
        assert_eq!(all.len(), 103);
    }

    #[test]
    fn words_survive_analysis() {
        // Every pseudo-word must map to exactly one indexed term.
        let v = SyntheticVocabulary::generate(100, 3);
        for w in v.words() {
            assert_eq!(
                serpdiv_text::Analyzer::analyze(w).len(),
                1,
                "word {w} analyzed away"
            );
        }
    }
}
