//! Per-subtopic unigram language models emitting documents.
//!
//! Each subtopic owns a language model mixing four sources:
//!
//! * the topic's head term (so the ambiguous query retrieves the document),
//! * the subtopic's name terms (so the specialization query retrieves it,
//!   and snippets of same-subtopic documents share vocabulary — the signal
//!   cosine similarity measures),
//! * the subtopic's private term pool (topical coherence),
//! * Zipf-distributed background vocabulary (realistic noise).

use crate::topics::Topic;
use crate::zipf::Zipf;
use rand::Rng;

/// Mixture weights and length parameters of the document generator.
#[derive(Debug, Clone, Copy)]
pub struct DocGenConfig {
    /// Probability of emitting the topic head term.
    pub p_head: f64,
    /// Probability of emitting one of the subtopic's name terms.
    pub p_subtopic_name: f64,
    /// Probability of emitting a term from the subtopic's private pool.
    pub p_subtopic_pool: f64,
    /// Minimum body length in tokens.
    pub min_len: usize,
    /// Maximum body length in tokens.
    pub max_len: usize,
    /// Zipf exponent of the background vocabulary.
    pub background_exponent: f64,
    /// Head-term rate of distractor documents relative to `p_head`
    /// (> 1: distractors out-rank genuine pages on term frequency alone,
    /// as keyword-stuffed pages do on the real web).
    pub distractor_head_boost: f64,
}

impl Default for DocGenConfig {
    fn default() -> Self {
        DocGenConfig {
            p_head: 0.08,
            p_subtopic_name: 0.10,
            p_subtopic_pool: 0.32,
            min_len: 40,
            max_len: 120,
            background_exponent: 1.05,
            distractor_head_boost: 1.5,
        }
    }
}

/// Document-body generator shared across subtopics of a testbed.
#[derive(Debug)]
pub struct DocGenerator<'a> {
    cfg: DocGenConfig,
    background: &'a [String],
    zipf: Zipf,
}

impl<'a> DocGenerator<'a> {
    /// Create a generator over a background vocabulary.
    ///
    /// # Panics
    /// Panics when the background vocabulary is empty or the mixture
    /// probabilities exceed 1.
    pub fn new(cfg: DocGenConfig, background: &'a [String]) -> Self {
        assert!(!background.is_empty(), "background vocabulary required");
        assert!(
            cfg.p_head + cfg.p_subtopic_name + cfg.p_subtopic_pool <= 1.0,
            "mixture probabilities must sum to ≤ 1"
        );
        assert!(cfg.min_len >= 1 && cfg.min_len <= cfg.max_len);
        let zipf = Zipf::new(background.len(), cfg.background_exponent);
        DocGenerator {
            cfg,
            background,
            zipf,
        }
    }

    /// Generate the body of a document about `topic`'s subtopic `sub`.
    pub fn subtopic_body<R: Rng + ?Sized>(&self, topic: &Topic, sub: usize, rng: &mut R) -> String {
        let subtopic = &topic.subtopics[sub];
        let len = rng.gen_range(self.cfg.min_len..=self.cfg.max_len);
        let mut words: Vec<&str> = Vec::with_capacity(len);
        for _ in 0..len {
            let u: f64 = rng.gen();
            if u < self.cfg.p_head {
                words.push(&topic.head_term);
            } else if u < self.cfg.p_head + self.cfg.p_subtopic_name {
                // Name terms exclude the head term (queries are "head sub").
                let name_terms: Vec<&str> = subtopic
                    .query
                    .split_whitespace()
                    .filter(|w| *w != topic.head_term)
                    .collect();
                if let Some(w) = pick(&name_terms, rng) {
                    words.push(w);
                } else {
                    words.push(&topic.head_term);
                }
            } else if u < self.cfg.p_head + self.cfg.p_subtopic_name + self.cfg.p_subtopic_pool {
                let i = rng.gen_range(0..subtopic.terms.len());
                words.push(&subtopic.terms[i]);
            } else {
                words.push(&self.background[self.zipf.sample(rng)]);
            }
        }
        words.join(" ")
    }

    /// Generate a *distractor* body: a document that uses the topic's head
    /// term (so the ambiguous query retrieves it) but belongs to no
    /// subtopic — the "plausible but irrelevant" pages that dominate real
    /// web result lists and that diversifiers must demote.
    pub fn distractor_body<R: Rng + ?Sized>(&self, topic: &Topic, rng: &mut R) -> String {
        let len = rng.gen_range(self.cfg.min_len..=self.cfg.max_len);
        let p_head = (self.cfg.p_head * self.cfg.distractor_head_boost).min(0.9);
        let mut words: Vec<&str> = Vec::with_capacity(len);
        for _ in 0..len {
            if rng.gen_bool(p_head) {
                words.push(&topic.head_term);
            } else {
                words.push(&self.background[self.zipf.sample(rng)]);
            }
        }
        words.join(" ")
    }

    /// Generate a background-only (noise) document body.
    pub fn noise_body<R: Rng + ?Sized>(&self, rng: &mut R) -> String {
        let len = rng.gen_range(self.cfg.min_len..=self.cfg.max_len);
        (0..len)
            .map(|_| self.background[self.zipf.sample(rng)].as_str())
            .collect::<Vec<_>>()
            .join(" ")
    }
}

fn pick<'s, R: Rng + ?Sized>(items: &[&'s str], rng: &mut R) -> Option<&'s str> {
    if items.is_empty() {
        None
    } else {
        Some(items[rng.gen_range(0..items.len())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topics::Subtopic;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn topic() -> Topic {
        Topic {
            id: 0,
            query: "leopard".into(),
            head_term: "leopard".into(),
            subtopics: vec![Subtopic {
                id: 0,
                query: "leopard tank".into(),
                weight: 1.0,
                terms: vec!["armor".into(), "army".into(), "battalion".into()],
            }],
        }
    }

    fn background() -> Vec<String> {
        (0..50).map(|i| format!("bg{i:02}")).collect()
    }

    #[test]
    fn body_contains_topical_signal() {
        let bg = background();
        let gen = DocGenerator::new(DocGenConfig::default(), &bg);
        let t = topic();
        let mut rng = StdRng::seed_from_u64(1);
        // Over several documents the head term and pool terms must appear.
        let mut saw_head = false;
        let mut saw_pool = false;
        for _ in 0..20 {
            let body = gen.subtopic_body(&t, 0, &mut rng);
            saw_head |= body.contains("leopard");
            saw_pool |= body.contains("armor") || body.contains("army");
        }
        assert!(saw_head && saw_pool);
    }

    #[test]
    fn body_lengths_in_range() {
        let bg = background();
        let cfg = DocGenConfig {
            min_len: 10,
            max_len: 20,
            ..DocGenConfig::default()
        };
        let gen = DocGenerator::new(cfg, &bg);
        let t = topic();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10 {
            let n = gen
                .subtopic_body(&t, 0, &mut rng)
                .split_whitespace()
                .count();
            assert!((10..=20).contains(&n));
        }
    }

    #[test]
    fn noise_has_no_topical_terms() {
        let bg = background();
        let gen = DocGenerator::new(DocGenConfig::default(), &bg);
        let mut rng = StdRng::seed_from_u64(3);
        let body = gen.noise_body(&mut rng);
        assert!(!body.contains("leopard"));
        assert!(!body.contains("armor"));
    }

    #[test]
    fn deterministic_given_rng_seed() {
        let bg = background();
        let gen = DocGenerator::new(DocGenConfig::default(), &bg);
        let t = topic();
        let a = gen.subtopic_body(&t, 0, &mut StdRng::seed_from_u64(9));
        let b = gen.subtopic_body(&t, 0, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "background")]
    fn empty_background_panics() {
        let bg: Vec<String> = Vec::new();
        let _ = DocGenerator::new(DocGenConfig::default(), &bg);
    }
}
