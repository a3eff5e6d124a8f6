//! Assembled testbed: corpus + topics + subtopic qrels.
//!
//! One seeded call produces everything the TREC-style evaluation needs:
//! the document collection (ClueWeb-B stand-in), the 50 ambiguous topics
//! with weighted subtopics, and the subtopic-level relevance judgements —
//! all mutually consistent by construction.

use crate::docgen::{DocGenConfig, DocGenerator};
use crate::qrels::Qrels;
use crate::topics::{Subtopic, Topic};
use crate::vocabulary::SyntheticVocabulary;
use crate::zipf::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serpdiv_index::{Document, DocumentStore, IndexBuilder, InvertedIndex};

/// Shape of the generated testbed.
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    /// Number of ambiguous topics (TREC 2009: 50).
    pub num_topics: usize,
    /// Minimum subtopics per topic (TREC 2009: 3).
    pub min_subtopics: usize,
    /// Maximum subtopics per topic (TREC 2009: 8).
    pub max_subtopics: usize,
    /// Average relevant documents generated per subtopic.
    pub docs_per_subtopic: usize,
    /// Allocate subtopic documents proportionally to subtopic popularity
    /// (real web collections over-represent the dominant interpretation;
    /// a minimum of 3 documents per subtopic is kept). When false, every
    /// subtopic gets exactly `docs_per_subtopic` documents.
    pub proportional_docs: bool,
    /// Distractor documents per topic: pages using the topic's head term
    /// without belonging to any subtopic (judged irrelevant).
    pub distractors_per_topic: usize,
    /// Background (noise) documents relevant to nothing.
    pub noise_docs: usize,
    /// Background vocabulary size.
    pub background_vocab: usize,
    /// Private pool terms per subtopic.
    pub terms_per_subtopic: usize,
    /// Zipf exponent of the subtopic popularity distribution P(q′|q).
    pub subtopic_popularity_exponent: f64,
    /// Document language-model parameters.
    pub docgen: DocGenConfig,
    /// Master seed; everything is deterministic in it.
    pub seed: u64,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        Self::small()
    }
}

impl TestbedConfig {
    /// A small testbed for unit/integration tests (≈ 1k documents).
    pub fn small() -> Self {
        TestbedConfig {
            num_topics: 8,
            min_subtopics: 3,
            max_subtopics: 6,
            docs_per_subtopic: 15,
            proportional_docs: false,
            distractors_per_topic: 0,
            noise_docs: 200,
            background_vocab: 1_500,
            terms_per_subtopic: 25,
            subtopic_popularity_exponent: 1.0,
            docgen: DocGenConfig::default(),
            seed: 0xC0FFEE,
        }
    }

    /// The TREC-2009-shaped testbed used by the Table 3 harness: 50 topics,
    /// 3–8 subtopics. Document counts are scaled to laptop budgets (the
    /// paper's ClueWeb-B has 50M documents; retrieval quality shape is
    /// preserved with thousands — see the crate docs).
    pub fn trec_scaled() -> Self {
        TestbedConfig {
            num_topics: 50,
            min_subtopics: 3,
            max_subtopics: 8,
            docs_per_subtopic: 40,
            proportional_docs: true,
            distractors_per_topic: 120,
            noise_docs: 3_000,
            background_vocab: 6_000,
            terms_per_subtopic: 30,
            subtopic_popularity_exponent: 1.0,
            docgen: DocGenConfig::default(),
            seed: 0x7EC_2009,
        }
    }
}

/// The generated testbed.
#[derive(Debug)]
pub struct Testbed {
    /// Configuration it was generated from.
    pub config: TestbedConfig,
    /// The document collection.
    pub store: DocumentStore,
    /// The ambiguous topics.
    pub topics: Vec<Topic>,
    /// Subtopic-level relevance judgements.
    pub qrels: Qrels,
    /// The background vocabulary (noise documents and non-topical queries
    /// draw from it).
    pub background: Vec<String>,
}

impl Testbed {
    /// Generate a testbed from `config` (deterministic in `config.seed`).
    pub fn generate(config: TestbedConfig) -> Self {
        assert!(config.num_topics > 0);
        assert!(1 <= config.min_subtopics && config.min_subtopics <= config.max_subtopics);
        let mut rng = StdRng::seed_from_u64(config.seed);

        // Vocabulary layout: [background | per-topic blocks].
        // Per topic: 1 head term + max_subtopics · (1 name + pool terms).
        let per_topic = 1 + config.max_subtopics * (1 + config.terms_per_subtopic);
        let total_vocab = config.background_vocab + config.num_topics * per_topic;
        let vocab = SyntheticVocabulary::generate(total_vocab, config.seed ^ 0x5EED);
        let background = &vocab.words()[..config.background_vocab];

        // Build topics.
        let mut topics = Vec::with_capacity(config.num_topics);
        let mut cursor = config.background_vocab;
        for tid in 0..config.num_topics {
            let head_term = vocab.word(cursor).to_string();
            cursor += 1;
            let n_subs = rng.gen_range(config.min_subtopics..=config.max_subtopics);
            // Popularity ∝ Zipf over subtopic ranks, normalized.
            let z = Zipf::new(n_subs, config.subtopic_popularity_exponent);
            let mut subtopics = Vec::with_capacity(n_subs);
            for sid in 0..n_subs {
                let name_term = vocab.word(cursor).to_string();
                cursor += 1;
                let terms: Vec<String> = (0..config.terms_per_subtopic)
                    .map(|i| vocab.word(cursor + i).to_string())
                    .collect();
                cursor += config.terms_per_subtopic;
                subtopics.push(Subtopic {
                    id: sid,
                    query: format!("{head_term} {name_term}"),
                    weight: z.pmf(sid),
                    terms,
                });
            }
            // Skip the unused reserved slots of this topic block.
            cursor += (config.max_subtopics - n_subs) * (1 + config.terms_per_subtopic);
            let topic = Topic {
                id: tid,
                query: head_term.clone(),
                head_term,
                subtopics,
            };
            debug_assert!(topic.validate().is_ok(), "{:?}", topic.validate());
            topics.push(topic);
        }

        // Generate documents + qrels.
        let gen = DocGenerator::new(config.docgen, background);
        let mut store = DocumentStore::new();
        let mut qrels = Qrels::new();
        let mut next_id: u32 = 0;
        for topic in &topics {
            qrels.declare_topic(topic.id, topic.num_subtopics());
            let total_docs = config.docs_per_subtopic * topic.num_subtopics();
            for sub in &topic.subtopics {
                // Real collections over-represent the dominant
                // interpretation; allocate ∝ weight when configured.
                let n_docs = if config.proportional_docs {
                    ((total_docs as f64 * sub.weight).round() as usize).max(3)
                } else {
                    config.docs_per_subtopic
                };
                for d in 0..n_docs {
                    let body = gen.subtopic_body(topic, sub.id, &mut rng);
                    let url = format!("http://testbed/t{}/s{}/d{}", topic.id, sub.id, d);
                    let doc = Document::new(next_id, url, sub.query.clone(), body);
                    qrels.add(topic.id, sub.id, doc.id);
                    store.push(doc);
                    next_id += 1;
                }
            }
            for d in 0..config.distractors_per_topic {
                let body = gen.distractor_body(topic, &mut rng);
                let url = format!("http://testbed/t{}/distract/d{}", topic.id, d);
                store.push(Document::new(next_id, url, String::new(), body));
                next_id += 1;
            }
        }
        for d in 0..config.noise_docs {
            let body = gen.noise_body(&mut rng);
            let url = format!("http://testbed/noise/d{d}");
            store.push(Document::new(next_id, url, String::new(), body));
            next_id += 1;
        }

        Testbed {
            config,
            store,
            topics,
            qrels,
            background: background.to_vec(),
        }
    }

    /// Build the inverted index over the testbed's documents.
    pub fn build_index(&self) -> InvertedIndex {
        let mut builder = IndexBuilder::new();
        for doc in self.store.iter() {
            builder.add(doc.clone());
        }
        builder.build()
    }

    /// Total number of documents.
    pub fn num_docs(&self) -> usize {
        self.store.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bed() -> Testbed {
        let mut cfg = TestbedConfig::small();
        cfg.num_topics = 3;
        cfg.docs_per_subtopic = 5;
        cfg.noise_docs = 30;
        Testbed::generate(cfg)
    }

    #[test]
    fn topics_are_valid_and_in_bounds() {
        let tb = bed();
        assert_eq!(tb.topics.len(), 3);
        for t in &tb.topics {
            assert!(t.validate().is_ok());
            assert!((3..=6).contains(&t.num_subtopics()));
        }
    }

    #[test]
    fn qrels_cover_every_subtopic() {
        let tb = bed();
        for t in &tb.topics {
            for s in &t.subtopics {
                let docs = tb.qrels.relevant_docs(t.id, s.id);
                assert_eq!(docs.len(), 5, "topic {} sub {}", t.id, s.id);
            }
        }
    }

    #[test]
    fn determinism() {
        let a = bed();
        let b = bed();
        assert_eq!(a.num_docs(), b.num_docs());
        let da = a.store.get(serpdiv_index::DocId(0)).unwrap();
        let db = b.store.get(serpdiv_index::DocId(0)).unwrap();
        assert_eq!(da.body, db.body);
        assert_eq!(a.topics[0].query, b.topics[0].query);
    }

    #[test]
    fn ambiguous_query_retrieves_multiple_subtopics() {
        let tb = bed();
        let index = tb.build_index();
        let engine = serpdiv_index::SearchEngine::new(&index);
        let topic = &tb.topics[0];
        let hits = engine.search(&topic.query, 100);
        assert!(!hits.is_empty());
        // Count distinct subtopics among retrieved docs.
        let mut covered = std::collections::HashSet::new();
        for h in &hits {
            for s in tb.qrels.subtopics_of(topic.id, h.doc) {
                covered.insert(s);
            }
        }
        assert!(
            covered.len() >= 2,
            "ambiguous query should surface ≥ 2 subtopics, got {covered:?}"
        );
    }

    #[test]
    fn specialization_query_prefers_its_subtopic() {
        let tb = bed();
        let index = tb.build_index();
        let engine = serpdiv_index::SearchEngine::new(&index);
        let topic = &tb.topics[0];
        let sub = &topic.subtopics[0];
        // Only `docs_per_subtopic` (= 5) relevant documents exist; the top-5
        // must be dominated by them.
        let hits = engine.search(&sub.query, 5);
        assert_eq!(hits.len(), 5);
        let rel = hits
            .iter()
            .filter(|h| tb.qrels.is_relevant(topic.id, sub.id, h.doc))
            .count();
        assert!(rel >= 4, "only {rel}/{} relevant", hits.len());
    }

    #[test]
    fn weights_are_descending() {
        let tb = bed();
        for t in &tb.topics {
            for w in t.subtopics.windows(2) {
                assert!(w[0].weight >= w[1].weight);
            }
        }
    }

    #[test]
    fn proportional_docs_follow_weights() {
        let mut cfg = TestbedConfig::small();
        cfg.num_topics = 2;
        cfg.proportional_docs = true;
        cfg.docs_per_subtopic = 20;
        cfg.noise_docs = 0;
        let tb = Testbed::generate(cfg);
        for t in &tb.topics {
            let counts: Vec<usize> = t
                .subtopics
                .iter()
                .map(|s| tb.qrels.relevant_docs(t.id, s.id).len())
                .collect();
            // Dominant subtopic gets the most documents; all get ≥ 3.
            assert!(counts[0] >= *counts.last().unwrap(), "{counts:?}");
            assert!(counts.iter().all(|&c| c >= 3), "{counts:?}");
        }
    }

    #[test]
    fn distractors_match_query_but_are_irrelevant() {
        let mut cfg = TestbedConfig::small();
        cfg.num_topics = 2;
        cfg.distractors_per_topic = 10;
        cfg.docs_per_subtopic = 5;
        cfg.noise_docs = 0;
        let tb = Testbed::generate(cfg);
        let index = tb.build_index();
        let engine = serpdiv_index::SearchEngine::new(&index);
        let topic = &tb.topics[0];
        let hits = engine.search(&topic.query, 1_000);
        let irrelevant = hits
            .iter()
            .filter(|h| !tb.qrels.is_relevant_any(topic.id, h.doc))
            .count();
        assert!(
            irrelevant >= 8,
            "distractors must be retrieved by the ambiguous query, got {irrelevant}"
        );
    }
}
