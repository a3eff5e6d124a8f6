//! Synthetic query-log generation — the AOL/MSN stand-in.
//!
//! The user model captures exactly the behaviour the paper mines (§3): "the
//! presence of the same query refinements in several sessions issued by
//! different users gives us evidence that a query is ambiguous, while the
//! relative popularity of its specializations allow us to compute the
//! probabilities of the different meanings."
//!
//! Each simulated session: pick a user and a Zipf-popular topic; with some
//! probability start with the topic's *ambiguous* query and then refine it
//! to a specialization drawn from the topic's ground-truth interpretation
//! distribution; otherwise query the specialization directly. A configurable
//! fraction of sessions are non-topical noise. Timestamps place sessions
//! uniformly over the log period with realistic intra-session gaps, so
//! timeout splitting recovers the sessions.

use crate::record::{LogRecord, QueryId, QueryLog, UserId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serpdiv_corpus::{Topic, Zipf};
use serpdiv_index::{InvertedIndex, Retriever};

/// What a logged query string means, ground truth for evaluation only —
/// the mining pipeline never sees this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// The ambiguous query of a topic.
    Ambiguous {
        /// Topic index.
        topic: usize,
    },
    /// A specialization (subtopic query).
    Specialization {
        /// Topic index.
        topic: usize,
        /// Subtopic index within the topic.
        subtopic: usize,
    },
    /// Non-topical noise.
    Noise,
}

/// Ground-truth annotation of every interned query.
#[derive(Debug, Default, Clone)]
pub struct GroundTruth {
    kinds: Vec<QueryKind>,
}

impl GroundTruth {
    fn record(&mut self, id: QueryId, kind: QueryKind) {
        if id.index() >= self.kinds.len() {
            self.kinds.resize(id.index() + 1, QueryKind::Noise);
        }
        self.kinds[id.index()] = kind;
    }

    /// The kind of query `id`.
    pub fn kind(&self, id: QueryId) -> Option<QueryKind> {
        self.kinds.get(id.index()).copied()
    }
}

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct LogConfig {
    /// Number of sessions to simulate.
    pub num_sessions: usize,
    /// Number of distinct users.
    pub num_users: usize,
    /// Log period in days (AOL: 92, MSN: 31).
    pub days: u64,
    /// Probability a topical session starts with the ambiguous query.
    pub p_start_ambiguous: f64,
    /// Probability the ambiguous query is refined into a specialization.
    pub p_refine: f64,
    /// Probability of a second refinement after the first.
    pub p_second_refine: f64,
    /// Fraction of sessions that are non-topical noise.
    pub noise_fraction: f64,
    /// Zipf exponent of topic popularity.
    pub topic_exponent: f64,
    /// Seed; generation is deterministic in it.
    pub seed: u64,
}

impl LogConfig {
    /// AOL-like preset: 3-month period, larger volume, more users.
    pub fn aol_like(num_sessions: usize) -> Self {
        LogConfig {
            num_sessions,
            num_users: (num_sessions / 8).max(1),
            days: 92,
            p_start_ambiguous: 0.55,
            p_refine: 0.70,
            p_second_refine: 0.25,
            noise_fraction: 0.35,
            topic_exponent: 0.9,
            seed: 0xA01,
        }
    }

    /// MSN-like preset: 1-month period, denser per-user activity.
    pub fn msn_like(num_sessions: usize) -> Self {
        LogConfig {
            num_sessions,
            num_users: (num_sessions / 12).max(1),
            days: 31,
            p_start_ambiguous: 0.60,
            p_refine: 0.75,
            p_second_refine: 0.20,
            noise_fraction: 0.30,
            topic_exponent: 1.0,
            seed: 0x135,
        }
    }

    /// Tiny preset for unit tests.
    pub fn tiny() -> Self {
        LogConfig {
            num_sessions: 300,
            num_users: 40,
            days: 7,
            p_start_ambiguous: 0.6,
            p_refine: 0.8,
            p_second_refine: 0.2,
            noise_fraction: 0.2,
            topic_exponent: 0.8,
            seed: 42,
        }
    }
}

/// The session-level user simulator.
#[derive(Debug)]
pub struct QueryLogGenerator<'a> {
    config: LogConfig,
    topics: &'a [Topic],
    noise_vocab: &'a [String],
}

impl<'a> QueryLogGenerator<'a> {
    /// Create a generator over `topics` with `noise_vocab` supplying the
    /// non-topical query words.
    ///
    /// # Panics
    /// Panics when `topics` or `noise_vocab` is empty.
    pub fn new(config: LogConfig, topics: &'a [Topic], noise_vocab: &'a [String]) -> Self {
        assert!(!topics.is_empty(), "topics required");
        assert!(!noise_vocab.is_empty(), "noise vocabulary required");
        QueryLogGenerator {
            config,
            topics,
            noise_vocab,
        }
    }

    /// Generate the log and its ground-truth annotation.
    pub fn generate(&self) -> (QueryLog, GroundTruth) {
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut log = QueryLog::new();
        let mut truth = GroundTruth::default();
        let topic_dist = Zipf::new(self.topics.len(), cfg.topic_exponent);
        let period = cfg.days * 86_400;

        for _ in 0..cfg.num_sessions {
            let user = UserId(rng.gen_range(0..cfg.num_users) as u32);
            let mut t = rng.gen_range(0..period.saturating_sub(600).max(1));
            let push = |log: &mut QueryLog,
                        truth: &mut GroundTruth,
                        text: &str,
                        kind: QueryKind,
                        time: u64| {
                let query = log.intern_query(text);
                truth.record(query, kind);
                log.push(LogRecord {
                    query,
                    user,
                    time,
                    results: Vec::new(),
                    clicks: Vec::new(),
                });
            };

            if rng.gen_bool(cfg.noise_fraction) {
                let n = rng.gen_range(1..=3);
                for _ in 0..n {
                    let w1 = &self.noise_vocab[rng.gen_range(0..self.noise_vocab.len())];
                    let w2 = &self.noise_vocab[rng.gen_range(0..self.noise_vocab.len())];
                    push(
                        &mut log,
                        &mut truth,
                        &format!("{w1} {w2}"),
                        QueryKind::Noise,
                        t,
                    );
                    t += rng.gen_range(10..=180);
                }
                continue;
            }

            let topic_idx = topic_dist.sample(&mut rng);
            let topic = &self.topics[topic_idx];
            if rng.gen_bool(cfg.p_start_ambiguous) {
                push(
                    &mut log,
                    &mut truth,
                    &topic.query,
                    QueryKind::Ambiguous { topic: topic_idx },
                    t,
                );
                t += rng.gen_range(10..=180);
                if rng.gen_bool(cfg.p_refine) {
                    let sub = sample_subtopic(topic, &mut rng);
                    push(
                        &mut log,
                        &mut truth,
                        &topic.subtopics[sub].query,
                        QueryKind::Specialization {
                            topic: topic_idx,
                            subtopic: sub,
                        },
                        t,
                    );
                    t += rng.gen_range(10..=180);
                    if rng.gen_bool(cfg.p_second_refine) {
                        let sub2 = sample_subtopic(topic, &mut rng);
                        push(
                            &mut log,
                            &mut truth,
                            &topic.subtopics[sub2].query,
                            QueryKind::Specialization {
                                topic: topic_idx,
                                subtopic: sub2,
                            },
                            t,
                        );
                    }
                }
            } else {
                // The user knows what they want: direct specialization.
                let sub = sample_subtopic(topic, &mut rng);
                push(
                    &mut log,
                    &mut truth,
                    &topic.subtopics[sub].query,
                    QueryKind::Specialization {
                        topic: topic_idx,
                        subtopic: sub,
                    },
                    t,
                );
            }
        }
        log.sort_by_time();
        (log, truth)
    }

    /// Fill `Vᵢ` (top-`k` results) and `Cᵢ` (intent-aware position-biased
    /// clicks) of every record by running each distinct query once through
    /// `retriever`, the retrieval layer over `index` (whose document store
    /// supplies the result titles).
    ///
    /// The click model examines results top-down with probability
    /// `0.6 · 0.75^pos` (position bias as observed in real logs), boosted
    /// for results matching the user's *intent*: for a specialization
    /// query, documents titled with that specialization; for an ambiguous
    /// query, the user's hidden intent is drawn from the topic's subtopic
    /// distribution — so clicks on ambiguous queries scatter over
    /// interpretations (the click-entropy signal of Clough et al., which
    /// the paper's related work discusses). Records of the same query
    /// share results but draw intents and clicks independently.
    pub fn attach_results(
        &self,
        log: &mut QueryLog,
        index: &InvertedIndex,
        retriever: &dyn Retriever,
        k: usize,
    ) -> usize {
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0xC11C);
        // Retrieve once per distinct query; keep result titles for the
        // intent preference.
        let mut results_cache: Vec<Option<Vec<(serpdiv_index::DocId, String)>>> =
            vec![None; log.num_queries()];
        let mut filled = 0usize;
        let texts: Vec<String> = (0..log.num_queries())
            .map(|i| log.query_text(QueryId(i as u32)).unwrap().to_string())
            .collect();
        let n = log.len();
        for idx in 0..n {
            let qid = log.records()[idx].query;
            if results_cache[qid.index()].is_none() {
                let hits = retriever.retrieve(&texts[qid.index()], k);
                let docs = hits
                    .into_iter()
                    .map(|h| {
                        let title = index
                            .store()
                            .get(h.doc)
                            .map(|d| d.title.clone())
                            .unwrap_or_default();
                        (h.doc, title)
                    })
                    .collect();
                results_cache[qid.index()] = Some(docs);
            }
            let results = results_cache[qid.index()].as_ref().unwrap().clone();

            // The user's intent: the title pattern of the pages they want.
            let query_text = &texts[qid.index()];
            let intent_title: Option<String> =
                if let Some(topic) = self.topics.iter().find(|t| &t.query == query_text) {
                    // Ambiguous query: draw the hidden intent.
                    let sub = sample_subtopic(topic, &mut rng);
                    Some(topic.subtopics[sub].query.clone())
                } else if self
                    .topics
                    .iter()
                    .any(|t| t.subtopics.iter().any(|s| &s.query == query_text))
                {
                    Some(query_text.clone())
                } else {
                    None
                };

            let mut clicks = Vec::new();
            for (pos, (doc, title)) in results.iter().enumerate() {
                let mut p = 0.6 * 0.75f64.powi(pos as i32);
                match &intent_title {
                    Some(want) if title == want => p = (p * 1.8).min(0.95),
                    Some(_) => p *= 0.35,
                    None => {}
                }
                if rng.gen_bool(p) {
                    clicks.push(*doc);
                }
            }
            let rec = &mut log_records_mut(log)[idx];
            rec.results = results.into_iter().map(|(d, _)| d).collect();
            rec.clicks = clicks;
            filled += 1;
        }
        filled
    }
}

/// Sample a subtopic index according to the topic's weight distribution.
fn sample_subtopic<R: Rng + ?Sized>(topic: &Topic, rng: &mut R) -> usize {
    let u: f64 = rng.gen();
    let mut acc = 0.0;
    for (i, s) in topic.subtopics.iter().enumerate() {
        acc += s.weight;
        if u <= acc {
            return i;
        }
    }
    topic.subtopics.len() - 1
}

// Private mutable access to the record vector, kept out of the public API
// so the time-ordering invariant stays under QueryLog's control.
fn log_records_mut(log: &mut QueryLog) -> &mut Vec<LogRecord> {
    // SAFETY of the invariant: attach_results only mutates results/clicks,
    // never query/user/time.
    log.records_mut()
}

#[cfg(test)]
mod tests {
    use super::*;
    use serpdiv_corpus::{Testbed, TestbedConfig};

    fn small_bed() -> Testbed {
        let mut cfg = TestbedConfig::small();
        cfg.num_topics = 4;
        cfg.docs_per_subtopic = 5;
        cfg.noise_docs = 50;
        Testbed::generate(cfg)
    }

    fn noise_vocab() -> Vec<String> {
        (0..100).map(|i| format!("noise{i:03}")).collect()
    }

    #[test]
    fn generates_requested_sessions() {
        let bed = small_bed();
        let nv = noise_vocab();
        let gen = QueryLogGenerator::new(LogConfig::tiny(), &bed.topics, &nv);
        let (log, truth) = gen.generate();
        assert!(log.len() >= 300, "at least one query per session");
        // Every interned query has a ground-truth kind.
        for i in 0..log.num_queries() {
            assert!(truth.kind(QueryId(i as u32)).is_some());
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let bed = small_bed();
        let nv = noise_vocab();
        let gen = QueryLogGenerator::new(LogConfig::tiny(), &bed.topics, &nv);
        let (a, _) = gen.generate();
        let (b, _) = gen.generate();
        assert_eq!(a.len(), b.len());
        assert_eq!(a.records()[0].time, b.records()[0].time);
        assert_eq!(a.num_queries(), b.num_queries());
    }

    #[test]
    fn records_are_time_sorted() {
        let bed = small_bed();
        let nv = noise_vocab();
        let gen = QueryLogGenerator::new(LogConfig::tiny(), &bed.topics, &nv);
        let (log, _) = gen.generate();
        for w in log.records().windows(2) {
            assert!(w[0].time <= w[1].time);
        }
    }

    #[test]
    fn refinements_follow_ambiguous_queries_in_sessions() {
        let bed = small_bed();
        let nv = noise_vocab();
        let gen = QueryLogGenerator::new(LogConfig::tiny(), &bed.topics, &nv);
        let (log, truth) = gen.generate();
        let sessions = crate::session::split_sessions(&log);
        // Count sessions where an ambiguous query is directly followed by a
        // specialization of the same topic — the signal Algorithm 1 mines.
        let mut refined = 0usize;
        for s in &sessions {
            for w in s.records.windows(2) {
                let a = truth.kind(log.records()[w[0]].query);
                let b = truth.kind(log.records()[w[1]].query);
                if let (
                    Some(QueryKind::Ambiguous { topic: t1 }),
                    Some(QueryKind::Specialization { topic: t2, .. }),
                ) = (a, b)
                {
                    if t1 == t2 {
                        refined += 1;
                    }
                }
            }
        }
        // tiny(): 300 sessions, 80% topical, 60% start ambiguous, 80% refine
        // ⇒ expect ≳ 100; demand a loose lower bound.
        assert!(refined > 50, "only {refined} refinement pairs");
    }

    #[test]
    fn popular_subtopics_dominate() {
        let bed = small_bed();
        let nv = noise_vocab();
        let mut cfg = LogConfig::tiny();
        cfg.num_sessions = 2000;
        let gen = QueryLogGenerator::new(cfg, &bed.topics, &nv);
        let (log, _) = gen.generate();
        let topic = &bed.topics[0];
        let f = crate::stats::FreqTable::build(&log);
        let first = log
            .query_id(&topic.subtopics[0].query)
            .map(|q| f.freq(q))
            .unwrap_or(0);
        let last = log
            .query_id(&topic.subtopics.last().unwrap().query)
            .map(|q| f.freq(q))
            .unwrap_or(0);
        assert!(
            first > last,
            "heaviest subtopic {first} must out-submit lightest {last}"
        );
    }

    #[test]
    fn attach_results_fills_records() {
        let bed = small_bed();
        let nv = noise_vocab();
        let mut cfg = LogConfig::tiny();
        cfg.num_sessions = 50;
        let gen = QueryLogGenerator::new(cfg, &bed.topics, &nv);
        let (mut log, _) = gen.generate();
        let index = bed.build_index();
        let filled = gen.attach_results(&mut log, &index, &index, 10);
        assert_eq!(filled, log.len());
        // Topical queries must have results; clicks ⊆ results.
        let mut any_results = false;
        for r in log.records() {
            any_results |= !r.results.is_empty();
            for c in &r.clicks {
                assert!(r.results.contains(c));
            }
        }
        assert!(any_results);
    }
}
