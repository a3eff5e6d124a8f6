//! Subtopic-level relevance judgements (qrels).
//!
//! TREC's Diversity task provides "relevance judgements ... at subtopic
//! level" (Appendix B): a document is judged relevant to specific subtopics
//! of a topic, not to the topic as a whole. α-NDCG and IA-P both consume
//! this structure.

use serpdiv_index::DocId;
use std::collections::{HashMap, HashSet};

/// Identifier of a topic within a testbed.
pub type TopicId = usize;
/// Identifier of a subtopic within its topic.
pub type SubtopicId = usize;

/// Subtopic-level relevance judgements for a set of topics.
#[derive(Debug, Default, Clone)]
pub struct Qrels {
    /// `(topic, doc) → set of relevant subtopics`.
    judgments: HashMap<(TopicId, u32), HashSet<SubtopicId>>,
    /// `topic → number of subtopics` (needed to iterate intents).
    num_subtopics: HashMap<TopicId, usize>,
}

impl Qrels {
    /// Empty qrels.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare that `topic` has `n` subtopics.
    pub fn declare_topic(&mut self, topic: TopicId, n: usize) {
        self.num_subtopics.insert(topic, n);
    }

    /// Number of subtopics of `topic` (0 when undeclared).
    pub fn num_subtopics(&self, topic: TopicId) -> usize {
        self.num_subtopics.get(&topic).copied().unwrap_or(0)
    }

    /// Judge `doc` relevant to `subtopic` of `topic`.
    pub fn add(&mut self, topic: TopicId, subtopic: SubtopicId, doc: DocId) {
        self.judgments
            .entry((topic, doc.0))
            .or_default()
            .insert(subtopic);
    }

    /// Is `doc` relevant to `subtopic` of `topic`?
    pub fn is_relevant(&self, topic: TopicId, subtopic: SubtopicId, doc: DocId) -> bool {
        self.judgments
            .get(&(topic, doc.0))
            .is_some_and(|s| s.contains(&subtopic))
    }

    /// Is `doc` relevant to *any* subtopic of `topic`?
    pub fn is_relevant_any(&self, topic: TopicId, doc: DocId) -> bool {
        self.judgments
            .get(&(topic, doc.0))
            .is_some_and(|s| !s.is_empty())
    }

    /// The subtopics `doc` is relevant to under `topic`.
    pub fn subtopics_of(&self, topic: TopicId, doc: DocId) -> Vec<SubtopicId> {
        let mut v: Vec<SubtopicId> = self
            .judgments
            .get(&(topic, doc.0))
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        v.sort_unstable();
        v
    }

    /// All documents judged relevant to `subtopic` of `topic`.
    pub fn relevant_docs(&self, topic: TopicId, subtopic: SubtopicId) -> Vec<DocId> {
        let mut v: Vec<DocId> = self
            .judgments
            .iter()
            .filter(|&(&(t, _), subs)| t == topic && subs.contains(&subtopic))
            .map(|(&(_, d), _)| DocId(d))
            .collect();
        v.sort_unstable();
        v
    }

    /// Total number of `(topic, doc)` judgement entries.
    pub fn len(&self) -> usize {
        self.judgments.len()
    }

    /// True when no judgement exists.
    pub fn is_empty(&self) -> bool {
        self.judgments.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_query() {
        let mut q = Qrels::new();
        q.declare_topic(1, 3);
        q.add(1, 0, DocId(10));
        q.add(1, 2, DocId(10));
        q.add(1, 1, DocId(20));
        assert!(q.is_relevant(1, 0, DocId(10)));
        assert!(q.is_relevant(1, 2, DocId(10)));
        assert!(!q.is_relevant(1, 1, DocId(10)));
        assert!(q.is_relevant_any(1, DocId(20)));
        assert!(!q.is_relevant_any(1, DocId(30)));
        assert_eq!(q.subtopics_of(1, DocId(10)), vec![0, 2]);
        assert_eq!(q.num_subtopics(1), 3);
        assert_eq!(q.num_subtopics(9), 0);
    }

    #[test]
    fn relevant_docs_is_sorted() {
        let mut q = Qrels::new();
        q.add(0, 0, DocId(30));
        q.add(0, 0, DocId(10));
        q.add(0, 1, DocId(20));
        assert_eq!(q.relevant_docs(0, 0), vec![DocId(10), DocId(30)]);
    }

    #[test]
    fn topics_are_isolated() {
        let mut q = Qrels::new();
        q.add(0, 0, DocId(1));
        assert!(!q.is_relevant(1, 0, DocId(1)));
    }

    #[test]
    fn duplicate_adds_are_idempotent() {
        let mut q = Qrels::new();
        q.add(0, 0, DocId(1));
        q.add(0, 0, DocId(1));
        assert_eq!(q.len(), 1);
        assert_eq!(q.subtopics_of(0, DocId(1)), vec![0]);
    }
}
