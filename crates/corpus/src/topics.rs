//! TREC-like topics with weighted subtopics.
//!
//! A [`Topic`] models one ambiguous/faceted query of the TREC 2009 Web
//! track's Diversity task (e.g. *"obama family tree"* with its three
//! subtopics, Appendix B of the paper): an ambiguous query string and 3–8
//! subtopics. Each [`Subtopic`] has its own specialization query (the query
//! a user would refine to), a popularity weight (the ground-truth `P(q′|q)`
//! the query-log generator follows) and a dedicated term pool (its unigram
//! language model's specific vocabulary).

/// One subtopic (interpretation/facet) of an ambiguous topic.
#[derive(Debug, Clone)]
pub struct Subtopic {
    /// Index of this subtopic within its topic.
    pub id: usize,
    /// The specialization query users refine to (e.g. "leopard tank").
    pub query: String,
    /// Ground-truth popularity of this interpretation; weights of one topic
    /// sum to 1.
    pub weight: f64,
    /// Terms specific to this subtopic's language model.
    pub terms: Vec<String>,
}

/// One ambiguous/faceted topic.
#[derive(Debug, Clone)]
pub struct Topic {
    /// Dense topic id (0-based; TREC numbers 1..=50).
    pub id: usize,
    /// The ambiguous query (e.g. "leopard").
    pub query: String,
    /// Head term identifying the topic in document text.
    pub head_term: String,
    /// The topic's subtopics, in decreasing weight order.
    pub subtopics: Vec<Subtopic>,
}

impl Topic {
    /// Number of subtopics.
    pub fn num_subtopics(&self) -> usize {
        self.subtopics.len()
    }

    /// Ground-truth interpretation distribution, indexed by subtopic id.
    pub fn weights(&self) -> Vec<f64> {
        self.subtopics.iter().map(|s| s.weight).collect()
    }

    /// Check invariants: weights sum to 1, subtopic count in bounds.
    pub fn validate(&self) -> Result<(), String> {
        if self.subtopics.is_empty() {
            return Err(format!("topic {} has no subtopics", self.id));
        }
        let sum: f64 = self.subtopics.iter().map(|s| s.weight).sum();
        if (sum - 1.0).abs() > 1e-6 {
            return Err(format!("topic {} weights sum to {sum}", self.id));
        }
        for s in &self.subtopics {
            if s.weight <= 0.0 {
                return Err(format!("topic {} subtopic {} weight ≤ 0", self.id, s.id));
            }
            if s.terms.is_empty() {
                return Err(format!("topic {} subtopic {} has no terms", self.id, s.id));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topic() -> Topic {
        Topic {
            id: 0,
            query: "leopard".into(),
            head_term: "leopard".into(),
            subtopics: vec![
                Subtopic {
                    id: 0,
                    query: "leopard mac os".into(),
                    weight: 0.6,
                    terms: vec!["mac".into(), "os".into()],
                },
                Subtopic {
                    id: 1,
                    query: "leopard tank".into(),
                    weight: 0.4,
                    terms: vec!["tank".into()],
                },
            ],
        }
    }

    #[test]
    fn validate_accepts_well_formed() {
        assert!(topic().validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_weights() {
        let mut t = topic();
        t.subtopics[0].weight = 0.9;
        assert!(t.validate().is_err());
    }

    #[test]
    fn validate_rejects_empty() {
        let mut t = topic();
        t.subtopics.clear();
        assert!(t.validate().is_err());
    }

    #[test]
    fn weights_accessor() {
        assert_eq!(topic().weights(), vec![0.6, 0.4]);
    }
}
