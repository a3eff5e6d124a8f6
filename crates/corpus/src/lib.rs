//! Synthetic topical corpus — the ClueWeb-B stand-in.
//!
//! The paper evaluates on ClueWeb-B (50M English web documents) with the 50
//! topics of the TREC 2009 Web track's Diversity task; each topic has 3–8
//! manually identified subtopics and relevance judgements *at subtopic
//! level* (Appendix B). ClueWeb09 is licensed and terabyte-scale, so this
//! crate generates the closest synthetic equivalent:
//!
//! * [`zipf`] — a Zipf sampler (web text and query popularity are Zipfian),
//! * [`vocabulary`] — a deterministic pseudo-word vocabulary, collision-free
//!   under Porter stemming,
//! * [`topics`] — TREC-like topics with weighted subtopics (the ground-truth
//!   interpretation distribution P(q′|q)),
//! * [`docgen`] — per-subtopic unigram language models emitting documents,
//! * [`qrels`] — subtopic-level relevance judgements, known by construction,
//! * [`testbed`] — the assembled corpus + topics + qrels bundle.
//!
//! Everything is seeded and deterministic: the same seed reproduces the
//! same corpus byte-for-byte.

#![forbid(unsafe_code)]

pub mod docgen;
pub mod qrels;
pub mod testbed;
pub mod topics;
pub mod vocabulary;
pub mod zipf;

pub use docgen::DocGenConfig;
pub use qrels::{Qrels, SubtopicId, TopicId};
pub use testbed::{Testbed, TestbedConfig};
pub use topics::{Subtopic, Topic};
pub use vocabulary::SyntheticVocabulary;
pub use zipf::Zipf;
