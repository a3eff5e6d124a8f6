//! Text-analysis substrate for the `serpdiv` workspace.
//!
//! The paper (Capannini et al., VLDB 2011) indexes ClueWeb-B with the Terrier
//! platform using "Porter's stemmer and standard English stopword removal"
//! (§5). This crate provides the equivalent pipeline, built from scratch:
//!
//! * [`tokenizer`] — Unicode-aware lowercasing word tokenizer,
//! * [`stem`] — a full implementation of the classic Porter (1980) stemmer,
//! * [`stopwords`] — the standard English stopword list,
//! * [`vocab`] — an interning term dictionary mapping terms to dense
//!   [`TermId`]s,
//! * [`analyzer`] — the composed pipeline, the only one: the indexer, the
//!   forward index, the snippet oracle, the corpus generator and query
//!   processing all call it, and it holds no configuration.
//!
//! # Example
//!
//! ```
//! use serpdiv_text::{Analyzer, Vocabulary};
//!
//! let mut vocab = Vocabulary::new();
//! let ids = Analyzer::analyze_interned("The runners were running quickly!", &mut vocab);
//! // "the" and "were" are stopwords; "runners"/"running" both stem to "runner"/"run".
//! assert_eq!(ids.len(), 3);
//! assert_eq!(vocab.term(ids[0]), Some("runner"));
//! assert_eq!(vocab.term(ids[1]), Some("run"));
//! assert_eq!(vocab.term(ids[2]), Some("quickli"));
//! ```

#![forbid(unsafe_code)]

pub mod analyzer;
pub mod stem;
pub mod stopwords;
pub mod tokenizer;
pub mod vocab;

pub use analyzer::Analyzer;
pub use stem::porter_stem;
pub use stopwords::is_stopword;
pub use tokenizer::{tokenize, Tokenizer};
pub use vocab::{TermId, Vocabulary};
