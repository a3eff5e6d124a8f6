//! Query-log mining: specializations of ambiguous queries.
//!
//! §3 of the paper: ambiguity is detected and specializations are mined
//! from query-log sessions —
//!
//! 1. [`qfg`] — the **Query-Flow Graph** (Boldi et al., CIKM'08): a Markov
//!    chain over distinct queries whose edge weights count session-level
//!    reformulations; used to extract *logical* user sessions,
//! 2. [`shortcuts`] — an efficient session-co-occurrence **query
//!    recommender** in the spirit of Search Shortcuts (Broccolo et al.,
//!    the paper’s reference \[7\]) — the algorithm `A` of Algorithm 1,
//! 3. [`detect`] — **Algorithm 1, `AmbiguousQueryDetect(q, A, f, s)`**, and
//!    the specialization-probability estimate `P(q′|q) = f(q′)/Σ f(·)`
//!    (Definition 1),
//! 4. [`model`] — mines the deployable [`SpecializationModel`] (the type
//!    lives in `serpdiv-core`, beside the §4.1 store it feeds, and is
//!    re-exported here) and owns its JSON form, [`to_json`]/[`from_json`].

#![forbid(unsafe_code)]

pub mod detect;
pub mod json;
pub mod model;
pub mod qfg;
pub mod shortcuts;

pub use detect::{AmbiguityDetector, Recommender};
pub use model::{from_json, to_json, ModelFormatError};
pub use qfg::QueryFlowGraph;
pub use serpdiv_core::{SpecializationEntry, SpecializationModel};
pub use shortcuts::ShortcutsModel;
