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
//! 4. [`model`] — the deployable [`SpecializationModel`]: every ambiguous
//!    query with its specializations and probabilities, serializable, with
//!    the §4.1 memory-footprint accounting.

pub mod detect;
pub mod json;
pub mod model;
pub mod qfg;
pub mod shortcuts;

pub use detect::{AmbiguityDetector, Recommender};
pub use model::{SpecializationEntry, SpecializationModel};
pub use qfg::QueryFlowGraph;
pub use shortcuts::ShortcutsModel;
