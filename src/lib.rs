//! # serpdiv — Efficient Diversification of Web Search Results
//!
//! Facade crate re-exporting the whole `serpdiv` workspace: a from-scratch
//! Rust reproduction of *Capannini, Nardini, Perego, Silvestri — "Efficient
//! Diversification of Web Search Results", VLDB 2011*.
//!
//! The workspace layers, bottom-up:
//!
//! * [`text`] — tokenizer, Porter stemmer, stopwords, term dictionary;
//! * [`index`] — inverted index, DPH/BM25 ranking, snippets, TF-IDF
//!   vectors, and the [`Retriever`](serpdiv_index::Retriever) layer with
//!   sharded scatter-gather retrieval
//!   ([`ShardedIndex`](serpdiv_index::ShardedIndex));
//! * [`corpus`] — synthetic topical corpus + TREC-like topics/qrels
//!   (the ClueWeb-B stand-in);
//! * [`querylog`] — query-log records and AOL/MSN-like synthetic generators;
//! * [`mining`] — query-flow graph, search-shortcuts recommender, and
//!   Algorithm 1 (`AmbiguousQueryDetect`) mining the model, as JSON too;
//! * [`core`] — the diversification framework: results' utility (Def. 2)
//!   with its compiled inverted-index fast path, **OptSelect**
//!   (Algorithm 2), IASelect, xQuAD, MMR, and the served model;
//! * [`eval`] — α-NDCG, IA-P, NDCG and the Wilcoxon signed-rank test;
//! * [`serve`] — the concurrent serving engine: a stage pipeline (Detect →
//!   Retrieve → Surrogate → Utility → Select) over shared immutable
//!   index/model/store, a sharded LRU result cache and a per-query
//!   candidate-surrogate table cache,
//!   worker pool, per-stage latency accounting and deadline degradation;
//! * [`fleet`] — multi-process scatter-gather: shard-worker processes
//!   behind a framed local-socket protocol, with a
//!   [`FleetRouter`](serpdiv_fleet::FleetRouter) that plugs into the
//!   serving engine as a [`Retriever`](serpdiv_index::Retriever), hedges
//!   slow shards, trips per-shard circuit breakers, and degrades
//!   gracefully when workers die.
//!
//! The product closure — what serving links — is `text → index → core →
//! serve / fleet`; the rest is the offline pipeline. No fault-injection
//! registry ships in it: `tests/chaos_soak.rs` faults the engine through
//! the seams the retrieval layers already offer
//! ([`ShardedIndex::with_fault_injection`](serpdiv_index::ShardedIndex::with_fault_injection)
//! and the stream handed to `fleet::worker::serve_connection`).
//!
//! See `examples/quickstart.rs` for an end-to-end walkthrough and
//! `crates/bench` for the binaries regenerating the paper's effectiveness
//! tables and figures; `crates/benchmark` holds the repo benchmark
//! (`bench`), the one program here that measures time.

pub use serpdiv_core as core;
pub use serpdiv_corpus as corpus;
pub use serpdiv_eval as eval;
pub use serpdiv_fleet as fleet;
pub use serpdiv_index as index;
pub use serpdiv_mining as mining;
pub use serpdiv_querylog as querylog;
pub use serpdiv_serve as serve;
pub use serpdiv_text as text;

/// Commonly used items, importable with `use serpdiv::prelude::*`.
///
/// Note the two engines: [`serpdiv_index::SearchEngine`] is the low-level
/// DPH retriever, while the serving engine lives at
/// [`serve::SearchEngine`] (its request types
/// are exported here).
pub mod prelude {
    pub use serpdiv_core::{
        AlgorithmKind, CompiledSpecStore, Diversifier, IaSelect, Mmr, OptSelect,
        SpecializationModel, UtilityMatrix, UtilityParams, XQuad,
    };
    pub use serpdiv_corpus::{Testbed, TestbedConfig};
    pub use serpdiv_eval::{alpha_ndcg_at, ia_precision_at, Qrels};
    pub use serpdiv_fleet::{FleetConfig, FleetRouter};
    pub use serpdiv_index::{
        Document, DocumentStore, IndexBuilder, Retriever, SearchEngine, ShardedIndex,
    };
    pub use serpdiv_mining::AmbiguityDetector;
    pub use serpdiv_querylog::{LogConfig, QueryLog, QueryLogGenerator};
    pub use serpdiv_serve::{EngineConfig, QueryRequest, SearchResponse, WorkerPool};
    pub use serpdiv_text::Analyzer;
}
