//! # serpdiv-serve — concurrent diversified-search serving
//!
//! The paper's thesis (Capannini et al., VLDB 2011) is that OptSelect
//! makes SERP diversification cheap enough to run *inside* the
//! query-serving loop, provided the expensive knowledge is precomputed:
//! the specialization model mined offline from the query log (§3) and the
//! per-specialization result surrogates of §4.1. This crate is that
//! serving loop.
//!
//! ## Layer diagram
//!
//! ```text
//!                         ┌──────────────────────────┐
//!  requests ─────────────▶│  WorkerPool (N threads)  │
//!                         └───────────┬──────────────┘
//!                                     ▼
//!                         ┌──────────────────────────┐
//!                         │  serve::SearchEngine     │
//!                         │  ┌────────────────────┐  │
//!                         │  │ ShardedResultCache │  │  (epoch,query,k,algo) → SERP
//!                         │  └────────────────────┘  │
//!                         │   stage chain (driver):  │
//!                         │   Detect → Retrieve →    │
//!                         │   Surrogate → Utility →  │
//!                         │   Select                 │
//!                         └───────────┬──────────────┘
//!          shared, immutable, Arc'd   ▼
//!   ┌───────────────────────┬─────────────────┬──────────────────────┐
//!   │ dyn Retriever         │ Specialization- │ SpecializationStore  │
//!   │  InvertedIndex (1     │ Model (mining)  │ + CompiledSpecStore  │
//!   │  shard) or Sharded-   │                 │ (§4.1, core crate)   │
//!   │  Index (scatter-      │                 │                      │
//!   │  gather over N)       │                 │                      │
//!   └───────────────────────┴─────────────────┴──────────────────────┘
//! ```
//!
//! ## The offline chain
//!
//! The bottom row is built once, in this order
//! ([`SearchEngine::deploy`] runs the chain itself; a deployment with
//! several engines runs it once and shares the artifacts through
//! [`SearchEngine::with_retriever_and_forward`]):
//!
//! ```text
//! InvertedIndex ─▶ ForwardIndex ─▶ SpecializationStore ─▶ CompiledSpecStore ─▶ engine
//!  (postings,       (TermId          (§4.1: per spec., its    (one folded          (generation 1,
//!   documents)       streams, idf)    top results' surrogates)  vector per spec.)     empty caches)
//! ```
//!
//! The forward index comes first because a snippet surrogate is computed
//! one way only: `serpdiv_core::candidate_surrogate` over the compiled
//! `TermId` streams, for a specialization's stored results at deploy time
//! and for a request's candidates alike. The text path
//! (`candidate_surrogate_naive`) is the equivalence oracle, and what an
//! engine deployed with [`EngineConfig::forward_index`]` = false` falls
//! back to per request — its store was still built from a forward index,
//! dropped after the build.
//!
//! ## Request lifecycle
//!
//! The cached fast path probes the sharded LRU result cache under
//! `(page epoch, query, k, algorithm)` — the page epoch is the pinned
//! generation's content stamp, and the key is borrowed, no allocation —
//! and returns the shared SERP on a hit. The uncached path is one fixed
//! chain of [`Stage`] units ([`default_stage_chain`]) driven by a thin
//! loop (see [`stages`]):
//!
//! 1. **detect** ([`stages::DetectStage`]) — look the query up in the
//!    mined [`SpecializationModel`](serpdiv_core::SpecializationModel)
//!    (Algorithm 1 ran offline; online ambiguity detection is one hash
//!    lookup). A miss means "not ambiguous" and the DPH baseline is served
//!    unchanged;
//! 2. **retrieve** ([`stages::RetrieveStage`]) — the one place a request
//!    is analyzed (once, by the pinned generation's retriever; a cache
//!    hit analyzes nothing), then top-`n` candidates
//!    through the deployed [`Retriever`](serpdiv_index::Retriever): the
//!    plain [`InvertedIndex`](serpdiv_index::InvertedIndex) or a
//!    [`ShardedIndex`] scoring document
//!    partitions with a bit-identical scatter-gather merge
//!    ([`EngineConfig::index_shards`]) — in parallel through the shared
//!    persistent [`ScoringExecutor`] when
//!    [`EngineConfig::executor_threads`] deploys one, so scatter
//!    parallelism composes with the worker pool's request parallelism,
//!    shard after shard on the request's thread otherwise;
//! 3. **surrogate** ([`stages::SurrogateStage`]) — snippet surrogate
//!    vectors for the candidates from the retrieve stage's ids, memoized
//!    in the [`SurrogateCache`] as
//!    one rank-ordered table per `(surrogate epoch, query-terms)`: one
//!    cache probe per request, each candidate resolved at its own rank
//!    (binary search only when the table ranked another document there);
//! 4. **utility** ([`stages::UtilityStage`]) — the `Ũ(d|R_q′)` matrix
//!    (Definition 2), one sparse term-at-a-time accumulation per candidate
//!    against the [`CompiledSpecStore`](serpdiv_core::CompiledSpecStore) —
//!    the offline-compiled inverted form of the §4.1
//!    [`SpecializationStore`](serpdiv_core::SpecializationStore);
//! 5. **select** ([`stages::SelectStage`]) — the per-request choice of
//!    diversifier (OptSelect / IA-Select / xQuAD / MMR, pre-built
//!    [`Diversifier`](serpdiv_core::Diversifier) trait objects) re-ranks
//!    the page — unless the per-request [`Budget`]
//!    ([`EngineConfig::deadline_us`]) is exhausted, in which case the
//!    request degrades to the baseline ranking (`"DPH (degraded)"`).
//!
//! ## Overload protection
//!
//! The stack degrades *predictably* instead of queueing or hanging:
//!
//! * **Deadline budgets** — the driver checks the request's [`Budget`] at
//!   every stage edge and serves the baseline prefix the moment it
//!   exhausts; the remaining budget also clamps a distributed retriever's
//!   per-shard wire deadlines.
//! * **Admission control** — [`WorkerPool::with_admission`] bounds the
//!   queue ([`AdmissionPolicy`]): overflow is shed in O(µs) with the
//!   distinct [`Degradation::Shed`] class instead of convoying.
//! * **Panic containment** — a worker that panics mid-request (a scoring
//!   bug) answers [`Degradation::Internal`] and keeps serving.
//!
//! See [`Degradation`] for the full degradation ladder, and
//! `tests/chaos_soak.rs` at the workspace root for the seeded soaks that
//! prove these properties by faulting the retrieval layer through its own
//! seams. Admission sheds on queue length and queue wait only; it does
//! not predict service times.
//!
//! ## Generations & live updates
//!
//! All of the read-only state above is bundled into an epoch-published
//! [`Generation`]: each request pins the current generation once and
//! runs its whole pipeline against that pin, so publishing a new index /
//! model / compiled store ([`SearchEngine::publish`],
//! [`SearchEngine::publish_artifacts`]) swaps a pointer without
//! dropping, stalling, or tearing a single in-flight request. Fresh
//! documents stream in through [`SearchEngine::ingest`]
//! ([`DeltaIndex`](serpdiv_index::DeltaIndex) searched alongside the
//! sealed shards) and are sealed by [`SearchEngine::merge_delta`] into
//! an index bit-identical to a from-scratch build. Both caches key on
//! content stamps the generation carries, not on its id, so a publish
//! that changes nothing an entry read (every republish; for surrogates
//! every ingest) costs no cache miss. See the
//! [`generation`] module docs for the full design, the
//! validate-then-publish contract and the stamps' soundness argument.
//!
//! Every stage is timed per request ([`StageTimings`]) and recorded once,
//! in a [`LatencyHistogram`], behind the engine's
//! [`metrics`](SearchEngine::metrics); the cache exports
//! hit/miss counters and degradations are counted separately. An
//! optional [`SloMonitor`] ([`EngineConfig::slo`]) turns the request
//! stream into burn-rate alerts ([`MetricsSnapshot::slo_burn_alerts`]).
//! The repo benchmark (`bench`, in `crates/benchmark`) deploys this engine
//! through its public API and measures it end to end and layer by layer.

pub mod budget;
pub mod cache;
pub mod engine;
pub mod generation;
pub mod histogram;
pub mod lru;
pub mod metrics;
pub mod pool;
pub mod request;
pub mod slo;
pub mod stages;
pub mod surrogates;

pub use budget::Budget;
pub use cache::{CacheKey, CacheStats, CachedSerp, ShardedResultCache};
pub use engine::{EngineConfig, PresentationTable, SearchEngine};
pub use generation::{
    Generation, GenerationArtifacts, GenerationHandle, GenerationId, PublishError,
};
pub use histogram::{LatencyHistogram, LatencyStats};
pub use lru::LruCache;
pub use metrics::{Degradation, MetricsSnapshot, ServeMetrics, StageLatencies};
pub use pool::{AdmissionPolicy, WorkerPool};
pub use request::{
    QueryRequest, RankedResult, SearchResponse, StageTimings, LABEL_INTERNAL, LABEL_SHED,
};
pub use slo::{SloConfig, SloMonitor};
pub use stages::{
    default_stage_chain, DetectStage, PipelineContext, RetrieveStage, SelectStage, Stage,
    StageKind, StageOutcome, SurrogateStage, UtilityStage,
};
pub use surrogates::{SurrogateCache, SurrogateTable, TableKey};

// The per-request algorithm selector, re-exported so serving callers don't
// need a direct `serpdiv-core` dependency.
pub use serpdiv_core::AlgorithmKind;

// The persistent scatter-scoring pool (and the sharded retriever it
// backs), re-exported so deployments can build ONE executor and share it
// across every engine and the request `WorkerPool` without a direct
// `serpdiv-index` dependency.
pub use serpdiv_index::{ScoringExecutor, ShardedIndex};
