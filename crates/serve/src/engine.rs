//! The serving engine: a thin driver over the stage pipeline, reading
//! all serving state through an epoch-published [`Generation`].

use crate::budget::Budget;
use crate::cache::{CachedSerp, ShardedResultCache};
use crate::generation::{
    Generation, GenerationArtifacts, GenerationHandle, GenerationId, PublishError,
};
use crate::metrics::{Degradation, MetricsSnapshot, ServeMetrics};
use crate::request::{QueryRequest, RankedResult, SearchResponse, StageTimings};
use crate::slo::SloConfig;
use crate::stages::{default_stage_chain, PipelineContext, Stage, StageOutcome};
use crate::surrogates::{SurrogateCache, SurrogateTable};
use serpdiv_core::{
    AlgorithmKind, CompiledSpecStore, Diversifier, PipelineParams, SpecializationModel,
    SpecializationStore,
};
use serpdiv_index::{
    merge_sealed, DeltaIndex, DeltaRetriever, DocId, Document, ForwardIndex, InvertedIndex,
    Retriever, ScoredDoc, ScoringExecutor, ShardedIndex, SnippetGenerator, SparseVector,
    StatsOverlay,
};
use serpdiv_text::TermId;
use std::sync::Arc;
use std::time::Instant;

/// Deployment-time configuration of a [`SearchEngine`].
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// `|Rq|`: candidates retrieved per diversified query (paper §5
    /// evaluates with a few hundred).
    pub n_candidates: usize,
    /// Diversification parameters (λ, threshold `c`, `|R_q′|`, snippet
    /// window).
    pub params: PipelineParams,
    /// Result-cache shards (more shards ⇒ less lock contention).
    pub cache_shards: usize,
    /// Total result-cache entries across shards; 0 disables the cache.
    pub cache_capacity: usize,
    /// Total vectors the candidate-surrogate cache holds across its
    /// per-query tables (keyed `(surrogate epoch, query terms)`, evicted whole
    /// and least-recently-used first, one global budget); 0 disables it.
    pub surrogate_cache_capacity: usize,
    /// Document partitions of the retrieval layer, at deploy and at each
    /// publish of a new sealed index: 1 serves from the plain index, ≥ 2
    /// a [`ShardedIndex`] that scatter-gathers a bit-identical top-k.
    pub index_shards: usize,
    /// Size of the persistent [`ScoringExecutor`] pool backing parallel
    /// scatter (only meaningful with `index_shards ≥ 2`): 0 builds no
    /// pool — shards are scored one after another on the request's own
    /// thread; ≥ 1 deploys a long-lived
    /// pinned-scratch pool the sharded retriever submits latched task
    /// batches to, so scatter parallelism *composes* with the request
    /// [`WorkerPool`](crate::pool::WorkerPool) — scoring threads bounded
    /// by `request_workers + executor_threads`, each request worker
    /// helping drain only its own batch — instead of oversubscribing
    /// `request_workers × cores`. Deployments running several engines
    /// over one corpus should share a single executor (and retriever)
    /// through [`SearchEngine::with_retriever_and_forward`] rather than
    /// letting each engine build its own here.
    pub executor_threads: usize,
    /// Per-request compute budget in microseconds, materialized as a
    /// [`Budget`] when the engine accepts the request and enforced at
    /// **every stage edge** by the driver (plus on entry to the retrieve
    /// stage): when exhausted, the remaining stages are skipped
    /// and the baseline ranking prefix is served (`"DPH (degraded)"`).
    /// The remaining budget also clamps a distributed retriever's
    /// per-shard wire deadlines. 0 disables the deadline.
    pub deadline_us: u64,
    /// Which function computes a sealed candidate's snippet surrogate on a
    /// cache miss: `true` reads the index's forward view
    /// ([`InvertedIndex::forward`]), `false` runs the text oracle per
    /// request. The index holds its view either way (a build writes it,
    /// an index image carries it, and the §4.1 store is built from it),
    /// and the surrogates are bit-identical either way
    /// (`tests/surrogate_equivalence.rs`).
    pub forward_index: bool,
    /// Hold the engine to a served-latency SLO: burn-rate alerting over
    /// the request stream, surfaced as
    /// [`MetricsSnapshot::slo_burn_alerts`]. `None` disables monitoring.
    pub slo: Option<SloConfig>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            n_candidates: 100,
            params: PipelineParams::default(),
            cache_shards: 8,
            cache_capacity: 4096,
            surrogate_cache_capacity: 32_768,
            index_shards: 1,
            executor_threads: 0,
            deadline_us: 0,
            forward_index: true,
            slo: None,
        }
    }
}

/// The interned per-document `(url, title)` presentation table —
/// `Arc`-shared both across the engines of one deployment (see
/// [`SearchEngine::with_presentation`]) and into every
/// [`RankedResult`] an engine serves.
pub type PresentationTable = Arc<[(Arc<str>, Arc<str>)]>;

/// Intern the `(url, title)` of `index`'s sealed documents followed by
/// the `delta` documents, in document-id order: the one interning loop
/// behind [`SearchEngine::intern_presentation`] and
/// [`Generation::presentation`].
pub(crate) fn intern_presentation(index: &InvertedIndex, delta: &[Document]) -> PresentationTable {
    index
        .store()
        .iter()
        .chain(delta)
        .map(|d| (Arc::from(d.url.as_str()), Arc::from(d.title.as_str())))
        .collect()
}

/// The five algorithm kinds, in the order the engine's pre-built
/// diversifier table is laid out.
const ALGORITHMS: [AlgorithmKind; 5] = [
    AlgorithmKind::Baseline,
    AlgorithmKind::OptSelect,
    AlgorithmKind::IaSelect,
    AlgorithmKind::XQuad,
    AlgorithmKind::Mmr,
];

/// A deployed, thread-safe diversified-search engine.
///
/// All read-only serving state — index, retrieval layer, specialization
/// model and stores, forward index, presentation table — lives in an
/// immutable [`Generation`] published through a [`GenerationHandle`]:
/// each request pins the current generation once and runs its whole
/// pipeline against that pin, so a concurrent
/// [`publish`](SearchEngine::publish) (hot swap) can never tear a
/// request across two epochs. All per-request state lives in a
/// [`PipelineContext`] on the request's own stack, so `&SearchEngine` is
/// `Sync` and one instance serves arbitrary concurrency.
///
/// The uncached path is the fixed [`default_stage_chain`] (Detect →
/// Retrieve → Surrogate → Utility → Select); [`SearchEngine::search`] is
/// only the generation pin, the cache probe, and the stage-driver loop.
pub struct SearchEngine {
    /// The epoch-swap cell: requests pin, deploys publish.
    generations: GenerationHandle,
    /// [`default_stage_chain`], built once at deploy time.
    stages: Vec<Box<dyn Stage>>,
    /// Pre-built diversifier trait objects, aligned with [`ALGORITHMS`].
    diversifiers: Vec<Box<dyn Diversifier + Send + Sync>>,
    cache: Option<ShardedResultCache>,
    surrogates: Option<SurrogateCache>,
    metrics: ServeMetrics,
    config: EngineConfig,
}

impl SearchEngine {
    /// Deploy the engine, running the offline chain in order: take the
    /// index's forward view ([`InvertedIndex::forward`]), build the §4.1
    /// [`SpecializationStore`] from it (one kernel retrieval per distinct
    /// specialization in `model`, each hit's surrogate through the
    /// function the request path uses), compile the store into the
    /// inverted utility index, and start with empty caches at
    /// generation 1. Builds the retrieval layer from [`EngineConfig::index_shards`]: the
    /// plain index at 1, a [`ShardedIndex`] otherwise — backed by a fresh
    /// persistent [`ScoringExecutor`] when
    /// [`EngineConfig::executor_threads`] is set. With one shard there is
    /// nothing to scatter, so `executor_threads` is normalized to 0 in the
    /// stored config — [`SearchEngine::config`] never reports a pool that
    /// was not built. Deployments with *several* engines should instead
    /// build one store, one retriever and one executor and share them
    /// through [`Self::with_retriever_and_forward`].
    pub fn deploy(
        index: Arc<InvertedIndex>,
        model: Arc<SpecializationModel>,
        mut config: EngineConfig,
    ) -> Self {
        let store = Arc::new(SpecializationStore::build_with(
            &model,
            index.as_ref(),
            index.forward(),
            config.params.k_spec_results,
            config.params.snippet_window,
        ));
        let compiled = Arc::new(CompiledSpecStore::compile(&store));
        if config.index_shards <= 1 {
            config.executor_threads = 0;
        }
        let retriever = Self::build_retriever(&index, &config);
        let generation = Generation::new(1, index, retriever, model, store, compiled);
        Self::from_generation(Arc::new(generation), config)
    }

    /// Deploy with every offline artifact supplied explicitly. Lets
    /// callers share one (expensive-to-build) [`ShardedIndex`] and §4.1
    /// stores across several engines. `forward: None` takes the index's
    /// own view ([`InvertedIndex::forward`]); `Some` must be that view
    /// (the same arrays, [`ForwardIndex::ptr_eq`]), else this panics.
    /// [`EngineConfig::index_shards`] builds
    /// nothing here, but [`publish_artifacts`](Self::publish_artifacts) and
    /// [`merge_delta`](Self::merge_delta) rebuild the retrieval layer from
    /// it, so keep it consistent with the retriever you pass (over one that
    /// is not in-process, such as a fleet router, they are refused).
    pub fn with_retriever_and_forward(
        index: Arc<InvertedIndex>,
        retriever: Arc<dyn Retriever>,
        model: Arc<SpecializationModel>,
        store: Arc<SpecializationStore>,
        compiled: Arc<CompiledSpecStore>,
        forward: Option<Arc<ForwardIndex>>,
        config: EngineConfig,
    ) -> Self {
        if let Some(forward) = forward {
            assert!(
                ForwardIndex::ptr_eq(&forward, index.forward()),
                "the index already holds another forward view"
            );
        }
        let generation = Arc::new(Generation::new(1, index, retriever, model, store, compiled));
        Self::from_generation(generation, config)
    }

    /// Deploy around an already-bundled serving [`Generation`] — the
    /// constructor every other one funnels into, and the entry point for
    /// standing an engine up on a generation bundled elsewhere.
    pub fn from_generation(generation: Arc<Generation>, config: EngineConfig) -> Self {
        let cache = if config.cache_capacity > 0 {
            Some(ShardedResultCache::new(
                config.cache_shards.max(1),
                config.cache_capacity,
            ))
        } else {
            None
        };
        let surrogates = if config.surrogate_cache_capacity > 0 {
            Some(SurrogateCache::new(config.surrogate_cache_capacity))
        } else {
            None
        };
        SearchEngine {
            generations: GenerationHandle::new(generation),
            stages: default_stage_chain(),
            diversifiers: ALGORITHMS
                .iter()
                .map(|&a| a.diversifier(&config.params))
                .collect(),
            cache,
            surrogates,
            metrics: ServeMetrics::with_slo(config.slo),
            config,
        }
    }

    /// The retrieval layer [`EngineConfig`] describes, over `index`:
    /// the plain index at 1 shard, a (possibly executor-backed)
    /// [`ShardedIndex`] otherwise. Also used to re-derive the layer when
    /// a publish replaces the sealed index.
    fn build_retriever(index: &Arc<InvertedIndex>, config: &EngineConfig) -> Arc<dyn Retriever> {
        if config.index_shards > 1 {
            let mut sharded = ShardedIndex::build(index.clone(), config.index_shards);
            if config.executor_threads > 0 {
                sharded =
                    sharded.with_executor(Arc::new(ScoringExecutor::new(config.executor_threads)));
            }
            Arc::new(sharded)
        } else {
            index.clone()
        }
    }

    /// Intern the `(url, title)` presentation table of a corpus — the
    /// one-off string copy behind [`SearchEngine::with_presentation`];
    /// engines that never receive one build it lazily on first use.
    pub fn intern_presentation(index: &InvertedIndex) -> PresentationTable {
        intern_presentation(index, &[])
    }

    /// Inject a shared presentation table into the current generation
    /// (builder-style, before the engine is shared), so several engines
    /// deployed over one corpus intern the urls/titles once instead of
    /// once each.
    ///
    /// # Panics
    /// Panics when the table size does not match the document store —
    /// a mismatched table would silently serve the wrong urls.
    pub fn with_presentation(self, table: PresentationTable) -> Self {
        self.generations.pin().set_presentation(table);
        self
    }

    /// Serve one request: pin the current generation, probe the result
    /// cache under that generation's page stamp (what its pages are
    /// computed from, see [`crate::generation`]), then drive the stage
    /// chain (see [`crate::stages`] for the lifecycle). The pin is taken
    /// exactly once — a hot swap completing mid-request is invisible to
    /// this request and takes effect from the next `search` call.
    pub fn search(&self, req: QueryRequest) -> SearchResponse {
        let start = Instant::now();
        let generation = self.generations.pin();
        if let Some(cache) = &self.cache {
            if let Some(serp) =
                cache.get(generation.pages_epoch(), &req.query, req.k, req.algorithm)
            {
                let timings = StageTimings {
                    total_us: elapsed_us(start),
                    ..StageTimings::default()
                };
                self.metrics
                    .record(true, serp.diversified, Degradation::None, timings);
                return SearchResponse {
                    query: req.query,
                    algorithm: serp.algorithm,
                    diversified: serp.diversified,
                    cache_hit: true,
                    degraded: false,
                    results: serp.results,
                    generation: generation.id(),
                    timings,
                };
            }
        }

        let (response, degradation) = self.compute(&generation, &req, start);
        // Degraded pages are an accident of this request (an exhausted
        // budget, a lost shard), not the canonical SERP — never cache
        // them.
        if !response.degraded {
            if let Some(cache) = &self.cache {
                cache.insert(
                    req.cache_key(generation.pages_epoch()),
                    CachedSerp {
                        results: response.results.clone(),
                        diversified: response.diversified,
                        algorithm: response.algorithm,
                    },
                );
            }
        }
        self.metrics
            .record(false, response.diversified, degradation, response.timings);
        response
    }

    /// The uncached path: drive the stage chain over one
    /// [`PipelineContext`] against the request's pinned `generation`,
    /// timing each stage into its accounting bucket. Returns the
    /// response together with its degradation class (the response itself
    /// carries only the boolean).
    fn compute(
        &self,
        generation: &Generation,
        req: &QueryRequest,
        start: Instant,
    ) -> (SearchResponse, Degradation) {
        let budget = Budget::from_deadline_us(start, self.config.deadline_us);
        let mut ctx = PipelineContext::new(req, start, budget);
        for stage in &self.stages {
            let t = Instant::now();
            let outcome = stage.run(self, generation, &mut ctx);
            ctx.timings.add(stage.kind(), elapsed_us(t));
            if outcome == StageOutcome::Finish {
                break;
            }
            // Stage-edge budget check: an exhausted request degrades to
            // the baseline prefix *now* instead of paying for the
            // remaining stages. Only once candidates exist — before
            // retrieval there is nothing to serve, and the retrieve
            // stage handles the exhausted-on-entry case itself.
            if ctx.budget.exhausted() && !ctx.candidates.is_empty() && ctx.page.is_empty() {
                ctx.page = ctx.candidates.iter().take(req.k).copied().collect();
                ctx.degrade(Degradation::Deadline);
                break;
            }
        }
        let results = Arc::new(self.materialize(generation, &ctx.page));
        ctx.timings.total_us = elapsed_us(start);
        let response = SearchResponse {
            query: req.query.clone(),
            algorithm: ctx.algorithm,
            diversified: ctx.diversified,
            cache_hit: false,
            degraded: ctx.degradation != Degradation::None,
            results,
            generation: generation.id(),
            timings: ctx.timings,
        };
        (response, ctx.degradation)
    }

    /// Record one worker-pool queue wait against this engine's metrics
    /// (called by [`WorkerPool`](crate::pool::WorkerPool) at pickup; the
    /// engine itself never sees the queue).
    pub(crate) fn record_queue_wait(&self, us: u64) {
        self.metrics.record_queue_wait(us);
    }

    /// Record one response the worker pool produced *without* running
    /// [`search`](Self::search) — a shed rejection
    /// ([`Degradation::Shed`]) or a contained worker panic
    /// ([`Degradation::Internal`]). Keeps the metrics' class partition
    /// (`requests = cache_hits + diversified + passthrough + shed +
    /// internal_errors`) true even for requests the engine never saw.
    pub(crate) fn record_out_of_band(&self, degradation: Degradation, timings: StageTimings) {
        self.metrics.record(false, false, degradation, timings);
    }

    /// The candidate snippet surrogates for one request against its
    /// pinned `generation`, from the query `terms` the retrieve stage
    /// analyzed, through the query's [`SurrogateTable`] when the cache is
    /// enabled: one cache probe under the generation's surrogate stamp
    /// (the sealed index its vectors are computed from, see
    /// [`crate::generation`]) fetches the table, each sealed candidate
    /// resolves against it at its sealed rank (binary search only when the
    /// table ranked another document there), and only a request that had
    /// to compute a vector publishes a replacement. A sealed miss reads the
    /// index's forward view, or runs the text oracle when
    /// [`EngineConfig::forward_index`] (read here only) is unset; a delta
    /// candidate is read from the delta's own rows.
    pub(crate) fn surrogate_vectors(
        &self,
        generation: &Generation,
        terms: &[TermId],
        baseline: &[ScoredDoc],
    ) -> Vec<Arc<SparseVector>> {
        let snippets = SnippetGenerator::with_window(self.config.params.snippet_window);
        let index = generation.index();
        let forward = self.config.forward_index.then(|| index.forward());
        let sealed = index.stats().num_docs as usize;
        // Sealed documents and the table key read the ids below the sealed
        // vocabulary's size: a delta's vocabulary extends the sealed one,
        // so that is exactly `index.analyze_query`, delta or not.
        let vocab = index.vocab().len();
        let qterms: Arc<[TermId]> = terms
            .iter()
            .copied()
            .filter(|t| t.index() < vocab)
            .collect();
        // Delta documents read the ids as analyzed (a term first seen in
        // the delta has no sealed id) and the union statistics: already
        // the vector the merged generation computes, a different function
        // than the one the table is keyed for, so they never enter a
        // table; the delta is small and short-lived (a merge seals it).
        // They take the sealed path's clamped window: a raw 0 would
        // collapse the surrogate to the title.
        let compute = |doc: DocId| {
            Arc::new(if doc.index() >= sealed {
                generation
                    .delta()
                    .expect("document beyond the sealed collection without a delta")
                    .surrogate(doc, terms, snippets.window)
            } else {
                match forward {
                    Some(forward) => {
                        serpdiv_core::candidate_surrogate(forward, doc, &qterms, &snippets)
                    }
                    None => serpdiv_core::candidate_surrogate_naive(index, doc, &qterms, &snippets),
                }
            })
        };
        let Some(cache) = &self.surrogates else {
            return baseline.iter().map(|h| compute(h.doc)).collect();
        };
        let key = (generation.surrogates_epoch(), qterms.clone());
        let table = cache.get(&key);
        let (mut hits, mut misses) = (0u64, 0u64);
        let vectors: Vec<Arc<SparseVector>> = baseline
            .iter()
            .map(|h| {
                if h.doc.index() >= sealed {
                    return compute(h.doc);
                }
                // Hits and misses together count the sealed candidates
                // seen so far: this one's sealed rank.
                let rank = (hits + misses) as usize;
                match table.as_ref().and_then(|t| t.get(rank, h.doc)) {
                    Some(v) => {
                        hits += 1;
                        v.clone()
                    }
                    None => {
                        misses += 1;
                        compute(h.doc)
                    }
                }
            })
            .collect();
        cache.record(hits, misses);
        if misses > 0 {
            // Copy-on-write: the replacement holds exactly this request's
            // sealed candidates (the hits re-shared, the misses added) in
            // this request's rank order, so a table never outgrows the
            // deepest candidate set asked of its query, and the next
            // request that ranks them alike finds each at its own rank.
            let ranked: Vec<(DocId, Arc<SparseVector>)> = baseline
                .iter()
                .zip(&vectors)
                .filter(|(h, _)| h.doc.index() < sealed)
                .map(|(h, v)| (h.doc, v.clone()))
                .collect();
            cache.publish(key, SurrogateTable::new(ranked));
        }
        vectors
    }

    /// Resolve scored docs into presentable results — refcount bumps into
    /// the generation's interned presentation table, no string copies.
    fn materialize(&self, generation: &Generation, docs: &[ScoredDoc]) -> Vec<RankedResult> {
        let table = generation.presentation();
        docs.iter()
            .map(|h| {
                let (url, title) = table
                    .get(h.doc.index())
                    .map(|(u, t)| (u.clone(), t.clone()))
                    .unwrap_or_else(|| (Arc::from(""), Arc::from("")));
                RankedResult {
                    doc: h.doc,
                    score: h.score,
                    url,
                    title,
                }
            })
            .collect()
    }

    /// Pin the currently published serving [`Generation`]: one
    /// shared-mode pointer read plus an `Arc` clone. Requests do this
    /// once per call to [`search`](Self::search); external readers (a
    /// caller scheduling merges, tests, oracles) pin once and read every
    /// artifact through that pin, so no two reads can straddle a publish.
    pub fn generation(&self) -> Arc<Generation> {
        self.generations.pin()
    }

    /// The currently published generation id (lock-free).
    pub fn current_generation_id(&self) -> GenerationId {
        self.generations.current_id()
    }

    /// Validate-then-publish a candidate generation (see
    /// [`GenerationHandle::publish`]); counts the outcome in the swap
    /// metrics. On any error the old generation keeps serving untouched
    /// — in-flight requests are never dropped, stalled, or torn.
    ///
    /// A publish does no cache work at all: which entries the successor
    /// can still reach was settled when it was *built*, by the content
    /// stamps it inherited or drew afresh (see [`crate::generation`]).
    pub fn publish(&self, candidate: Arc<Generation>) -> Result<GenerationId, PublishError> {
        let outcome = self.generations.publish(candidate);
        match outcome {
            Ok(_) => self.metrics.record_swap(),
            Err(_) => self.metrics.record_swap_rejected(),
        }
        outcome
    }

    /// Decode, validate, and publish a shipped artifact bundle — what a
    /// deploy pipeline calls on a running engine. Every buffer goes
    /// through its checked deserializer (bad magic, version mismatch,
    /// truncation and corruption all surface as
    /// [`DecodeError`](serpdiv_index::DecodeError)), and any failure is
    /// a counted rejection: the serving generation is untouched, the
    /// pipeline gets the error, nothing crashes. The retrieval layer
    /// over the decoded index is rebuilt from this engine's own config
    /// (shard count, executor pool); the specialization model and raw
    /// store carry over from the serving generation.
    /// Only an in-process layer can be rebuilt: over a sealed retriever
    /// that fails [`DeltaRetriever::new`]'s overlay probe (a fleet router,
    /// say) the publish is refused, as [`ingest`](Self::ingest) is.
    /// The shipped compiled store must hold a column for every
    /// specialization of the kept model; a store compiled for another
    /// model is refused as [`PublishError::Inconsistent`] rather than
    /// published to score diversified pages over all-zero columns.
    /// The index image carries its forward rows, so the decoded index
    /// holds its forward view as it is decoded: neither this nor a later
    /// [`merge_delta`](Self::merge_delta) compiles the rows.
    pub fn publish_artifacts(
        &self,
        artifacts: &GenerationArtifacts,
    ) -> Result<GenerationId, PublishError> {
        let current = self.generations.pin();
        let decoded = (|| -> Result<_, PublishError> {
            let overlay = StatsOverlay::new(current.index().stats(), Vec::new());
            let sealed = current.sealed_retriever();
            let Some(_) = sealed.retrieve_terms_overlaid(&[], 0, &overlay, None) else {
                return Err(PublishError::Inconsistent("retriever not in-process"));
            };
            let index = Arc::new(InvertedIndex::from_bytes(&artifacts.index)?);
            let compiled = Arc::new(CompiledSpecStore::from_bytes(&artifacts.compiled)?);
            let uncovered = current
                .model()
                .iter()
                .flat_map(|entry| &entry.specializations)
                .any(|(spec, _)| compiled.spec_id(spec).is_none());
            if uncovered {
                return Err(PublishError::Inconsistent(
                    "compiled store does not cover the model's specializations",
                ));
            }
            Ok((index, compiled))
        })();
        let (index, compiled) = decoded.inspect_err(|_| self.metrics.record_swap_rejected())?;
        let retriever = Self::build_retriever(&index, &self.config);
        let candidate = Generation::new(
            artifacts.id,
            index,
            retriever,
            current.model().clone(),
            current.store().clone(),
            compiled,
        );
        self.publish(Arc::new(candidate))
    }

    /// Ingest fresh documents without rebuilding the sealed index:
    /// publishes a successor generation whose [`DeltaIndex`] holds the
    /// current delta's documents plus `docs`, retrieved through a
    /// [`DeltaRetriever`] that gathers the sealed collection and the
    /// delta side by side. Near-real-time semantics: the new documents
    /// are searchable as soon as the publish lands; the caller's
    /// [`merge_delta`](Self::merge_delta), on whatever schedule it keeps,
    /// later folds them into a sealed index bit-identical to a
    /// from-scratch build.
    ///
    /// Both sides of that gather must score under the union statistics, so
    /// over a sealed retrieval layer that cannot (see
    /// [`Retriever::retrieve_terms_overlaid`]) the ingest is refused —
    /// [`PublishError::Inconsistent`], counted as a rejected swap, the old
    /// generation still serving — rather than published to serve pages
    /// mixing two sets of statistics. Documents whose ids do not continue
    /// the generation's document id space densely (sealed + delta ids,
    /// then `docs` in order) are refused the same way.
    pub fn ingest(&self, docs: Vec<Document>) -> Result<GenerationId, PublishError> {
        let current = self.generations.pin();
        let dense = docs
            .iter()
            .zip(current.num_docs()..)
            .all(|(d, id)| d.id.index() == id);
        if !dense {
            self.metrics.record_swap_rejected();
            return Err(PublishError::Inconsistent(
                "ingested document ids do not continue the document id space densely",
            ));
        }
        let mut pending: Vec<Document> =
            current.delta().map_or_else(Vec::new, |d| d.docs().to_vec());
        pending.extend(docs);
        let delta = Arc::new(DeltaIndex::build(current.index(), pending));
        let Some(retriever) =
            DeltaRetriever::new(current.sealed_retriever().clone(), delta.clone())
        else {
            self.metrics.record_swap_rejected();
            return Err(PublishError::Inconsistent(
                "the sealed retriever cannot score under a delta's union statistics",
            ));
        };
        self.publish(Arc::new(
            current.next().with_delta(delta, Arc::new(retriever)),
        ))
    }

    /// Fold the current generation's delta into its sealed base
    /// ([`merge_sealed`] — bit-identical to a from-scratch build over
    /// the concatenated document stream) and publish the merged
    /// successor: fresh retrieval layer per this engine's config, no
    /// delta. The merged index holds its forward view already (the base's
    /// rows with the delta's appended; nothing is compiled).
    pub fn merge_delta(&self) -> Result<GenerationId, PublishError> {
        let current = self.generations.pin();
        let Some(delta) = current.delta() else {
            return Err(PublishError::Inconsistent("no delta to merge"));
        };
        let merged = Arc::new(merge_sealed(current.index(), delta));
        let retriever = Self::build_retriever(&merged, &self.config);
        self.publish(Arc::new(current.next().with_sealed(merged, retriever)))
    }

    /// Publish an identical successor under the next id — every artifact
    /// `Arc`-shared and both content stamps inherited, so the swap is
    /// refcount-cheap and costs no cache miss. The soak suites and
    /// the benchmark's `cached_swap` writer use this to exercise the full
    /// swap machinery under load without changing what is served.
    pub fn republish(&self) -> Result<GenerationId, PublishError> {
        self.publish(Arc::new(self.generations.pin().next()))
    }

    /// The pre-built [`Diversifier`] for `kind` (trait objects are
    /// constructed once at deploy time and shared by every request).
    pub fn diversifier_for(&self, kind: AlgorithmKind) -> &(dyn Diversifier + Send + Sync) {
        // Exhaustive match: adding an AlgorithmKind without extending
        // ALGORITHMS is a compile error here, not a serving-time panic.
        let i = match kind {
            AlgorithmKind::Baseline => 0,
            AlgorithmKind::OptSelect => 1,
            AlgorithmKind::IaSelect => 2,
            AlgorithmKind::XQuad => 3,
            AlgorithmKind::Mmr => 4,
        };
        debug_assert_eq!(ALGORITHMS[i], kind);
        &*self.diversifiers[i]
    }

    /// The result cache (`None` when disabled by configuration).
    pub fn cache(&self) -> Option<&ShardedResultCache> {
        self.cache.as_ref()
    }

    /// The candidate-surrogate cache (`None` when disabled).
    pub fn surrogate_cache(&self) -> Option<&SurrogateCache> {
        self.surrogates.as_ref()
    }

    /// Deployment configuration.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// Cumulative request metrics, stamped with the currently published
    /// generation id.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        snap.generation = self.generations.current_id();
        snap
    }
}

/// Microseconds since `since`, saturating.
pub(crate) fn elapsed_us(since: Instant) -> u64 {
    since.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use serpdiv_core::SpecializationEntry;
    use serpdiv_index::{Document, IndexBuilder, Retrieval};
    use std::time::Duration;

    /// The two-interpretation "apple" world of the core framework tests.
    fn corpus() -> Vec<Document> {
        let mut docs = Vec::new();
        for i in 0..5u32 {
            docs.push(Document::new(
                i,
                format!("http://tech/{i}"),
                "apple iphone",
                "apple iphone smartphone review chip battery display camera",
            ));
        }
        for i in 5..10u32 {
            docs.push(Document::new(
                i,
                format!("http://food/{i}"),
                "apple fruit",
                "apple fruit orchard sweet harvest vitamin juice recipe",
            ));
        }
        for i in 10..15u32 {
            docs.push(Document::new(
                i,
                format!("http://misc/{i}"),
                "",
                "weather forecast rain cloud wind storm",
            ));
        }
        docs
    }

    fn test_model() -> Arc<SpecializationModel> {
        let mut model = SpecializationModel::default();
        model.insert(SpecializationEntry {
            query: "apple".into(),
            specializations: vec![("apple iphone".into(), 0.6), ("apple fruit".into(), 0.4)],
        });
        Arc::new(model)
    }

    fn deploy_docs(docs: Vec<Document>, config: EngineConfig) -> SearchEngine {
        let mut b = IndexBuilder::new();
        for doc in docs {
            b.add(doc);
        }
        SearchEngine::deploy(Arc::new(b.build()), test_model(), config)
    }

    fn deploy(config: EngineConfig) -> SearchEngine {
        deploy_docs(corpus(), config)
    }

    fn diversifying_config() -> EngineConfig {
        EngineConfig {
            n_candidates: 10,
            params: PipelineParams {
                utility: serpdiv_core::UtilityParams { threshold_c: 0.4 },
                ..PipelineParams::default()
            },
            ..EngineConfig::default()
        }
    }

    #[test]
    fn ambiguous_query_is_diversified_with_provenance() {
        let engine = deploy(diversifying_config());
        let out = engine.search(QueryRequest::new("apple", 4, AlgorithmKind::OptSelect));
        assert!(out.diversified);
        assert!(!out.cache_hit);
        assert!(!out.degraded);
        assert_eq!(out.algorithm, "OptSelect");
        assert_eq!(out.generation, 1, "fresh deployments serve generation 1");
        assert_eq!(out.results.len(), 4);
        let tech = out.results.iter().filter(|r| r.doc.0 < 5).count();
        let food = out
            .results
            .iter()
            .filter(|r| (5..10).contains(&r.doc.0))
            .count();
        assert!(tech >= 1 && food >= 1, "tech={tech} food={food}");
        assert!(out.results.iter().all(|r| !r.url.is_empty()));
        assert!(out.timings.total_us >= out.timings.select_us);
    }

    #[test]
    fn repeated_request_hits_the_cache_with_identical_results() {
        let engine = deploy(diversifying_config());
        let req = QueryRequest::new("apple", 4, AlgorithmKind::OptSelect);
        let first = engine.search(req.clone());
        let second = engine.search(req);
        assert!(!first.cache_hit);
        assert!(second.cache_hit);
        assert_eq!(first.results, second.results);
        assert_eq!(first.algorithm, second.algorithm);
        assert_eq!(first.generation, second.generation);
        let stats = engine.cache().unwrap().stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        let m = engine.metrics();
        assert_eq!(m.requests, 2);
        assert_eq!(m.cache_hits, 1);
        assert_eq!(m.generation, 1);
    }

    #[test]
    fn non_ambiguous_query_passes_through() {
        let engine = deploy(diversifying_config());
        let out = engine.search(QueryRequest::new(
            "weather forecast",
            3,
            AlgorithmKind::OptSelect,
        ));
        assert!(!out.diversified);
        assert_eq!(out.algorithm, "DPH (passthrough)");
        assert_eq!(out.results.len(), 3);
        assert_eq!(engine.metrics().passthrough, 1);
    }

    #[test]
    fn baseline_algorithm_skips_detection() {
        let engine = deploy(diversifying_config());
        let out = engine.search(QueryRequest::new("apple", 5, AlgorithmKind::Baseline));
        assert!(!out.diversified);
        assert_eq!(out.algorithm, "DPH");
        assert_eq!(out.results.len(), 5);
    }

    #[test]
    fn unknown_query_yields_empty_page() {
        let engine = deploy(diversifying_config());
        let out = engine.search(QueryRequest::new("zeppelin", 5, AlgorithmKind::XQuad));
        assert!(out.results.is_empty());
        assert!(!out.diversified);
    }

    #[test]
    fn all_algorithms_return_distinct_docs() {
        let engine = deploy(diversifying_config());
        for algo in [
            AlgorithmKind::OptSelect,
            AlgorithmKind::IaSelect,
            AlgorithmKind::XQuad,
            AlgorithmKind::Mmr,
        ] {
            let out = engine.search(QueryRequest::new("apple", 5, algo));
            assert_eq!(out.results.len(), 5, "{algo:?}");
            let mut ids: Vec<u32> = out.results.iter().map(|r| r.doc.0).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), 5, "{algo:?} duplicates");
        }
    }

    #[test]
    fn cache_can_be_disabled() {
        let engine = deploy(EngineConfig {
            cache_capacity: 0,
            ..diversifying_config()
        });
        assert!(engine.cache().is_none());
        let req = QueryRequest::new("apple", 4, AlgorithmKind::OptSelect);
        let a = engine.search(req.clone());
        let b = engine.search(req);
        assert!(!a.cache_hit && !b.cache_hit);
        assert_eq!(
            a.results.iter().map(|r| r.doc).collect::<Vec<_>>(),
            b.results.iter().map(|r| r.doc).collect::<Vec<_>>(),
            "no cache still deterministic"
        );
    }

    #[test]
    fn store_is_prebuilt_at_deploy_time() {
        let generation = deploy(diversifying_config()).generation();
        assert_eq!(generation.store().len(), 2);
        assert!(generation.store().byte_size() > 0);
        // The compiled inverted index is built from the same store.
        assert_eq!(generation.compiled().len(), 2);
        assert!(generation.compiled().byte_size() > 0);
    }

    #[test]
    fn surrogate_cache_amortizes_repeated_queries() {
        // Result cache off, surrogate cache on: the second identical
        // request recomputes the SERP but hits the surrogate cache for
        // every candidate.
        let engine = deploy(EngineConfig {
            cache_capacity: 0,
            ..diversifying_config()
        });
        let req = QueryRequest::new("apple", 4, AlgorithmKind::OptSelect);
        let a = engine.search(req.clone());
        let stats = engine.surrogate_cache().unwrap().stats();
        assert_eq!(stats.hits, 0);
        let misses_after_first = stats.misses;
        assert!(misses_after_first > 0);
        let b = engine.search(req);
        let stats = engine.surrogate_cache().unwrap().stats();
        assert_eq!(stats.misses, misses_after_first, "no new surrogate work");
        assert_eq!(stats.hits, misses_after_first);
        assert_eq!(a.results, b.results);
    }

    #[test]
    fn surrogate_cache_can_be_disabled_without_changing_results() {
        let with = deploy(diversifying_config());
        let without = deploy(EngineConfig {
            surrogate_cache_capacity: 0,
            ..diversifying_config()
        });
        assert!(without.surrogate_cache().is_none());
        for algo in [AlgorithmKind::OptSelect, AlgorithmKind::Mmr] {
            let a = with.search(QueryRequest::new("apple", 5, algo));
            let b = without.search(QueryRequest::new("apple", 5, algo));
            assert_eq!(a.results, b.results, "{algo:?}");
        }
    }

    #[test]
    fn forward_index_is_compiled_by_default_and_optional() {
        let with = deploy(diversifying_config());
        let without = deploy(EngineConfig {
            forward_index: false,
            ..diversifying_config()
        });
        // The two paths serve identical pages for every algorithm.
        for algo in [
            AlgorithmKind::OptSelect,
            AlgorithmKind::IaSelect,
            AlgorithmKind::XQuad,
            AlgorithmKind::Mmr,
            AlgorithmKind::Baseline,
        ] {
            for query in ["apple", "weather forecast"] {
                let a = with.search(QueryRequest::new(query, 5, algo));
                let b = without.search(QueryRequest::new(query, 5, algo));
                assert_eq!(a.results, b.results, "{query} {algo:?}");
                assert_eq!(a.algorithm, b.algorithm);
            }
        }
    }

    #[test]
    fn materialized_results_share_the_presentation_table() {
        let engine = deploy(diversifying_config());
        let a = engine.search(QueryRequest::new("apple", 3, AlgorithmKind::Baseline));
        // Result cache off for the second engine-level computation: use a
        // different k so the page is recomputed, not served from cache.
        let b = engine.search(QueryRequest::new("apple", 4, AlgorithmKind::Baseline));
        let shared = a.results.iter().any(|ra| {
            b.results
                .iter()
                .any(|rb| ra.doc == rb.doc && Arc::ptr_eq(&ra.url, &rb.url))
        });
        assert!(shared, "urls must be interned, not copied per request");
    }

    #[test]
    fn presentation_table_can_be_shared_across_engines() {
        let a = deploy(diversifying_config());
        let table = SearchEngine::intern_presentation(a.generation().index());
        let b = deploy(diversifying_config()).with_presentation(table.clone());
        let ra = a.search(QueryRequest::new("apple", 3, AlgorithmKind::Baseline));
        let rb = b.search(QueryRequest::new("apple", 3, AlgorithmKind::Baseline));
        assert_eq!(ra.results, rb.results);
        // Engine b's urls are refcounts into the injected table, not
        // fresh copies.
        assert!(rb
            .results
            .iter()
            .all(|r| table.iter().any(|(u, _)| Arc::ptr_eq(u, &r.url))));
    }

    #[test]
    #[should_panic(expected = "cover the document store")]
    fn mismatched_presentation_table_is_rejected() {
        let engine = deploy(diversifying_config());
        let _ = deploy(diversifying_config()).with_presentation(
            engine
                .generation()
                .index()
                .store()
                .iter()
                .take(2)
                .fold(Vec::new(), |mut acc, d| {
                    acc.push((Arc::from(d.url.as_str()), Arc::from(d.title.as_str())));
                    acc
                })
                .into(),
        );
    }

    #[test]
    fn sharded_engine_serves_identical_pages() {
        let unsharded = deploy(diversifying_config());
        for shards in [2, 4, 7] {
            let sharded = deploy(EngineConfig {
                index_shards: shards,
                ..diversifying_config()
            });
            for (query, algo) in [
                ("apple", AlgorithmKind::OptSelect),
                ("apple", AlgorithmKind::Mmr),
                ("apple", AlgorithmKind::Baseline),
                ("weather forecast", AlgorithmKind::OptSelect),
            ] {
                let a = unsharded.search(QueryRequest::new(query, 5, algo));
                let b = sharded.search(QueryRequest::new(query, 5, algo));
                assert_eq!(a.results, b.results, "{query} {algo:?} shards={shards}");
                assert_eq!(a.algorithm, b.algorithm);
            }
        }
    }

    #[test]
    fn executor_backed_engine_serves_identical_pages() {
        use serpdiv_index::{ScoringExecutor, ShardedIndex};
        let unsharded = deploy(diversifying_config());
        // Build the executor-backed retriever explicitly (threshold 0 so
        // every retrieval actually rides the pool on this tiny corpus)
        // and funnel it into an engine sharing the unsharded deployment's
        // artifacts.
        let executor = Arc::new(ScoringExecutor::new(2));
        let generation = unsharded.generation();
        let retriever: Arc<dyn Retriever> = Arc::new(
            ShardedIndex::build(generation.index().clone(), 4)
                .with_executor(executor)
                .with_parallel_threshold(0),
        );
        let pooled = SearchEngine::with_retriever_and_forward(
            generation.index().clone(),
            retriever,
            generation.model().clone(),
            generation.store().clone(),
            generation.compiled().clone(),
            Some(Arc::new(generation.index().forward().clone())),
            EngineConfig {
                index_shards: 4,
                executor_threads: 2,
                ..diversifying_config()
            },
        );
        for algo in [
            AlgorithmKind::Baseline,
            AlgorithmKind::OptSelect,
            AlgorithmKind::Mmr,
        ] {
            for query in ["apple", "weather forecast"] {
                let a = unsharded.search(QueryRequest::new(query, 5, algo));
                let b = pooled.search(QueryRequest::new(query, 5, algo));
                assert_eq!(a.results, b.results, "{query} {algo:?}");
                assert_eq!(a.algorithm, b.algorithm);
            }
        }
    }

    #[test]
    fn executor_threads_knob_deploys_a_pooled_sharded_retriever() {
        // The convenience path: EngineConfig alone must coherently attach
        // an executor to the sharded retriever it builds.
        let engine = deploy(EngineConfig {
            index_shards: 3,
            executor_threads: 2,
            ..diversifying_config()
        });
        let out = engine.search(QueryRequest::new("apple", 4, AlgorithmKind::OptSelect));
        assert_eq!(out.results.len(), 4);
        assert_eq!(engine.config().executor_threads, 2);
        // One shard ⇒ nothing to scatter ⇒ no pool is built, and the
        // stored config reports that truth rather than echoing the knob.
        let unsharded = deploy(EngineConfig {
            index_shards: 1,
            executor_threads: 4,
            ..diversifying_config()
        });
        assert_eq!(unsharded.config().executor_threads, 0);
    }

    #[test]
    fn exhausted_deadline_degrades_to_baseline_passthrough() {
        // A 1 µs budget is always exhausted by the time select runs.
        let engine = deploy(EngineConfig {
            deadline_us: 1,
            ..diversifying_config()
        });
        let out = engine.search(QueryRequest::new("apple", 4, AlgorithmKind::OptSelect));
        assert!(out.degraded);
        assert!(!out.diversified);
        assert_eq!(out.algorithm, "DPH (degraded)");
        assert_eq!(out.results.len(), 4);
        // The degraded page is the baseline ranking prefix.
        let baseline = engine.search(QueryRequest::new("apple", 4, AlgorithmKind::Baseline));
        assert_eq!(
            out.results.iter().map(|r| r.doc).collect::<Vec<_>>(),
            baseline.results.iter().map(|r| r.doc).collect::<Vec<_>>()
        );
        // Degraded pages are not cached: a repeat recomputes (and degrades
        // again) instead of hitting the cache.
        let again = engine.search(QueryRequest::new("apple", 4, AlgorithmKind::OptSelect));
        assert!(!again.cache_hit);
        assert!(again.degraded);
        assert_eq!(engine.metrics().degraded, 2);
    }

    #[test]
    fn generous_deadline_does_not_degrade() {
        let engine = deploy(EngineConfig {
            deadline_us: 60_000_000,
            ..diversifying_config()
        });
        let out = engine.search(QueryRequest::new("apple", 4, AlgorithmKind::OptSelect));
        assert!(!out.degraded);
        assert!(out.diversified);
        assert_eq!(out.algorithm, "OptSelect");
        assert_eq!(engine.metrics().degraded, 0);
    }

    #[test]
    fn utility_stage_scores_a_candidate_higher_on_its_own_specialization() {
        let engine = deploy(EngineConfig {
            n_candidates: 10,
            ..EngineConfig::default()
        });
        let req = QueryRequest::new("apple", 4, AlgorithmKind::OptSelect);
        let generation = engine.generation();
        let mut ctx = PipelineContext::new(&req, Instant::now(), Budget::unlimited());
        for stage in engine.stages.iter().take(4) {
            assert_eq!(
                stage.run(&engine, &generation, &mut ctx),
                StageOutcome::Continue
            );
        }
        let input = ctx.input.expect("the utility stage assembles the input");
        assert_eq!(input.num_candidates(), ctx.candidates.len());
        assert_eq!(input.num_specializations(), 2);
        let i_tech = ctx.candidates.iter().position(|h| h.doc.0 < 5).unwrap();
        assert!(input.utilities.get(i_tech, 0) > input.utilities.get(i_tech, 1));
    }

    #[test]
    fn republish_swaps_generations_without_changing_pages() {
        let engine = deploy(diversifying_config());
        let before = engine.search(QueryRequest::new("apple", 4, AlgorithmKind::OptSelect));
        assert_eq!(before.generation, 1);
        assert_eq!(engine.republish().unwrap(), 2);
        assert_eq!(engine.current_generation_id(), 2);
        let after = engine.search(QueryRequest::new("apple", 4, AlgorithmKind::OptSelect));
        assert_eq!(after.generation, 2);
        // Same artifacts under a new id: generation 2 inherited the page
        // stamp the entry was filed under, so the repeat is a warm hit
        // serving the identical page.
        assert!(after.cache_hit, "republish must not cold-start the cache");
        assert_eq!(before.results, after.results);
        let m = engine.metrics();
        assert_eq!((m.swaps, m.swap_rejected, m.generation), (1, 0, 2));
        // The cache saw exactly what the client saw: one miss, one hit,
        // one resident page — nothing was copied under a second key.
        let stats = engine.cache().unwrap().stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn stale_publish_is_rejected_and_counted() {
        let engine = deploy(diversifying_config());
        let current = engine.generation();
        let stale = Arc::new(Generation::new(
            1, // does not advance the published id
            current.index().clone(),
            current.retriever().clone(),
            current.model().clone(),
            current.store().clone(),
            current.compiled().clone(),
        ));
        match engine.publish(stale) {
            Err(PublishError::Stale { candidate, current }) => {
                assert_eq!((candidate, current), (1, 1));
            }
            other => panic!("expected Stale, got {other:?}"),
        }
        assert_eq!(engine.current_generation_id(), 1);
        let m = engine.metrics();
        assert_eq!((m.swaps, m.swap_rejected), (0, 1));
    }

    #[test]
    fn ingested_documents_are_searchable_and_merge_seals_them() {
        let engine = deploy(EngineConfig {
            cache_capacity: 0,
            ..diversifying_config()
        });
        // New weather documents continuing the id space at 15.
        let fresh: Vec<Document> = (15..18u32)
            .map(|i| {
                Document::new(
                    i,
                    format!("http://fresh/{i}"),
                    "storm warning",
                    "weather storm warning wind forecast emergency",
                )
            })
            .collect();
        engine.ingest(fresh).unwrap();
        assert_eq!(engine.current_generation_id(), 2);
        let gen = engine.generation();
        assert_eq!(gen.delta().unwrap().len(), 3);
        let out = engine.search(QueryRequest::new("storm", 6, AlgorithmKind::Baseline));
        assert!(
            out.results.iter().any(|r| r.doc.0 >= 15),
            "delta docs must be retrievable: {:?}",
            out.results.iter().map(|r| r.doc).collect::<Vec<_>>()
        );
        assert!(
            out.results
                .iter()
                .filter(|r| r.doc.0 >= 15)
                .all(|r| r.url.starts_with("http://fresh/")),
            "delta docs must materialize their own urls"
        );
        // Score honesty *before* the merge: the delta path ranks with
        // union statistics, so the pre-merge page is already bit-identical
        // to a from-scratch deployment over the full corpus — the same
        // oracle the merge will be held to.
        let mut full = corpus();
        full.extend((15..18u32).map(|i| {
            Document::new(
                i,
                format!("http://fresh/{i}"),
                "storm warning",
                "weather storm warning wind forecast emergency",
            )
        }));
        let oracle = deploy_docs(
            full,
            EngineConfig {
                cache_capacity: 0,
                ..diversifying_config()
            },
        );
        let expected = oracle.search(QueryRequest::new("storm", 6, AlgorithmKind::Baseline));
        assert_eq!(
            out.results, expected.results,
            "pre-merge pages rank with union statistics, not delta-local ones"
        );
        for (a, b) in out.results.iter().zip(expected.results.iter()) {
            assert_eq!(a.score.to_bits(), b.score.to_bits(), "f64-bit-identical");
        }
        // Merge: the sealed successor carries no delta and is
        // bit-identical to a from-scratch build over the full corpus, so
        // the page matches a fresh deployment's exactly.
        engine.merge_delta().unwrap();
        assert_eq!(engine.current_generation_id(), 3);
        assert!(engine.generation().delta().is_none());
        assert_eq!(
            engine.generation().index().to_bytes(),
            oracle.generation().index().to_bytes(),
            "merged index must be bit-identical to a from-scratch build"
        );
        let merged = engine.search(QueryRequest::new("storm", 6, AlgorithmKind::Baseline));
        assert_eq!(merged.results, expected.results);
    }

    /// Retrieves like the plain index but keeps the trait's default
    /// answer to an overlay, as a fleet router does.
    struct OwnStatisticsOnly(Arc<InvertedIndex>);
    impl Retriever for OwnStatisticsOnly {
        fn query_terms(&self, query: &str) -> Vec<TermId> {
            self.0.query_terms(query)
        }
        fn retrieve_terms_within(
            &self,
            terms: &[TermId],
            k: usize,
            budget_us: Option<u64>,
        ) -> Retrieval {
            self.0.retrieve_terms_within(terms, k, budget_us)
        }
    }

    /// The uncached diversifying engine over [`OwnStatisticsOnly`].
    fn deploy_own_statistics_only() -> SearchEngine {
        let config = EngineConfig {
            cache_capacity: 0,
            ..diversifying_config()
        };
        let deployed = deploy(config).generation();
        SearchEngine::with_retriever_and_forward(
            deployed.index().clone(),
            Arc::new(OwnStatisticsOnly(deployed.index().clone())),
            deployed.model().clone(),
            deployed.store().clone(),
            deployed.compiled().clone(),
            None,
            config,
        )
    }

    /// Generation-1 pages of "apple" and "storm", Baseline and OptSelect,
    /// as `(doc, score bits)`.
    fn generation_one_pages(engine: &SearchEngine) -> Vec<Vec<(DocId, u64)>> {
        [AlgorithmKind::Baseline, AlgorithmKind::OptSelect]
            .into_iter()
            .flat_map(|algo| ["apple", "storm"].map(|q| QueryRequest::new(q, 6, algo)))
            .map(|req| {
                let out = engine.search(req);
                assert_eq!(out.generation, 1);
                out.results
                    .iter()
                    .map(|r| (r.doc, r.score.to_bits()))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn ingest_over_a_retriever_that_cannot_score_under_an_overlay_is_refused() {
        let engine = deploy_own_statistics_only();
        let before = generation_one_pages(&engine);
        let fresh = Document::new(15, "http://fresh/15", "storm", "weather storm warning");
        assert!(matches!(
            engine.ingest(vec![fresh]),
            Err(PublishError::Inconsistent(_))
        ));
        assert_eq!(engine.current_generation_id(), 1);
        assert!(engine.generation().delta().is_none());
        let m = engine.metrics();
        assert_eq!((m.swaps, m.swap_rejected), (0, 1));
        assert_eq!(
            generation_one_pages(&engine),
            before,
            "the old generation still serves"
        );
    }

    #[test]
    fn publish_artifacts_over_a_retriever_it_cannot_rebuild_is_refused() {
        let engine = deploy_own_statistics_only();
        let before = generation_one_pages(&engine);
        let current = engine.generation();
        let artifacts = GenerationArtifacts {
            id: 2,
            index: current.index().to_bytes(),
            compiled: current.compiled().to_bytes(),
        };
        assert!(matches!(
            engine.publish_artifacts(&artifacts),
            Err(PublishError::Inconsistent(_))
        ));
        assert_eq!(engine.current_generation_id(), 1);
        assert!(Arc::ptr_eq(
            engine.generation().sealed_retriever(),
            current.sealed_retriever()
        ));
        let m = engine.metrics();
        assert_eq!((m.swaps, m.swap_rejected), (0, 1));
        assert_eq!(generation_one_pages(&engine), before);
    }

    /// One retrieval as [`Counting`] saw it: the ids, `k` and budget.
    type Call = (Vec<TermId>, usize, Option<u64>);

    /// Wraps a generation's retriever: counts its analyses and records
    /// the ids, `k` and budget every retrieval receives. `stall` runs
    /// before each analysis, so a short deadline is spent on entry to
    /// the retrieval calls.
    struct Counting {
        inner: Arc<dyn Retriever>,
        stall: Duration,
        analyzed: std::sync::Mutex<Vec<Vec<TermId>>>,
        retrieved: std::sync::Mutex<Vec<Call>>,
    }

    impl Retriever for Counting {
        fn query_terms(&self, query: &str) -> Vec<TermId> {
            std::thread::sleep(self.stall);
            let terms = self.inner.query_terms(query);
            self.analyzed.lock().unwrap().push(terms.clone());
            terms
        }
        fn retrieve_terms_within(
            &self,
            terms: &[TermId],
            k: usize,
            budget_us: Option<u64>,
        ) -> Retrieval {
            self.retrieved
                .lock()
                .unwrap()
                .push((terms.to_vec(), k, budget_us));
            self.inner.retrieve_terms_within(terms, k, budget_us)
        }
    }

    /// Publish the engine's current generation again with its retriever
    /// wrapped in a [`Counting`] one, which it returns.
    fn count_analyses(engine: &SearchEngine, stall: Duration) -> Arc<Counting> {
        let current = engine.generation();
        let counting = Arc::new(Counting {
            inner: current.retriever().clone(),
            stall,
            analyzed: Default::default(),
            retrieved: Default::default(),
        });
        let next = match current.delta() {
            Some(delta) => current.next().with_delta(delta.clone(), counting.clone()),
            None => current
                .next()
                .with_sealed(current.index().clone(), counting.clone()),
        };
        engine.publish(Arc::new(next)).unwrap();
        counting
    }

    /// Serve `req` and return the analyses and retrievals it made.
    fn counted_search(
        engine: &SearchEngine,
        counting: &Counting,
        req: QueryRequest,
    ) -> (SearchResponse, Vec<Vec<TermId>>, Vec<Call>) {
        let out = engine.search(req);
        let analyzed = std::mem::take(&mut *counting.analyzed.lock().unwrap());
        let retrieved = std::mem::take(&mut *counting.retrieved.lock().unwrap());
        (out, analyzed, retrieved)
    }

    #[test]
    fn a_computed_request_analyzes_its_query_once_and_a_cache_hit_never() {
        let fresh = Document::new(15, "http://fresh/15", "kiwi", "apple kiwi orchard juice");
        for with_delta in [false, true] {
            let engine = deploy(diversifying_config());
            if with_delta {
                engine.ingest(vec![fresh.clone()]).unwrap();
            }
            let counting = count_analyses(&engine, Duration::ZERO);
            for (query, algorithm, diversified) in [
                ("apple", AlgorithmKind::OptSelect, true),
                ("storm", AlgorithmKind::OptSelect, false),
                ("apple kiwi", AlgorithmKind::XQuad, false),
                ("apple", AlgorithmKind::Baseline, false),
            ] {
                let case = format!("{query:?} {algorithm:?} delta={with_delta}");
                let req = || QueryRequest::new(query, 4, algorithm);
                let (out, analyzed, retrieved) = counted_search(&engine, &counting, req());
                assert!(!out.cache_hit && !out.degraded, "{case}");
                assert_eq!(out.diversified, diversified, "{case}");
                assert_eq!(analyzed.len(), 1, "{case}: one analysis");
                assert_eq!(retrieved.len(), 1, "{case}: one retrieval");
                assert_eq!(retrieved[0].0, analyzed[0], "{case}: the analyzed ids");
                let (again, analyzed, retrieved) = counted_search(&engine, &counting, req());
                assert!(again.cache_hit, "{case}");
                assert!(analyzed.is_empty() && retrieved.is_empty(), "{case}: a hit");
            }
            // The delta's vocabulary knows the fresh term, the sealed one
            // does not: the request retrieved with the analysis it made.
            let kiwi = engine.generation().retriever().query_terms("apple kiwi");
            assert_eq!(kiwi.len(), if with_delta { 2 } else { 1 });
        }
    }

    #[test]
    fn a_request_out_of_budget_on_entry_analyzes_its_query_once() {
        for with_delta in [false, true] {
            let engine = deploy(EngineConfig {
                deadline_us: 1,
                ..diversifying_config()
            });
            if with_delta {
                let fresh = Document::new(15, "http://fresh/15", "kiwi", "apple kiwi");
                engine.ingest(vec![fresh]).unwrap();
            }
            let counting = count_analyses(&engine, Duration::from_millis(1));
            let req = QueryRequest::new("apple", 4, AlgorithmKind::OptSelect);
            let (out, analyzed, retrieved) = counted_search(&engine, &counting, req);
            assert!(out.degraded, "delta={with_delta}");
            assert_eq!(out.algorithm, "DPH (degraded)");
            assert_eq!(analyzed.len(), 1, "delta={with_delta}: one analysis");
            // The exhausted-on-entry branch: the k-page, under the
            // retriever's own deadlines, from the analyzed ids.
            assert_eq!(
                retrieved,
                [(analyzed[0].clone(), 4, None)],
                "delta={with_delta}"
            );
        }
    }

    #[test]
    fn merge_without_delta_is_refused() {
        let engine = deploy(diversifying_config());
        assert!(matches!(
            engine.merge_delta(),
            Err(PublishError::Inconsistent("no delta to merge"))
        ));
        assert_eq!(engine.current_generation_id(), 1);
    }
}
