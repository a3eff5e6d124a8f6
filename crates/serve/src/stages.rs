//! The stage-oriented request pipeline.
//!
//! The uncached request lifecycle is one fixed chain of [`Stage`] units —
//! **Detect → Retrieve → Surrogate → Utility → Select**
//! ([`default_stage_chain`]) — driven by a thin loop in [`SearchEngine`]:
//! each stage reads and advances one [`PipelineContext`], the driver times
//! it, and a stage can short-circuit the rest of the chain
//! ([`StageOutcome::Finish`]) when the request is already answerable
//! (baseline passthrough, empty retrieval, exhausted budget). Each stage
//! may rely on every earlier one having run.
//!
//! A request is analyzed in one place: [`RetrieveStage`] turns its text
//! into [`PipelineContext::terms`], which every retrieval and the
//! surrogate stage read.
//!
//! Every stage runs against the request's **pinned [`Generation`]** — the
//! immutable bundle the request captured once at admission. Stages never
//! read serving state through the engine (which may have swapped to a
//! newer generation mid-request); they read it through the `generation`
//! argument, which is what makes a concurrent hot swap unobservable from
//! inside a request.

use crate::budget::Budget;
use crate::engine::SearchEngine;
use crate::generation::Generation;
use crate::metrics::Degradation;
use crate::request::{QueryRequest, StageTimings};
use serpdiv_core::{
    assemble_input_with_scorer, AlgorithmKind, DiversifyInput, SpecializationEntry,
};
use serpdiv_index::{ScoredDoc, SparseVector};
use serpdiv_text::TermId;
use std::sync::Arc;
use std::time::Instant;

/// What the driver does after a stage returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageOutcome {
    /// Proceed to the next stage in the chain.
    Continue,
    /// The response is complete — skip every remaining stage.
    Finish,
}

/// Which latency-accounting bucket a stage's wall time lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageKind {
    /// Ambiguity detection (specialization-model lookup).
    Detect,
    /// Baseline retrieval through the deployed [`Retriever`].
    ///
    /// [`Retriever`]: serpdiv_index::Retriever
    Retrieve,
    /// Candidate snippet-surrogate construction.
    Surrogate,
    /// Utility-matrix computation against the compiled store.
    Utility,
    /// Diversifier selection.
    Select,
}

/// Mutable per-request state threaded through the stage chain.
///
/// Stages communicate exclusively through this context; the driver owns
/// the timing and the final response assembly.
pub struct PipelineContext<'a> {
    /// The request being served.
    pub request: &'a QueryRequest,
    /// When the engine accepted the request (budgets measure against it).
    pub started: Instant,
    /// The request's compute budget: checked by the driver at every stage
    /// edge and by the retrieve stage on entry, and propagated into the
    /// retrieval layer's wire deadlines.
    pub budget: Budget,
    /// Detected specialization entry (`None` ⇒ not ambiguous, or a
    /// `Baseline` request that skips detection).
    pub entry: Option<&'a SpecializationEntry>,
    /// The query's term ids, analyzed once by the retrieve stage through
    /// the pinned generation's retriever (empty before it runs).
    pub terms: Vec<TermId>,
    /// The retrieved candidate pool `Rq` (baseline ranking order).
    pub candidates: Vec<ScoredDoc>,
    /// Snippet-surrogate vectors, one per candidate.
    pub vectors: Vec<Arc<SparseVector>>,
    /// The assembled diversification input (utility matrix etc.).
    pub input: Option<DiversifyInput>,
    /// The final ranked page.
    pub page: Vec<ScoredDoc>,
    /// Whether diversification ran.
    pub diversified: bool,
    /// Why the page is a baseline fallback instead of the requested
    /// ranking: an exhausted budget or a lost shard
    /// ([`Degradation::None`] otherwise).
    pub degradation: Degradation,
    /// Name of the algorithm that produced the page.
    pub algorithm: &'static str,
    /// Per-stage wall time, filled in by the driver.
    pub timings: StageTimings,
}

impl<'a> PipelineContext<'a> {
    /// Fresh context for one request.
    pub fn new(request: &'a QueryRequest, started: Instant, budget: Budget) -> Self {
        PipelineContext {
            request,
            started,
            budget,
            entry: None,
            terms: Vec::new(),
            candidates: Vec::new(),
            vectors: Vec::new(),
            input: None,
            page: Vec::new(),
            diversified: false,
            degradation: Degradation::None,
            algorithm: "DPH",
            timings: StageTimings::default(),
        }
    }

    /// Mark the request as served the baseline page for `why` (an
    /// exhausted budget or a lost shard): not diversified, labeled
    /// `"DPH (degraded)"` or `"DPH (degraded: shard loss)"`. The caller
    /// sets the page.
    pub(crate) fn degrade(&mut self, why: Degradation) {
        self.degradation = why;
        self.diversified = false;
        self.algorithm = match why {
            Degradation::ShardLoss => "DPH (degraded: shard loss)",
            _ => "DPH (degraded)",
        };
    }
}

/// One unit of the request pipeline.
///
/// Stages are deployed once per engine and shared across worker threads,
/// so they hold no per-request state (`Send + Sync`); everything mutable
/// lives in the [`PipelineContext`].
pub trait Stage: Send + Sync {
    /// The accounting bucket this stage's wall time is charged to.
    fn kind(&self) -> StageKind;

    /// Advance `ctx` by one stage, reading all serving state from the
    /// request's pinned `generation` (never from the engine's live
    /// handle, which a concurrent swap may move mid-request).
    fn run<'a>(
        &self,
        engine: &SearchEngine,
        generation: &'a Generation,
        ctx: &mut PipelineContext<'a>,
    ) -> StageOutcome;
}

/// The standard five-stage chain of the paper's pipeline.
pub fn default_stage_chain() -> Vec<Box<dyn Stage>> {
    vec![
        Box::new(DetectStage),
        Box::new(RetrieveStage),
        Box::new(SurrogateStage),
        Box::new(UtilityStage),
        Box::new(SelectStage),
    ]
}

/// Ambiguity detection: one hash lookup in the mined
/// [`SpecializationModel`](serpdiv_core::SpecializationModel).
/// `Baseline` requests skip detection entirely.
pub struct DetectStage;

impl Stage for DetectStage {
    fn kind(&self) -> StageKind {
        StageKind::Detect
    }

    fn run<'a>(
        &self,
        _engine: &SearchEngine,
        generation: &'a Generation,
        ctx: &mut PipelineContext<'a>,
    ) -> StageOutcome {
        if ctx.request.algorithm == AlgorithmKind::Baseline {
            ctx.algorithm = "DPH";
        } else {
            ctx.entry = generation.model().get(&ctx.request.query);
            if ctx.entry.is_none() {
                ctx.algorithm = "DPH (passthrough)";
            }
        }
        StageOutcome::Continue
    }
}

/// Baseline retrieval through the deployed [`Retriever`]
/// (single index, sharded scatter-gather, NRT delta, or the multi-process
/// fleet router — the stage cannot tell), from the query as that
/// retriever analyzes it, once. Non-ambiguous queries retrieve
/// exactly `k` and finish the pipeline; ambiguous ones retrieve the
/// candidate pool `n = max(n_candidates, k)`.
///
/// Retrieval is the one stage that can *lose data*: a distributed
/// retriever reports a partial gather (a shard worker timed out or died)
/// through [`Retrieval::complete`](serpdiv_index::Retrieval). A partial
/// candidate pool must not be diversified as if it were the real
/// ranking, so the stage finishes immediately with the surviving top-`k`
/// and the distinct degraded label `"DPH (degraded: shard loss)"` — the
/// page stays correct for the shards that answered, and the loss is
/// visible in the response and the metrics instead of silent.
///
/// [`Retriever`]: serpdiv_index::Retriever
pub struct RetrieveStage;

impl Stage for RetrieveStage {
    fn kind(&self) -> StageKind {
        StageKind::Retrieve
    }

    fn run<'a>(
        &self,
        engine: &SearchEngine,
        generation: &'a Generation,
        ctx: &mut PipelineContext<'a>,
    ) -> StageOutcome {
        let retriever = generation.retriever();
        ctx.terms = retriever.query_terms(&ctx.request.query);
        if ctx.entry.is_none() {
            // Passthrough: the page is the baseline top-k.
            let retrieval = retriever.retrieve_terms_within(
                &ctx.terms,
                ctx.request.k,
                ctx.budget.remaining_us(),
            );
            ctx.page = retrieval.hits;
            if !retrieval.complete {
                ctx.degrade(Degradation::ShardLoss);
            }
            return StageOutcome::Finish;
        }
        if ctx.budget.exhausted() {
            // The budget died before the candidate pool was even fetched:
            // retrieving n candidates for a diversification that will
            // never run is pure waste. Fetch just the k-page under the
            // retriever's own configured deadlines (a zero-µs wire budget
            // would only manufacture shard loss on top of the deadline)
            // and serve it as the degraded baseline.
            let retrieval = retriever.retrieve_terms_within(&ctx.terms, ctx.request.k, None);
            ctx.page = retrieval.hits;
            ctx.degrade(if retrieval.complete {
                Degradation::Deadline
            } else {
                Degradation::ShardLoss
            });
            return StageOutcome::Finish;
        }
        let n = engine.config().n_candidates.max(ctx.request.k);
        let retrieval = retriever.retrieve_terms_within(&ctx.terms, n, ctx.budget.remaining_us());
        ctx.candidates = retrieval.hits;
        if !retrieval.complete {
            ctx.degrade(Degradation::ShardLoss);
            ctx.page = ctx.candidates.iter().take(ctx.request.k).copied().collect();
            return StageOutcome::Finish;
        }
        if ctx.candidates.is_empty() {
            ctx.algorithm = "DPH (passthrough)";
            StageOutcome::Finish
        } else {
            StageOutcome::Continue
        }
    }
}

/// Snippet-surrogate vectors for every candidate from
/// [`PipelineContext::terms`], resolved against the query's cached
/// surrogate table (one probe per request) when the cache is enabled.
pub struct SurrogateStage;

impl Stage for SurrogateStage {
    fn kind(&self) -> StageKind {
        StageKind::Surrogate
    }

    fn run<'a>(
        &self,
        engine: &SearchEngine,
        generation: &'a Generation,
        ctx: &mut PipelineContext<'a>,
    ) -> StageOutcome {
        ctx.vectors = engine.surrogate_vectors(generation, &ctx.terms, &ctx.candidates);
        StageOutcome::Continue
    }
}

/// The `Ũ(d|R_q′)` utility rows (Definition 2): one sparse accumulation
/// per candidate against the compiled specialization index.
pub struct UtilityStage;

impl Stage for UtilityStage {
    fn kind(&self) -> StageKind {
        StageKind::Utility
    }

    fn run<'a>(
        &self,
        engine: &SearchEngine,
        generation: &'a Generation,
        ctx: &mut PipelineContext<'a>,
    ) -> StageOutcome {
        let entry = ctx
            .entry
            .expect("the retrieve stage finishes every request without an entry");
        // The detect stage read `entry` from this generation's model, and
        // `Generation::new` precompiled one scorer per entry of that model.
        let scorer = generation
            .scorer_for(&entry.query)
            .expect("every model entry has a precompiled scorer");
        ctx.input = Some(assemble_input_with_scorer(
            entry,
            scorer,
            &engine.config().params,
            std::mem::take(&mut ctx.vectors),
            &ctx.candidates,
        ));
        StageOutcome::Continue
    }
}

/// Diversifier selection: the request's [`AlgorithmKind`] re-ranks the
/// candidates through the engine's pre-built [`Diversifier`] trait
/// objects. The budget is not checked here: the driver checks it at the
/// utility stage's edge, and nothing runs between that check and this
/// stage.
///
/// [`Diversifier`]: serpdiv_core::Diversifier
pub struct SelectStage;

impl Stage for SelectStage {
    fn kind(&self) -> StageKind {
        StageKind::Select
    }

    fn run<'a>(
        &self,
        engine: &SearchEngine,
        _generation: &'a Generation,
        ctx: &mut PipelineContext<'a>,
    ) -> StageOutcome {
        let input = ctx
            .input
            .take()
            .expect("the utility stage assembles every diversified request's input");
        let diversifier = engine.diversifier_for(ctx.request.algorithm);
        let indices = diversifier.select(&input, ctx.request.k);
        ctx.page = indices.into_iter().map(|i| ctx.candidates[i]).collect();
        ctx.diversified = true;
        ctx.algorithm = diversifier.name();
        StageOutcome::Finish
    }
}
