//! The end-to-end diversification framework.
//!
//! Wires the whole paper pipeline together (§3, §4.1): given a submitted
//! query,
//!
//! 1. look it up in the mined [`SpecializationModel`] — a miss means "not
//!    ambiguous", and the baseline ranking is served unchanged;
//! 2. retrieve the candidate set `Rq` with the DPH engine;
//! 3. fetch the per-specialization result surrogates `R_q′` from the
//!    [`SpecializationStore`] (precomputed at deployment time, exactly the
//!    data structure whose footprint §4.1 budgets as `N·|S_q̂|·|R_q̂′|·L`);
//! 4. compute the snippet surrogates of the candidates and the utility
//!    matrix `Ũ(d|R_q′)` (Definition 2, threshold `c`);
//! 5. run the chosen [`Diversifier`] and return the re-ranked SERP.

use crate::candidates::DiversifyInput;
use crate::iaselect::IaSelect;
use crate::mmr::Mmr;
use crate::optselect::OptSelect;
use crate::specindex::{CompiledSpecStore, UtilityScorer};
use crate::utility::{UtilityMatrix, UtilityParams};
use crate::xquad::XQuad;
use crate::Diversifier;
use serpdiv_index::{
    DocId, ForwardIndex, InvertedIndex, ScoredDoc, SearchEngine, SnippetGenerator, SparseVector,
};
use serpdiv_mining::{SpecializationEntry, SpecializationModel};
use std::collections::HashMap;
use std::sync::Arc;

/// Which algorithm the pipeline runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlgorithmKind {
    /// No diversification: the DPH ranking as-is.
    Baseline,
    /// The paper's OptSelect (Algorithm 2).
    OptSelect,
    /// Agrawal et al.'s greedy, adapted (QL Diversify(k)).
    IaSelect,
    /// Santos et al.'s xQuAD.
    XQuad,
    /// Carbonell & Goldstein's MMR.
    Mmr,
}

impl AlgorithmKind {
    /// Instantiate the [`Diversifier`] this kind names, parameterized by
    /// `params` — the single construction point behind every dispatch
    /// site (`run_algorithm`, batch drivers, the serving select stage).
    ///
    /// ```
    /// use serpdiv_core::{AlgorithmKind, PipelineParams};
    ///
    /// let diversifier = AlgorithmKind::OptSelect.diversifier(&PipelineParams::default());
    /// assert_eq!(diversifier.name(), "OptSelect");
    /// ```
    pub fn diversifier(self, params: &PipelineParams) -> Box<dyn Diversifier + Send + Sync> {
        match self {
            AlgorithmKind::Baseline => Box::new(crate::baseline::BaselineRanking),
            AlgorithmKind::OptSelect => Box::new(OptSelect::with_lambda(params.lambda)),
            AlgorithmKind::IaSelect => Box::new(IaSelect::new()),
            AlgorithmKind::XQuad => Box::new(XQuad::with_lambda(params.lambda)),
            AlgorithmKind::Mmr => Box::new(Mmr::with_lambda(params.mmr_lambda)),
        }
    }
}

/// Pipeline parameters (defaults follow §5's experimental setup).
#[derive(Debug, Clone, Copy)]
pub struct PipelineParams {
    /// `|R_q′|`: results kept per specialization (paper: 20).
    pub k_spec_results: usize,
    /// λ for OptSelect/xQuAD (paper: 0.15).
    pub lambda: f64,
    /// λ for MMR (conventional 0.5).
    pub mmr_lambda: f64,
    /// Utility parameters (threshold `c`).
    pub utility: UtilityParams,
    /// Snippet window in tokens (document surrogates).
    pub snippet_window: usize,
    /// Candidate-set size from which utility-matrix rows are computed in
    /// parallel (scoped threads, one row-chunk each; results are identical
    /// to the sequential path). Typical serving requests (`n ≈ 100`) stay
    /// sequential; batch/offline callers with thousands of candidates
    /// cross this threshold. `usize::MAX` disables parallelism.
    pub utility_parallel_threshold: usize,
}

impl Default for PipelineParams {
    fn default() -> Self {
        PipelineParams {
            k_spec_results: 20,
            lambda: 0.15,
            mmr_lambda: 0.5,
            utility: UtilityParams::default(),
            snippet_window: 30,
            utility_parallel_threshold: 1024,
        }
    }
}

/// Precomputed per-specialization result surrogates — the deployable §4.1
/// data structure.
#[derive(Debug, Default)]
pub struct SpecializationStore {
    /// specialization text → ranked surrogate vectors (rank 1 first) with
    /// the byte length of the snippet each was built from.
    entries: HashMap<String, Vec<(SparseVector, usize)>>,
}

impl SpecializationStore {
    /// Build the store: one retrieval of `k_spec` results per distinct
    /// specialization in `model`, snippet extraction, vectorization.
    pub fn build(
        model: &SpecializationModel,
        engine: &SearchEngine<'_>,
        k_spec: usize,
        snippet_window: usize,
    ) -> Self {
        let index = engine.index();
        let snippets = SnippetGenerator::with_window(snippet_window);
        let mut entries: HashMap<String, Vec<(SparseVector, usize)>> = HashMap::new();
        for entry in model.iter() {
            for (spec, _) in &entry.specializations {
                if entries.contains_key(spec) {
                    continue;
                }
                let terms = index.analyze_query(spec);
                let hits = engine.search(spec, k_spec);
                let list: Vec<(SparseVector, usize)> = hits
                    .iter()
                    .filter_map(|h| index.store().get(h.doc))
                    .map(|doc| {
                        let snip = snippets.snippet(doc, &terms, index.vocab());
                        let vec = SparseVector::from_text(&snip, index);
                        (vec, snip.len())
                    })
                    .collect();
                entries.insert(spec.clone(), list);
            }
        }
        SpecializationStore { entries }
    }

    /// The ranked surrogates of `spec` (empty slice when unknown).
    pub fn surrogates(&self, spec: &str) -> &[(SparseVector, usize)] {
        self.entries.get(spec).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Iterate `(specialization, ranked surrogates)` pairs (arbitrary
    /// order) — the compilation input of
    /// [`CompiledSpecStore::compile`](crate::specindex::CompiledSpecStore::compile).
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[(SparseVector, usize)])> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v.as_slice()))
    }

    /// Number of distinct specializations stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Measured memory footprint in bytes: vectors + snippet text — the
    /// quantity §4.1 bounds by `N · |S_q̂| · |R_q̂′| · L`.
    pub fn byte_size(&self) -> usize {
        self.entries
            .iter()
            .map(|(spec, list)| {
                spec.len()
                    + list
                        .iter()
                        .map(|(v, snippet_len)| v.byte_size() + snippet_len)
                        .sum::<usize>()
            })
            .sum()
    }

    /// Average snippet length `L` in bytes (for comparing against the
    /// back-of-the-envelope bound).
    pub fn avg_snippet_len(&self) -> f64 {
        let (sum, count) = self
            .entries
            .values()
            .flatten()
            .fold((0usize, 0usize), |(s, c), (_, l)| (s + l, c + 1));
        if count == 0 {
            0.0
        } else {
            sum as f64 / count as f64
        }
    }
}

/// A diversified (or baseline) SERP.
#[derive(Debug, Clone)]
pub struct DiversifiedRanking {
    /// The ranked documents.
    pub docs: Vec<DocId>,
    /// Whether diversification ran (false ⇒ baseline passthrough: the
    /// query was not ambiguous or retrieval was empty).
    pub diversified: bool,
    /// Name of the algorithm that produced the ranking.
    pub algorithm: &'static str,
}

/// The assembled pipeline.
pub struct DiversificationPipeline<'a> {
    engine: &'a SearchEngine<'a>,
    model: &'a SpecializationModel,
    store: SpecializationStore,
    compiled: CompiledSpecStore,
    forward: ForwardIndex,
    params: PipelineParams,
}

impl<'a> DiversificationPipeline<'a> {
    /// Deploy the pipeline: builds the [`SpecializationStore`] eagerly,
    /// compiles it into the inverted utility index, and compiles the
    /// [`ForwardIndex`] for zero-string snippet surrogates (all one-off
    /// offline deployment steps of §4.1).
    pub fn new(
        engine: &'a SearchEngine<'a>,
        model: &'a SpecializationModel,
        params: PipelineParams,
    ) -> Self {
        let store =
            SpecializationStore::build(model, engine, params.k_spec_results, params.snippet_window);
        let compiled = CompiledSpecStore::compile(&store);
        let forward = ForwardIndex::build(engine.index());
        DiversificationPipeline {
            engine,
            model,
            store,
            compiled,
            forward,
            params,
        }
    }

    /// The underlying store (footprint experiments).
    pub fn store(&self) -> &SpecializationStore {
        &self.store
    }

    /// The compiled inverted utility index the request path scores
    /// against.
    pub fn compiled(&self) -> &CompiledSpecStore {
        &self.compiled
    }

    /// The compiled forward index the surrogate stage scans.
    pub fn forward(&self) -> &ForwardIndex {
        &self.forward
    }

    /// The pipeline parameters.
    pub fn params(&self) -> PipelineParams {
        self.params
    }

    /// Retrieve `n` candidates for `query` and assemble the
    /// [`DiversifyInput`] — `None` when the query is not ambiguous (or
    /// nothing was retrieved), in which case the caller serves the
    /// baseline. Exposed so benches can reuse one input across algorithms.
    pub fn build_input(
        &self,
        query: &str,
        n_candidates: usize,
    ) -> Option<(Vec<ScoredDoc>, DiversifyInput)> {
        let entry = self.model.get(query)?;
        let baseline = self.engine.search(query, n_candidates);
        if baseline.is_empty() {
            return None;
        }
        let input = assemble_input(
            self.engine.index(),
            &self.forward,
            entry,
            &self.compiled,
            &self.params,
            query,
            &baseline,
        );
        Some((baseline, input))
    }

    /// Run the full pipeline for `query`: retrieve `n_candidates`, pick
    /// `k` with `algo`.
    pub fn diversify(
        &self,
        query: &str,
        n_candidates: usize,
        k: usize,
        algo: AlgorithmKind,
    ) -> DiversifiedRanking {
        self.diversify_with(
            query,
            n_candidates,
            k,
            algo,
            &*algo.diversifier(&self.params),
        )
    }

    /// [`diversify`](Self::diversify) with a caller-provided
    /// [`Diversifier`] instance, so batch drivers construct the trait
    /// object once and share it across queries (and worker threads).
    /// `diversifier` should be `algo.diversifier(&params)` — `algo` still
    /// decides the fast paths (a `Baseline` request skips ambiguity
    /// detection entirely and retrieves exactly `k`).
    pub fn diversify_with(
        &self,
        query: &str,
        n_candidates: usize,
        k: usize,
        algo: AlgorithmKind,
        diversifier: &(dyn Diversifier + Sync),
    ) -> DiversifiedRanking {
        let passthrough = |algorithm| {
            let docs = self
                .engine
                .search(query, k)
                .into_iter()
                .map(|h| h.doc)
                .collect();
            DiversifiedRanking {
                docs,
                diversified: false,
                algorithm,
            }
        };
        if algo == AlgorithmKind::Baseline {
            return passthrough("DPH");
        }
        let Some((baseline, input)) = self.build_input(query, n_candidates) else {
            return passthrough("DPH (passthrough)");
        };
        let indices = diversifier.select(&input, k);
        DiversifiedRanking {
            docs: indices.into_iter().map(|i| baseline[i].doc).collect(),
            diversified: true,
            algorithm: diversifier.name(),
        }
    }
}

impl DiversificationPipeline<'_> {
    /// Diversify a batch of queries in parallel over `workers` threads
    /// (std scoped threads; work is claimed query-at-a-time from an
    /// atomic counter).
    ///
    /// §6 lists "a search architecture performing the diversification task
    /// in parallel" as future work; per-query parallelism is the natural
    /// first step — the pipeline is immutable after deployment, so workers
    /// share it by reference. Results come back in query order.
    pub fn diversify_batch(
        &self,
        queries: &[String],
        n_candidates: usize,
        k: usize,
        algo: AlgorithmKind,
        workers: usize,
    ) -> Vec<DiversifiedRanking> {
        let workers = workers.max(1).min(queries.len().max(1));
        let next = std::sync::atomic::AtomicUsize::new(0);
        // One trait object shared by reference across all workers.
        let diversifier = algo.diversifier(&self.params);
        let mut per_worker: Vec<Vec<(usize, DiversifiedRanking)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let next = &next;
                    let diversifier = &*diversifier;
                    scope.spawn(move || {
                        let mut mine = Vec::new();
                        loop {
                            let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            if i >= queries.len() {
                                break;
                            }
                            mine.push((
                                i,
                                self.diversify_with(
                                    &queries[i],
                                    n_candidates,
                                    k,
                                    algo,
                                    diversifier,
                                ),
                            ));
                        }
                        mine
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("diversification worker panicked"))
                .collect()
        });
        let mut indexed: Vec<(usize, DiversifiedRanking)> =
            per_worker.drain(..).flatten().collect();
        indexed.sort_by_key(|&(i, _)| i);
        indexed.into_iter().map(|(_, r)| r).collect()
    }
}

/// Compute the snippet surrogate vector of one candidate document over
/// the compiled [`ForwardIndex`]: best-window selection on the
/// precompiled `TermId` stream and direct TF-IDF emission — no snippet
/// `String`, no re-tokenization, no re-stemming (a document unknown to
/// the forward index yields the zero vector). This is the request-path
/// definition of surrogate construction; both the batch helper below and
/// the serving layer's `(doc, query-terms)` cache go through it. The
/// text path is kept as [`candidate_surrogate_naive`], the equivalence
/// oracle (`tests/surrogate_equivalence.rs` proves the two bit-identical).
pub fn candidate_surrogate(
    forward: &ForwardIndex,
    doc: DocId,
    qterms: &[serpdiv_text::TermId],
    snippets: &SnippetGenerator,
) -> SparseVector {
    snippets.surrogate(forward, doc, qterms)
}

/// The text-path oracle for [`candidate_surrogate`]: fetch the doc,
/// extract the query-biased snippet string, TF-IDF-vectorize it (a
/// missing doc yields the zero vector). No serving code calls it; it
/// anchors the equivalence suite and serves engines deployed without a
/// forward index.
pub fn candidate_surrogate_naive(
    index: &InvertedIndex,
    doc: DocId,
    qterms: &[serpdiv_text::TermId],
    snippets: &SnippetGenerator,
) -> SparseVector {
    index
        .store()
        .get(doc)
        .map(|doc| {
            let snip = snippets.snippet(doc, qterms, index.vocab());
            SparseVector::from_text(&snip, index)
        })
        .unwrap_or_default()
}

/// Compute the snippet surrogate vector of every candidate in `baseline`
/// through the compiled forward index (the per-request `Rq` surrogates of
/// Definition 2). Returned as `Arc`s so serving layers can memoize them
/// per `(doc, query-terms)` and share one vector across requests without
/// copying.
pub fn candidate_surrogates(
    index: &InvertedIndex,
    forward: &ForwardIndex,
    query: &str,
    baseline: &[ScoredDoc],
    snippet_window: usize,
) -> Vec<Arc<SparseVector>> {
    let snippets = SnippetGenerator::with_window(snippet_window);
    let qterms = index.analyze_query(query);
    baseline
        .iter()
        .map(|h| Arc::new(candidate_surrogate(forward, h.doc, &qterms, &snippets)))
        .collect()
}

/// [`candidate_surrogates`] through the text-path oracle
/// ([`candidate_surrogate_naive`]) — for deployments without a compiled
/// forward index, and for the equivalence suite.
pub fn candidate_surrogates_naive(
    index: &InvertedIndex,
    query: &str,
    baseline: &[ScoredDoc],
    snippet_window: usize,
) -> Vec<Arc<SparseVector>> {
    let snippets = SnippetGenerator::with_window(snippet_window);
    let qterms = index.analyze_query(query);
    baseline
        .iter()
        .map(|h| Arc::new(candidate_surrogate_naive(index, h.doc, &qterms, &snippets)))
        .collect()
}

/// Assemble the [`DiversifyInput`] from already-computed candidate
/// surrogates: borrow the compiled inverted index (zero surrogate-list
/// cloning), score every candidate row with one sparse accumulation, and
/// max-normalize the baseline relevance. Rows go parallel past
/// [`PipelineParams::utility_parallel_threshold`].
pub fn assemble_input_from_surrogates(
    entry: &SpecializationEntry,
    compiled: &CompiledSpecStore,
    params: &PipelineParams,
    vectors: Vec<Arc<SparseVector>>,
    baseline: &[ScoredDoc],
) -> DiversifyInput {
    let scorer = compiled.scorer(entry.specializations.iter().map(|(s, _)| s.as_str()));
    assemble_input_with_scorer(entry, &scorer, params, vectors, baseline)
}

/// [`assemble_input_from_surrogates`] with the per-request scorer build
/// hoisted out: serving engines precompile one [`UtilityScorer`] per
/// model entry at deploy time (the entry's active-spec set is immutable),
/// so the request path skips the gather-and-sort entirely. Scoring is the
/// same code over the same scorer contents — bit-identical rows. What a
/// request still pays per scorer is stamping its terms into the calling
/// thread's lookup table and un-stamping them (one store each way per
/// scorer term, against one lookup per candidate term).
pub fn assemble_input_with_scorer(
    entry: &SpecializationEntry,
    scorer: &UtilityScorer,
    params: &PipelineParams,
    vectors: Vec<Arc<SparseVector>>,
    baseline: &[ScoredDoc],
) -> DiversifyInput {
    let spec_probs: Vec<f64> = entry.specializations.iter().map(|&(_, p)| p).collect();
    let utilities = if vectors.len() >= params.utility_parallel_threshold {
        let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
        scorer.matrix_parallel(&vectors, params.utility, threads)
    } else {
        scorer.matrix(&vectors, params.utility)
    };
    let scores: Vec<f64> = baseline.iter().map(|h| h.score).collect();
    let relevance = DiversifyInput::normalize_scores(&scores);
    DiversifyInput::new(spec_probs, relevance, utilities).with_vectors(vectors)
}

/// Assemble the [`DiversifyInput`] for one already-retrieved candidate
/// set: compiled snippet surrogates for the candidates (forward-index
/// `TermId` scan, no string work), then utility rows against the compiled
/// specialization index (Definition 2) and max-normalized relevance.
///
/// This is the utility-computation stage shared by the offline
/// [`DiversificationPipeline`] and the online serving engine
/// (`serpdiv-serve`), which memoizes the surrogate step and times both
/// halves separately.
pub fn assemble_input(
    index: &InvertedIndex,
    forward: &ForwardIndex,
    entry: &SpecializationEntry,
    compiled: &CompiledSpecStore,
    params: &PipelineParams,
    query: &str,
    baseline: &[ScoredDoc],
) -> DiversifyInput {
    let vectors = candidate_surrogates(index, forward, query, baseline, params.snippet_window);
    assemble_input_from_surrogates(entry, compiled, params, vectors, baseline)
}

/// The pre-compilation reference path: text-path snippet surrogates,
/// per-specialization surrogate lists cloned out of the raw store and the
/// utility matrix computed by naive pairwise cosines
/// ([`UtilityMatrix::compute`]). Kept as the equivalence oracle for the
/// compiled fast paths (`tests/utility_equivalence.rs`,
/// `tests/surrogate_equivalence.rs`); no serving code calls it.
pub fn assemble_input_naive(
    index: &InvertedIndex,
    entry: &SpecializationEntry,
    store: &SpecializationStore,
    params: &PipelineParams,
    query: &str,
    baseline: &[ScoredDoc],
) -> DiversifyInput {
    let vectors = candidate_surrogates_naive(index, query, baseline, params.snippet_window);
    let spec_probs: Vec<f64> = entry.specializations.iter().map(|&(_, p)| p).collect();
    let spec_lists: Vec<Vec<SparseVector>> = entry
        .specializations
        .iter()
        .map(|(spec, _)| {
            store
                .surrogates(spec)
                .iter()
                .map(|(v, _)| v.clone())
                .collect()
        })
        .collect();
    let utilities = UtilityMatrix::compute(&vectors, &spec_lists, params.utility);
    let scores: Vec<f64> = baseline.iter().map(|h| h.score).collect();
    let relevance = DiversifyInput::normalize_scores(&scores);
    DiversifyInput::new(spec_probs, relevance, utilities).with_vectors(vectors)
}

/// Dispatch an [`AlgorithmKind`] over a prepared input.
pub fn run_algorithm(
    algo: AlgorithmKind,
    input: &DiversifyInput,
    k: usize,
    params: PipelineParams,
) -> (Vec<usize>, &'static str) {
    let diversifier = algo.diversifier(&params);
    (diversifier.select(input, k), diversifier.name())
}

#[cfg(test)]
mod tests {
    use super::*;
    use serpdiv_index::{Document, IndexBuilder};
    use serpdiv_mining::SpecializationModel;

    /// A tiny two-interpretation "apple" world.
    fn setup() -> (serpdiv_index::InvertedIndex, SpecializationModel) {
        let mut b = IndexBuilder::new();
        // iphone interpretation
        for i in 0..5u32 {
            b.add(Document::new(
                i,
                format!("http://tech/{i}"),
                "apple iphone",
                "apple iphone smartphone review chip battery display camera",
            ));
        }
        // fruit interpretation
        for i in 5..10u32 {
            b.add(Document::new(
                i,
                format!("http://food/{i}"),
                "apple fruit",
                "apple fruit orchard sweet harvest vitamin juice recipe",
            ));
        }
        // noise
        for i in 10..15u32 {
            b.add(Document::new(
                i,
                format!("http://misc/{i}"),
                "",
                "weather forecast rain cloud wind storm",
            ));
        }
        let index = b.build();
        let model = SpecializationModel::from_json(
            r#"{"entries":{"apple":{"query":"apple","specializations":[["apple iphone",0.6],["apple fruit",0.4]]}}}"#,
        )
        .unwrap();
        (index, model)
    }

    #[test]
    fn store_builds_surrogates_for_every_specialization() {
        let (index, model) = setup();
        let engine = SearchEngine::new(&index);
        let store = SpecializationStore::build(&model, &engine, 5, 20);
        assert_eq!(store.len(), 2);
        assert!(!store.surrogates("apple iphone").is_empty());
        assert!(store.surrogates("unknown spec").is_empty());
        assert!(store.byte_size() > 0);
        assert!(store.avg_snippet_len() > 0.0);
    }

    #[test]
    fn ambiguous_query_is_diversified() {
        let (index, model) = setup();
        let engine = SearchEngine::new(&index);
        // A positive threshold c zeroes the weak cross-interpretation
        // similarities (both clusters share the literal "apple"), making
        // the coverage constraint bite — exactly the §5 mechanism.
        let params = PipelineParams {
            utility: crate::utility::UtilityParams { threshold_c: 0.4 },
            ..PipelineParams::default()
        };
        let pipeline = DiversificationPipeline::new(&engine, &model, params);
        let out = pipeline.diversify("apple", 10, 4, AlgorithmKind::OptSelect);
        assert!(out.diversified);
        assert_eq!(out.algorithm, "OptSelect");
        assert_eq!(out.docs.len(), 4);
        // Both interpretations must be present in the top-4.
        let tech = out.docs.iter().filter(|d| d.0 < 5).count();
        let food = out.docs.iter().filter(|d| (5..10).contains(&d.0)).count();
        assert!(tech >= 1 && food >= 1, "tech={tech} food={food}");
    }

    #[test]
    fn non_ambiguous_query_passes_through() {
        let (index, model) = setup();
        let engine = SearchEngine::new(&index);
        let pipeline = DiversificationPipeline::new(&engine, &model, PipelineParams::default());
        let out = pipeline.diversify("weather forecast", 10, 3, AlgorithmKind::OptSelect);
        assert!(!out.diversified);
        assert!(!out.docs.is_empty());
    }

    #[test]
    fn all_algorithms_produce_valid_rankings() {
        let (index, model) = setup();
        let engine = SearchEngine::new(&index);
        let pipeline = DiversificationPipeline::new(&engine, &model, PipelineParams::default());
        for algo in [
            AlgorithmKind::Baseline,
            AlgorithmKind::OptSelect,
            AlgorithmKind::IaSelect,
            AlgorithmKind::XQuad,
            AlgorithmKind::Mmr,
        ] {
            let out = pipeline.diversify("apple", 10, 5, algo);
            assert_eq!(out.docs.len(), 5, "{:?}", algo);
            let mut d: Vec<u32> = out.docs.iter().map(|d| d.0).collect();
            d.sort_unstable();
            d.dedup();
            assert_eq!(d.len(), 5, "{:?} produced duplicates", algo);
        }
    }

    #[test]
    fn batch_matches_sequential() {
        let (index, model) = setup();
        let engine = SearchEngine::new(&index);
        let pipeline = DiversificationPipeline::new(&engine, &model, PipelineParams::default());
        let queries: Vec<String> = vec![
            "apple".into(),
            "weather forecast".into(),
            "apple".into(),
            "sailing".into(),
        ];
        let batch = pipeline.diversify_batch(&queries, 10, 4, AlgorithmKind::OptSelect, 3);
        assert_eq!(batch.len(), queries.len());
        for (q, out) in queries.iter().zip(&batch) {
            let seq = pipeline.diversify(q, 10, 4, AlgorithmKind::OptSelect);
            assert_eq!(out.docs, seq.docs, "query {q}");
            assert_eq!(out.diversified, seq.diversified);
        }
        // Degenerate worker counts.
        let one = pipeline.diversify_batch(&queries, 10, 4, AlgorithmKind::OptSelect, 1);
        assert_eq!(one.len(), 4);
        let none = pipeline.diversify_batch(&[], 10, 4, AlgorithmKind::OptSelect, 8);
        assert!(none.is_empty());
    }

    #[test]
    fn build_input_shapes() {
        let (index, model) = setup();
        let engine = SearchEngine::new(&index);
        let pipeline = DiversificationPipeline::new(&engine, &model, PipelineParams::default());
        let (baseline, input) = pipeline.build_input("apple", 10).unwrap();
        assert_eq!(baseline.len(), input.num_candidates());
        assert_eq!(input.num_specializations(), 2);
        assert!(pipeline.build_input("weather forecast", 10).is_none());
        // Candidates from the iphone cluster must have higher utility for
        // the iphone specialization than for the fruit one.
        let i_tech = baseline.iter().position(|h| h.doc.0 < 5).unwrap();
        assert!(input.utilities.get(i_tech, 0) > input.utilities.get(i_tech, 1));
    }
}
