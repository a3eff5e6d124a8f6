//! The building blocks of the paper's pipeline (§3, §4.1).
//!
//! For a submitted query the paper
//!
//! 1. looks it up in the mined [`SpecializationModel`] — a miss means "not
//!    ambiguous", and the baseline ranking is served unchanged;
//! 2. retrieves the candidate set `Rq` with the DPH engine;
//! 3. fetches the per-specialization result surrogates `R_q′` from the
//!    [`SpecializationStore`] (precomputed at deployment time, exactly the
//!    data structure whose footprint §4.1 budgets as `N·|S_q̂|·|R_q̂′|·L`);
//! 4. computes the snippet surrogates of the candidates and the utility
//!    matrix `Ũ(d|R_q′)` (Definition 2, threshold `c`);
//! 5. runs the chosen [`Diversifier`] and returns the re-ranked SERP.
//!
//! This module holds what those steps are made of — the store, the
//! candidate surrogate, the input assembly, the algorithm dispatch — and
//! their naive oracles. The one thing that runs a query through all five
//! steps is the serving engine's stage chain (`serpdiv_serve::stages`).

use crate::candidates::DiversifyInput;
use crate::iaselect::IaSelect;
use crate::mmr::Mmr;
use crate::model::{SpecializationEntry, SpecializationModel};
use crate::optselect::OptSelect;
use crate::specindex::{CompiledSpecStore, UtilityScorer};
use crate::utility::{UtilityMatrix, UtilityParams};
use crate::xquad::XQuad;
use crate::Diversifier;
use serpdiv_index::{
    DocId, ForwardIndex, InvertedIndex, Retriever, ScoredDoc, SearchEngine, SnippetGenerator,
    SparseVector,
};
use std::collections::{HashMap, HashSet};
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
    /// site (`run_algorithm`, the serving select stage).
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
    /// specialization text → ranked surrogate vectors (rank 1 first).
    entries: HashMap<String, Vec<SparseVector>>,
}

impl SpecializationStore {
    /// Build the store over `retriever`'s collection: one retrieval of
    /// `k_spec` results per distinct specialization in `model`, each hit's
    /// snippet surrogate computed by [`candidate_surrogate`] over
    /// `forward` — the function the request path computes a candidate's
    /// with. `retriever` analyzes the specialization text
    /// ([`Retriever::query_terms`]) and retrieves it; it and `forward`
    /// must be over the same sealed index. An offline deployment step that
    /// uses the available cores: the distinct specializations are split
    /// into contiguous ranges, one per core, and every list is
    /// computed independently, so the store is identical for any core
    /// count.
    pub fn build_with(
        model: &SpecializationModel,
        retriever: &dyn Retriever,
        forward: &ForwardIndex,
        k_spec: usize,
        snippet_window: usize,
    ) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        Self::build_chunked(model, retriever, forward, k_spec, snippet_window, cores)
    }

    /// [`build_with`](Self::build_with) over `chunks` contiguous ranges of
    /// the distinct specializations (first-occurrence order): the calling
    /// thread takes the first, a scoped thread each of the others, and
    /// every thread fills its own slots of the result.
    pub(crate) fn build_chunked(
        model: &SpecializationModel,
        retriever: &dyn Retriever,
        forward: &ForwardIndex,
        k_spec: usize,
        snippet_window: usize,
        chunks: usize,
    ) -> Self {
        let snippets = &SnippetGenerator::with_window(snippet_window);
        let mut seen = HashSet::new();
        let specs: Vec<&String> = model
            .iter()
            .flat_map(|entry| &entry.specializations)
            .map(|(spec, _)| spec)
            .filter(|spec| seen.insert(spec.as_str()))
            .collect();
        let mut lists: Vec<Vec<SparseVector>> = vec![Vec::new(); specs.len()];
        let per_chunk = specs.len().div_ceil(chunks.max(1)).max(1);
        let fill = |specs: &[&String], lists: &mut [Vec<SparseVector>]| {
            for (spec, list) in specs.iter().zip(lists) {
                let terms = retriever.query_terms(spec);
                *list = retriever
                    .retrieve_terms(&terms, k_spec)
                    .iter()
                    .map(|h| candidate_surrogate(forward, h.doc, &terms, snippets))
                    .collect();
            }
        };
        std::thread::scope(|scope| {
            let mut ranges = specs.chunks(per_chunk).zip(lists.chunks_mut(per_chunk));
            let first = ranges.next();
            for (specs, lists) in ranges {
                scope.spawn(move || fill(specs, lists));
            }
            if let Some((specs, lists)) = first {
                fill(specs, lists);
            }
        });
        SpecializationStore {
            entries: specs.into_iter().cloned().zip(lists).collect(),
        }
    }

    /// [`build_with`](Self::build_with) for a caller holding nothing but
    /// the reference engine: takes the index's forward view
    /// ([`InvertedIndex::forward`]: written by the index build, or
    /// compiled once by a decoded index, and kept by the index either
    /// way, so every caller shares these arrays) and
    /// retrieves through the engine's index — the DPH
    /// retrieval kernel, bit-identical to [`SearchEngine::new`]'s scoring
    /// — so `engine` only supplies its index. The engine's ranking model
    /// is ignored: an engine built with [`SearchEngine::with_model`] still
    /// yields a DPH store. Uses the available cores like `build_with`, with the same
    /// store for any core count.
    pub fn build(
        model: &SpecializationModel,
        engine: &SearchEngine<'_>,
        k_spec: usize,
        snippet_window: usize,
    ) -> Self {
        let index = engine.index();
        Self::build_with(model, index, index.forward(), k_spec, snippet_window)
    }

    /// The ranked surrogates of `spec` (empty slice when unknown).
    pub fn surrogates(&self, spec: &str) -> &[SparseVector] {
        self.entries.get(spec).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Iterate `(specialization, ranked surrogates)` pairs (arbitrary
    /// order) — the compilation input of
    /// [`CompiledSpecStore::compile`](crate::specindex::CompiledSpecStore::compile).
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[SparseVector])> {
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

    /// Measured memory footprint in bytes: the specialization texts and
    /// their surrogate vectors — what a deployment keeps resident. (§4.1's
    /// `N · |S_q̂| · |R_q̂′| · L` counts snippet *text*, which this store
    /// never materializes; the `footprint` binary measures that side.)
    pub fn byte_size(&self) -> usize {
        self.entries
            .iter()
            .map(|(spec, list)| {
                spec.len() + list.iter().map(SparseVector::byte_size).sum::<usize>()
            })
            .sum()
    }
}

/// Compute the snippet surrogate vector of one candidate document over
/// the compiled [`ForwardIndex`]: best-window selection on the
/// precompiled `TermId` stream and direct TF-IDF emission — no snippet
/// `String`, no re-tokenization, no re-stemming (a document unknown to
/// the forward index yields the zero vector). This is the request-path
/// definition of surrogate construction: the serving layer fills its
/// surrogate cache — one table of vectors per `(surrogate epoch, query
/// terms)` — through it. The text path is kept as
/// [`candidate_surrogate_naive`], the equivalence oracle
/// (`tests/surrogate_equivalence.rs` proves the two bit-identical).
pub fn candidate_surrogate(
    forward: &ForwardIndex,
    doc: DocId,
    qterms: &[serpdiv_text::TermId],
    snippets: &SnippetGenerator,
) -> SparseVector {
    forward.surrogate(doc, qterms, snippets.window)
}

/// The text-path oracle for [`candidate_surrogate`]: fetch the doc,
/// extract the query-biased snippet string, TF-IDF-vectorize it (a
/// missing doc yields the zero vector). It anchors the equivalence suite,
/// and the serving engine calls it per request when deployed without a
/// forward index (`EngineConfig::forward_index = false`).
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

/// The snippet surrogate vector of every candidate in `baseline` (the
/// per-request `Rq` surrogates of Definition 2) through the text-path
/// oracle ([`candidate_surrogate_naive`]) — for the equivalence suite.
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
/// min–max-normalize the baseline relevance. Rows go parallel past
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
        .map(|(spec, _)| store.surrogates(spec).to_vec())
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

    /// A model of `(query, [(specialization, P(q′|q))])` entries.
    fn model_of(entries: &[(&str, &[(&str, f64)])]) -> SpecializationModel {
        let mut model = SpecializationModel::default();
        for (query, specs) in entries {
            model.insert(SpecializationEntry {
                query: query.to_string(),
                specializations: specs.iter().map(|&(s, p)| (s.to_string(), p)).collect(),
            });
        }
        model
    }

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
        let model = model_of(&[("apple", &[("apple iphone", 0.6), ("apple fruit", 0.4)])]);
        (index, model)
    }

    #[test]
    fn chunked_store_builds_match_a_sequential_reference() {
        let (index, _) = setup();
        // Nine distinct specializations in first-occurrence order, one
        // repeated across entries and one that retrieves nothing.
        let model = model_of(&[
            (
                "apple",
                &[
                    ("apple iphone", 0.5),
                    ("apple fruit", 0.3),
                    ("apple juice", 0.2),
                ],
            ),
            ("phone", &[("iphone camera", 0.6), ("apple iphone", 0.4)]),
            ("fruit", &[("orchard harvest", 0.5), ("sweet recipe", 0.5)]),
            (
                "sky",
                &[("rain storm", 0.4), ("wind cloud", 0.4), ("zzyzx", 0.2)],
            ),
        ]);
        let forward = ForwardIndex::build(&index);
        let snippets = SnippetGenerator::with_window(20);

        // The sequential loop the chunked build replaced.
        let mut reference: HashMap<String, Vec<SparseVector>> = HashMap::new();
        for (spec, _) in model.iter().flat_map(|entry| &entry.specializations) {
            if reference.contains_key(spec) {
                continue;
            }
            let terms = index.query_terms(spec);
            let list = index
                .retrieve_terms(&terms, 5)
                .iter()
                .map(|h| candidate_surrogate(&forward, h.doc, &terms, &snippets))
                .collect();
            reference.insert(spec.clone(), list);
        }
        assert_eq!(reference.len(), 9);
        assert!(reference["zzyzx"].is_empty());

        let bits = |v: &SparseVector| {
            let entries: Vec<(u32, u32)> = v
                .entries()
                .iter()
                .map(|&(t, w)| (t.0, w.to_bits()))
                .collect();
            (entries, v.norm().to_bits())
        };
        for chunks in [1, 2, 3, 4, 7, 9, 20] {
            let store = SpecializationStore::build_chunked(&model, &index, &forward, 5, 20, chunks);
            assert_eq!(store.len(), reference.len(), "{chunks} chunks");
            for (spec, expected) in &reference {
                let built = store.surrogates(spec);
                assert_eq!(built.len(), expected.len(), "{chunks} chunks: {spec:?}");
                for (b, e) in built.iter().zip(expected) {
                    assert_eq!(bits(b), bits(e), "{chunks} chunks: {spec:?}");
                }
            }
        }
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
    }
}
