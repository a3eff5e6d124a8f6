//! Diversification framework — the paper's primary contribution.
//!
//! Implements the three algorithms compared in *Capannini et al., VLDB
//! 2011*, plus the classic MMR baseline, behind one [`Diversifier`] trait:
//!
//! * [`OptSelect`] — the paper's algorithm (Algorithm 2) solving the
//!   **MaxUtility Diversify(k)** problem in `O(n·|Sq| + k log k)`,
//! * [`IaSelect`] — the greedy `(1−1/e)`-approximation of Agrawal et al.'s
//!   **QL Diversify(k)** (Eq. 4), `O(n·k·|Sq|)`,
//! * [`XQuad`] — Santos et al.'s greedy **xQuAD Diversify(k)** (Eq. 5–6),
//!   `O(n·k·|Sq|)`,
//! * [`Mmr`] — Carbonell & Goldstein's Maximal Marginal Relevance (the
//!   pioneering diversifier the related-work section starts from).
//!
//! Shared substrate:
//!
//! * [`utility`] — the paper's **results' utility** (Definition 2) with
//!   memoized harmonic-number normalization and the threshold `c` of §5,
//! * [`specindex`] — the compiled specialization store: surrogate lists
//!   folded into per-specialization weight rows and inverted into a
//!   `TermId → [(spec, weight)]` index, so a request scores each candidate
//!   against all its specializations with one sparse accumulation,
//! * [`model`] — the mined [`SpecializationModel`] and its [`Miner`] seam,
//! * [`candidates`] — the [`DiversifyInput`] bundle (`P(q′|q)`, `P(d|q)`,
//!   the `Ũ(d|R_q′)` matrix, optional surrogate vectors),
//! * [`framework`] — what the five-stage pipeline is assembled from: the
//!   §4.1 precomputed store and its memory accounting, candidate
//!   surrogates, input assembly and algorithm dispatch, each with its
//!   naive oracle (the pipeline itself is `serpdiv_serve`'s stage chain).

#![forbid(unsafe_code)]

pub mod baseline;
pub mod candidates;
pub mod framework;
pub mod iaselect;
mod lazy;
pub mod mmr;
pub mod model;
pub mod optselect;
pub mod specindex;
pub mod utility;
pub mod xquad;

pub use baseline::BaselineRanking;
pub use candidates::DiversifyInput;
pub use framework::{
    assemble_input_from_surrogates, assemble_input_naive, assemble_input_with_scorer,
    candidate_surrogate, candidate_surrogate_naive, candidate_surrogates_naive, run_algorithm,
    AlgorithmKind, PipelineParams, SpecializationStore,
};
pub use iaselect::IaSelect;
pub use mmr::Mmr;
pub use model::{Miner, SpecializationEntry, SpecializationModel};
pub use optselect::OptSelect;
pub use specindex::{CompiledSpecStore, UtilityScorer};
pub use utility::{harmonic, UtilityMatrix, UtilityParams};
pub use xquad::XQuad;

/// A diversification algorithm: given the per-candidate relevance and
/// per-specialization utilities, choose and order `k` of the `n`
/// candidates.
///
/// All five [`AlgorithmKind`]s (including the [`BaselineRanking`] no-op)
/// implement this trait, and every dispatch site — [`run_algorithm`],
/// the serving select stage — goes through trait objects built by
/// [`AlgorithmKind::diversifier`].
///
/// # Example
///
/// ```
/// use serpdiv_core::{AlgorithmKind, Diversifier, DiversifyInput, PipelineParams, UtilityMatrix};
///
/// // Two candidates, two specializations: candidate 0 covers only spec 0,
/// // candidate 1 only spec 1 — a diversified top-2 must keep both.
/// let input = DiversifyInput::new(
///     vec![0.5, 0.5],
///     vec![1.0, 0.9],
///     UtilityMatrix::from_values(2, 2, vec![1.0, 0.0, 0.0, 1.0]),
/// );
/// let diversifier: Box<dyn Diversifier + Send + Sync> =
///     AlgorithmKind::OptSelect.diversifier(&PipelineParams::default());
/// let mut picks = diversifier.select(&input, 2);
/// picks.sort_unstable();
/// assert_eq!(picks, vec![0, 1]);
/// ```
pub trait Diversifier {
    /// Human-readable algorithm name (used by the bench tables).
    fn name(&self) -> &'static str;

    /// Select up to `k` candidate indices (into `input`'s candidate axis),
    /// in final ranking order. Must return `min(k, n)` distinct indices.
    fn select(&self, input: &DiversifyInput, k: usize) -> Vec<usize>;
}

#[cfg(test)]
mod opcount;
