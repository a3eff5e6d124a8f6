//! Request/response types of the serving API.

use crate::stages::StageKind;
use serpdiv_core::AlgorithmKind;
use serpdiv_index::DocId;
use std::sync::Arc;

/// Response label of a request refused by worker-pool admission control
/// ([`Degradation::Shed`](crate::Degradation::Shed)).
pub const LABEL_SHED: &str = "shed (overload)";

/// Response label of a request whose serving worker contained a panic
/// ([`Degradation::Internal`](crate::Degradation::Internal)).
pub const LABEL_INTERNAL: &str = "error (internal)";

/// One search request.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QueryRequest {
    /// The raw user query.
    pub query: String,
    /// Size of the returned SERP (`k = |S|`).
    pub k: usize,
    /// Which diversifier re-ranks the page (per request, so one deployment
    /// can serve A/B traffic across algorithms).
    pub algorithm: AlgorithmKind,
}

impl QueryRequest {
    /// Request `k` results for `query` diversified with `algorithm`.
    pub fn new(query: impl Into<String>, k: usize, algorithm: AlgorithmKind) -> Self {
        QueryRequest {
            query: query.into(),
            k,
            algorithm,
        }
    }

    /// The owned result-cache key of this request under the page `epoch`
    /// of the generation that computed it (allocates — built only when a
    /// freshly computed SERP is inserted; lookups probe with borrowed
    /// parts instead, see
    /// [`ShardedResultCache::get`](crate::cache::ShardedResultCache::get)).
    pub(crate) fn cache_key(&self, epoch: u64) -> (u64, String, usize, AlgorithmKind) {
        (epoch, self.query.clone(), self.k, self.algorithm)
    }
}

/// Wall-clock microseconds spent in each stage of the request lifecycle.
///
/// `total_us` is measured independently of the stage fields (it includes
/// cache probing and response assembly), so it can slightly exceed their
/// sum; a cache hit reports only `total_us`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Ambiguity detection: the specialization-model lookup.
    pub detect_us: u64,
    /// Baseline retrieval (DPH top-`n` over the inverted index).
    pub retrieve_us: u64,
    /// Candidate snippet-surrogate construction (or surrogate-cache hits).
    pub surrogate_us: u64,
    /// Utility computation: the `Ũ(d|R_q′)` matrix against the compiled
    /// specialization index.
    pub utility_us: u64,
    /// Diversifier selection.
    pub select_us: u64,
    /// Time spent queued in the worker pool before a worker picked the
    /// request up (zero when the engine is called directly).
    pub queue_wait_us: u64,
    /// End-to-end service time.
    pub total_us: u64,
}

impl StageTimings {
    /// Charge `us` microseconds to the bucket of `kind` (the stage-driver
    /// accounting hook; buckets accumulate). Saturating: an accounting
    /// overflow must never panic a serving worker.
    pub fn add(&mut self, kind: StageKind, us: u64) {
        let bucket = match kind {
            StageKind::Detect => &mut self.detect_us,
            StageKind::Retrieve => &mut self.retrieve_us,
            StageKind::Surrogate => &mut self.surrogate_us,
            StageKind::Utility => &mut self.utility_us,
            StageKind::Select => &mut self.select_us,
        };
        *bucket = bucket.saturating_add(us);
    }
}

/// One ranked result of a served SERP.
///
/// `url` and `title` are `Arc<str>` handles into the engine's interned
/// presentation table: materializing a page is `k` refcount bumps, not
/// `2k` string copies per request.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedResult {
    /// The document.
    pub doc: DocId,
    /// Its baseline retrieval score (diversifiers permute, they do not
    /// re-score).
    pub score: f64,
    /// Document URL (shared with the engine's presentation table).
    pub url: Arc<str>,
    /// Document title (shared with the engine's presentation table).
    pub title: Arc<str>,
}

/// The served SERP with provenance and accounting.
#[derive(Debug, Clone)]
pub struct SearchResponse {
    /// Echo of the request query.
    pub query: String,
    /// Name of the algorithm that produced the ranking (e.g. `"OptSelect"`,
    /// or `"DPH (passthrough)"` when the query was not ambiguous).
    pub algorithm: &'static str,
    /// Whether diversification ran (false ⇒ baseline passthrough).
    pub diversified: bool,
    /// Whether the SERP came from the result cache.
    pub cache_hit: bool,
    /// Whether the page fell back to the baseline ranking: the request's
    /// budget was found exhausted at a stage edge or on entry to the
    /// retrieve or select stage, or retrieval lost a shard (never true on
    /// cache hits; degraded pages are not cached). Pool-made shed and
    /// internal-error replies are degraded too.
    pub degraded: bool,
    /// The ranked page, best first, `min(k, n)` entries. Shared with the
    /// result cache: a cache hit bumps a refcount instead of copying the
    /// page.
    pub results: Arc<Vec<RankedResult>>,
    /// The [`GenerationId`](crate::GenerationId) of the serving state this
    /// page was computed against. The whole pipeline ran pinned to this
    /// one generation — under a concurrent hot swap, the page is
    /// bit-identical to what that generation alone would have served.
    pub generation: u64,
    /// Per-stage latency accounting for this request.
    pub timings: StageTimings,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_construction_and_key() {
        let r = QueryRequest::new("apple", 10, AlgorithmKind::OptSelect);
        assert_eq!(r.query, "apple");
        assert_eq!(r.k, 10);
        let (g, q, k, a) = r.cache_key(7);
        assert_eq!(
            (g, q.as_str(), k, a),
            (7, "apple", 10, AlgorithmKind::OptSelect)
        );
    }

    #[test]
    fn distinct_algorithms_key_differently() {
        let a = QueryRequest::new("q", 5, AlgorithmKind::OptSelect).cache_key(1);
        let b = QueryRequest::new("q", 5, AlgorithmKind::Mmr).cache_key(1);
        assert_ne!(a, b);
    }

    #[test]
    fn distinct_epochs_key_differently() {
        let a = QueryRequest::new("q", 5, AlgorithmKind::OptSelect).cache_key(1);
        let b = QueryRequest::new("q", 5, AlgorithmKind::OptSelect).cache_key(2);
        assert_ne!(a, b);
    }
}
