//! The retrieval abstraction of the serving stack.
//!
//! Everything above the index layer (the diversification pipeline, the
//! serving engine, the benches) needs exactly one capability from it:
//! *top-`k` documents for a query*. [`Retriever`] names that capability so
//! callers can swap deployments — the plain [`InvertedIndex`], the
//! deploy-time partitioned [`ShardedIndex`](crate::sharded::ShardedIndex)
//! that scores shards in parallel and scatter-gathers the union top-`k`,
//! the NRT [`DeltaRetriever`](crate::delta::DeltaRetriever), or the
//! multi-process fleet router — without touching the call sites. All of
//! them score DPH through the one retrieval kernel
//! (`kernel::score_range`); the hash-map [`SearchEngine`] implements the
//! trait too, as the oracle they are compared with.
//!
//! An implementation writes two methods, its query analysis and its one
//! scoring entry point; every other method composes them (see the trait).
//!
//! # Example
//!
//! ```
//! use serpdiv_index::{Document, IndexBuilder, Retriever, ShardedIndex};
//! use std::sync::Arc;
//!
//! let mut builder = IndexBuilder::new();
//! builder.add(Document::new(0, "http://a", "apple iphone", "apple announces a new iphone"));
//! builder.add(Document::new(1, "http://b", "apple pie", "apple pie recipe with apples"));
//! let index = Arc::new(builder.build());
//!
//! // The plain index retrieves with DPH; a sharded deployment partitions
//! // the documents and merges per-shard top-k — same trait, same results.
//! let unsharded: &dyn Retriever = index.as_ref();
//! let sharded = ShardedIndex::build(index.clone(), 2);
//! assert_eq!(unsharded.retrieve("apple", 2), sharded.retrieve("apple", 2));
//! ```

use crate::index::{InvertedIndex, StatsOverlay};
use crate::kernel::{score_range, IndexRange};
use crate::search::{query_weights, ScoredDoc, SearchEngine};
use serpdiv_text::TermId;

/// The outcome of one retrieval together with its completeness status.
///
/// In-process retrievers always see the whole collection, so their
/// results are always [`complete`](Self::complete). A distributed
/// retriever (the fleet router) can lose a shard to a timeout or a dead
/// worker and still serve the gather over the shards that answered; it
/// reports `complete: false` so the serving layer can degrade the
/// response honestly instead of presenting a partial ranking as the real
/// one.
#[derive(Debug, Clone, PartialEq)]
pub struct Retrieval {
    /// The ranked hits (gathered over whichever shards answered).
    pub hits: Vec<ScoredDoc>,
    /// Whether every shard of the collection contributed.
    pub complete: bool,
}

impl Retrieval {
    /// A retrieval that saw the whole collection.
    pub fn complete(hits: Vec<ScoredDoc>) -> Self {
        Retrieval {
            hits,
            complete: true,
        }
    }

    /// A retrieval that lost at least one shard.
    pub fn partial(hits: Vec<ScoredDoc>) -> Self {
        Retrieval {
            hits,
            complete: false,
        }
    }
}

/// A top-`k` retrieval strategy over an indexed collection.
///
/// Implementations must be deterministic: equal queries return equal
/// rankings, with ties broken by ascending document id. `Send + Sync` is a
/// supertrait because retrievers are shared by reference across serving
/// worker threads.
///
/// **One entry point.** An implementation writes
/// [`query_terms`](Self::query_terms) and
/// [`retrieve_terms_within`](Self::retrieve_terms_within); `retrieve`,
/// `retrieve_terms` and `retrieve_with_status_within` are provided
/// compositions no product implementation overrides. **The analysis
/// contract:** `query_terms` returns ids in the space the retriever
/// scores in, in token order with duplicates kept. Over a sealed
/// [`InvertedIndex`] that is [`InvertedIndex::analyze_query`]; a
/// [`DeltaRetriever`](crate::delta::DeltaRetriever) analyzes against the
/// delta's vocabulary, which extends the sealed one, so the ids below the
/// sealed vocabulary's size are the sealed analysis.
pub trait Retriever: Send + Sync {
    /// Analyze raw query text into this retriever's term ids.
    fn query_terms(&self, query: &str) -> Vec<TermId>;

    /// Top-`k` documents for pre-analyzed query terms, with a
    /// completeness flag, bounded by the caller's remaining per-request
    /// budget in microseconds (`None` ⇒ unbounded). An in-process strategy
    /// ignores the budget (an in-flight retrieval is cheaper to finish
    /// than to abandon) and reports complete; a distributed one surfaces
    /// partial gathers (see [`Retrieval`]) and clamps its per-shard wire
    /// deadlines to `min(configured, remaining)` (see `FleetRouter` in the
    /// fleet crate).
    fn retrieve_terms_within(
        &self,
        terms: &[TermId],
        k: usize,
        budget_us: Option<u64>,
    ) -> Retrieval;

    /// Top-`k` documents for pre-analyzed query terms, unbounded.
    fn retrieve_terms(&self, terms: &[TermId], k: usize) -> Vec<ScoredDoc> {
        self.retrieve_terms_within(terms, k, None).hits
    }

    /// Top-`k` documents for a raw query string (analysis included).
    fn retrieve(&self, query: &str, k: usize) -> Vec<ScoredDoc> {
        self.retrieve_terms(&self.query_terms(query), k)
    }

    /// [`retrieve_terms_within`](Self::retrieve_terms_within) for raw text.
    fn retrieve_with_status_within(
        &self,
        query: &str,
        k: usize,
        budget_us: Option<u64>,
    ) -> Retrieval {
        self.retrieve_terms_within(&self.query_terms(query), k, budget_us)
    }

    /// Like [`retrieve_terms`](Self::retrieve_terms), but scored against
    /// the statistics in `overlay` instead of the retriever's own — the
    /// sealed half of the NRT union-statistics contract (see
    /// [`DeltaRetriever`](crate::delta::DeltaRetriever)) — and bounded by
    /// `budget_us` like
    /// [`retrieve_terms_within`](Self::retrieve_terms_within).
    ///
    /// `None` means this strategy **cannot** score under foreign
    /// statistics, and is the default: a retriever that quietly fell back
    /// to its own would serve sealed documents under sealed statistics
    /// beside delta documents under union ones. Whether the answer is
    /// `Some` must not depend on the arguments —
    /// [`DeltaRetriever::new`](crate::delta::DeltaRetriever::new) asks once,
    /// with an empty query, and refuses a retriever that says `None`. The
    /// in-process retrievers ([`InvertedIndex`],
    /// [`ShardedIndex`](crate::sharded::ShardedIndex)) honour the overlay,
    /// which is what makes a pre-merge `DeltaRetriever` page
    /// `f64`-bit-identical to a from-scratch union build.
    fn retrieve_terms_overlaid(
        &self,
        terms: &[TermId],
        k: usize,
        overlay: &StatsOverlay,
        budget_us: Option<u64>,
    ) -> Option<Retrieval> {
        let _ = (terms, k, overlay, budget_us);
        None
    }
}

impl InvertedIndex {
    /// Top-`k` documents for pre-analyzed query terms: the whole
    /// collection as one range of the retrieval kernel under DPH,
    /// optionally scored against `overlay`'s statistics. The result equals
    /// [`SearchEngine`]'s, `f64` bit for bit.
    fn retrieve_dph(
        &self,
        terms: &[TermId],
        k: usize,
        overlay: Option<&StatsOverlay>,
    ) -> Vec<ScoredDoc> {
        let whole = IndexRange::whole(self, overlay);
        score_range(&whole, &query_weights(terms), &self.dph, k)
    }
}

/// The default retriever: DPH over the whole collection (one logical
/// shard).
impl Retriever for InvertedIndex {
    fn query_terms(&self, query: &str) -> Vec<TermId> {
        self.analyze_query(query)
    }

    fn retrieve_terms_within(
        &self,
        terms: &[TermId],
        k: usize,
        _budget_us: Option<u64>,
    ) -> Retrieval {
        Retrieval::complete(self.retrieve_dph(terms, k, None))
    }

    fn retrieve_terms_overlaid(
        &self,
        terms: &[TermId],
        k: usize,
        overlay: &StatsOverlay,
        _budget_us: Option<u64>,
    ) -> Option<Retrieval> {
        let hits = self.retrieve_dph(terms, k, Some(overlay));
        Some(Retrieval::complete(hits))
    }
}

impl Retriever for SearchEngine<'_> {
    fn query_terms(&self, query: &str) -> Vec<TermId> {
        self.index().analyze_query(query)
    }

    fn retrieve_terms_within(
        &self,
        terms: &[TermId],
        k: usize,
        _budget_us: Option<u64>,
    ) -> Retrieval {
        Retrieval::complete(self.search_terms(terms, k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IndexBuilder;
    use crate::document::Document;

    fn index() -> InvertedIndex {
        let mut b = IndexBuilder::new();
        b.add(Document::new(0, "u0", "apple iphone", "apple iphone chip"));
        b.add(Document::new(1, "u1", "apple fruit", "apple fruit sweet"));
        b.add(Document::new(2, "u2", "pie", "apple pie cinnamon"));
        b.build()
    }

    #[test]
    fn index_and_engine_retrievers_agree() {
        let idx = index();
        let engine = SearchEngine::new(&idx);
        let a = Retriever::retrieve(&idx, "apple", 3);
        let b = Retriever::retrieve(&engine, "apple", 3);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn trait_object_usable() {
        let idx = index();
        let dyn_ret: &dyn Retriever = &idx;
        assert_eq!(dyn_ret.retrieve("apple", 10).len(), 3);
        assert!(dyn_ret.retrieve("zeppelin", 10).is_empty());
    }
}
