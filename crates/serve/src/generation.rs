//! Generations: epoch-published serving state for zero-downtime updates.
//!
//! Every structure the request pipeline reads — inverted index (with the
//! forward view it owns), retrieval layer, specialization model, compiled
//! spec store, presentation table — is immutable and `Arc`-shared. This module turns
//! that strength into *live updates*: the whole read set is bundled into
//! one immutable [`Generation`] tagged with a monotonically increasing
//! [`GenerationId`], and running engines see updates only as the atomic
//! publication of a new bundle through a [`GenerationHandle`].
//!
//! ## The torn-request problem, and the pin
//!
//! Swapping the index and the spec store *separately* under live traffic
//! would let one request retrieve against the new index and score against
//! the old spec store — a torn request, silently wrong. The handle makes
//! this impossible by construction: a request calls
//! [`GenerationHandle::pin`] **once**, gets an `Arc<Generation>`, and runs
//! its whole detect→retrieve→surrogate→utility→select pipeline against
//! that one bundle. A publish replaces the *pointer*, never the bundle;
//! in-flight requests keep their pinned generation alive through the
//! refcount and finish on exactly the state they started with.
//!
//! ## Epoch swap without an `ArcSwap` dependency
//!
//! The handle is a `std::sync::RwLock<Arc<Generation>>` used only as a
//! pointer cell: `pin` takes the lock in shared mode for one `Arc` clone
//! (not free: the benchmark's traced `cached_swap` runs report its cost
//! as `serve.generation.pin_ns_p50`), and publish takes it exclusively
//! for one pointer store. Publishing therefore waits only for
//! concurrent *pins* (pointer reads), never for in-flight *requests* —
//! they hold the `Arc`, not the lock. No request is ever dropped, stalled,
//! or torn by a swap.
//!
//! ## Validate-then-publish
//!
//! A candidate generation is checked **before** the pointer moves:
//! internal consistency ([`Generation::validate`] — the presentation
//! table must cover the document space, a delta must extend this exact
//! base) and id monotonicity (a stale or replayed id is
//! refused). Serialized artifacts go through the existing checked decoders
//! (`DecodeError`: bad magic, version mismatch, truncation, corruption) in
//! [`SearchEngine::publish_artifacts`](crate::SearchEngine::publish_artifacts).
//! Any failure leaves the old generation serving untouched and returns a
//! [`PublishError`] (counted as `swap_rejected`) — never a crash, never a
//! partial publish.
//!
//! Validation and the early monotonicity check run *outside* the pointer
//! lock, which is held only for the final id check and the store: a slow
//! publish never blocks a pin, so `tests/swap_soak.rs` races publishes
//! paced by its deployer against live traffic.
//!
//! ## Content stamps: what a cached entry was computed from
//!
//! The engine's two caches must never serve bytes another generation
//! would not compute, yet most publishes (every republish, and for
//! surrogates every ingest) change nothing a cached entry read. Keying
//! the caches on the [`GenerationId`] would orphan every entry on every
//! swap, so a bundle instead *says what it is made of*: two private
//! stamps drawn from one process-wide counter, each naming a set of
//! artifacts, and the caches key on the stamps (the id still tags every
//! response).
//!
//! * `pages_epoch` names everything a SERP is computed from: sealed
//!   index (its forward view included), retrieval layer, model, raw and
//!   compiled store, scorers, delta. The presentation table is not an independent
//!   input — it is interned from the index and the delta, and
//!   [`set_presentation`](Generation::set_presentation) only shares an
//!   already-interned copy of that same table. The result cache keys on
//!   `(pages_epoch, query, k, algorithm)`.
//! * `surrogates_epoch` names what a *sealed* document's snippet
//!   surrogate is computed from: the sealed index — its forward view
//!   (token streams, title entries, idf weights), or its vocabulary and
//!   document text on the text path.
//!   The surrogate cache keys on `(surrogates_epoch, query terms)`; delta
//!   documents never enter a table. Their vectors come from the delta's
//!   own forward rows ([`DeltaIndex::surrogate`]): it shares the sealed
//!   index's term-id space (its vocabulary is the sealed one, extended),
//!   so the compiled spec store reads them as the terms they are, but it
//!   weighs them with the union statistics and reads the query as
//!   analyzed against the extended vocabulary — already the vector the
//!   merged generation will compute, and a different function of the
//!   document than the one this stamp names.
//!
//! Soundness is local to this module, because a `Generation`'s artifact
//! fields are private and only four functions assign them:
//!
//! | constructor | assigns | `pages_epoch` | `surrogates_epoch` |
//! |---|---|---|---|
//! | [`Generation::new`] | every artifact | fresh | fresh |
//! | [`Generation::next`] | nothing (all `Arc`s shared) | inherited | inherited |
//! | [`Generation::with_delta`] | delta, retriever | fresh | inherited |
//! | [`Generation::with_sealed`] | index, retriever, delta | fresh | fresh |
//!
//! Equal stamps therefore imply `Arc`-identical artifacts in the named
//! set, and every artifact is immutable, so an entry found under a stamp
//! holds exactly the bytes a recompute against the probing generation
//! would produce — for any number of swaps in between, with no work at
//! publish or at probe time. A stamp is deliberately *not* the generation
//! id: two candidates built under one id may both leave descendants, and
//! the counter never repeats. The rule is conservative, never clever: a
//! bundle decoded from bytes or merged from a delta gets fresh stamps
//! even where some of its pages would come out bit-equal, and the first
//! request per key recomputes. Entries under a stamp no live generation
//! carries are never probed again, so they are the least recently used
//! and leave the LRUs first.

use crate::engine::{intern_presentation, PresentationTable};
use serpdiv_core::{CompiledSpecStore, SpecializationModel, SpecializationStore, UtilityScorer};
use serpdiv_index::{DecodeError, DeltaIndex, InvertedIndex, Retriever};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

/// Monotonically increasing tag of a published [`Generation`]. Engines
/// start at generation 1; every successful publish increases it.
pub type GenerationId = u64;

/// A content stamp no other artifact set in this process carries (see
/// the [module docs](self)). `Relaxed` suffices: only the uniqueness of
/// the returned values matters, and the read-modify-write gives that.
fn fresh_stamp() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// One immutable bundle of everything a request reads: the serving
/// state of one epoch.
///
/// A request pins exactly one `Generation` for its whole pipeline (see
/// the [module docs](self)), so the bundle's parts can never be observed
/// torn across a swap. All fields are `Arc`-shared: successive
/// generations that change only one artifact share the rest, and
/// republishing an identical bundle under a new id is refcount-cheap.
pub struct Generation {
    id: GenerationId,
    /// Names everything a SERP is computed from (result-cache key part).
    pages_epoch: u64,
    /// Names what a sealed document's surrogate is computed from
    /// (surrogate-cache key part).
    surrogates_epoch: u64,
    index: Arc<InvertedIndex>,
    /// The deployed retrieval layer over the sealed collection only
    /// (plain index, sharded scatter-gather, fleet router).
    sealed: Arc<dyn Retriever>,
    /// What requests actually retrieve through: `sealed` itself, or a
    /// [`DeltaRetriever`](serpdiv_index::DeltaRetriever) gathering the
    /// sealed collection and the delta side by side.
    retriever: Arc<dyn Retriever>,
    model: Arc<SpecializationModel>,
    store: Arc<SpecializationStore>,
    compiled: Arc<CompiledSpecStore>,
    /// Freshly ingested documents not yet merged into the sealed index.
    delta: Option<Arc<DeltaIndex>>,
    /// Interned `(url, title)` per document (sealed then delta), built
    /// lazily on first materialization or injected to share across
    /// engines.
    presentation: OnceLock<PresentationTable>,
    /// Deploy-time precompiled utility scorers, one per model entry,
    /// `Arc`-shared so republished generations reuse the map. Each holds
    /// only its own few hundred terms: the vocabulary-sized `TermId →
    /// slot` lookup is one table per serving thread, not one per entry
    /// (see [`serpdiv_core::specindex`]).
    scorers: Arc<HashMap<String, UtilityScorer>>,
}

impl Generation {
    /// Bundle a generation from its artifacts, precompiling the
    /// per-entry utility scorers (shared by every later generation that
    /// keeps the same model, see [`Generation::next`]). The index holds
    /// its forward view already, built or decoded.
    pub fn new(
        id: GenerationId,
        index: Arc<InvertedIndex>,
        retriever: Arc<dyn Retriever>,
        model: Arc<SpecializationModel>,
        store: Arc<SpecializationStore>,
        compiled: Arc<CompiledSpecStore>,
    ) -> Self {
        let scorers = Arc::new(
            model
                .iter()
                .map(|entry| {
                    (
                        entry.query.clone(),
                        compiled.scorer(entry.specializations.iter().map(|(s, _)| s.as_str())),
                    )
                })
                .collect::<HashMap<_, _>>(),
        );
        Generation {
            id,
            pages_epoch: fresh_stamp(),
            surrogates_epoch: fresh_stamp(),
            index,
            sealed: retriever.clone(),
            retriever,
            model,
            store,
            compiled,
            delta: None,
            presentation: OnceLock::new(),
            scorers,
        }
    }

    /// A successor bundle: identical artifacts (every `Arc` shared,
    /// scorers included) under the next id, hence both content stamps
    /// inherited — every cached page and surrogate table stays reachable.
    /// The building block of
    /// [`republish`](crate::SearchEngine::republish) and of successors
    /// that then swap in one changed artifact.
    pub fn next(&self) -> Generation {
        Generation {
            id: self.id + 1,
            pages_epoch: self.pages_epoch,
            surrogates_epoch: self.surrogates_epoch,
            index: self.index.clone(),
            sealed: self.sealed.clone(),
            retriever: self.retriever.clone(),
            model: self.model.clone(),
            store: self.store.clone(),
            compiled: self.compiled.clone(),
            delta: self.delta.clone(),
            presentation: clone_once(&self.presentation),
            scorers: self.scorers.clone(),
        }
    }

    /// Replace the sealed collection (builder-style, before
    /// publication): a merged, rebuilt or decoded index (which owns its
    /// forward view) with its retrieval layer,
    /// clearing any delta. The inherited presentation
    /// table is deliberately *kept* — folding a delta into its base
    /// preserves the document space and its order (sealed docs then
    /// delta docs), so the table still covers; [`validate`](Self::validate)
    /// re-checks coverage before publication either way. Both content
    /// stamps are drawn fresh: pages and sealed-document surrogates are
    /// computed from what this replaces.
    pub fn with_sealed(mut self, index: Arc<InvertedIndex>, retriever: Arc<dyn Retriever>) -> Self {
        self.index = index;
        self.sealed = retriever.clone();
        self.retriever = retriever;
        self.delta = None;
        self.pages_epoch = fresh_stamp();
        self.surrogates_epoch = fresh_stamp();
        self
    }

    /// Attach a delta and the retriever that gathers it alongside the
    /// sealed collection (builder-style, before publication). Pages get a
    /// fresh content stamp (the union statistics moved under every
    /// score); the surrogate stamp is inherited, because the sealed index
    /// and its forward view are untouched.
    pub fn with_delta(mut self, delta: Arc<DeltaIndex>, retriever: Arc<dyn Retriever>) -> Self {
        self.delta = Some(delta);
        self.retriever = retriever;
        self.pages_epoch = fresh_stamp();
        // The presentation table covers the document space, which the
        // delta just grew: drop any inherited table so it is rebuilt (or
        // re-injected) at the new size.
        self.presentation = OnceLock::new();
        self
    }

    /// This generation's id.
    pub fn id(&self) -> GenerationId {
        self.id
    }

    /// The content stamp of everything a SERP is computed from.
    pub(crate) fn pages_epoch(&self) -> u64 {
        self.pages_epoch
    }

    /// The content stamp of what a sealed document's surrogate is
    /// computed from.
    pub(crate) fn surrogates_epoch(&self) -> u64 {
        self.surrogates_epoch
    }

    /// The sealed inverted index.
    pub fn index(&self) -> &Arc<InvertedIndex> {
        &self.index
    }

    /// What requests retrieve through: the sealed layer, or sealed +
    /// delta.
    pub fn retriever(&self) -> &Arc<dyn Retriever> {
        &self.retriever
    }

    /// The sealed retrieval layer, without any delta (what a successor
    /// generation's delta wraps).
    pub fn sealed_retriever(&self) -> &Arc<dyn Retriever> {
        &self.sealed
    }

    /// The specialization model.
    pub fn model(&self) -> &Arc<SpecializationModel> {
        &self.model
    }

    /// The raw §4.1 store.
    pub fn store(&self) -> &Arc<SpecializationStore> {
        &self.store
    }

    /// The compiled inverted utility index.
    pub fn compiled(&self) -> &Arc<CompiledSpecStore> {
        &self.compiled
    }

    /// The delta of freshly ingested, not-yet-merged documents.
    pub fn delta(&self) -> Option<&Arc<DeltaIndex>> {
        self.delta.as_ref()
    }

    /// The deploy-time precompiled [`UtilityScorer`] for a model entry's
    /// query text (`None` for queries outside the model).
    pub fn scorer_for(&self, query: &str) -> Option<&UtilityScorer> {
        self.scorers.get(query)
    }

    /// Total documents this generation serves: sealed + delta.
    pub fn num_docs(&self) -> usize {
        self.index.stats().num_docs as usize + self.delta.as_ref().map_or(0, |d| d.len())
    }

    /// The interned `(url, title)` presentation table, covering the
    /// sealed collection followed by the delta documents. Built lazily on
    /// first use; inject a shared one with
    /// [`set_presentation`](Self::set_presentation).
    pub fn presentation(&self) -> &PresentationTable {
        self.presentation.get_or_init(|| {
            intern_presentation(&self.index, self.delta.as_ref().map_or(&[], |d| d.docs()))
        })
    }

    /// Inject a pre-interned presentation table (no-op if one is already
    /// set — `OnceLock` semantics).
    ///
    /// # Panics
    /// Panics when the table does not cover the generation's document
    /// space — a mismatched table would silently serve the wrong urls.
    pub fn set_presentation(&self, table: PresentationTable) {
        assert_eq!(
            table.len(),
            self.num_docs(),
            "presentation table must cover the document store"
        );
        let _ = self.presentation.set(table);
    }

    /// Internal-consistency check, run by
    /// [`GenerationHandle::publish`] before the pointer moves: every
    /// cross-artifact size relation a torn deploy could violate.
    pub fn validate(&self) -> Result<(), PublishError> {
        if let Some(delta) = &self.delta {
            if u64::from(delta.base_docs()) != self.index.stats().num_docs {
                return Err(PublishError::Inconsistent(
                    "delta was built against a different sealed base",
                ));
            }
        }
        if let Some(table) = self.presentation.get() {
            if table.len() != self.num_docs() {
                return Err(PublishError::Inconsistent(
                    "presentation table does not cover the document store",
                ));
            }
        }
        Ok(())
    }
}

impl std::fmt::Debug for Generation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Generation")
            .field("id", &self.id)
            .field("sealed_docs", &self.index.stats().num_docs)
            .field("delta_docs", &self.delta.as_ref().map_or(0, |d| d.len()))
            .finish()
    }
}

/// Copy a `OnceLock`'s settled value into a fresh cell (successor
/// generations share an already-interned presentation table instead of
/// re-interning it).
fn clone_once(cell: &OnceLock<PresentationTable>) -> OnceLock<PresentationTable> {
    let fresh = OnceLock::new();
    if let Some(v) = cell.get() {
        let _ = fresh.set(v.clone());
    }
    fresh
}

/// Why a candidate generation was refused publication. In every case the
/// previously published generation keeps serving, untouched.
#[derive(Debug)]
pub enum PublishError {
    /// A serialized artifact failed its checked decode (bad magic,
    /// version mismatch, truncation, corruption) — the artifact never
    /// became a `Generation` at all.
    Decode(DecodeError),
    /// The candidate's id does not advance the published id: a replayed
    /// or out-of-order deploy.
    Stale {
        /// The refused candidate's id.
        candidate: GenerationId,
        /// The id still serving.
        current: GenerationId,
    },
    /// The candidate's artifacts disagree with each other (sizes,
    /// coverage) — a torn deploy caught before it could serve.
    Inconsistent(&'static str),
}

impl std::fmt::Display for PublishError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PublishError::Decode(e) => write!(f, "artifact decode failed: {e}"),
            PublishError::Stale { candidate, current } => write!(
                f,
                "stale generation {candidate} refused: generation {current} is serving"
            ),
            PublishError::Inconsistent(what) => write!(f, "inconsistent generation: {what}"),
        }
    }
}

impl std::error::Error for PublishError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PublishError::Decode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DecodeError> for PublishError {
    fn from(e: DecodeError) -> Self {
        PublishError::Decode(e)
    }
}

/// The atomic epoch-swap cell (see the [module docs](self) for the
/// design): requests [`pin`](Self::pin) the current generation, deploys
/// [`publish`](Self::publish) a validated successor.
pub struct GenerationHandle {
    current: RwLock<Arc<Generation>>,
    /// Lock-free mirror of the published id, for paths that need the id
    /// without pinning (degraded replies, metrics snapshots).
    latest: AtomicU64,
}

impl GenerationHandle {
    /// A handle serving `initial`.
    pub fn new(initial: Arc<Generation>) -> Self {
        let id = initial.id();
        GenerationHandle {
            current: RwLock::new(initial),
            latest: AtomicU64::new(id),
        }
    }

    /// Pin the current generation: one shared-mode lock acquisition plus
    /// one `Arc` clone, whose cost the benchmark's traced `cached_swap`
    /// runs report as `serve.generation.pin_ns_p50`. The caller's whole
    /// request runs against the returned bundle, immune to concurrent
    /// publishes.
    pub fn pin(&self) -> Arc<Generation> {
        self.current
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// The currently published id (lock-free).
    pub fn current_id(&self) -> GenerationId {
        self.latest.load(Ordering::Acquire)
    }

    /// Validate-then-publish `candidate`. On success the next
    /// [`pin`](Self::pin) returns the new generation; in-flight requests
    /// finish on whatever they pinned. On any error the old generation
    /// keeps serving untouched. Only the final id check and the pointer
    /// store hold the exclusive lock.
    pub fn publish(&self, candidate: Arc<Generation>) -> Result<GenerationId, PublishError> {
        candidate.validate()?;
        // Cheap early monotonicity check (racy, re-checked under the
        // lock): refuse obviously stale deploys without taking it.
        let current = self.current_id();
        if candidate.id() <= current {
            return Err(PublishError::Stale {
                candidate: candidate.id(),
                current,
            });
        }
        let id = candidate.id();
        let mut slot = self.current.write().unwrap_or_else(PoisonError::into_inner);
        if id <= slot.id() {
            // A concurrent publisher won the race with a newer id.
            return Err(PublishError::Stale {
                candidate: id,
                current: slot.id(),
            });
        }
        *slot = candidate;
        self.latest.store(id, Ordering::Release);
        Ok(id)
    }
}

impl std::fmt::Debug for GenerationHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GenerationHandle")
            .field("current_id", &self.current_id())
            .finish()
    }
}

/// Serialized artifacts of a candidate generation — what a deploy
/// pipeline ships to a running engine. Decoded and validated by
/// [`SearchEngine::publish_artifacts`](crate::SearchEngine::publish_artifacts);
/// a corrupt or version-mismatched buffer is a counted rejection, never a
/// crash.
#[derive(Debug, Clone)]
pub struct GenerationArtifacts {
    /// The id the decoded generation will carry (must advance the
    /// published id).
    pub id: GenerationId,
    /// `InvertedIndex::to_bytes` image, the forward rows every served
    /// surrogate is read from included.
    pub index: Vec<u8>,
    /// `CompiledSpecStore::to_bytes` image.
    pub compiled: Vec<u8>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use serpdiv_index::{merge_sealed, DeltaRetriever, Document, IndexBuilder};

    fn doc(id: u32) -> Document {
        Document::new(id, format!("http://x/{id}"), "apple", "apple fruit orchard")
    }

    /// A bundle over a three-document corpus under `id`.
    fn bundle(id: GenerationId) -> Generation {
        let mut b = IndexBuilder::new();
        for i in 0..3 {
            b.add(doc(i));
        }
        let index = Arc::new(b.build());
        let store = Arc::new(SpecializationStore::default());
        let compiled = Arc::new(CompiledSpecStore::compile(&store));
        Generation::new(
            id,
            index.clone(),
            index,
            Arc::new(SpecializationModel::default()),
            store,
            compiled,
        )
    }

    fn stamps(g: &Generation) -> (u64, u64) {
        (g.pages_epoch(), g.surrogates_epoch())
    }

    #[test]
    fn stamps_change_exactly_where_the_named_artifacts_do() {
        let base = bundle(1);

        // `next` shares every artifact: both stamps inherited, id moves.
        let next = base.next();
        assert_eq!(next.id(), 2);
        assert_eq!(stamps(&next), stamps(&base));
        assert_eq!(
            stamps(&next.next()),
            stamps(&base),
            "for any number of hops"
        );

        // `with_delta` keeps the sealed artifacts: only the page stamp moves.
        let delta = Arc::new(DeltaIndex::build(base.index(), vec![doc(3)]));
        let retriever: Arc<dyn Retriever> = Arc::new(
            DeltaRetriever::new(base.sealed_retriever().clone(), delta.clone())
                .expect("the plain index scores under an overlay"),
        );
        let ingested = base.next().with_delta(delta.clone(), retriever);
        assert_ne!(ingested.pages_epoch(), base.pages_epoch());
        assert_eq!(ingested.surrogates_epoch(), base.surrogates_epoch());
        assert_eq!(stamps(&ingested.next()), stamps(&ingested));

        // `with_sealed` replaces them: neither stamp survives.
        let merged = Arc::new(merge_sealed(base.index(), &delta));
        let sealed = ingested.next().with_sealed(merged.clone(), merged);
        for earlier in [&base, &ingested] {
            assert_ne!(sealed.pages_epoch(), earlier.pages_epoch());
            assert_ne!(sealed.surrogates_epoch(), earlier.surrogates_epoch());
        }

        // `new` shares nothing with anyone, equal ids or not: a stamp is
        // not derived from the id.
        let (a, b) = (bundle(1), bundle(1));
        let mut seen = std::collections::HashSet::new();
        for g in [&base, &sealed, &a, &b] {
            assert!(seen.insert(g.pages_epoch()), "page stamp reused");
            assert!(seen.insert(g.surrogates_epoch()), "surrogate stamp reused");
        }
    }
}
