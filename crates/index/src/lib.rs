//! IR-engine substrate for the `serpdiv` workspace.
//!
//! The paper indexes ClueWeb-B with "an ad-hoc modified version of the
//! Terrier IR platform" (§5): Porter stemming + stopword removal (provided by
//! [`serpdiv_text`]), the parameter-free **DPH Divergence-From-Randomness**
//! weighting model for retrieval, and short document summaries (snippets)
//! used as document surrogates by the diversification utility function.
//!
//! This crate rebuilds that stack from scratch:
//!
//! * [`document`] — documents, dense [`DocId`]s and the document store,
//! * [`postings`] — delta+varint compressed postings lists,
//! * [`reader`] — the one binary codec: [`ByteReader`], the bounds-checked
//!   cursor under every decoder, and [`ByteWriter`], its dual under every
//!   encoder (index, shard and spec-store images and fleet frames),
//! * [`builder`] — the index builder: the one loop that interns, counts
//!   and encodes a document, started from nothing or from a sealed index,
//! * [`index`] — the immutable inverted index and collection statistics,
//! * [`dph`] — the DPH ranking model, and [`DphTable`], its exact
//!   `(tf, dl)` factors precomputed under one collection's statistics,
//! * `kernel` (crate-private) — the retrieval kernel: the one scoring
//!   loop every production retriever runs (monomorphised model, dense
//!   thread-local accumulators, rank-key top-`k` selection),
//! * [`search`] — [`SearchEngine`], the simple hash-map engine kept as
//!   the reference oracle the kernel is held to bit for bit,
//! * [`retriever`] — the [`Retriever`] trait every deployment (plain
//!   index, sharded scatter-gather, NRT delta, fleet router) implements,
//! * [`sharded`] — [`ShardedIndex`]: deploy-time document partitioning
//!   with parallel per-shard scoring and a bit-identical k-way merge,
//! * [`artifact`] — [`ShardArtifact`]: one shard serialized into a
//!   standalone scorer (postings slice + the global statistics), the boot
//!   image of an out-of-process fleet worker,
//! * [`executor`] — [`ScoringExecutor`]: the shared persistent pool of
//!   pinned-scratch workers the scatter step submits latched per-query
//!   task batches to (no per-query thread spawn),
//! * [`snippet`] — query-biased snippet extraction (document surrogates),
//! * [`forward`] — [`ForwardIndex`]: the deploy-time compiled forward
//!   index (per-document `TermId` streams + cached IDF) that emits
//!   snippet surrogates with zero string work on the request path,
//! * [`vector`] — sparse TF-IDF vectors and the cosine similarity that
//!   powers the paper's distance `δ(d₁,d₂) = 1 − cosine(d₁,d₂)` (Eq. 2),
//! * [`delta`] — [`DeltaIndex`] + [`DeltaRetriever`]: near-real-time
//!   ingest searched alongside the sealed collection in the sealed
//!   collection's own term- and doc-id space, and [`merge_sealed`], the
//!   background fold that appends the delta's postings to the sealed ones
//!   into an index bit-identical to a from-scratch build.
//!
//! # Example
//!
//! ```
//! use serpdiv_index::{Document, IndexBuilder, SearchEngine};
//!
//! let mut builder = IndexBuilder::new();
//! builder.add(Document::new(0, "http://a", "apple iphone", "apple announces new iphone model"));
//! builder.add(Document::new(1, "http://b", "apple pie", "apple pie recipe with fresh apples"));
//! let index = builder.build();
//! let engine = SearchEngine::new(&index);
//! let hits = engine.search("apple iphone", 10);
//! assert_eq!(hits[0].doc.0, 0);
//! ```

#![deny(unsafe_code)]

pub mod artifact;
pub mod builder;
pub mod delta;
pub mod document;
pub mod dph;
// The one module of the product that holds `unsafe` code.
#[allow(unsafe_code)]
pub mod executor;
pub mod forward;
pub mod index;
mod kernel;
pub mod postings;
pub mod reader;
pub mod retriever;
pub mod search;
pub mod serialize;
pub mod sharded;
pub mod snippet;
pub mod vector;

pub use artifact::ShardArtifact;
pub use builder::IndexBuilder;
pub use delta::{merge_sealed, DeltaIndex, DeltaRetriever};
pub use document::{DocId, Document, DocumentStore};
pub use dph::{Dph, DphTable};
pub use executor::{ScoringExecutor, TaskPanic};
pub use forward::ForwardIndex;
pub use index::{CollectionStats, InvertedIndex, StatsOverlay, TermStats};
pub use reader::{ByteReader, ByteWriter, Truncated};
pub use retriever::{Retrieval, Retriever};
pub use search::{query_weights, RankingModel, ScoredDoc, SearchEngine};
pub use serialize::DecodeError;
pub use sharded::{merge_top_k, ShardedIndex};
pub use snippet::SnippetGenerator;
pub use vector::{cosine, cosine64, SparseVector};
