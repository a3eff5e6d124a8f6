//! Multi-process scatter-gather: a shard-worker fleet behind a framed
//! local-socket protocol.
//!
//! The in-process [`ShardedIndex`](serpdiv_index::ShardedIndex) proved
//! the scatter-gather math: partition documents into contiguous ranges,
//! score each range independently (DPH depends only on global collection
//! statistics, which every range carries), and k-way-merge per-range
//! top-`k` lists into the union top-`k`. This crate moves the *scoring*
//! across a process boundary while keeping every bit of that math:
//!
//! ```text
//!             ┌────────────────────────┐
//!  query ───▶ │ FleetRouter            │   analyze once, scatter terms
//!             │  (analyzer + gather)   │
//!             └───┬────────┬───────┬───┘
//!      unix socket│        │       │      length-prefixed frames,
//!        (framed) │        │       │      scores as raw f64 bits
//!             ┌───▼──┐ ┌───▼──┐ ┌──▼───┐
//!             │worker│ │worker│ │worker│  shard_worker processes, each
//!             │ s=0  │ │ s=1  │ │ s=2  │  booted from one ShardArtifact
//!             └──────┘ └──────┘ └──────┘
//! ```
//!
//! * [`protocol`] — the wire format: `[len][magic][version][request-id]
//!   [opcode][body]`, validate-on-decode, hard frame-size cap.
//! * [`worker`] — the single-shard scoring server; boots from a
//!   serialized [`ShardArtifact`](serpdiv_index::ShardArtifact) and
//!   scores with the same dense-accumulator path as in-process shards.
//! * [`router`] — [`FleetRouter`]: on the caller's thread, write every
//!   shard's query (encoded once, its id stamped per shard), then read
//!   the replies and gather exactly via
//!   [`merge_top_k`](serpdiv_index::merge_top_k); per-shard deadlines
//!   are `Instant`s counted from each shard's write (clamped to the
//!   request's remaining budget), and socket timeouts are only wake-up
//!   hints, tick-granular in the kernel, after which the deadline decides;
//!   one fresh-connection re-dispatch of a slow (past 4× the link's EWMA
//!   latency) or broken exchange, a per-link circuit breaker as the one
//!   failure policy (a failed link reconnects on its next query; after
//!   the cooldown that query is the probe), partial gathers on shard
//!   loss.
//!
//! Both ends read frames through a
//! [`FrameReader`](protocol::FrameReader) kept per connection, so a
//! healthy exchange costs each side one `write` and one `read`.
//!
//! Because workers return the exact `f64` bits their shard computed and
//! the router runs the exact in-process merge, a healthy fleet's pages
//! are **bit-identical** to single-process serving — the integration
//! suite asserts this against the `ShardedIndex` oracle for 1, 2, and 4
//! workers. A degraded fleet (worker killed, deadline blown) still
//! serves: the gather simply runs over the surviving shards and the
//! response is labeled degraded upstream.

#![forbid(unsafe_code)]

pub mod protocol;
pub mod router;
pub mod worker;

pub use protocol::{Frame, FrameError, WireError, DEFAULT_MAX_FRAME};
pub use router::{FleetConfig, FleetMetricsSnapshot, FleetRouter};
