//! The router side of the fleet: scatter to shard workers, gather exactly.
//!
//! [`FleetRouter`] holds one lazily-connected Unix-socket link per shard
//! worker. A query is written to every link in shard order and the
//! replies are then read in the same order, all on the caller's thread:
//! the workers are separate processes, so they score concurrently while
//! the router waits on the first reply, and a request needs no thread of
//! its own. Each worker returns its shard-local top-`k`, and the router
//! merges the per-shard lists with [`merge_top_k`] — the *same* k-way
//! `(score desc, doc asc)` merge the in-process
//! [`ShardedIndex`](serpdiv_index::ShardedIndex) uses, over the *same*
//! `f64` bits (they cross the wire as raw bits). A fully-answered gather
//! is therefore bit-identical to in-process serving.
//!
//! # Failure containment
//!
//! Each link owns an independent failure state, so one sick worker never
//! stalls the fleet:
//!
//! * **Deadlines** — every exchange carries read/write timeouts
//!   ([`FleetConfig::shard_timeout`], clamped to the request's remaining
//!   deadline budget when one is given), counted from that shard's own
//!   write, so a gather waits for its slowest shard and not the sum. A
//!   slow worker costs at most one deadline, after which its connection
//!   is condemned (a late reply would desync request ids) and the gather
//!   proceeds without it.
//! * **One fresh leg** — a primary that blows the hedge threshold or
//!   finds its cached connection broken (typically a worker restarted
//!   since the last query) is condemned and re-dispatched once on a
//!   *fresh* connection with a fresh request id for whatever is left of
//!   the deadline. Because workers are deterministic the re-dispatched
//!   page is bit-identical to the un-hedged one. The hedge threshold is 4×
//!   the link's observed (EWMA) exchange latency, never under 2 ms, and a
//!   link with no completed exchange does not hedge — so hedges fire on
//!   outliers, not medians, and a bounced worker costs exactly one
//!   degraded response.
//! * **Circuit breaker** — [`FleetConfig::breaker_threshold`]
//!   consecutive counted failures open the link's breaker for
//!   [`FleetConfig::breaker_cooldown`]: queries fail the shard instantly
//!   (zero syscalls) while open, and the first query after the cooldown
//!   sends a half-open [`Frame::Ping`] down the same fresh leg — success
//!   closes the breaker, failure re-opens it for another cooldown.
//! * **Partial gathers** — the merge runs over whichever shards
//!   answered; the result is reported as incomplete via
//!   [`Retrieval::partial`] so the serving layer can label the response
//!   degraded instead of presenting a partial ranking as the real one.
//! * **Reconnect with jittered backoff** — a failed link waits out an
//!   exponential backoff window (base doubling to a cap, with seeded
//!   full jitter so simultaneous failures don't re-connect in lockstep)
//!   before the next connect attempt; queries during the window fail the
//!   shard instantly rather than queueing behind connect syscalls.
//!
//! Timeouts caused by a *clamped* deadline budget (the request ran out of
//! time, not the shard) condemn the connection but are deliberately not
//! counted: they advance neither the failure counters, the backoff
//! window, nor the breaker — an overloaded request stream must not poison
//! the router's picture of shard health.

use crate::protocol::{read_frame, write_frame, Frame, WireError, DEFAULT_MAX_FRAME};
use serpdiv_chaos::SiteAction;
use serpdiv_index::{merge_top_k, InvertedIndex, Retrieval, Retriever, ScoredDoc};
use serpdiv_text::TermId;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Exchange-latency EWMA smoothing factor (weight of the newest sample).
const EWMA_ALPHA: f64 = 0.2;
/// An exchange hedges at this multiple of its link's EWMA latency…
const HEDGE_MULTIPLIER: f64 = 4.0;
/// …but never sooner than this, so microsecond-fast links don't hedge on
/// scheduler noise.
const HEDGE_FLOOR: Duration = Duration::from_millis(2);
/// Seed of the per-link backoff-jitter RNGs (each link derives its own
/// stream from this and its shard index, so retry schedules are
/// deterministic under test yet de-synchronized across links).
const JITTER_SEED: u64 = 0x5EA7_D1F7;

/// Tunables for the router's failure handling. The hedge threshold is
/// not one of them: it follows each link's observed latency (see the
/// [module docs](self)).
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Per-shard wire deadline for one exchange. A worker that does not
    /// answer within it is dropped from the gather. Clamped per request
    /// by the remaining deadline budget, when one is given.
    pub shard_timeout: Duration,
    /// First backoff window after a failed connect.
    pub backoff_base: Duration,
    /// Cap on the doubling backoff window.
    pub backoff_max: Duration,
    /// Consecutive counted failures that open a link's circuit breaker
    /// (`0` disables the breaker).
    pub breaker_threshold: u32,
    /// How long an open breaker fails the shard instantly before the
    /// half-open probe.
    pub breaker_cooldown: Duration,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            shard_timeout: Duration::from_millis(250),
            backoff_base: Duration::from_millis(10),
            backoff_max: Duration::from_secs(2),
            breaker_threshold: 5,
            breaker_cooldown: Duration::from_millis(250),
        }
    }
}

/// Mutable per-link state, guarded by the link's mutex.
struct LinkState {
    conn: Option<UnixStream>,
    /// Next backoff window to apply on connect failure.
    backoff: Duration,
    /// If set, no connect attempt before this instant.
    retry_at: Option<Instant>,
    /// Monotone per-link request id (fresh connections keep counting —
    /// ids must never repeat across a hedge).
    next_id: u64,
    ever_connected: bool,
    /// Backoff-jitter RNG state (xorshift64*).
    jitter: u64,
    /// EWMA of successful exchange latency, µs; `None` until the first
    /// completed exchange. Sets the hedge threshold.
    ewma_us: Option<f64>,
    /// Counted failures since the last success; trips the breaker.
    consecutive_failures: u32,
    /// While set and in the future, the breaker is open.
    open_until: Option<Instant>,
}

impl LinkState {
    /// Draw the link's next request id.
    fn take_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }
}

/// One router→worker link.
struct WorkerLink {
    path: PathBuf,
    state: Mutex<LinkState>,
}

impl WorkerLink {
    fn lock(&self) -> MutexGuard<'_, LinkState> {
        // A poisoned lock means a caller panicked mid-exchange (the
        // serving pool contains panics and keeps going); the connection
        // may be desynced, so condemn it and carry on — the router itself
        // must never panic.
        match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                let mut guard = poisoned.into_inner();
                guard.conn = None;
                guard
            }
        }
    }
}

/// How one leg of a shard exchange failed, which decides whether a fresh
/// leg is worth it.
enum ShardError {
    /// The worker did not answer within the deadline. A fresh leg only
    /// if the deadline was the hedge threshold: otherwise it would pay a
    /// second deadline for a worker known to be slow.
    Timeout,
    /// The transport broke or the peer spoke garbage. Typically a
    /// restarted worker behind a stale connection; a fresh connection
    /// usually answers.
    Broken,
}

/// What an exchange is for, which decides how much of the failure
/// machinery it engages.
#[derive(Clone, Copy)]
enum Mode {
    /// A served query, under the request's remaining deadline budget if
    /// it carries one: breaker-gated, hedged, and counted toward metrics,
    /// backoff and the breaker.
    Serve(Option<Duration>),
    /// Boot-time readiness pinging: no breaker, no hedging, no counting.
    Boot,
}

/// One shard's exchange between its send and receive steps. The link
/// stays locked in between, so no other request interleaves on it.
struct Pending<'a> {
    s: usize,
    state: MutexGuard<'a, LinkState>,
    /// The request as written: its id and kind are what the reply echoes.
    request: Frame,
    /// How the write went; a failed write is settled in the receive step.
    sent: Result<(), ShardError>,
    /// When the request was written; the exchange's deadlines count from
    /// here.
    written: Instant,
    /// The exchange's wire deadline.
    total: Duration,
    /// The primary's deadline; past it the exchange hedges. Equal to
    /// `total` ⇒ no hedging for this exchange.
    hedge_at: Duration,
    /// Whether `total` is the request's budget, not the shard timeout.
    clamped: bool,
}

/// Counters the router keeps about its fleet; see [`FleetRouter::metrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetMetricsSnapshot {
    /// Scatter-gather rounds served.
    pub requests: u64,
    /// Rounds in which at least one shard was missing from the gather.
    pub partial_gathers: u64,
    /// Individual shard exchanges that failed (timeouts included).
    pub shard_failures: u64,
    /// Shard exchanges that failed on the deadline specifically.
    pub shard_timeouts: u64,
    /// Successful connects after a link had already been connected once.
    pub reconnects: u64,
    /// Exchanges re-dispatched on a fresh connection after the primary
    /// blew the hedge threshold.
    pub hedges: u64,
    /// Closed→open (and half-open→open) breaker transitions.
    pub breaker_trips: u64,
    /// Exchanges failed instantly — zero syscalls — by an open breaker.
    pub breaker_fast_fails: u64,
}

/// A multi-process scatter-gather retriever: the in-process analyzer and
/// merge around a fleet of out-of-process shard scorers.
///
/// Implements [`Retriever`], so it drops into the serving engine exactly
/// where `ShardedIndex` does — including the budget-aware
/// [`retrieve_with_status_within`](Retriever::retrieve_with_status_within)
/// entry point, which clamps every shard's wire deadline to the
/// request's remaining budget.
pub struct FleetRouter {
    index: Arc<InvertedIndex>,
    links: Vec<WorkerLink>,
    config: FleetConfig,
    requests: AtomicU64,
    partial_gathers: AtomicU64,
    shard_failures: AtomicU64,
    shard_timeouts: AtomicU64,
    reconnects: AtomicU64,
    hedges: AtomicU64,
    breaker_trips: AtomicU64,
    breaker_fast_fails: AtomicU64,
}

impl FleetRouter {
    /// Build a router over `sockets` (one per shard, in shard order).
    ///
    /// `index` supplies query analysis only — postings stay in the
    /// workers. Connections are opened lazily on first use; call
    /// [`wait_ready`](Self::wait_ready) to block until the whole fleet
    /// answers pings.
    ///
    /// # Panics
    ///
    /// If `sockets` is empty.
    pub fn new(index: Arc<InvertedIndex>, sockets: Vec<PathBuf>, config: FleetConfig) -> Self {
        assert!(!sockets.is_empty(), "a fleet needs at least one worker");
        let links = sockets
            .into_iter()
            .enumerate()
            .map(|(s, path)| WorkerLink {
                path,
                state: Mutex::new(LinkState {
                    conn: None,
                    backoff: config.backoff_base,
                    retry_at: None,
                    next_id: 0,
                    ever_connected: false,
                    jitter: jitter_state(JITTER_SEED, s as u64),
                    ewma_us: None,
                    consecutive_failures: 0,
                    open_until: None,
                }),
            })
            .collect();
        FleetRouter {
            index,
            links,
            config,
            requests: AtomicU64::new(0),
            partial_gathers: AtomicU64::new(0),
            shard_failures: AtomicU64::new(0),
            shard_timeouts: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
            hedges: AtomicU64::new(0),
            breaker_trips: AtomicU64::new(0),
            breaker_fast_fails: AtomicU64::new(0),
        }
    }

    /// Number of shard workers behind this router.
    pub fn num_shards(&self) -> usize {
        self.links.len()
    }

    /// Current failure/recovery counters.
    pub fn metrics(&self) -> FleetMetricsSnapshot {
        FleetMetricsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            partial_gathers: self.partial_gathers.load(Ordering::Relaxed),
            shard_failures: self.shard_failures.load(Ordering::Relaxed),
            shard_timeouts: self.shard_timeouts.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            hedges: self.hedges.load(Ordering::Relaxed),
            breaker_trips: self.breaker_trips.load(Ordering::Relaxed),
            breaker_fast_fails: self.breaker_fast_fails.load(Ordering::Relaxed),
        }
    }

    /// Block until every worker answers a ping, or `timeout` elapses.
    ///
    /// Verifies the wiring while it waits: endpoint *s* must report shard
    /// id *s*, so a shuffled socket list fails loudly at boot instead of
    /// silently merging wrong ranges.
    pub fn wait_ready(&self, timeout: Duration) -> Result<(), String> {
        let deadline = Instant::now() + timeout;
        loop {
            // Boot-time probing ignores the steady-state backoff and
            // breaker windows — the whole point is to poll until up.
            for link in &self.links {
                let mut state = link.lock();
                state.retry_at = None;
                state.open_until = None;
            }
            let replies = self.exchange(|id| Frame::Ping { id }, Mode::Boot);
            // A miswired endpoint stays pending: the caller gets a clear
            // error below rather than a wrong merge later.
            let pending: Vec<usize> = (0..replies.len())
                .filter(|&s| {
                    !matches!(replies[s], Some(Frame::Pong { shard_id, .. }) if shard_id as usize == s)
                })
                .collect();
            if pending.is_empty() {
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err(format!(
                    "fleet not ready after {timeout:?}: shards {pending:?} unreachable or miswired"
                ));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Scatter pre-analyzed terms to the fleet and gather the union
    /// top-`k`, reporting whether every shard contributed.
    pub fn retrieve_terms_with_status(&self, terms: &[TermId], k: usize) -> Retrieval {
        self.retrieve_terms_within(terms, k, None)
    }

    /// [`retrieve_terms_with_status`](Self::retrieve_terms_with_status)
    /// under a deadline budget: each shard exchange's wire deadline is
    /// the configured [`FleetConfig::shard_timeout`] clamped to the
    /// request's remaining `budget_us`. A request whose budget is already
    /// spent fails every shard without a syscall — and without blaming
    /// the shards.
    pub fn retrieve_terms_within(
        &self,
        terms: &[TermId],
        k: usize,
        budget_us: Option<u64>,
    ) -> Retrieval {
        self.requests.fetch_add(1, Ordering::Relaxed);
        if terms.is_empty() || k == 0 {
            return Retrieval::complete(Vec::new());
        }
        let wire_k = u32::try_from(k).unwrap_or(u32::MAX);
        let replies = self.exchange(
            |id| Frame::Query {
                id,
                k: wire_k,
                terms: terms.to_vec(),
            },
            Mode::Serve(budget_us.map(Duration::from_micros)),
        );
        let per_shard: Vec<Vec<ScoredDoc>> = replies
            .into_iter()
            .filter_map(|reply| match reply {
                Some(Frame::Hits { hits, .. }) => Some(hits),
                _ => None,
            })
            .collect();
        let complete = per_shard.len() == self.links.len();
        if !complete {
            self.partial_gathers.fetch_add(1, Ordering::Relaxed);
        }
        // The gather: identical merge to in-process scatter-gather, over
        // whichever shards answered (all of them, in the healthy case).
        let hits = merge_top_k(per_shard, k);
        if complete {
            Retrieval::complete(hits)
        } else {
            Retrieval::partial(hits)
        }
    }

    /// One request/reply exchange with every shard, on the calling
    /// thread: the send steps write every shard's request in ascending
    /// shard order (also the lock order, so concurrent callers cannot
    /// deadlock), then the receive steps read the replies in the same
    /// order. Each shard's reply is `None` if it failed, is in backoff, or
    /// its breaker is open.
    fn exchange(&self, make: impl Fn(u64) -> Frame, mode: Mode) -> Vec<Option<Frame>> {
        let pending: Vec<Option<Pending<'_>>> = (0..self.links.len())
            .map(|s| self.send(s, &make, mode))
            .collect();
        pending
            .into_iter()
            .map(|p| p.and_then(|p| self.receive(p, &make, mode)))
            .collect()
    }

    /// The send step for shard `s`: enforce the breaker, clamp the wire
    /// deadline to the budget, connect or honour the backoff window, draw
    /// a fresh id and write — keeping the link locked for the receive
    /// step.
    fn send(&self, s: usize, make: &impl Fn(u64) -> Frame, mode: Mode) -> Option<Pending<'_>> {
        // Chaos hook (no-op unless a fault plan is armed): lose or delay
        // this dispatch before it touches the link.
        match serpdiv_chaos::failpoint("router.dispatch") {
            SiteAction::Drop => return None,
            SiteAction::Stall(d) => std::thread::sleep(d),
            SiteAction::None | SiteAction::Corrupt => {}
        }
        let link = &self.links[s];
        let mut state = link.lock();
        let budget = match mode {
            Mode::Serve(_) if self.breaker_blocks(s, &mut state) => return None,
            Mode::Serve(budget) => budget,
            Mode::Boot => None,
        };
        // The wire deadline of this exchange: the configured per-shard
        // timeout, clamped to whatever is left of the request's budget.
        let timeout = self.config.shard_timeout;
        let total = budget.map_or(timeout, |b| b.min(timeout));
        if total.is_zero() {
            // The budget is already spent: nothing the shard can do
            // helps, and blaming it would poison backoff/breaker state.
            return None;
        }
        if state.conn.is_none() {
            if state.retry_at.is_some_and(|at| Instant::now() < at) {
                return None; // in backoff: fail fast, no syscall
            }
            match UnixStream::connect(&link.path) {
                Ok(conn) => {
                    if state.ever_connected {
                        self.reconnects.fetch_add(1, Ordering::Relaxed);
                    }
                    state.ever_connected = true;
                    state.backoff = self.config.backoff_base;
                    state.retry_at = None;
                    state.conn = Some(conn);
                }
                Err(_) => {
                    self.note_failure(&mut state, false, matches!(mode, Mode::Serve(_)));
                    return None;
                }
            }
        }
        let hedge_at = match mode {
            Mode::Serve(_) => Self::hedge_threshold(&state, total),
            Mode::Boot => total,
        };
        let request = make(state.take_id());
        let written = Instant::now();
        let conn = state.conn.as_mut().expect("connected above");
        let sent = write_request(conn, &request, total);
        Some(Pending {
            s,
            state,
            request,
            sent,
            written,
            total,
            hedge_at,
            clamped: total < timeout,
        })
    }

    /// The receive step: read the reply until the hedge threshold, counted
    /// from this shard's own write. A primary that blows the threshold (a
    /// hedge) or broke is condemned and replaced by one fresh leg for what
    /// is left of the deadline.
    fn receive(
        &self,
        mut p: Pending<'_>,
        make: &impl Fn(u64) -> Frame,
        mode: Mode,
    ) -> Option<Frame> {
        let primary = p.sent.and_then(|()| {
            let conn = p.state.conn.as_mut().expect("written in the send step");
            read_reply(
                conn,
                &p.request,
                p.hedge_at.saturating_sub(p.written.elapsed()),
            )
        });
        let reply = match primary {
            Ok(reply) => Ok(reply),
            Err(kind) => {
                // Whatever happened, the connection can no longer be
                // trusted to be in sync — condemn it.
                p.state.conn = None;
                let hedge = matches!(kind, ShardError::Timeout) && p.hedge_at < p.total;
                if hedge || matches!(kind, ShardError::Broken) {
                    let remaining = p.total.saturating_sub(p.written.elapsed());
                    self.fresh_leg(p.s, &mut p.state, make, remaining, hedge)
                } else {
                    Err(kind)
                }
            }
        };
        match reply {
            Ok(reply) => {
                self.note_success(&mut p.state, p.written.elapsed());
                Some(reply)
            }
            Err(kind) => {
                // A timeout under a *clamped* deadline is not the shard's
                // fault — the request ran out of budget — and must not
                // poison the counters, the backoff window, or the breaker.
                let timeout = matches!(kind, ShardError::Timeout);
                if !(timeout && p.clamped) {
                    self.note_failure(&mut p.state, timeout, matches!(mode, Mode::Serve(_)));
                }
                None
            }
        }
    }

    /// One exchange with shard `s` on a fresh connection with a fresh
    /// request id, all within `remaining`; on success the connection
    /// becomes the link's cached one. It serves the hedge (counted in
    /// `hedges`), the resend through a broken connection and the breaker's
    /// half-open probe (both counted in `reconnects`).
    fn fresh_leg(
        &self,
        s: usize,
        state: &mut LinkState,
        make: &impl Fn(u64) -> Frame,
        remaining: Duration,
        hedge: bool,
    ) -> Result<Frame, ShardError> {
        if hedge {
            self.hedges.fetch_add(1, Ordering::Relaxed);
        }
        if remaining.is_zero() {
            return Err(ShardError::Timeout);
        }
        let started = Instant::now();
        let mut conn = UnixStream::connect(&self.links[s].path).map_err(|_| ShardError::Broken)?;
        if !hedge && state.ever_connected {
            self.reconnects.fetch_add(1, Ordering::Relaxed);
        }
        state.ever_connected = true;
        let request = make(state.take_id());
        write_request(&mut conn, &request, remaining)?;
        let reply = read_reply(
            &mut conn,
            &request,
            remaining.saturating_sub(started.elapsed()),
        )?;
        state.conn = Some(conn);
        Ok(reply)
    }

    /// Enforce the circuit breaker for shard `s`. Returns `true` when the
    /// exchange must fail fast (breaker open), `false` when it may
    /// proceed (breaker closed, or the half-open probe just succeeded).
    fn breaker_blocks(&self, s: usize, state: &mut LinkState) -> bool {
        let Some(until) = state.open_until else {
            return false;
        };
        if Instant::now() < until {
            // Open: fail instantly, zero syscalls.
            self.breaker_fast_fails.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        // Half-open: one ping on a fresh leg decides. The cached
        // connection (if any) predates the trip and cannot be trusted.
        state.conn = None;
        state.retry_at = None;
        let ping = |id| Frame::Ping { id };
        if self
            .fresh_leg(s, state, &ping, self.config.shard_timeout, false)
            .is_ok()
        {
            state.open_until = None;
            state.consecutive_failures = 0;
            false
        } else {
            // Still sick: re-open for another cooldown.
            state.open_until = Some(Instant::now() + self.config.breaker_cooldown);
            self.breaker_trips.fetch_add(1, Ordering::Relaxed);
            self.shard_failures.fetch_add(1, Ordering::Relaxed);
            true
        }
    }

    /// The wire deadline of the *primary* dispatch; past it, the exchange
    /// hedges: 4× the link's EWMA exchange latency, never sooner than
    /// 2 ms. Equal to `total` ⇒ no hedging for this exchange, which is
    /// the case on a cold link: it has no latency signal until its first
    /// successful exchange seeds the EWMA.
    fn hedge_threshold(state: &LinkState, total: Duration) -> Duration {
        state.ewma_us.map_or(total, |ewma| {
            Duration::from_secs_f64(ewma * HEDGE_MULTIPLIER / 1e6)
                .max(HEDGE_FLOOR)
                .min(total)
        })
    }

    /// A successful exchange: reset every failure signal and fold the
    /// observed latency into the link's EWMA (which sets the hedge
    /// threshold).
    fn note_success(&self, state: &mut LinkState, elapsed: Duration) {
        state.backoff = self.config.backoff_base;
        state.retry_at = None;
        state.consecutive_failures = 0;
        state.open_until = None;
        let sample = elapsed.as_secs_f64() * 1e6;
        state.ewma_us = Some(match state.ewma_us {
            Some(prev) => (1.0 - EWMA_ALPHA) * prev + EWMA_ALPHA * sample,
            None => sample,
        });
    }

    /// A failed connect or exchange: count it, advance the breaker, and
    /// schedule the next connect attempt with full-jitter exponential
    /// backoff (uniform in `[0, window]`, then the window doubles —
    /// de-synchronizing reconnect stampedes when many links fail at
    /// once).
    fn note_failure(&self, state: &mut LinkState, timeout: bool, count: bool) {
        if count {
            self.shard_failures.fetch_add(1, Ordering::Relaxed);
            if timeout {
                self.shard_timeouts.fetch_add(1, Ordering::Relaxed);
            }
            state.consecutive_failures = state.consecutive_failures.saturating_add(1);
            if self.config.breaker_threshold > 0
                && state.consecutive_failures >= self.config.breaker_threshold
            {
                state.open_until = Some(Instant::now() + self.config.breaker_cooldown);
                state.consecutive_failures = 0;
                self.breaker_trips.fetch_add(1, Ordering::Relaxed);
            }
        }
        let window = state.backoff;
        state.retry_at = Some(Instant::now() + full_jitter(&mut state.jitter, window));
        state.backoff = (state.backoff * 2).min(self.config.backoff_max);
    }
}

/// Write `request` under `timeout`. Deadlines vary exchange to exchange
/// (budget clamping, hedge thresholds, what a fresh leg has left), so the
/// socket timeouts are set per call rather than at connect.
fn write_request(
    conn: &mut UnixStream,
    request: &Frame,
    timeout: Duration,
) -> Result<(), ShardError> {
    let _ = conn.set_write_timeout(Some(timeout.max(MIN_TIMEOUT)));
    write_frame(conn, request).map_err(|e| classify(&e))
}

/// Read the reply to `request` under `timeout`, verifying the echoed id
/// and kind.
fn read_reply(
    conn: &mut UnixStream,
    request: &Frame,
    timeout: Duration,
) -> Result<Frame, ShardError> {
    let _ = conn.set_read_timeout(Some(timeout.max(MIN_TIMEOUT)));
    match read_frame(conn, DEFAULT_MAX_FRAME) {
        Ok(reply) => {
            let kind_ok = matches!(
                (request, &reply),
                (Frame::Query { .. }, Frame::Hits { .. })
                    | (Frame::Ping { .. }, Frame::Pong { .. })
            );
            if kind_ok && reply.id() == request.id() {
                Ok(reply)
            } else {
                // Stale or alien reply: ids desynced.
                Err(ShardError::Broken)
            }
        }
        Err(WireError::Io(e)) => Err(classify(&e)),
        Err(WireError::Frame(_)) => Err(ShardError::Broken),
    }
}

/// The shortest socket timeout set: a zero one would *disable* the
/// deadline entirely, and a deadline already past must still let a reply
/// that has arrived be read.
const MIN_TIMEOUT: Duration = Duration::from_micros(1);

fn classify(e: &std::io::Error) -> ShardError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => ShardError::Timeout,
        _ => ShardError::Broken,
    }
}

/// Seed one link's jitter RNG: splitmix64 over `(seed, shard)`, so the
/// links of one router draw independent schedules.
fn jitter_state(seed: u64, shard: u64) -> u64 {
    let mut z = seed
        .wrapping_add(shard.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) | 1
}

/// One full-jitter draw: uniform in `[0, window]`, advancing `state`
/// (xorshift64*).
fn full_jitter(state: &mut u64, window: Duration) -> Duration {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    let r = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
    let nanos = window.as_nanos().min(u128::from(u64::MAX)) as u64;
    if nanos == 0 {
        return Duration::ZERO;
    }
    Duration::from_nanos(r % (nanos + 1))
}

impl Retriever for FleetRouter {
    fn retrieve(&self, query: &str, k: usize) -> Vec<ScoredDoc> {
        self.retrieve_terms(&self.index.analyze_query(query), k)
    }

    fn retrieve_terms(&self, terms: &[TermId], k: usize) -> Vec<ScoredDoc> {
        self.retrieve_terms_with_status(terms, k).hits
    }

    fn retrieve_with_status_within(
        &self,
        query: &str,
        k: usize,
        budget_us: Option<u64>,
    ) -> Retrieval {
        self.retrieve_terms_within(&self.index.analyze_query(query), k, budget_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serpdiv_index::{Document, IndexBuilder};

    fn tiny_index() -> Arc<InvertedIndex> {
        let mut b = IndexBuilder::new();
        b.add(Document::new(0, "u0", "apple", "apple iphone"));
        Arc::new(b.build())
    }

    fn dead_socket(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "serpdiv-router-test-{}-{tag}.sock",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    /// Whether an unbudgeted "apple" gather heard from every shard.
    fn complete(router: &FleetRouter) -> bool {
        router
            .retrieve_with_status_within("apple", 5, None)
            .complete
    }

    #[test]
    fn all_workers_down_yields_empty_partial_not_panic() {
        let router = FleetRouter::new(
            tiny_index(),
            vec![dead_socket("down-a"), dead_socket("down-b")],
            FleetConfig::default(),
        );
        let r = router.retrieve_with_status_within("apple", 5, None);
        assert!(r.hits.is_empty());
        assert!(!r.complete);
        let m = router.metrics();
        assert_eq!(m.requests, 1);
        assert_eq!(m.partial_gathers, 1);
        assert_eq!(m.shard_failures, 2);
    }

    #[test]
    fn backoff_window_fails_fast_and_expires() {
        let config = FleetConfig {
            backoff_base: Duration::from_millis(40),
            ..FleetConfig::default()
        };
        let router = FleetRouter::new(tiny_index(), vec![dead_socket("backoff")], config);
        assert!(!complete(&router));
        assert_eq!(router.metrics().shard_failures, 1);
        {
            // The jittered retry window never exceeds the configured
            // base, and the next window has doubled.
            let state = router.links[0].lock();
            let at = state.retry_at.expect("a failure schedules a retry window");
            assert!(at <= Instant::now() + Duration::from_millis(40));
            assert_eq!(state.backoff, Duration::from_millis(80));
        }
        // Inside the window (pinned, so the test does not depend on the
        // jitter draw): the shard fails fast without a connect attempt,
        // and the failure counter does not move.
        router.links[0].lock().retry_at = Some(Instant::now() + Duration::from_millis(50));
        assert!(!complete(&router));
        assert_eq!(router.metrics().shard_failures, 1);
        // After the window a real (failing) connect is attempted again.
        std::thread::sleep(Duration::from_millis(60));
        assert!(!complete(&router));
        assert_eq!(router.metrics().shard_failures, 2);
    }

    #[test]
    fn full_jitter_is_seeded_deterministic_and_bounded() {
        let window = Duration::from_millis(100);
        let draw = |seed, shard| {
            let mut st = jitter_state(seed, shard);
            (0..32)
                .map(|_| full_jitter(&mut st, window))
                .collect::<Vec<_>>()
        };
        // Same seed, same shard: the exact same schedule.
        assert_eq!(draw(7, 0), draw(7, 0));
        // Every draw stays within the window.
        assert!(draw(7, 0).iter().all(|d| *d <= window));
        // Different seeds and different shards draw different schedules.
        assert_ne!(draw(7, 0), draw(8, 0));
        assert_ne!(draw(7, 0), draw(7, 1));
        // Degenerate window: zero jitter, no panic.
        let mut st = jitter_state(7, 0);
        assert_eq!(full_jitter(&mut st, Duration::ZERO), Duration::ZERO);
    }

    #[test]
    fn spent_budget_fails_shards_without_blame() {
        let router = FleetRouter::new(
            tiny_index(),
            vec![dead_socket("spent")],
            FleetConfig::default(),
        );
        let r = router.retrieve_terms_within(&router.index.analyze_query("apple"), 5, Some(0));
        assert!(!r.complete);
        assert!(r.hits.is_empty());
        // No connect attempt was made, so nothing was counted against
        // the shard.
        let m = router.metrics();
        assert_eq!(m.shard_failures, 0);
        assert_eq!(m.shard_timeouts, 0);
    }

    #[test]
    fn empty_query_is_complete_without_touching_workers() {
        let router = FleetRouter::new(
            tiny_index(),
            vec![dead_socket("idle")],
            FleetConfig::default(),
        );
        let r = router.retrieve_with_status_within("zzzzunknown", 5, None);
        assert!(r.complete);
        assert!(r.hits.is_empty());
        assert_eq!(router.metrics().shard_failures, 0);
    }

    #[test]
    fn wait_ready_times_out_with_named_shards() {
        let config = FleetConfig {
            shard_timeout: Duration::from_millis(50),
            ..FleetConfig::default()
        };
        let router = FleetRouter::new(tiny_index(), vec![dead_socket("notready")], config);
        let err = router
            .wait_ready(Duration::from_millis(80))
            .expect_err("no worker is listening");
        assert!(err.contains("[0]"), "error names the shard: {err}");
    }
}
