//! The router side of the fleet: scatter to shard workers, gather exactly.
//!
//! [`FleetRouter`] holds one lazily-connected Unix-socket link per shard
//! worker. A query is scattered to every link in parallel, each worker
//! returns its shard-local top-`k`, and the router merges the per-shard
//! lists with [`merge_top_k`] — the *same* k-way `(score desc, doc asc)`
//! merge the in-process [`ShardedIndex`](serpdiv_index::ShardedIndex)
//! uses, over the *same* `f64` bits (they cross the wire as raw bits). A
//! fully-answered gather is therefore bit-identical to in-process
//! serving.
//!
//! # Failure containment
//!
//! Each link owns an independent failure state, so one sick worker never
//! stalls the fleet:
//!
//! * **Deadlines** — every exchange carries read/write timeouts
//!   ([`FleetConfig::shard_timeout`], clamped to the request's remaining
//!   deadline budget when one is given); a slow worker costs at most one
//!   deadline, after which its connection is condemned (a late reply
//!   would desync request ids) and the gather proceeds without it.
//! * **Hedging** — a query whose primary dispatch blows the hedge
//!   threshold ([`FleetConfig::hedge`]) is re-dispatched once on a
//!   *fresh* connection with a fresh request id for the remaining
//!   deadline; the first valid reply wins, and because workers are
//!   deterministic the hedged page is bit-identical to the un-hedged
//!   one. The threshold defaults to a multiple of the link's observed
//!   (EWMA) exchange latency, so hedges fire on outliers, not medians.
//! * **Circuit breaker** — [`FleetConfig::breaker_threshold`]
//!   consecutive counted failures open the link's breaker for
//!   [`FleetConfig::breaker_cooldown`]: queries fail the shard instantly
//!   (zero syscalls) while open, and the first query after the cooldown
//!   runs a half-open [`Frame::Ping`] probe — success closes the
//!   breaker, failure re-opens it for another cooldown.
//! * **Partial gathers** — the merge runs over whichever shards
//!   answered; the result is reported as incomplete via
//!   [`Retrieval::partial`] so the serving layer can label the response
//!   degraded instead of presenting a partial ranking as the real one.
//! * **Reconnect with jittered backoff** — a failed link waits out an
//!   exponential backoff window (base doubling to a cap, with seeded
//!   full jitter so simultaneous failures don't re-connect in lockstep)
//!   before the next connect attempt; queries during the window fail the
//!   shard instantly rather than queueing behind connect syscalls. A
//!   broken *cached* connection (worker restarted since the last query)
//!   gets one immediate reconnect-and-resend before counting as a
//!   failure, so a bounced worker costs exactly one degraded response.
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

/// When to re-dispatch a shard exchange on a fresh connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HedgePolicy {
    /// Never hedge; the primary dispatch gets the full deadline.
    Off,
    /// Hedge after a fixed delay (clamped to the exchange deadline).
    After(Duration),
    /// Hedge after `multiplier ×` the link's EWMA exchange latency, never
    /// sooner than `floor`. A link with no completed exchange yet has no
    /// latency signal and does not hedge.
    Auto {
        /// Multiple of the EWMA latency to wait before hedging.
        multiplier: u32,
        /// Lower bound on the hedge delay, so microsecond-fast links
        /// don't hedge on scheduler noise.
        floor: Duration,
    },
}

impl Default for HedgePolicy {
    /// Hedge at 4× the observed latency, no sooner than 2 ms.
    fn default() -> Self {
        HedgePolicy::Auto {
            multiplier: 4,
            floor: Duration::from_millis(2),
        }
    }
}

/// Tunables for the router's failure handling.
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
    /// Frame-size cap handed to [`read_frame`].
    pub max_frame: u32,
    /// When to re-dispatch a slow exchange on a fresh connection.
    pub hedge: HedgePolicy,
    /// Consecutive counted failures that open a link's circuit breaker
    /// (`0` disables the breaker).
    pub breaker_threshold: u32,
    /// How long an open breaker fails the shard instantly before the
    /// half-open probe.
    pub breaker_cooldown: Duration,
    /// Seed of the per-link backoff-jitter RNG (each link derives its own
    /// stream from this and its shard index, so retry schedules are
    /// deterministic under test yet de-synchronized across links).
    pub jitter_seed: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            shard_timeout: Duration::from_millis(250),
            backoff_base: Duration::from_millis(10),
            backoff_max: Duration::from_secs(2),
            max_frame: DEFAULT_MAX_FRAME,
            hedge: HedgePolicy::default(),
            breaker_threshold: 5,
            breaker_cooldown: Duration::from_millis(250),
            jitter_seed: 0x5EA7_D1F7,
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
    /// completed exchange. Drives [`HedgePolicy::Auto`].
    ewma_us: Option<f64>,
    /// Counted failures since the last success; trips the breaker.
    consecutive_failures: u32,
    /// While set and in the future, the breaker is open.
    open_until: Option<Instant>,
}

/// One router→worker link.
struct WorkerLink {
    path: PathBuf,
    state: Mutex<LinkState>,
}

impl WorkerLink {
    fn lock(&self) -> MutexGuard<'_, LinkState> {
        // A poisoned lock means a scatter thread panicked mid-exchange;
        // the connection may be desynced, so condemn it and carry on —
        // the router itself must never panic.
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

/// How one shard exchange failed, which decides whether an immediate
/// retry is worth it.
enum ShardError {
    /// The worker did not answer within the deadline. Retrying would pay
    /// a second full deadline for a worker known to be slow — don't.
    Timeout,
    /// The transport broke or the peer spoke garbage. Typically a
    /// restarted worker behind a stale connection; an immediate
    /// reconnect usually succeeds.
    Broken,
}

/// Per-exchange behavior switches; see [`FleetRouter::exchange_inner`].
#[derive(Clone, Copy)]
struct ExchangeOpts {
    /// Whether failures count toward metrics, backoff, and the breaker.
    count_failures: bool,
    /// Whether the exchange may hedge onto a fresh connection.
    hedge: bool,
    /// Remaining request deadline budget, if the request carries one.
    budget: Option<Duration>,
}

/// Boot-time probing: no counting, no hedging, no budget.
const PROBE_OPTS: ExchangeOpts = ExchangeOpts {
    count_failures: false,
    hedge: false,
    budget: None,
};

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
                    jitter: jitter_state(config.jitter_seed, s as u64),
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
        let mut pending: Vec<usize> = (0..self.links.len()).collect();
        loop {
            pending.retain(|&s| {
                // Boot-time probing ignores the steady-state backoff and
                // breaker windows — the whole point is to poll until up.
                {
                    let mut state = self.links[s].lock();
                    state.retry_at = None;
                    state.open_until = None;
                }
                match self.exchange_inner(s, |id| Frame::Ping { id }, PROBE_OPTS) {
                    Ok(Frame::Pong { shard_id, .. }) => {
                        if shard_id as usize != s {
                            // Leave it pending; the caller gets a clear
                            // error below rather than a wrong merge later.
                            true
                        } else {
                            false
                        }
                    }
                    _ => true,
                }
            });
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
        let budget = budget_us.map(Duration::from_micros);
        let per_shard: Vec<Option<Vec<ScoredDoc>>> = if self.links.len() == 1 {
            vec![self.shard_query(0, terms, k, budget)]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..self.links.len())
                    .map(|s| scope.spawn(move || self.shard_query(s, terms, k, budget)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or(None))
                    .collect()
            })
        };
        let complete = per_shard.iter().all(Option::is_some);
        if !complete {
            self.partial_gathers.fetch_add(1, Ordering::Relaxed);
        }
        // The gather: identical merge to in-process scatter-gather, over
        // whichever shards answered (all of them, in the healthy case).
        let hits = merge_top_k(per_shard.into_iter().flatten().collect(), k);
        if complete {
            Retrieval::complete(hits)
        } else {
            Retrieval::partial(hits)
        }
    }

    /// One shard's top-`k`, or `None` if the worker failed, is in
    /// backoff, or its breaker is open.
    fn shard_query(
        &self,
        s: usize,
        terms: &[TermId],
        k: usize,
        budget: Option<Duration>,
    ) -> Option<Vec<ScoredDoc>> {
        // Chaos hook (no-op unless a fault plan is armed): lose or delay
        // this dispatch before it touches the link.
        match serpdiv_chaos::failpoint("router.dispatch") {
            SiteAction::Drop => return None,
            SiteAction::Stall(d) => std::thread::sleep(d),
            SiteAction::None | SiteAction::Corrupt => {}
        }
        let k = u32::try_from(k).unwrap_or(u32::MAX);
        let opts = ExchangeOpts {
            count_failures: true,
            hedge: true,
            budget,
        };
        match self.exchange_inner(
            s,
            |id| Frame::Query {
                id,
                k,
                terms: terms.to_vec(),
            },
            opts,
        ) {
            Ok(Frame::Hits { hits, .. }) => Some(hits),
            _ => None,
        }
    }

    /// Run one request/reply exchange with shard `s`: enforce the
    /// breaker, reconnect once through a stale connection, honor the
    /// backoff window, clamp the wire deadline to the budget, and hedge
    /// onto a fresh connection when the primary blows the threshold.
    fn exchange_inner(
        &self,
        s: usize,
        make: impl Fn(u64) -> Frame,
        opts: ExchangeOpts,
    ) -> Result<Frame, ()> {
        let link = &self.links[s];
        let mut state = link.lock();
        if opts.count_failures && self.breaker_blocks(s, &mut state) {
            return Err(());
        }
        // The wire deadline of this exchange: the configured per-shard
        // timeout, clamped to whatever is left of the request's budget.
        let total = match opts.budget {
            Some(b) => b.min(self.config.shard_timeout),
            None => self.config.shard_timeout,
        };
        if total.is_zero() {
            // The budget is already spent: nothing the shard can do
            // helps, and blaming it would poison backoff/breaker state.
            return Err(());
        }
        let clamped = total < self.config.shard_timeout;
        for attempt in 0..2 {
            if state.conn.is_none() {
                if let Some(at) = state.retry_at {
                    if Instant::now() < at {
                        return Err(()); // in backoff: fail fast, no syscall
                    }
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
                        self.note_failure(&mut state, false, opts.count_failures);
                        return Err(());
                    }
                }
            }
            let id = state.next_id;
            state.next_id += 1;
            let frame = make(id);
            // The primary dispatch only gets until the hedge threshold;
            // `hedge_at == total` means no hedging for this exchange.
            let hedge_at = if opts.hedge {
                self.hedge_threshold(&state, total)
            } else {
                total
            };
            let started = Instant::now();
            let conn = state.conn.as_mut().expect("connected above");
            match Self::roundtrip(conn, &frame, id, self.config.max_frame, hedge_at) {
                Ok(reply) => {
                    self.note_success(&mut state, started.elapsed());
                    return Ok(reply);
                }
                Err(ShardError::Timeout) if hedge_at < total => {
                    // The primary blew the hedge threshold. Its eventual
                    // reply (if any) can no longer be trusted — condemn
                    // the connection — and re-dispatch on a fresh one
                    // with a fresh id for the remaining deadline.
                    state.conn = None;
                    self.hedges.fetch_add(1, Ordering::Relaxed);
                    let remaining = total.saturating_sub(started.elapsed());
                    match self.hedge_once(s, &mut state, &make, remaining) {
                        Ok(reply) => {
                            self.note_success(&mut state, started.elapsed());
                            return Ok(reply);
                        }
                        Err(kind) => {
                            self.note_exchange_failure(
                                &mut state,
                                matches!(kind, ShardError::Timeout),
                                opts.count_failures,
                                clamped,
                            );
                            return Err(());
                        }
                    }
                }
                Err(kind) => {
                    // Whatever happened, the connection can no longer be
                    // trusted to be in sync — condemn it.
                    state.conn = None;
                    match kind {
                        ShardError::Broken if attempt == 0 => continue,
                        ShardError::Broken => {
                            self.note_exchange_failure(
                                &mut state,
                                false,
                                opts.count_failures,
                                clamped,
                            );
                            return Err(());
                        }
                        ShardError::Timeout => {
                            self.note_exchange_failure(
                                &mut state,
                                true,
                                opts.count_failures,
                                clamped,
                            );
                            return Err(());
                        }
                    }
                }
            }
        }
        unreachable!("loop returns on success, final failure, or timeout");
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
        // Half-open: one fresh ping decides. The cached connection (if
        // any) predates the trip and cannot be trusted.
        state.conn = None;
        state.retry_at = None;
        if self.probe(s, state) {
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

    /// Half-open probe: ping shard `s` on a fresh connection. On success
    /// the probed connection becomes the link's cached connection.
    fn probe(&self, s: usize, state: &mut LinkState) -> bool {
        let Ok(mut conn) = UnixStream::connect(&self.links[s].path) else {
            return false;
        };
        let id = state.next_id;
        state.next_id += 1;
        let ping = Frame::Ping { id };
        match Self::roundtrip(
            &mut conn,
            &ping,
            id,
            self.config.max_frame,
            self.config.shard_timeout,
        ) {
            Ok(Frame::Pong { .. }) => {
                if state.ever_connected {
                    self.reconnects.fetch_add(1, Ordering::Relaxed);
                }
                state.ever_connected = true;
                state.conn = Some(conn);
                true
            }
            _ => false,
        }
    }

    /// The hedge leg: a fresh connection, a fresh request id, the
    /// remaining wire deadline. On success the hedge connection becomes
    /// the link's cached connection.
    fn hedge_once(
        &self,
        s: usize,
        state: &mut LinkState,
        make: &impl Fn(u64) -> Frame,
        remaining: Duration,
    ) -> Result<Frame, ShardError> {
        if remaining.is_zero() {
            return Err(ShardError::Timeout);
        }
        let mut conn = UnixStream::connect(&self.links[s].path).map_err(|_| ShardError::Broken)?;
        let id = state.next_id;
        state.next_id += 1;
        let reply = Self::roundtrip(&mut conn, &make(id), id, self.config.max_frame, remaining)?;
        state.conn = Some(conn);
        Ok(reply)
    }

    /// The wire deadline of the *primary* dispatch; past it, the exchange
    /// hedges. Equal to `total` ⇒ no hedging for this exchange.
    fn hedge_threshold(&self, state: &LinkState, total: Duration) -> Duration {
        let at = match self.config.hedge {
            HedgePolicy::Off => return total,
            HedgePolicy::After(at) => at,
            HedgePolicy::Auto { multiplier, floor } => {
                // A cold link has no latency signal yet — no hedging
                // until the first successful exchange seeds the EWMA.
                let Some(ewma) = state.ewma_us else {
                    return total;
                };
                Duration::from_secs_f64((ewma * f64::from(multiplier)) / 1e6).max(floor)
            }
        };
        at.min(total)
    }

    /// Write `frame` under `timeout`, read the reply, verify the echoed
    /// id and kind. Deadlines are per-exchange (budget clamping and hedge
    /// thresholds vary request to request), so the socket timeouts are
    /// set here rather than at connect.
    fn roundtrip(
        conn: &mut UnixStream,
        frame: &Frame,
        id: u64,
        max_frame: u32,
        timeout: Duration,
    ) -> Result<Frame, ShardError> {
        // A zero timeout would *disable* the socket deadline entirely.
        let timeout = timeout.max(Duration::from_micros(1));
        let _ = conn.set_write_timeout(Some(timeout));
        let _ = conn.set_read_timeout(Some(timeout));
        write_frame(conn, frame).map_err(|e| Self::classify(&e))?;
        match read_frame(conn, max_frame) {
            Ok(reply) => {
                let kind_ok = matches!(
                    (frame, &reply),
                    (Frame::Query { .. }, Frame::Hits { .. })
                        | (Frame::Ping { .. }, Frame::Pong { .. })
                );
                if kind_ok && reply.id() == id {
                    Ok(reply)
                } else {
                    // Stale or alien reply: ids desynced.
                    Err(ShardError::Broken)
                }
            }
            Err(WireError::Io(e)) => Err(Self::classify(&e)),
            Err(WireError::Frame(_)) => Err(ShardError::Broken),
        }
    }

    fn classify(e: &std::io::Error) -> ShardError {
        match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => ShardError::Timeout,
            _ => ShardError::Broken,
        }
    }

    /// A successful exchange: reset every failure signal and fold the
    /// observed latency into the link's EWMA (drives
    /// [`HedgePolicy::Auto`]).
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

    /// A wire failure: like [`note_failure`](Self::note_failure), except
    /// that a timeout under a *clamped* deadline is not the shard's fault
    /// — the request ran out of budget — and must not poison the
    /// counters, the backoff window, or the breaker. (The connection is
    /// still condemned by the caller: a late reply would desync ids.)
    fn note_exchange_failure(
        &self,
        state: &mut LinkState,
        timeout: bool,
        count: bool,
        clamped: bool,
    ) {
        if timeout && clamped {
            return;
        }
        self.note_failure(state, timeout, count);
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

/// Seed one link's jitter RNG: splitmix64 over `(seed, shard)`, so links
/// sharing a [`FleetConfig`] still draw independent schedules.
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

    fn retrieve_with_status(&self, query: &str, k: usize) -> Retrieval {
        self.retrieve_terms_with_status(&self.index.analyze_query(query), k)
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

    #[test]
    fn all_workers_down_yields_empty_partial_not_panic() {
        let router = FleetRouter::new(
            tiny_index(),
            vec![dead_socket("down-a"), dead_socket("down-b")],
            FleetConfig::default(),
        );
        let r = router.retrieve_with_status("apple", 5);
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
        assert!(!router.retrieve_with_status("apple", 5).complete);
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
        assert!(!router.retrieve_with_status("apple", 5).complete);
        assert_eq!(router.metrics().shard_failures, 1);
        // After the window a real (failing) connect is attempted again.
        std::thread::sleep(Duration::from_millis(60));
        assert!(!router.retrieve_with_status("apple", 5).complete);
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
        let r = router.retrieve_with_status("zzzzunknown", 5);
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
