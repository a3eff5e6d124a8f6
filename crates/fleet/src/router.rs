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
//! * **Deadlines** — every exchange has a wire deadline
//!   ([`FleetConfig::shard_timeout`], clamped to the request's remaining
//!   deadline budget when one is given), an [`Instant`] counted from that
//!   shard's own write, so a gather waits for its slowest shard and not
//!   the sum. Socket timeouts are only wake-up hints: the kernel counts
//!   them in scheduler ticks (4 ms at 250 Hz), so a blocked `read` can
//!   return `WouldBlock` long before the time asked for. A wake-up checks
//!   `Instant::now()` against the deadline and reads on while time
//!   remains. Each wait's timeout is the time left rounded down to a
//!   power of two of µs — never past the deadline — and is set only when
//!   that value changes, so a steady link makes no socket-option call. A
//!   slow worker costs at most one deadline, after which its connection
//!   is condemned (a late reply would desync request ids) and the gather
//!   proceeds without it.
//! * **One fresh leg** — a primary still unanswered at the hedge
//!   threshold (an `Instant`, checked the same way) or whose cached
//!   connection is broken (typically a worker restarted since the last
//!   query) is condemned and re-dispatched once on a *fresh* connection
//!   with a fresh request id for whatever is left of the deadline.
//!   Because workers are deterministic the re-dispatched page is
//!   bit-identical to the un-hedged one. The hedge threshold is 4× the
//!   link's observed (EWMA) exchange latency, never under 2 ms, and a
//!   link with no completed exchange does not hedge — so hedges fire on
//!   outliers, not medians, and a bounced worker costs exactly one
//!   degraded response.
//! * **Circuit breaker** — the link's one failure policy. A counted
//!   failure condemns the connection, and the link reconnects on its next
//!   query (against a dead worker, one refused `connect`). Five
//!   consecutive counted failures open the breaker for
//!   [`FleetConfig::breaker_cooldown`]: while open, queries fail the shard
//!   instantly (zero syscalls). After the cooldown the next query *is* the
//!   probe, on a fresh connection: success closes the breaker; failure
//!   finds the failure count still past the threshold and re-opens it for
//!   another cooldown.
//! * **Partial gathers** — the merge runs over whichever shards
//!   answered; the result is reported as incomplete via
//!   [`Retrieval::partial`] so the serving layer can label the response
//!   degraded instead of presenting a partial ranking as the real one.
//!
//! Timeouts caused by a *clamped* deadline budget (the request ran out of
//! time, not the shard) condemn the connection but are deliberately not
//! counted: they advance neither the failure counters nor the breaker —
//! an overloaded request stream must not poison the router's picture of
//! shard health.

//! # One encode, one write, one read
//!
//! An exchange encodes its request once and stamps each shard's request
//! id into the same bytes. Each link reads through a [`FrameReader`] it
//! keeps across exchanges, so a healthy shard costs the router one
//! `write` and one `read`, and the worker one of each.

use crate::protocol::{
    encode_frame, encode_query, set_request_id, Frame, FrameReader, WireError, DEFAULT_MAX_FRAME,
};
use serpdiv_chaos::SiteAction;
use serpdiv_index::{merge_top_k, InvertedIndex, Retrieval, Retriever, ScoredDoc};
use serpdiv_text::TermId;
use std::io::{ErrorKind, Read, Write};
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
/// Consecutive counted failures that open a link's circuit breaker.
const BREAKER_THRESHOLD: u32 = 5;

/// Tunables for the router's failure handling. The hedge threshold and
/// the breaker's failure threshold are not among them (see the
/// [module docs](self)).
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Per-shard wire deadline for one exchange. A worker that does not
    /// answer within it is dropped from the gather. Clamped per request
    /// by the remaining deadline budget, when one is given.
    pub shard_timeout: Duration,
    /// How long an open breaker fails the shard instantly before the
    /// next query probes it.
    pub breaker_cooldown: Duration,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            shard_timeout: Duration::from_millis(250),
            breaker_cooldown: Duration::from_millis(250),
        }
    }
}

/// Mutable per-link state, guarded by the link's mutex.
struct LinkState {
    conn: Option<Conn>,
    /// Monotone per-link request id (fresh connections keep counting —
    /// ids must never repeat across a hedge).
    next_id: u64,
    ever_connected: bool,
    /// EWMA of successful exchange latency, µs; `None` until the first
    /// completed exchange. Sets the hedge threshold.
    ewma_us: Option<f64>,
    /// Counted failures since the last success; at the threshold and
    /// past it, every counted failure (re-)opens the breaker.
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

/// The calls a link makes on its socket: the seam through which tests
/// drive and count link I/O.
trait Stream: Read + Write + Send {
    fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()>;
    fn set_write_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()>;
}

impl Stream for UnixStream {
    fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        UnixStream::set_read_timeout(self, timeout)
    }
    fn set_write_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        UnixStream::set_write_timeout(self, timeout)
    }
}

/// One open connection to a worker: the socket, the frame reader that
/// keeps partial replies across wake-ups, and the socket timeouts last
/// set, so an unchanged one costs no syscall.
struct Conn {
    stream: Box<dyn Stream>,
    reader: FrameReader,
    read_timeout: Duration,
    write_timeout: Duration,
}

impl Conn {
    fn new(stream: impl Stream + 'static) -> Self {
        Conn {
            stream: Box::new(stream),
            reader: FrameReader::new(DEFAULT_MAX_FRAME),
            read_timeout: Duration::ZERO,
            write_timeout: Duration::ZERO,
        }
    }

    /// Write all of `bytes` by `until`.
    fn write_request(&mut self, mut bytes: &[u8], until: Instant) -> Result<(), ShardError> {
        while !bytes.is_empty() {
            let hint = wake_hint(until);
            if hint != self.write_timeout {
                let _ = self.stream.set_write_timeout(Some(hint));
                self.write_timeout = hint;
            }
            match self.stream.write(bytes) {
                Ok(0) => return Err(ShardError::Broken),
                Ok(n) => bytes = &bytes[n..],
                Err(e) if is_wake_up(&e) => {}
                Err(_) => return Err(ShardError::Broken),
            }
            if !bytes.is_empty() && Instant::now() >= until {
                return Err(ShardError::Timeout);
            }
        }
        Ok(())
    }

    /// Read the reply to `request`, sent as `id`, by `until`. The first
    /// read is made even past `until`: a reply that has arrived is
    /// taken.
    fn read_reply(
        &mut self,
        request: &Request,
        id: u64,
        until: Instant,
    ) -> Result<Frame, ShardError> {
        loop {
            let hint = wake_hint(until);
            if hint != self.read_timeout {
                let _ = self.stream.set_read_timeout(Some(hint));
                self.read_timeout = hint;
            }
            match self.reader.poll(&mut self.stream) {
                Ok(Some(reply)) if request.answered_by(&reply, id) => return Ok(reply),
                // A stale or alien reply means the ids desynced.
                Ok(Some(_)) | Err(WireError::Frame(_)) => return Err(ShardError::Broken),
                Err(WireError::Io(e)) if !is_wake_up(&e) => return Err(ShardError::Broken),
                Ok(None) | Err(WireError::Io(_)) => {
                    if Instant::now() >= until {
                        return Err(ShardError::Timeout);
                    }
                }
            }
        }
    }
}

/// The socket timeout for a wait that must end by `until`: the time left
/// rounded down to a power of two of µs, and at least 1 µs (a zero
/// timeout would block forever). Few distinct values, so a steady link
/// keeps the one it has set.
fn wake_hint(until: Instant) -> Duration {
    let left = until.saturating_duration_since(Instant::now()).as_micros();
    let left = u64::try_from(left).unwrap_or(u64::MAX).max(1);
    Duration::from_micros(1 << left.ilog2())
}

/// Whether a socket error is a timeout's (or a signal's) wake-up, after
/// which the deadline decides whether to wait on.
fn is_wake_up(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
    )
}

/// An exchange's request, encoded once: each send stamps its request id
/// into the same bytes.
struct Request {
    wire: Vec<u8>,
    ping: bool,
}

impl Request {
    fn query(k: u32, terms: &[TermId]) -> Self {
        Request {
            wire: encode_query(0, k, terms),
            ping: false,
        }
    }

    fn ping() -> Self {
        Request {
            wire: encode_frame(&Frame::Ping { id: 0 }),
            ping: true,
        }
    }

    /// The request's bytes, carrying `id`.
    fn stamped(&mut self, id: u64) -> &[u8] {
        set_request_id(&mut self.wire, id);
        &self.wire
    }

    /// Whether `reply` is this request's answer when it was sent as `id`.
    fn answered_by(&self, reply: &Frame, id: u64) -> bool {
        let kind_ok = match reply {
            Frame::Hits { .. } => !self.ping,
            Frame::Pong { .. } => self.ping,
            Frame::Query { .. } | Frame::Ping { .. } => false,
        };
        kind_ok && reply.id() == id
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
    /// it carries one: breaker-gated, hedged, and counted toward metrics
    /// and the breaker.
    Serve(Option<Duration>),
    /// Boot-time readiness pinging: no breaker, no hedging, no counting —
    /// but a ping that succeeds closes the breaker.
    Boot,
}

/// One shard's exchange between its send and receive steps. The link
/// stays locked in between, so no other request interleaves on it.
struct Pending<'a> {
    s: usize,
    state: MutexGuard<'a, LinkState>,
    /// The request id as written, which the reply must echo.
    id: u64,
    /// How the write went; a failed write is settled in the receive step.
    sent: Result<(), ShardError>,
    /// When the request was written; the exchange's deadlines count from
    /// here.
    written: Instant,
    /// The exchange's wire deadline.
    deadline: Instant,
    /// The primary's deadline; past it the exchange hedges. Equal to
    /// `deadline` ⇒ no hedging for this exchange.
    hedge_at: Instant,
    /// Whether the deadline is the request's budget, not the shard
    /// timeout.
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
    /// Closed→open breaker transitions, plus re-opens after a failed
    /// probe.
    pub breaker_trips: u64,
    /// Exchanges failed instantly — zero syscalls — by an open breaker.
    pub breaker_fast_fails: u64,
}

/// A multi-process scatter-gather retriever: the in-process analyzer and
/// merge around a fleet of out-of-process shard scorers.
///
/// Implements [`Retriever`], so it drops into the serving engine exactly
/// where `ShardedIndex` does — its one scoring entry point,
/// [`retrieve_terms_within`](Retriever::retrieve_terms_within), clamps
/// every shard's wire deadline to the request's remaining budget.
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
            .map(|path| WorkerLink {
                path,
                state: Mutex::new(LinkState {
                    conn: None,
                    next_id: 0,
                    ever_connected: false,
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
    /// silently merging wrong ranges. Boot pings bypass the breaker, and
    /// one that succeeds closes it.
    pub fn wait_ready(&self, timeout: Duration) -> Result<(), String> {
        let deadline = Instant::now() + timeout;
        loop {
            let replies = self.exchange(&mut Request::ping(), Mode::Boot);
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
    /// top-`k`, reporting whether every shard contributed: the
    /// unbudgeted [`Retriever::retrieve_terms_within`].
    pub fn retrieve_terms_with_status(&self, terms: &[TermId], k: usize) -> Retrieval {
        self.retrieve_terms_within(terms, k, None)
    }

    /// One request/reply exchange with every shard, on the calling
    /// thread: the send steps write every shard's request in ascending
    /// shard order (also the lock order, so concurrent callers cannot
    /// deadlock), then the receive steps read the replies in the same
    /// order. Each shard's reply is `None` if it failed or its breaker is
    /// open.
    fn exchange(&self, request: &mut Request, mode: Mode) -> Vec<Option<Frame>> {
        let mut pending = Vec::with_capacity(self.links.len());
        for s in 0..self.links.len() {
            pending.push(self.send(s, request, mode));
        }
        pending
            .into_iter()
            .map(|p| p.and_then(|p| self.receive(p, request, mode)))
            .collect()
    }

    /// The send step for shard `s`: enforce the breaker, clamp the wire
    /// deadline to the budget, connect if the link has no connection,
    /// draw a fresh id and write — keeping the link locked for the receive
    /// step.
    fn send(&self, s: usize, request: &mut Request, mode: Mode) -> Option<Pending<'_>> {
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
            Mode::Serve(_) if self.breaker_blocks(&state) => return None,
            Mode::Serve(budget) => budget,
            Mode::Boot => None,
        };
        // The wire deadline of this exchange: the configured per-shard
        // timeout, clamped to whatever is left of the request's budget.
        let timeout = self.config.shard_timeout;
        let total = budget.map_or(timeout, |b| b.min(timeout));
        if total.is_zero() {
            // The budget is already spent: nothing the shard can do
            // helps, and blaming it would poison the breaker.
            return None;
        }
        if state.conn.is_none() {
            match UnixStream::connect(&link.path) {
                Ok(stream) => {
                    if state.ever_connected {
                        self.reconnects.fetch_add(1, Ordering::Relaxed);
                    }
                    state.ever_connected = true;
                    state.conn = Some(Conn::new(stream));
                }
                Err(_) => {
                    if let Mode::Serve(_) = mode {
                        self.note_failure(&mut state, false);
                    }
                    return None;
                }
            }
        }
        let hedge_after = match mode {
            Mode::Serve(_) => Self::hedge_threshold(&state, total),
            Mode::Boot => total,
        };
        let id = state.take_id();
        let written = Instant::now();
        let deadline = written + total;
        let conn = state.conn.as_mut().expect("connected above");
        let sent = conn.write_request(request.stamped(id), deadline);
        Some(Pending {
            s,
            state,
            id,
            sent,
            written,
            deadline,
            hedge_at: written + hedge_after,
            clamped: total < timeout,
        })
    }

    /// The receive step: read the reply until the hedge threshold, counted
    /// from this shard's own write. A primary that blows the threshold (a
    /// hedge) or broke is condemned and replaced by one fresh leg for what
    /// is left of the deadline.
    fn receive(&self, mut p: Pending<'_>, request: &mut Request, mode: Mode) -> Option<Frame> {
        let primary = p.sent.and_then(|()| {
            let conn = p.state.conn.as_mut().expect("written in the send step");
            conn.read_reply(request, p.id, p.hedge_at)
        });
        let reply = match primary {
            Ok(reply) => Ok(reply),
            Err(kind) => {
                // Whatever happened, the connection can no longer be
                // trusted to be in sync — condemn it.
                p.state.conn = None;
                let hedge = matches!(kind, ShardError::Timeout) && p.hedge_at < p.deadline;
                if hedge || matches!(kind, ShardError::Broken) {
                    self.fresh_leg(p.s, &mut p.state, request, p.deadline, hedge)
                } else {
                    Err(kind)
                }
            }
        };
        match reply {
            Ok(reply) => {
                Self::note_success(&mut p.state, p.written.elapsed());
                Some(reply)
            }
            Err(kind) => {
                // A timeout under a *clamped* deadline is not the shard's
                // fault — the request ran out of budget — and must not
                // poison the counters or the breaker.
                let timeout = matches!(kind, ShardError::Timeout);
                if matches!(mode, Mode::Serve(_)) && !(timeout && p.clamped) {
                    self.note_failure(&mut p.state, timeout);
                }
                None
            }
        }
    }

    /// One exchange with shard `s` on a fresh connection with a fresh
    /// request id, all by `deadline`; on success the connection becomes
    /// the link's cached one. It serves the hedge (counted in `hedges`)
    /// and the resend through a broken connection (counted in
    /// `reconnects`).
    fn fresh_leg(
        &self,
        s: usize,
        state: &mut LinkState,
        request: &mut Request,
        deadline: Instant,
        hedge: bool,
    ) -> Result<Frame, ShardError> {
        if hedge {
            self.hedges.fetch_add(1, Ordering::Relaxed);
        }
        if Instant::now() >= deadline {
            return Err(ShardError::Timeout);
        }
        let stream = UnixStream::connect(&self.links[s].path).map_err(|_| ShardError::Broken)?;
        let mut conn = Conn::new(stream);
        if !hedge && state.ever_connected {
            self.reconnects.fetch_add(1, Ordering::Relaxed);
        }
        state.ever_connected = true;
        let id = state.take_id();
        conn.write_request(request.stamped(id), deadline)?;
        let reply = conn.read_reply(request, id, deadline)?;
        state.conn = Some(conn);
        Ok(reply)
    }

    /// Whether the link's breaker is open, which fails the exchange
    /// instantly with zero syscalls. Past the cooldown it is not, and the
    /// exchange is the probe.
    fn breaker_blocks(&self, state: &LinkState) -> bool {
        let open = state.open_until.is_some_and(|until| Instant::now() < until);
        if open {
            self.breaker_fast_fails.fetch_add(1, Ordering::Relaxed);
        }
        open
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

    /// A successful exchange: close the breaker and fold the observed
    /// latency into the link's EWMA (which sets the hedge threshold).
    fn note_success(state: &mut LinkState, elapsed: Duration) {
        state.consecutive_failures = 0;
        state.open_until = None;
        let sample = elapsed.as_secs_f64() * 1e6;
        state.ewma_us = Some(match state.ewma_us {
            Some(prev) => (1.0 - EWMA_ALPHA) * prev + EWMA_ALPHA * sample,
            None => sample,
        });
    }

    /// A counted failed connect or exchange: count it, and (re-)open the
    /// breaker once the link has failed [`BREAKER_THRESHOLD`] times in a
    /// row. The count is not reset by a trip, so a failed probe re-opens
    /// the breaker at once.
    fn note_failure(&self, state: &mut LinkState, timeout: bool) {
        self.shard_failures.fetch_add(1, Ordering::Relaxed);
        if timeout {
            self.shard_timeouts.fetch_add(1, Ordering::Relaxed);
        }
        state.consecutive_failures = state.consecutive_failures.saturating_add(1);
        if state.consecutive_failures >= BREAKER_THRESHOLD {
            state.open_until = Some(Instant::now() + self.config.breaker_cooldown);
            self.breaker_trips.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl Retriever for FleetRouter {
    /// The sealed index's analysis: the router holds the index for
    /// exactly this, its postings stay in the workers.
    fn query_terms(&self, query: &str) -> Vec<TermId> {
        self.index.analyze_query(query)
    }

    /// Scatter pre-analyzed terms to the fleet and gather the union
    /// top-`k` under a deadline budget: each shard exchange's wire
    /// deadline is the configured [`FleetConfig::shard_timeout`] clamped
    /// to the request's remaining `budget_us`. A request whose budget is
    /// already spent fails every shard without a syscall — and without
    /// blaming the shards.
    fn retrieve_terms_within(
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
            &mut Request::query(wire_k, terms),
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{decode_payload, ENCODES};
    use serpdiv_index::{DocId, Document, IndexBuilder};
    use std::collections::VecDeque;

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
    fn breaker_trips_at_the_threshold_fails_fast_and_reopens_on_a_failed_probe() {
        let sock = dead_socket("breaker");
        let router = FleetRouter::new(tiny_index(), vec![sock.clone()], FleetConfig::default());
        // Each query against the dead socket is one refused connect; the
        // threshold-th trips the breaker.
        for n in 1..=BREAKER_THRESHOLD {
            assert!(!complete(&router));
            assert_eq!(
                router.metrics().breaker_trips,
                u64::from(n == BREAKER_THRESHOLD)
            );
        }
        assert_eq!(router.metrics().shard_failures, 5);

        // Open: even with a listener on the socket, the shard fails
        // without a connect, and the failure counter does not move.
        let listener = std::os::unix::net::UnixListener::bind(&sock).unwrap();
        listener.set_nonblocking(true).unwrap();
        assert!(!complete(&router));
        assert!(listener.accept().is_err(), "an open breaker never connects");
        let m = router.metrics();
        assert_eq!((m.breaker_fast_fails, m.shard_failures), (1, 5));
        drop(listener);
        let _ = std::fs::remove_file(&sock);

        // Cooldown over (pinned rather than slept): the next query is the
        // probe, its connect is refused, and the breaker re-opens at once.
        router.links[0].lock().open_until = Some(Instant::now());
        assert!(!complete(&router));
        let m = router.metrics();
        assert_eq!((m.breaker_trips, m.shard_failures), (2, 6));
        assert!(!complete(&router));
        assert_eq!(router.metrics().breaker_fast_fails, 2);
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

    /// Socket calls made by the fake streams of one test.
    #[derive(Default)]
    struct Calls {
        reads: AtomicU64,
        writes: AtomicU64,
        timeout_sets: AtomicU64,
    }

    impl Calls {
        fn take(&self) -> [u64; 3] {
            [&self.reads, &self.writes, &self.timeout_sets].map(|n| n.swap(0, Ordering::Relaxed))
        }
    }

    /// An in-memory worker behind a link. Each request written queues a
    /// one-hit reply echoing its id; each read first returns the next
    /// scripted wake-up error, if any is left — the shape of a socket
    /// timeout that fires early — and then the queued reply bytes.
    struct FakeStream {
        calls: Arc<Calls>,
        wake_ups: VecDeque<ErrorKind>,
        reply: Vec<u8>,
        inbox: Vec<u8>,
    }

    /// The hit every fake worker answers with.
    const FAKE_HIT: ScoredDoc = ScoredDoc {
        doc: DocId(0),
        score: 1.5,
    };

    impl FakeStream {
        fn new(calls: &Arc<Calls>, wake_ups: &[ErrorKind]) -> Self {
            FakeStream {
                calls: calls.clone(),
                wake_ups: wake_ups.iter().copied().collect(),
                reply: encode_frame(&Frame::Hits {
                    id: 0,
                    hits: vec![FAKE_HIT],
                }),
                inbox: Vec::new(),
            }
        }
    }

    impl Read for FakeStream {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.calls.reads.fetch_add(1, Ordering::Relaxed);
            if let Some(kind) = self.wake_ups.pop_front() {
                return Err(kind.into());
            }
            let n = buf.len().min(self.inbox.len());
            buf[..n].copy_from_slice(&self.inbox[..n]);
            self.inbox.drain(..n);
            Ok(n)
        }
    }

    impl Write for FakeStream {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.calls.writes.fetch_add(1, Ordering::Relaxed);
            let request = decode_payload(&buf[4..]).expect("the router writes whole frames");
            set_request_id(&mut self.reply, request.id());
            self.inbox.extend_from_slice(&self.reply);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl Stream for FakeStream {
        fn set_read_timeout(&self, _: Option<Duration>) -> std::io::Result<()> {
            self.calls.timeout_sets.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }
        fn set_write_timeout(&self, _: Option<Duration>) -> std::io::Result<()> {
            self.calls.timeout_sets.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }
    }

    /// A router whose links are fake streams, with `ewma_us` as each
    /// link's latency so far. Its socket paths are dead, so a hedge or a
    /// resend (which connects afresh) loses the shard.
    fn fake_router(tag: &str, fakes: Vec<FakeStream>, ewma_us: Option<f64>) -> FleetRouter {
        let sockets = (0..fakes.len())
            .map(|s| dead_socket(&format!("{tag}-{s}")))
            .collect();
        let router = FleetRouter::new(tiny_index(), sockets, FleetConfig::default());
        for (link, fake) in router.links.iter().zip(fakes) {
            let mut state = link.lock();
            state.conn = Some(Conn::new(fake));
            state.ewma_us = ewma_us;
        }
        router
    }

    fn apple(router: &FleetRouter, budget_us: Option<u64>) -> Retrieval {
        router.retrieve_terms_within(&router.index.analyze_query("apple"), 5, budget_us)
    }

    #[test]
    fn an_early_wake_up_before_the_hedge_threshold_does_not_hedge() {
        // A 5 ms EWMA puts the hedge threshold at 20 ms; the socket wakes
        // the router twice before it, and then the reply is there.
        let calls = Arc::new(Calls::default());
        let fake = FakeStream::new(&calls, &[ErrorKind::WouldBlock, ErrorKind::TimedOut]);
        let router = fake_router("early-hedge", vec![fake], Some(5_000.0));
        let r = apple(&router, None);
        assert!(r.complete, "the reply after the wake-ups is delivered");
        assert_eq!(r.hits, vec![FAKE_HIT]);
        let m = router.metrics();
        assert_eq!((m.hedges, m.shard_failures, m.shard_timeouts), (0, 0, 0));
        assert_eq!(calls.take()[0], 3, "two wake-ups, then the reply");
    }

    #[test]
    fn an_early_wake_up_under_a_clamped_budget_does_not_drop_the_shard() {
        // A 2 ms budget is not above the hedge floor, so the exchange has
        // one deadline and no hedge; an early wake-up must not end it.
        let calls = Arc::new(Calls::default());
        let fake = FakeStream::new(&calls, &[ErrorKind::WouldBlock]);
        let router = fake_router("early-clamped", vec![fake], Some(10.0));
        let r = apple(&router, Some(2_000));
        assert!(r.complete, "the shard answered within the budget");
        assert_eq!(r.hits, vec![FAKE_HIT]);
        let m = router.metrics();
        assert_eq!((m.hedges, m.partial_gathers), (0, 0));
    }

    #[test]
    fn a_steady_exchange_costs_one_encode_and_per_shard_one_write_one_read_no_timeout_set() {
        let calls = Arc::new(Calls::default());
        let fakes = vec![FakeStream::new(&calls, &[]), FakeStream::new(&calls, &[])];
        let router = fake_router("counts", fakes, None);
        let encodes = || ENCODES.with(std::cell::Cell::take);
        // The first exchange on a cold link sets both socket timeouts;
        // the second arms the hedge threshold, a new read timeout.
        assert!(apple(&router, None).complete);
        assert_eq!(calls.take(), [2, 2, 4]);
        assert!(apple(&router, None).complete);
        assert_eq!(calls.take(), [2, 2, 2]);
        encodes();
        // Steady state. Reads and writes are exact; a timeout is re-set
        // only if the thread stalls ~1 ms between a write and its read
        // (the hedge threshold's remaining time drops a power of two), so
        // that count gets three tries at a stall-free batch.
        const BATCH: u64 = 8;
        let mut timeout_sets = Vec::new();
        for _ in 0..3 {
            for _ in 0..BATCH {
                assert!(apple(&router, None).complete);
            }
            assert_eq!(encodes(), BATCH, "one encode per exchange");
            let [reads, writes, sets] = calls.take();
            assert_eq!((reads, writes), (2 * BATCH, 2 * BATCH));
            timeout_sets.push(sets);
            if sets == 0 {
                break;
            }
        }
        assert_eq!(
            timeout_sets.last(),
            Some(&0),
            "a steady link sets no socket timeout (per batch: {timeout_sets:?})"
        );
        assert_eq!(router.metrics().hedges, 0);
    }

    #[test]
    fn wake_hints_round_down_to_a_power_of_two_and_never_reach_zero() {
        let now = Instant::now();
        let hint = wake_hint(now + Duration::from_millis(250));
        assert!(hint.as_micros().is_power_of_two());
        assert!(hint <= Duration::from_millis(250) && hint > Duration::from_millis(125));
        assert_eq!(
            wake_hint(now),
            Duration::from_micros(1),
            "past the deadline"
        );
    }
}
