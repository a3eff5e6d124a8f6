//! Chaos soak: the 16-client serving soak under seeded fault plans.
//!
//! Three plans, one per dominant fault family, each driven by its own
//! seeds. The serving engine's faults come through the `serpdiv-chaos`
//! failpoints (`stage.*`, `pool.serve`); the retrieval layers carry no
//! failpoints and take theirs through the seams they already offer, fed
//! by a seeded [`Faults`] source:
//!
//! * **delay-heavy** — stage delays and shard delays (the sharded index's
//!   `with_fault_injection` hook, fired inside the scoring executor's
//!   tasks) under a per-request deadline budget, so requests degrade at
//!   stage edges;
//! * **kill-heavy** — injected panics in pool workers, shard-scoring
//!   tasks (the same hook) and the select stage, all of which must be
//!   *contained* (the pool answers `error (internal)` and keeps serving);
//! * **corruption-heavy** — a live in-process worker fleet whose
//!   connections are wrapped in a [`FaultyStream`] before
//!   `worker::serve_connection` sees them: replies get their framing
//!   metadata corrupted, writes fail so the worker hangs up, and replies
//!   are silently swallowed, which the router must convert into hedges,
//!   retries, and labeled shard-loss degradation.
//!
//! Asserted for every plan, under a watchdog (no hang):
//!
//! * every response echoes its request's query (no misattribution);
//! * every page is either **bit-identical** to the fault-free oracle for
//!   that request or carries a degraded/shed/internal label (no torn
//!   pages);
//! * the metrics leaf classes partition the request total exactly;
//! * after the plan disarms (and the seeded faults switch off), the
//!   stack recovers to bit-exact fault-free serving (breakers close,
//!   links reconnect).
//!
//! One more test arms a single delay to pin the one budget check that
//! lives inside a stage (the select stage's).
//!
//! Chaos arming is process-global, so the tests serialize on one static
//! mutex.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serpdiv::chaos::{self, FaultKind, FaultPlan};
use serpdiv::core::AlgorithmKind;
use serpdiv::fleet::{worker, FleetConfig, FleetRouter, DEFAULT_MAX_FRAME};
use serpdiv::index::{
    Document, IndexBuilder, InvertedIndex, Retriever, ScoringExecutor, ShardArtifact, ShardedIndex,
};
use serpdiv::mining::{from_json, SpecializationModel};
use serpdiv::serve::{
    EngineConfig, QueryRequest, SearchEngine, SearchResponse, SloConfig, WorkerPool,
    LABEL_INTERNAL, LABEL_SHED,
};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

const CLIENTS: usize = 16;
const PER_CLIENT: usize = 16;
const DIVERSIFIERS: [AlgorithmKind; 4] = [
    AlgorithmKind::OptSelect,
    AlgorithmKind::IaSelect,
    AlgorithmKind::XQuad,
    AlgorithmKind::Mmr,
];

/// Labels a faulted response is allowed to carry. Anything else that
/// drifts from the oracle is a torn page.
const DEGRADED_LABELS: [&str; 4] = [
    "DPH (degraded)",
    "DPH (degraded: shard loss)",
    LABEL_SHED,
    LABEL_INTERNAL,
];

/// Chaos arming is process-global: these tests must not overlap.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A seeded fault source for the seams the retrieval layers offer tests.
/// Inert until switched on, so the oracle and the recovery pass run
/// fault-free; counts what it fires, by kind.
struct Faults {
    on: AtomicBool,
    rng: Mutex<StdRng>,
    fired: [AtomicU64; 3],
}

impl Faults {
    fn new(seed: u64) -> Arc<Self> {
        Arc::new(Faults {
            on: AtomicBool::new(false),
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            fired: Default::default(),
        })
    }

    fn switch(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    /// One roll against `bands`, the cumulative upper bounds of each
    /// kind's probability: the kind that fires (counted), or `None` —
    /// always `None` while switched off.
    fn roll(&self, bands: &[f64]) -> Option<usize> {
        if !self.on.load(Ordering::SeqCst) {
            return None;
        }
        let u: f64 = self.rng.lock().unwrap().gen();
        let kind = bands.iter().position(|&b| u < b)?;
        self.fired[kind].fetch_add(1, Ordering::Relaxed);
        Some(kind)
    }

    /// Flip 1–4 seeded bits of `bytes`.
    fn flip_bits(&self, bytes: &mut [u8]) {
        let mut rng = self.rng.lock().unwrap();
        for _ in 0..rng.gen_range(1..=4usize) {
            let pos = rng.gen_range(0..bytes.len());
            bytes[pos] ^= 1u8 << rng.gen_range(0..8u32);
        }
    }

    fn fired(&self, kind: usize) -> u64 {
        self.fired[kind].load(Ordering::Relaxed)
    }
}

/// The corruption-heavy plan's reply faults, by kind, as cumulative
/// bands: corrupt p 0.20, hang up p 0.10, swallow p 0.05.
const REPLY_FAULTS: [f64; 3] = [0.20, 0.30, 0.35];
const CORRUPT: usize = 0;
const HANG_UP: usize = 1;
const SWALLOW: usize = 2;

/// A fleet worker's connection with seeded faults on its replies. The
/// worker writes each reply with one `write_all`, so each reply rolls
/// once: flip 1–4 bits of its first 21 bytes, fail the write so the
/// worker hangs up, or sleep 60 ms and swallow the reply so the router
/// sees a deadline rather than an error. Corruption is confined to the
/// framing metadata (length prefix, magic, version, id, opcode): every
/// flip there is *detectable* by the router's validate-on-decode and
/// id-echo defenses, whereas the score payload is raw `f64` bits the
/// protocol deliberately does not checksum.
struct FaultyStream {
    inner: UnixStream,
    faults: Arc<Faults>,
}

impl Read for FaultyStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.inner.read(buf)
    }
}

impl Write for FaultyStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self.faults.roll(&REPLY_FAULTS) {
            Some(CORRUPT) => {
                let mut bytes = buf.to_vec();
                let header = bytes.len().min(21);
                self.faults.flip_bits(&mut bytes[..header]);
                self.inner.write_all(&bytes)?;
            }
            Some(HANG_UP) => return Err(io::ErrorKind::BrokenPipe.into()),
            Some(_) => std::thread::sleep(Duration::from_millis(60)),
            None => self.inner.write_all(buf)?,
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Fail loudly instead of hanging CI forever if anything deadlocks.
fn with_watchdog(secs: u64, what: &str, f: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    let body = std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(()) => body.join().expect("soak body panicked"),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            if let Err(payload) = body.join() {
                std::panic::resume_unwind(payload);
            }
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            // Leave no armed plan behind for the next test.
            chaos::disarm();
            panic!("{what}: not finished within {secs}s — hang under chaos?")
        }
    }
}

fn corpus() -> Arc<InvertedIndex> {
    let mut b = IndexBuilder::new();
    for i in 0..20u32 {
        b.add(Document::new(
            i,
            format!("http://tech/{i}"),
            "apple iphone",
            "apple iphone smartphone review chip battery display camera",
        ));
    }
    for i in 20..40u32 {
        b.add(Document::new(
            i,
            format!("http://food/{i}"),
            "apple fruit",
            "apple fruit orchard sweet harvest vitamin juice recipe",
        ));
    }
    for i in 40..60u32 {
        b.add(Document::new(
            i,
            format!("http://misc/{i}"),
            "",
            "weather forecast rain cloud wind storm pressure front",
        ));
    }
    Arc::new(b.build())
}

fn model() -> Arc<SpecializationModel> {
    Arc::new(
        from_json(
            r#"{"entries":{"apple":{"query":"apple","specializations":[["apple iphone",0.6],["apple fruit",0.4]]}}}"#,
        )
        .unwrap(),
    )
}

/// Build an engine over `retriever` with the result cache off (every
/// page is recomputed, so oracle comparisons test the computation) and
/// the given per-request deadline.
fn build_engine(
    index: Arc<InvertedIndex>,
    retriever: Arc<dyn Retriever>,
    shards: usize,
    deadline_us: u64,
    slo: Option<SloConfig>,
) -> Arc<SearchEngine> {
    let config = EngineConfig {
        n_candidates: 30,
        cache_capacity: 0,
        index_shards: shards,
        deadline_us,
        slo,
        ..EngineConfig::default()
    };
    let m = model();
    let forward = Arc::new(serpdiv::index::ForwardIndex::build(&index));
    let store = Arc::new(serpdiv::core::SpecializationStore::build_with(
        &m,
        index.as_ref(),
        &forward,
        config.params.k_spec_results,
        config.params.snippet_window,
    ));
    let compiled = Arc::new(serpdiv::core::CompiledSpecStore::compile(&store));
    Arc::new(SearchEngine::with_retriever_and_forward(
        index,
        retriever,
        m,
        store,
        compiled,
        Some(forward),
        config,
    ))
}

/// The soak schedule: client `t`'s `i`-th request — the ambiguous query
/// through all four diversifiers, a passthrough query, and a no-hit
/// query, at two page sizes.
fn request_for(t: usize, i: usize) -> QueryRequest {
    let algo = DIVERSIFIERS[(t + i) % DIVERSIFIERS.len()];
    match i % 5 {
        0..=2 => QueryRequest::new("apple", 6 + (i % 2) * 4, algo),
        3 => QueryRequest::new("weather storm", 8, algo),
        _ => QueryRequest::new("zeppelin", 5, algo),
    }
}

type OracleKey = (String, usize, AlgorithmKind);
type OraclePage = (Vec<(u32, u64)>, String);

/// Fault-free pages for every distinct request in the schedule,
/// computed before any plan is armed. Must itself be degradation-free.
fn compute_oracle(engine: &SearchEngine) -> HashMap<OracleKey, OraclePage> {
    let mut oracle = HashMap::new();
    for t in 0..CLIENTS {
        for i in 0..PER_CLIENT {
            let req = request_for(t, i);
            let key = (req.query.clone(), req.k, req.algorithm);
            if oracle.contains_key(&key) {
                continue;
            }
            let out = engine.search(req);
            assert!(!out.degraded, "oracle computed under faults?");
            oracle.insert(key, (page_bits(&out), out.algorithm.to_string()));
        }
    }
    oracle
}

fn page_bits(out: &SearchResponse) -> Vec<(u32, u64)> {
    out.results
        .iter()
        .map(|r| (r.doc.0, r.score.to_bits()))
        .collect()
}

/// The torn-page check. Returns `true` when the response is the exact
/// fault-free page, `false` when it was (legitimately, labeled)
/// degraded. Panics on a torn or misattributed page.
fn check_response(
    req: &QueryRequest,
    out: &SearchResponse,
    oracle: &HashMap<OracleKey, OraclePage>,
) -> bool {
    assert_eq!(out.query, req.query, "misattributed response");
    assert!(
        out.results.len() <= req.k,
        "oversized page for {}",
        req.query
    );
    let key = (req.query.clone(), req.k, req.algorithm);
    let (want_page, want_algo) = &oracle[&key];
    if !out.degraded && out.algorithm == want_algo.as_str() {
        assert_eq!(
            &page_bits(out),
            want_page,
            "torn page: bits drifted from the oracle without a degraded label ({})",
            out.algorithm,
        );
        return true;
    }
    assert!(
        out.degraded,
        "algorithm changed ({} vs {want_algo}) on an undegraded response",
        out.algorithm
    );
    assert!(
        DEGRADED_LABELS.contains(&out.algorithm),
        "degraded response with unknown label {:?}",
        out.algorithm
    );
    false
}

/// [`storm`] with `faults` switched on for its duration.
fn storm_with(
    faults: &Faults,
    pool: &WorkerPool,
    oracle: &HashMap<OracleKey, OraclePage>,
) -> (u64, u64) {
    faults.switch(true);
    let counts = storm(pool, oracle);
    faults.switch(false);
    counts
}

/// Drive the 16-client storm through `pool`, validating every response.
/// Returns (clean, degraded) counts.
fn storm(pool: &WorkerPool, oracle: &HashMap<OracleKey, OraclePage>) -> (u64, u64) {
    let counts = Mutex::new((0u64, 0u64));
    std::thread::scope(|scope| {
        for t in 0..CLIENTS {
            let counts = &counts;
            scope.spawn(move || {
                let schedule: Vec<QueryRequest> =
                    (0..PER_CLIENT).map(|i| request_for(t, i)).collect();
                let replies = pool.serve_batch(schedule.clone());
                assert_eq!(replies.len(), schedule.len(), "client {t}: lost replies");
                let mut clean = 0u64;
                let mut degraded = 0u64;
                for (req, out) in schedule.iter().zip(&replies) {
                    if check_response(req, out, oracle) {
                        clean += 1;
                    } else {
                        degraded += 1;
                    }
                }
                let mut c = counts.lock().unwrap();
                c.0 += clean;
                c.1 += degraded;
            });
        }
    });
    counts.into_inner().unwrap()
}

/// The metrics leaf classes must partition the request total exactly —
/// chaos may degrade requests, never lose or double-count them.
fn assert_partition(engine: &SearchEngine) {
    let m = engine.metrics();
    assert_eq!(
        m.requests,
        m.cache_hits + m.diversified + m.passthrough + m.shed + m.internal_errors,
        "leaf classes must partition the request total: {m:?}"
    );
}

/// After disarm, the stack must return to bit-exact fault-free serving.
/// Open breakers need wall-clock time to cool down, so poll:
/// one fully clean pass over every distinct request, within `timeout`.
fn assert_recovers(
    engine: &SearchEngine,
    oracle: &HashMap<OracleKey, OraclePage>,
    timeout: Duration,
) {
    assert!(!chaos::is_armed(), "recovery must run disarmed");
    let deadline = Instant::now() + timeout;
    loop {
        let mut all_clean = true;
        for ((query, k, algo), _) in oracle.iter() {
            let req = QueryRequest::new(query.clone(), *k, *algo);
            let out = engine.search(req.clone());
            if !check_response(&req, &out, oracle) {
                all_clean = false;
            }
        }
        if all_clean {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "stack did not recover to bit-exact serving within {timeout:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn delay_heavy_plan_degrades_at_stage_edges_and_recovers() {
    let _s = serial();
    with_watchdog(300, "delay-heavy chaos soak", || {
        let index = corpus();
        let executor = Arc::new(ScoringExecutor::new(2));
        // 6 ms shard delays, p 0.05 per shard-scoring task.
        let faults = Faults::new(0xA11C_E5EE);
        let hook = faults.clone();
        let retriever: Arc<dyn Retriever> = Arc::new(
            ShardedIndex::build(index.clone(), 4)
                .with_executor(executor)
                .with_parallel_threshold(0)
                .with_fault_injection(move |_| {
                    if hook.roll(&[0.05]).is_some() {
                        std::thread::sleep(Duration::from_millis(6));
                    }
                }),
        );
        // 25 ms of budget against 8 ms injected stage delays: most
        // requests finish, a seeded minority exhausts mid-pipeline.
        // The SLO monitor holds the engine to 5 ms end-to-end: injected
        // 8 ms delays make served-but-slow requests burn budget too.
        let slo = SloConfig {
            target_us: 5_000,
            objective: 0.99,
            window: 64,
            burn_threshold: 2.0,
        };
        let engine = build_engine(index, retriever, 4, 25_000, Some(slo));
        let oracle = compute_oracle(&engine);
        let pool = WorkerPool::new(engine.clone(), 8);
        let baseline_requests = engine.metrics().requests;

        let plan = Arc::new(FaultPlan::new(0xA11C_E5EE).with_rule(
            "stage.*",
            0.10,
            FaultKind::Delay(Duration::from_millis(8)),
        ));
        let (clean, degraded) = {
            let _armed = chaos::armed(plan.clone());
            storm_with(&faults, &pool, &oracle)
        };
        assert_eq!(clean + degraded, (CLIENTS * PER_CLIENT) as u64);
        assert!(plan.fired_total() > 0, "the plan never fired");
        assert!(faults.fired(0) > 0, "the shard hook never fired");
        assert!(clean > 0, "delays must not wipe out every request");
        let m = engine.metrics();
        assert_eq!(
            m.requests - baseline_requests,
            (CLIENTS * PER_CLIENT) as u64,
            "every request accounted for"
        );
        assert_partition(&engine);
        // The delay storm pushed the bad-request rate far past the 2×
        // burn threshold in at least one evaluated window.
        assert!(
            m.slo_burn_alerts >= 1,
            "the burn-rate alert must fire under the delay storm: {m:?}"
        );
        assert_recovers(&engine, &oracle, Duration::from_secs(10));
        // Fault-free traffic clears the latch: drive two full windows of
        // clean requests so at least one evaluates with zero bad samples.
        for _ in 0..2 * slo.window {
            let out = engine.search(QueryRequest::new("apple", 6, AlgorithmKind::OptSelect));
            assert!(!out.degraded, "recovered engine degraded a request");
        }
        let after = engine.metrics();
        assert!(
            !after.slo_alert_active,
            "a clean window must clear the alert latch: {after:?}"
        );
        assert!(
            after.slo_burn_alerts >= m.slo_burn_alerts,
            "rising-edge count never decreases"
        );
    });
}

#[test]
fn kill_heavy_plan_contains_every_panic_and_recovers() {
    let _s = serial();
    with_watchdog(300, "kill-heavy chaos soak", || {
        let index = corpus();
        let executor = Arc::new(ScoringExecutor::new(2));
        // Shard-scoring panics, p 0.03 per task.
        let faults = Faults::new(0xDEAD_BEEF);
        let hook = faults.clone();
        let retriever: Arc<dyn Retriever> = Arc::new(
            ShardedIndex::build(index.clone(), 4)
                .with_executor(executor)
                .with_parallel_threshold(0)
                .with_fault_injection(move |shard| {
                    if hook.roll(&[0.03]).is_some() {
                        panic!("injected panic scoring shard {shard}");
                    }
                }),
        );
        let engine = build_engine(index, retriever, 4, 0, None);
        let oracle = compute_oracle(&engine);
        let pool = WorkerPool::new(engine.clone(), 8);

        let plan = Arc::new(
            FaultPlan::new(0xDEAD_BEEF)
                .with_rule("pool.serve", 0.15, FaultKind::Panic)
                .with_rule("stage.select", 0.05, FaultKind::Panic),
        );
        let (clean, degraded) = {
            let _armed = chaos::armed(plan.clone());
            storm_with(&faults, &pool, &oracle)
        };
        assert_eq!(clean + degraded, (CLIENTS * PER_CLIENT) as u64);
        assert!(plan.fired_total() > 0, "the plan never fired");
        assert!(faults.fired(0) > 0, "the shard hook never fired");
        assert!(clean > 0, "panics must not take the pool down");
        let m = engine.metrics();
        assert!(
            m.internal_errors > 0,
            "contained panics must be counted: {m:?}"
        );
        assert_partition(&engine);
        // The pool's workers all survived: a full fault-free batch serves.
        assert_recovers(&engine, &oracle, Duration::from_secs(10));
        let replies = pool.serve_batch(vec![QueryRequest::new(
            "apple",
            6,
            AlgorithmKind::OptSelect,
        )]);
        assert!(!replies[0].degraded, "pool serves cleanly after the storm");
    });
}

#[test]
fn select_stage_catches_a_budget_spent_after_the_last_stage_edge() {
    let _s = serial();
    with_watchdog(60, "select-stage budget check", || {
        let index = corpus();
        let retriever: Arc<dyn Retriever> = index.clone();
        // 200 ms of budget, far above the undelayed pipeline on this corpus.
        let engine = build_engine(index, retriever, 1, 200_000, None);
        let req = QueryRequest::new("apple", 6, AlgorithmKind::OptSelect);
        // The `stage.select` failpoint fires after the utility stage's
        // edge check passed, so only the select stage's own check can see
        // the budget go.
        let plan = Arc::new(FaultPlan::new(7).with_rule(
            "stage.select",
            1.0,
            FaultKind::Delay(Duration::from_millis(300)),
        ));
        let out = {
            let _armed = chaos::armed(plan.clone());
            engine.search(req.clone())
        };
        assert_eq!(plan.fired_total(), 1);
        assert!(out.degraded && !out.diversified);
        assert_eq!(out.algorithm, "DPH (degraded)");
        assert_eq!(out.results.len(), 6);
        assert_eq!(engine.metrics().degraded, 1);
        let clean = engine.search(req);
        assert!(!clean.degraded);
        assert_eq!(clean.algorithm, "OptSelect");
    });
}

fn fleet_socket(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("serpdiv-chaos-{}-{tag}.sock", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

#[test]
fn corruption_heavy_plan_keeps_fleet_pages_sound_and_recovers() {
    let _s = serial();
    with_watchdog(300, "corruption-heavy fleet chaos soak", || {
        let index = corpus();
        let sharded = ShardedIndex::build(index.clone(), 2);
        let faults = Faults::new(0xC0DE_C0DE);
        // In-process worker threads, each connection on its own scoped
        // thread (a hedge arrives on a fresh connection while the stalled
        // one is still open), served through a `FaultyStream`.
        let mut sockets = Vec::new();
        for s in 0..2 {
            let path = fleet_socket(&format!("w{s}"));
            let bytes = sharded.export_shard(s);
            let listener = UnixListener::bind(&path).expect("bind fleet socket");
            let faults = faults.clone();
            std::thread::spawn(move || {
                let artifact = ShardArtifact::from_bytes(&bytes).expect("valid artifact");
                let artifact = &artifact;
                std::thread::scope(|scope| {
                    for inner in listener.incoming().flatten() {
                        let stream = FaultyStream {
                            inner,
                            faults: faults.clone(),
                        };
                        scope.spawn(move || {
                            worker::serve_connection(stream, artifact, DEFAULT_MAX_FRAME)
                        });
                    }
                });
            });
            sockets.push(path);
        }
        let router = Arc::new(FleetRouter::new(
            index.clone(),
            sockets,
            FleetConfig {
                shard_timeout: Duration::from_millis(150),
                breaker_cooldown: Duration::from_millis(100),
            },
        ));
        router
            .wait_ready(Duration::from_secs(5))
            .expect("fleet boots before chaos");
        let retriever: Arc<dyn Retriever> = router.clone();
        let engine = build_engine(index, retriever, 2, 0, None);
        let oracle = compute_oracle(&engine);
        let pool = WorkerPool::new(engine.clone(), 8);

        let (clean, degraded) = storm_with(&faults, &pool, &oracle);
        assert_eq!(clean + degraded, (CLIENTS * PER_CLIENT) as u64);
        for (kind, name) in [
            (CORRUPT, "corrupt"),
            (HANG_UP, "hang-up"),
            (SWALLOW, "swallow"),
        ] {
            assert!(faults.fired(kind) > 0, "the {name} fault never fired");
        }
        assert!(degraded > 0, "this plan is violent enough to degrade");
        assert!(clean > 0, "retries and hedges must save most exchanges");
        assert_partition(&engine);
        // Corrupted framing and hang-ups surface as shard failures;
        // swallowed replies as hedges or deadline timeouts.
        let fm = router.metrics();
        assert!(fm.shard_failures > 0, "no shard failure counted: {fm:?}");
        assert!(
            fm.shard_timeouts + fm.hedges > 0,
            "no swallowed reply was hedged or timed out: {fm:?}"
        );
        // Faults off, the breakers close and pages return to bit-exact.
        assert_recovers(&engine, &oracle, Duration::from_secs(15));
        assert_eq!(
            engine.metrics().requests,
            engine.metrics().cache_hits
                + engine.metrics().diversified
                + engine.metrics().passthrough
                + engine.metrics().shed
                + engine.metrics().internal_errors
        );
    });
}
