//! The worker-pool executor: a fixed set of OS threads serving requests
//! from a shared queue.
//!
//! Query serving is CPU-bound (retrieval + utility math), so a
//! thread-per-core pool needs no async runtime. Workers share the engine
//! through an `Arc`; the engine is immutable after deployment, so there is
//! no cross-request locking outside the result cache's shards.
//!
//! The hand-off is one `JobQueue`: a `VecDeque` under a mutex, and a
//! condvar idle workers park on. A parked worker holds no lock, so an
//! arrival costs one wake-up of one worker — and none when every worker
//! is busy, because a worker re-checks the queue before it parks. (A
//! channel whose receiver sits behind a mutex does not have this
//! property: one worker parks inside `recv()` *holding* the mutex, the
//! others sleep on the mutex, and every job wakes two threads, the second
//! only to find the channel empty.) Workers never spin: the measured
//! variants are in the README's serving-pool section.
//!
//! When the retrieval layer is a sharded index backed by a persistent
//! [`ScoringExecutor`](serpdiv_index::ScoringExecutor), the pool's
//! workers act as scatter *submitters*: each request hands its shard
//! tasks to the shared scoring pool (helping drain its own batch while it
//! waits), so total scoring threads stay `pool workers + executor
//! threads` instead of multiplying per query.

use crate::engine::{elapsed_us, SearchEngine};
use crate::metrics::Degradation;
use crate::request::{QueryRequest, SearchResponse, StageTimings, LABEL_INTERNAL, LABEL_SHED};
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

/// Admission-control policy of a [`WorkerPool`]: how much queueing the
/// pool tolerates before it starts shedding load.
///
/// An unbounded queue convoys under overload — every queued request
/// eventually gets served, seconds late, long after its client gave up.
/// Shedding at admission keeps the latency of the requests that *are*
/// served flat and turns the overflow into cheap, honestly-labeled
/// [`Degradation::Shed`] responses (label
/// [`LABEL_SHED`], counted in
/// [`MetricsSnapshot::shed`](crate::MetricsSnapshot::shed), never
/// cached). The default policy is fully permissive, preserving the
/// historical unbounded behavior.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionPolicy {
    /// Maximum jobs waiting in the queue before new submissions are shed
    /// at enqueue time, in O(µs) — no engine work, no syscalls. The bound
    /// is exact: the length is read under the lock the push itself takes,
    /// so however many submitters race, never more than `max_queue` jobs
    /// wait. 0 ⇒ unbounded.
    pub max_queue: usize,
    /// Maximum enqueue→pickup wait before a dequeued job is shed at
    /// pickup instead of served: a request that waited this long is
    /// stale, and serving it would only delay fresher ones behind it.
    /// 0 ⇒ serve no matter how stale.
    pub max_queue_wait_us: u64,
}

/// Minimum service time (µs) after which a worker yields its slice at the
/// request boundary — see the yield comment in the worker loop. Requests
/// below this cost less than the yield syscall itself.
const YIELD_AFTER_US: u64 = 16;

struct Job {
    seq: usize,
    req: QueryRequest,
    /// When the job entered the queue; the dequeuing worker turns it into
    /// the response's `queue_wait_us`.
    enqueued: Instant,
    reply: mpsc::Sender<(usize, SearchResponse)>,
}

/// The pool's hand-off: jobs in arrival order, and the condvar idle
/// workers park on.
#[derive(Default)]
struct JobQueue {
    /// Jobs, the shutdown flag and the parked count under ONE mutex: all
    /// three are condvar state, so none can change while a worker is
    /// between finding the queue empty and `wait` — no wake-up is lost.
    state: Mutex<QueueState>,
    ready: Condvar,
}

#[derive(Default)]
struct QueueState {
    /// Enqueued, not yet picked up — what `max_queue` bounds.
    jobs: VecDeque<Job>,
    /// Set when the pool drops: workers drain `jobs`, then exit.
    closed: bool,
    /// Workers inside `ready.wait`: a push wakes one only when there is
    /// one to wake.
    parked: usize,
}

impl JobQueue {
    /// Every critical section below leaves the state valid at each step,
    /// so a poisoned lock is safe to recover.
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Append `job` and wake one parked worker — unless `max_len > 0` and
    /// that many jobs already wait, in which case the job comes back.
    fn push(&self, job: Job, max_len: usize) -> Result<(), Job> {
        let mut state = self.lock();
        if max_len > 0 && state.jobs.len() >= max_len {
            return Err(job);
        }
        state.jobs.push_back(job);
        let wake = state.parked > 0;
        // Unlock first: the woken worker's first act is to take the lock.
        drop(state);
        if wake {
            self.ready.notify_one();
        }
        Ok(())
    }

    /// The oldest job, parking until one arrives; `None` once the queue
    /// is closed *and* drained.
    fn pop(&self) -> Option<Job> {
        let mut state = self.lock();
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state.parked += 1;
            state = self.ready.wait(state).unwrap_or_else(|e| e.into_inner());
            state.parked -= 1;
        }
    }

    fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }
}

/// A pool of serving threads over one shared [`SearchEngine`].
pub struct WorkerPool {
    queue: Arc<JobQueue>,
    workers: Vec<JoinHandle<()>>,
    engine: Arc<SearchEngine>,
    policy: AdmissionPolicy,
}

impl WorkerPool {
    /// Spawn `workers` serving threads (at least one) with an unbounded
    /// queue (the permissive [`AdmissionPolicy::default`]).
    pub fn new(engine: Arc<SearchEngine>, workers: usize) -> Self {
        Self::with_admission(engine, workers, AdmissionPolicy::default())
    }

    /// Spawn `workers` serving threads governed by `policy`.
    pub fn with_admission(
        engine: Arc<SearchEngine>,
        workers: usize,
        policy: AdmissionPolicy,
    ) -> Self {
        let workers = workers.max(1);
        let queue = Arc::new(JobQueue::default());
        let handles = (0..workers)
            .map(|i| {
                let engine = engine.clone();
                let queue = queue.clone();
                std::thread::Builder::new()
                    .name(format!("serpdiv-serve-{i}"))
                    .spawn(move || {
                        while let Some(job) = queue.pop() {
                            let served_us = Self::serve_job(&engine, policy, job);
                            // Yield at the request boundary. When workers
                            // outnumber cores, a thread that has run long
                            // enough gets preempted *mid-request*, parking a
                            // ~50 µs request behind a full scheduler rotation
                            // (tens of ms — the entire measured p99 tail).
                            // Yielding here re-queues the thread while it
                            // holds no request, so preemption lands between
                            // requests and each timed service section starts
                            // with a fresh slice it comfortably fits into.
                            // Gated on the request actually costing real CPU:
                            // paths cheaper than the yield itself (shed
                            // replies, cache hits, bare passthroughs) barely
                            // widen the preemption window and would pay more
                            // in syscalls than they save in tail.
                            if served_us >= YIELD_AFTER_US {
                                std::thread::yield_now();
                            }
                        }
                    })
                    .expect("failed to spawn serving worker")
            })
            .collect();
        WorkerPool {
            queue,
            workers: handles,
            engine,
            policy,
        }
    }

    /// Serve one dequeued job on a worker thread: staleness shedding,
    /// panic containment, reply delivery. Returns the request's service
    /// time in microseconds (0 for shed replies) — the worker loop's
    /// yield gate.
    fn serve_job(engine: &SearchEngine, policy: AdmissionPolicy, job: Job) -> u64 {
        let Job {
            seq,
            req,
            enqueued,
            reply,
        } = job;
        // Enqueue → pickup is the saturation signal the stage timings
        // cannot see (they start after).
        let queue_wait_us = elapsed_us(enqueued);
        let picked_up = Instant::now();
        engine.record_queue_wait(queue_wait_us);
        if policy.max_queue_wait_us > 0 && queue_wait_us > policy.max_queue_wait_us {
            let timings = StageTimings {
                queue_wait_us,
                total_us: elapsed_us(picked_up),
                ..StageTimings::default()
            };
            engine.record_out_of_band(Degradation::Shed, timings);
            let _ = reply.send((
                seq,
                degraded_reply(
                    req.query,
                    LABEL_SHED,
                    timings,
                    engine.current_generation_id(),
                ),
            ));
            return 0;
        }
        // Contain panics (a scoring bug, or a test's faulted retriever):
        // the worker answers with a labeled internal error and keeps
        // serving, so one poisoned request can never shrink the pool — or
        // deadlock a batch waiting on a reply that will never come.
        let query = req.query.clone();
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| engine.search(req)));
        let response = match result {
            Ok(mut response) => {
                response.timings.queue_wait_us = queue_wait_us;
                response
            }
            Err(_) => {
                // Service time from pickup, like every computed reply's:
                // the queue wait is reported apart.
                let timings = StageTimings {
                    queue_wait_us,
                    total_us: elapsed_us(picked_up),
                    ..StageTimings::default()
                };
                engine.record_out_of_band(Degradation::Internal, timings);
                degraded_reply(
                    query,
                    LABEL_INTERNAL,
                    timings,
                    engine.current_generation_id(),
                )
            }
        };
        // Service time excluding the queue wait: what the worker itself
        // spent on this request.
        let served_us = response.timings.total_us;
        // A dropped reply receiver just means the client stopped
        // waiting; keep serving.
        let _ = reply.send((seq, response));
        served_us
    }

    /// Number of serving threads.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// Enqueue one request; the response arrives on the returned channel.
    /// Never blocks on the workers.
    pub fn submit(&self, req: QueryRequest) -> mpsc::Receiver<(usize, SearchResponse)> {
        let (reply, rx) = mpsc::channel();
        self.enqueue(0, req, reply);
        rx
    }

    /// Serve a batch concurrently, returning responses in request order.
    pub fn serve_batch(&self, requests: Vec<QueryRequest>) -> Vec<SearchResponse> {
        let n = requests.len();
        let (reply, rx) = mpsc::channel();
        for (seq, req) in requests.into_iter().enumerate() {
            self.enqueue(seq, req, reply.clone());
        }
        drop(reply);
        let mut out: Vec<Option<SearchResponse>> = (0..n).map(|_| None).collect();
        for (seq, response) in rx {
            out[seq] = Some(response);
        }
        out.into_iter()
            .map(|r| r.expect("a serving worker died before replying"))
            .collect()
    }

    fn enqueue(&self, seq: usize, req: QueryRequest, reply: mpsc::Sender<(usize, SearchResponse)>) {
        let job = Job {
            seq,
            req,
            enqueued: Instant::now(),
            reply,
        };
        if let Err(job) = self.queue.push(job, self.policy.max_queue) {
            self.shed(seq, job.req.query, job.reply);
        }
    }

    /// Answer a request refused at admission: counted, labeled, O(µs).
    fn shed(&self, seq: usize, query: String, reply: mpsc::Sender<(usize, SearchResponse)>) {
        let timings = StageTimings::default();
        self.engine.record_out_of_band(Degradation::Shed, timings);
        let _ = reply.send((
            seq,
            degraded_reply(
                query,
                LABEL_SHED,
                timings,
                self.engine.current_generation_id(),
            ),
        ));
    }
}

/// An empty, degraded, never-cached response carrying `label` — the shape
/// of every page the pool produces without running the engine. Stamped
/// with the generation that was current when the reply was minted (no
/// pipeline ran, so there is no pinned generation to report).
fn degraded_reply(
    query: String,
    label: &'static str,
    timings: StageTimings,
    generation: u64,
) -> SearchResponse {
    SearchResponse {
        query,
        algorithm: label,
        diversified: false,
        cache_hit: false,
        degraded: true,
        results: Arc::new(Vec::new()),
        generation,
        timings,
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Close the queue so workers drain and exit, then join them.
        self.queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use serpdiv_core::{
        AlgorithmKind, PipelineParams, SpecializationEntry, SpecializationModel, UtilityParams,
    };
    use serpdiv_index::{Document, IndexBuilder, InvertedIndex, Retrieval, Retriever};
    use serpdiv_text::TermId;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn engine() -> Arc<SearchEngine> {
        let mut b = IndexBuilder::new();
        for i in 0..4u32 {
            b.add(Document::new(
                i,
                format!("http://tech/{i}"),
                "apple iphone",
                "apple iphone smartphone review chip battery",
            ));
        }
        for i in 4..8u32 {
            b.add(Document::new(
                i,
                format!("http://food/{i}"),
                "apple fruit",
                "apple fruit orchard sweet harvest juice",
            ));
        }
        let mut model = SpecializationModel::default();
        model.insert(SpecializationEntry {
            query: "apple".into(),
            specializations: vec![("apple iphone".into(), 0.6), ("apple fruit".into(), 0.4)],
        });
        Arc::new(SearchEngine::deploy(
            Arc::new(b.build()),
            Arc::new(model),
            EngineConfig {
                n_candidates: 8,
                params: PipelineParams {
                    utility: UtilityParams { threshold_c: 0.4 },
                    ..PipelineParams::default()
                },
                ..EngineConfig::default()
            },
        ))
    }

    #[test]
    fn batch_preserves_request_order() {
        let pool = WorkerPool::new(engine(), 4);
        assert_eq!(pool.num_workers(), 4);
        let reqs: Vec<QueryRequest> = (0..40)
            .map(|i| {
                if i % 2 == 0 {
                    QueryRequest::new("apple", 4, AlgorithmKind::OptSelect)
                } else {
                    QueryRequest::new("apple fruit", 2, AlgorithmKind::Baseline)
                }
            })
            .collect();
        let responses = pool.serve_batch(reqs);
        assert_eq!(responses.len(), 40);
        for (i, r) in responses.iter().enumerate() {
            if i % 2 == 0 {
                assert_eq!(r.query, "apple");
                assert_eq!(r.results.len(), 4);
            } else {
                assert_eq!(r.query, "apple fruit");
                assert_eq!(r.results.len(), 2);
            }
        }
    }

    #[test]
    fn batch_responses_match_direct_calls() {
        let shared = engine();
        let pool = WorkerPool::new(shared.clone(), 3);
        let req = QueryRequest::new("apple", 4, AlgorithmKind::XQuad);
        let direct = shared.search(req.clone());
        let via_pool = pool.serve_batch(vec![req]).remove(0);
        assert_eq!(
            direct.results.iter().map(|r| r.doc).collect::<Vec<_>>(),
            via_pool.results.iter().map(|r| r.doc).collect::<Vec<_>>()
        );
    }

    #[test]
    fn submit_single() {
        let pool = WorkerPool::new(engine(), 2);
        let rx = pool.submit(QueryRequest::new("apple", 3, AlgorithmKind::IaSelect));
        let (seq, response) = rx.recv().expect("reply");
        assert_eq!(seq, 0);
        assert_eq!(response.results.len(), 3);
    }

    #[test]
    fn queue_wait_is_measured_and_aggregated() {
        let shared = engine();
        let pool = WorkerPool::new(shared.clone(), 2);
        let reqs: Vec<QueryRequest> = (0..20)
            .map(|_| QueryRequest::new("apple", 4, AlgorithmKind::OptSelect))
            .collect();
        let responses = pool.serve_batch(reqs);
        // Every pooled response carries a measured (possibly zero) wait;
        // the engine aggregates one wait sample per pooled request.
        assert_eq!(responses.len(), 20);
        let m = shared.metrics();
        assert_eq!(m.queue_waits, 20);
        assert!(m.mean_queue_wait_us >= 0.0);
        // Direct engine calls bypass the queue and record no wait.
        let direct = shared.search(QueryRequest::new("apple", 4, AlgorithmKind::OptSelect));
        assert_eq!(direct.timings.queue_wait_us, 0);
        assert_eq!(shared.metrics().queue_waits, 20);
    }

    #[test]
    fn empty_batch() {
        let pool = WorkerPool::new(engine(), 2);
        assert!(pool.serve_batch(Vec::new()).is_empty());
    }

    /// The plain index, running `hook` on the query of every analysis
    /// first — how these tests make a request slow, panic, or park at a
    /// point of their choosing.
    struct Hooked<F> {
        index: Arc<InvertedIndex>,
        hook: F,
    }

    impl<F: Fn(&str) + Send + Sync> Retriever for Hooked<F> {
        fn query_terms(&self, query: &str) -> Vec<TermId> {
            (self.hook)(query);
            self.index.query_terms(query)
        }
        fn retrieve_terms_within(
            &self,
            terms: &[TermId],
            k: usize,
            budget_us: Option<u64>,
        ) -> Retrieval {
            self.index.retrieve_terms_within(terms, k, budget_us)
        }
    }

    /// An engine over [`engine`]'s artifacts whose retrieval runs `hook`
    /// first — once per request, since every computed request analyzes
    /// its query once — with the cache off so repeats run it again.
    fn hooked_engine(hook: impl Fn(&str) + Send + Sync + 'static) -> Arc<SearchEngine> {
        let generation = engine().generation();
        let index = generation.index().clone();
        Arc::new(SearchEngine::with_retriever_and_forward(
            index.clone(),
            Arc::new(Hooked { index, hook }),
            generation.model().clone(),
            generation.store().clone(),
            generation.compiled().clone(),
            None,
            EngineConfig {
                cache_capacity: 0,
                n_candidates: 8,
                params: PipelineParams {
                    utility: UtilityParams { threshold_c: 0.4 },
                    ..PipelineParams::default()
                },
                ..EngineConfig::default()
            },
        ))
    }

    /// A single worker made predictably slow so the queue fills.
    fn slow_engine(delay: std::time::Duration) -> Arc<SearchEngine> {
        hooked_engine(move |_| std::thread::sleep(delay))
    }

    #[test]
    fn bounded_queue_sheds_overflow_at_enqueue() {
        let shared = slow_engine(std::time::Duration::from_millis(30));
        let pool = WorkerPool::with_admission(
            shared.clone(),
            1,
            AdmissionPolicy {
                max_queue: 1,
                ..AdmissionPolicy::default()
            },
        );
        let reqs: Vec<QueryRequest> = (0..12)
            .map(|_| QueryRequest::new("apple", 4, AlgorithmKind::OptSelect))
            .collect();
        let responses = pool.serve_batch(reqs);
        assert_eq!(responses.len(), 12, "every request gets *an* answer");
        let shed: Vec<_> = responses
            .iter()
            .filter(|r| r.algorithm == LABEL_SHED)
            .collect();
        let served: Vec<_> = responses
            .iter()
            .filter(|r| r.algorithm != LABEL_SHED)
            .collect();
        assert!(!shed.is_empty(), "a 1-deep queue must shed a 12-burst");
        assert!(!served.is_empty(), "admission must not shed everything");
        for r in &shed {
            assert!(r.degraded);
            assert!(!r.diversified);
            assert!(!r.cache_hit);
            assert!(r.results.is_empty());
        }
        for r in &served {
            assert_eq!(r.results.len(), 4);
        }
        let m = shared.metrics();
        assert_eq!(m.shed, shed.len() as u64);
        assert_eq!(
            m.requests,
            m.cache_hits + m.diversified + m.passthrough + m.shed + m.internal_errors,
            "leaf classes partition the request total"
        );
        // Shed responses never enter the result cache (there is no cache
        // here at all, but the label asserts the path: no engine work ran).
    }

    #[test]
    fn stale_queued_requests_are_shed_at_pickup() {
        let shared = slow_engine(std::time::Duration::from_millis(25));
        let pool = WorkerPool::with_admission(
            shared.clone(),
            1,
            AdmissionPolicy {
                max_queue_wait_us: 5_000, // 5 ms: far below one 25 ms service time
                ..AdmissionPolicy::default()
            },
        );
        let reqs: Vec<QueryRequest> = (0..5)
            .map(|_| QueryRequest::new("apple", 4, AlgorithmKind::OptSelect))
            .collect();
        let responses = pool.serve_batch(reqs);
        let shed = responses
            .iter()
            .filter(|r| r.algorithm == LABEL_SHED)
            .count();
        let served = responses
            .iter()
            .filter(|r| r.algorithm != LABEL_SHED)
            .count();
        // The in-flight request is served; everything that sat behind a
        // 25 ms service time exceeded the 5 ms staleness bound.
        assert!(served >= 1);
        assert!(shed >= 1, "stale jobs must be shed at pickup");
        assert_eq!(shared.metrics().shed, shed as u64);
        for r in responses.iter().filter(|r| r.algorithm == LABEL_SHED) {
            assert!(r.timings.queue_wait_us > 5_000);
            assert!(r.degraded);
        }
    }

    #[test]
    fn worker_contains_panics_and_keeps_serving() {
        // A retrieval that panics on a marker query.
        let rebuilt = hooked_engine(|query| assert!(query != "boom", "injected retrieval panic"));
        let pool = WorkerPool::new(rebuilt.clone(), 2);
        let reqs = vec![
            QueryRequest::new("apple", 4, AlgorithmKind::OptSelect),
            QueryRequest::new("boom", 4, AlgorithmKind::OptSelect),
            QueryRequest::new("apple", 4, AlgorithmKind::OptSelect),
            QueryRequest::new("boom", 4, AlgorithmKind::OptSelect),
        ];
        // serve_batch must not hang or panic even though two requests
        // kill their stage: the worker catches, answers, and survives.
        let responses = pool.serve_batch(reqs);
        assert_eq!(responses.len(), 4);
        for (i, r) in responses.iter().enumerate() {
            if i % 2 == 1 {
                assert_eq!(r.algorithm, LABEL_INTERNAL, "request {i}");
                assert!(r.degraded);
                assert!(r.results.is_empty());
                assert_eq!(r.query, "boom");
            } else {
                assert_eq!(r.results.len(), 4, "request {i}");
                assert!(!r.degraded);
            }
        }
        let m = rebuilt.metrics();
        assert_eq!(m.internal_errors, 2);
        assert_eq!(
            m.requests,
            m.cache_hits + m.diversified + m.passthrough + m.shed + m.internal_errors
        );
        // The pool still has live workers: a follow-up batch is served.
        let again = pool.serve_batch(vec![QueryRequest::new("apple", 3, AlgorithmKind::Mmr)]);
        assert_eq!(again[0].results.len(), 3);
    }

    #[test]
    fn a_contained_panic_reports_service_time_without_the_queue_wait() {
        // One worker: the "boom" request waits out the 30 ms request ahead
        // of it, then panics at once.
        let shared = hooked_engine(|query| {
            assert!(query != "boom", "injected retrieval panic");
            std::thread::sleep(std::time::Duration::from_millis(30));
        });
        let pool = WorkerPool::new(shared, 1);
        let responses = pool.serve_batch(vec![
            QueryRequest::new("apple", 4, AlgorithmKind::OptSelect),
            QueryRequest::new("boom", 4, AlgorithmKind::OptSelect),
        ]);
        let internal = &responses[1];
        assert_eq!(internal.algorithm, LABEL_INTERNAL);
        let t = internal.timings;
        assert!(t.queue_wait_us >= 20_000, "{t:?}");
        assert!(
            t.total_us < t.queue_wait_us,
            "total counts the queue wait: {t:?}"
        );
    }

    #[test]
    fn drop_joins_workers() {
        let pool = WorkerPool::new(engine(), 2);
        let _ = pool.serve_batch(vec![QueryRequest::new(
            "apple",
            2,
            AlgorithmKind::OptSelect,
        )]);
        drop(pool); // must not hang
    }

    // ---- the job queue -------------------------------------------------

    /// How long a reply may take before a test calls it lost — a lost
    /// wake-up shows as a failure, not as a hung test run.
    const REPLY_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(60);

    /// Parks the worker that picks up `marker` between two rendezvous:
    /// the test passes `entered` once the worker is inside (so everything
    /// submitted afterwards queues *behind* it), and `release` to let it
    /// go. Also logs every query in service order.
    struct Gate {
        marker: &'static str,
        entered: std::sync::Barrier,
        release: std::sync::Barrier,
        served: Mutex<Vec<String>>,
    }

    impl Gate {
        fn new(marker: &'static str) -> Arc<Gate> {
            Arc::new(Gate {
                marker,
                entered: std::sync::Barrier::new(2),
                release: std::sync::Barrier::new(2),
                served: Mutex::new(Vec::new()),
            })
        }
    }

    /// `workers` workers (and `policy`) over an uncached engine whose
    /// retrieval passes through `gate`; returns once one worker is parked
    /// inside the gate, with the reply channel of the request that parked
    /// it.
    fn gated_pool(
        gate: &Arc<Gate>,
        workers: usize,
        policy: AdmissionPolicy,
    ) -> (WorkerPool, mpsc::Receiver<(usize, SearchResponse)>) {
        let hook_gate = gate.clone();
        let engine = hooked_engine(move |query| {
            hook_gate.served.lock().unwrap().push(query.to_string());
            if query == hook_gate.marker {
                hook_gate.entered.wait();
                hook_gate.release.wait();
            }
        });
        let pool = WorkerPool::with_admission(engine, workers, policy);
        let gated = pool.submit(QueryRequest::new(gate.marker, 2, AlgorithmKind::Baseline));
        gate.entered.wait();
        (pool, gated)
    }

    /// Jobs waiting in `pool`'s queue, read under the queue's lock.
    fn waiting(pool: &WorkerPool) -> usize {
        pool.queue.lock().jobs.len()
    }

    fn reply(rx: &mpsc::Receiver<(usize, SearchResponse)>) -> SearchResponse {
        let (_, response) = rx
            .recv_timeout(REPLY_TIMEOUT)
            .expect("a reply went missing: lost wake-up?");
        assert!(rx.try_recv().is_err(), "one request, one reply");
        response
    }

    #[test]
    fn sequential_round_trips_never_lose_a_wake_up() {
        // One client, two workers: both workers park between requests, so
        // every one of the 20 000 pushes has to wake a parked worker. A
        // push that skips the notify (or notifies before the job is
        // visible) strands a request and the reply times out.
        let pool = WorkerPool::new(engine(), 2);
        for i in 0..20_000u32 {
            let rx = pool.submit(QueryRequest::new("apple fruit", 2, AlgorithmKind::Baseline));
            let response = reply(&rx);
            assert_eq!(response.results.len(), 2, "round trip {i}");
        }
        assert_eq!(waiting(&pool), 0);
    }

    #[test]
    fn racing_submitters_each_get_every_reply_exactly_once() {
        let shared = engine();
        let pool = WorkerPool::new(shared.clone(), 4);
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    start.wait();
                    for _ in 0..2_000 {
                        let rx =
                            pool.submit(QueryRequest::new("apple", 3, AlgorithmKind::Baseline));
                        assert_eq!(reply(&rx).results.len(), 3);
                    }
                });
            }
        });
        assert_eq!(waiting(&pool), 0);
        assert_eq!(shared.metrics().queue_waits, 16_000, "one pickup per job");
    }

    #[test]
    fn one_worker_serves_in_arrival_order() {
        let gate = Gate::new("gate");
        let (pool, gated) = gated_pool(&gate, 1, AdmissionPolicy::default());
        let queries: Vec<String> = (0..32).map(|i| format!("apple {i}")).collect();
        let replies: Vec<_> = queries
            .iter()
            .map(|q| pool.submit(QueryRequest::new(q.clone(), 2, AlgorithmKind::Baseline)))
            .collect();
        let queued = waiting(&pool);
        // Release before asserting anything: a panic with the worker still
        // in the gate would hang the pool's drop instead of failing.
        gate.release.wait();
        assert_eq!(queued, 32, "all queued behind the gated job");
        reply(&gated);
        for (rx, q) in replies.iter().zip(&queries) {
            assert_eq!(&reply(rx).query, q);
        }
        assert_eq!(gate.served.lock().unwrap()[1..], queries[..]);
        assert_eq!(waiting(&pool), 0);
    }

    #[test]
    fn max_queue_sheds_exactly_the_overflow_of_racing_submitters() {
        // The worker is parked in the gate and the queue is empty; 16
        // submitters then race for 4 slots.
        for round in 0..20 {
            let gate = Gate::new("gate");
            let (pool, gated) = gated_pool(
                &gate,
                1,
                AdmissionPolicy {
                    max_queue: 4,
                    ..AdmissionPolicy::default()
                },
            );
            let start = std::sync::Barrier::new(16);
            let replies: Vec<_> = std::thread::scope(|scope| {
                let racers: Vec<_> = (0..16)
                    .map(|_| {
                        scope.spawn(|| {
                            start.wait();
                            pool.submit(QueryRequest::new("apple", 2, AlgorithmKind::Baseline))
                        })
                    })
                    .collect();
                racers.into_iter().map(|r| r.join().unwrap()).collect()
            });
            let queued = waiting(&pool);
            gate.release.wait();
            assert_eq!(queued, 4, "round {round}");
            reply(&gated);
            let shed = replies
                .iter()
                .filter(|rx| reply(rx).algorithm == LABEL_SHED)
                .count();
            assert_eq!(shed, 12, "round {round}");
        }
    }

    #[test]
    fn two_pushers_racing_for_the_last_slot_never_both_get_it() {
        // The sharpest form of the race above, on the queue itself: 3 of 4
        // slots full, two threads released in lock-step (a spun counter —
        // a `Barrier` wakes its waiters too far apart to overlap) each
        // push once. The bound is checked under the lock the push takes,
        // so exactly one gets in; a check against a length read before
        // that lock lets both find 3 waiting.
        let queue = JobQueue::default();
        let job = || Job {
            seq: 0,
            req: QueryRequest::new("apple", 2, AlgorithmKind::Baseline),
            enqueued: Instant::now(),
            reply: mpsc::channel().0,
        };
        for _ in 0..3 {
            assert!(queue.push(job(), 4).is_ok());
        }
        const WAVES: usize = 200_000;
        let wave = AtomicUsize::new(0);
        let rival_done = AtomicUsize::new(0);
        let rival_wins = AtomicUsize::new(0);
        let await_count = |counter: &AtomicUsize, target: usize| {
            while counter.load(Ordering::Acquire) < target {
                std::thread::yield_now();
            }
        };
        let violation = std::thread::scope(|scope| {
            scope.spawn(|| {
                for w in 1..=WAVES {
                    await_count(&wave, w);
                    if queue.push(job(), 4).is_ok() {
                        rival_wins.fetch_add(1, Ordering::Relaxed);
                    }
                    rival_done.store(w, Ordering::Release);
                }
            });
            for w in 1..=WAVES {
                let rival_before = rival_wins.load(Ordering::Relaxed);
                wave.store(w, Ordering::Release);
                let won = queue.push(job(), 4).is_ok();
                await_count(&rival_done, w);
                let winners = usize::from(won) + rival_wins.load(Ordering::Relaxed) - rival_before;
                if (winners, queue.lock().jobs.len()) != (1, 4) {
                    // Let the rival run out before failing: a panic in
                    // here would leave the scope waiting on it forever.
                    wave.store(WAVES, Ordering::Release);
                    return Some((w, winners, queue.lock().jobs.len()));
                }
                drop(queue.pop());
            }
            None
        });
        assert_eq!(violation, None, "(wave, winners, queue length)");
    }

    #[test]
    fn jobs_queued_at_drop_are_answered_before_the_workers_exit() {
        let gate = Gate::new("gate");
        let (pool, gated) = gated_pool(&gate, 2, AdmissionPolicy::default());
        let replies: Vec<_> = (0..8)
            .map(|_| pool.submit(QueryRequest::new("apple", 2, AlgorithmKind::Baseline)))
            .collect();
        // Close while one worker is still inside the gate: it comes back
        // to a closed queue, and must drain it rather than exit.
        pool.queue.close();
        gate.release.wait();
        drop(pool);
        reply(&gated);
        for rx in &replies {
            assert_eq!(
                rx.try_recv().expect("answered before join").1.results.len(),
                2
            );
        }
    }
}
