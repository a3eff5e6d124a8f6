//! The persistent scatter-scoring executor.
//!
//! Spawning threads **per query** is a steady tax under serving
//! saturation, where every request pays thread start-up and a fresh
//! dense-accumulator allocation while competing with every other
//! request's freshly spawned scorers. [`ScoringExecutor`] is
//! [`ShardedIndex`](crate::sharded::ShardedIndex)'s one parallel path
//! instead: a fixed pool of workers fed by a lock-light injector queue.
//! A query's `N` shard-scoring tasks are submitted as one
//! batch and gathered through a per-query latch — no thread spawn, and
//! because the workers are permanent their thread-local scoring scratch
//! (dense accumulator + first-touch list) is allocated once and reused for
//! the life of the process.
//!
//! # Sharing and composition
//!
//! One executor is meant to be shared by *every* index and serving engine
//! in the process (`Arc<ScoringExecutor>`): scatter parallelism then
//! composes with request parallelism — threads that can be scoring at
//! once are bounded by `request_workers + executor_threads` (each
//! request worker helps drain only its own batch while it would
//! otherwise block) — instead of multiplying with it the way per-query
//! spawning does (`request_workers × shards` transient threads at
//! worst).
//!
//! # Progress guarantee
//!
//! The submitting thread does not idle behind the latch: after enqueueing
//! its batch it *helps*, claiming its own batch's unclaimed tasks until
//! none remain, and only then blocks on the latch for stragglers claimed
//! by pool workers. Every batch therefore completes even when the pool is
//! saturated by other queries — with `executor_threads = 1` and dozens of
//! concurrent submitters there is still no deadlock, because each
//! submitter can always finish its own work (asserted by the
//! `concurrency_soak` suite).
//!
//! # Panic containment
//!
//! A task that panics poisons **only its own batch**: the worker catches
//! the unwind, stores the payload, releases the latch, and goes back to
//! the queue. [`ScoringExecutor::scope_run`] returns the payload as an
//! `Err` so the submitter can re-raise it on the query's own thread
//! ([`ShardedIndex`](crate::sharded::ShardedIndex) does exactly that);
//! the next batch on the same worker runs normally (see the
//! `worker_survives_a_panicking_task` regression test).

use crate::search::ScoredDoc;
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// The panic payload of a scoring task, surfaced to the submitter.
pub type TaskPanic = Box<dyn std::any::Any + Send + 'static>;

/// A borrowed shard-scoring function: called with the task index
/// (`0..n`), returns that shard's top-`k`. Borrows freely from the
/// submitter's stack — [`ScoringExecutor::scope_run`] does not return
/// until every task has finished, which is what makes the borrow sound.
type ScopedTask<'a> = &'a (dyn Fn(usize) -> Vec<ScoredDoc> + Sync);

/// One in-flight query's scatter batch: the type-erased task, the claim
/// counter the workers (and the helping submitter) race on, the result
/// slots, and the completion latch.
struct Batch {
    /// Erased [`ScopedTask`]; only dereferenced between a successful
    /// claim (`next < n`) and the matching latch countdown, all of which
    /// happen before `scope_run` returns — so the pointee outlives every
    /// dereference even though the lifetime is erased.
    task: *const (dyn Fn(usize) -> Vec<ScoredDoc> + Sync),
    n: usize,
    /// Next unclaimed task index; values `>= n` mean "nothing left".
    next: AtomicUsize,
    /// Per-task result slots, written by whichever thread ran the task.
    results: Mutex<Vec<Option<Vec<ScoredDoc>>>>,
    /// First panic payload of the batch (subsequent ones are dropped).
    panic: Mutex<Option<TaskPanic>>,
    /// Latch: count of tasks not yet finished, plus the wakeup signal the
    /// submitter blocks on once its batch is fully claimed.
    remaining: Mutex<usize>,
    done: Condvar,
}

// SAFETY: `task` is a raw pointer only because its lifetime is erased;
// the pointee is `Sync` (required by `ScopedTask`) and `scope_run`
// guarantees it outlives all dereferences. Every other field is already
// `Send + Sync`.
unsafe impl Send for Batch {}
unsafe impl Sync for Batch {}

impl Batch {
    /// Claim and run one task. Returns `false` when the batch has no
    /// unclaimed tasks left (the ticket was stale).
    fn run_one(&self) -> bool {
        let idx = self.next.fetch_add(1, Ordering::Relaxed);
        if idx >= self.n {
            return false;
        }
        // SAFETY: idx < n, so the submitter is still parked in
        // `scope_run` (the latch it waits on counts this task) and the
        // borrowed closure is alive.
        let task = unsafe { &*self.task };
        match std::panic::catch_unwind(AssertUnwindSafe(|| task(idx))) {
            Ok(hits) => self.results.lock().unwrap_or_else(|e| e.into_inner())[idx] = Some(hits),
            Err(payload) => {
                let mut slot = self.panic.lock().unwrap_or_else(|e| e.into_inner());
                slot.get_or_insert(payload);
            }
        }
        // Count down the latch — also on panic, so a poisoned batch
        // releases its submitter instead of wedging it.
        let mut remaining = self.remaining.lock().unwrap_or_else(|e| e.into_inner());
        *remaining -= 1;
        if *remaining == 0 {
            self.done.notify_all();
        }
        true
    }
}

/// The injector queue the pool workers sleep on: one ticket per worker a
/// batch could occupy (a ticket is just a handle to its batch; the task
/// *indexes* are claimed from the batch's own counter, so the helping
/// submitter and the pool workers race without double-running anything).
struct Injector {
    /// Tickets and the shutdown flag under ONE mutex: both are condvar
    /// state, and guarding them together makes the no-lost-wakeup
    /// invariant structural — neither can change while a worker is
    /// between its predicate check and `wait`.
    state: Mutex<InjectorState>,
    available: Condvar,
}

struct InjectorState {
    queue: VecDeque<Arc<Batch>>,
    shutdown: bool,
}

/// A shared, long-lived pool of shard-scoring workers.
///
/// Create one per process (or per deployment) and attach it everywhere
/// with
/// [`ShardedIndex::with_executor`](crate::sharded::ShardedIndex::with_executor);
/// see the module docs for the design. Dropping the last
/// `Arc<ScoringExecutor>` shuts the pool down cleanly: workers finish the
/// task they are on and exit (no submitter can be in flight at that
/// point, since [`Self::scope_run`] borrows the executor).
pub struct ScoringExecutor {
    injector: Arc<Injector>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ScoringExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScoringExecutor")
            .field("threads", &self.workers.len())
            .finish()
    }
}

impl ScoringExecutor {
    /// Spawn a pool of `threads` scoring workers (at least one).
    pub fn new(threads: usize) -> Self {
        let injector = Arc::new(Injector {
            state: Mutex::new(InjectorState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
        });
        let workers = (0..threads.max(1))
            .map(|i| {
                let injector = injector.clone();
                std::thread::Builder::new()
                    .name(format!("serpdiv-score-{i}"))
                    .spawn(move || Self::worker_loop(&injector))
                    .expect("failed to spawn scoring worker")
            })
            .collect();
        ScoringExecutor { injector, workers }
    }

    /// Number of pool threads (the submitting thread additionally helps
    /// drain its own batch, so a query can progress even at 1).
    pub fn num_threads(&self) -> usize {
        self.workers.len()
    }

    fn worker_loop(injector: &Injector) {
        loop {
            let ticket = {
                let mut state = injector.state.lock().unwrap_or_else(|e| e.into_inner());
                loop {
                    if state.shutdown {
                        return;
                    }
                    if let Some(ticket) = state.queue.pop_front() {
                        break ticket;
                    }
                    state = injector
                        .available
                        .wait(state)
                        .unwrap_or_else(|e| e.into_inner());
                }
            };
            // Drain the batch: claims are raced via the batch's atomic
            // counter, so looping here and the submitter helping never
            // double-run a task. Stale tickets (the batch already fully
            // claimed) fall straight through.
            while ticket.run_one() {}
        }
    }

    /// Run `n` tasks (`task(0) .. task(n-1)`) through the pool, blocking
    /// until all have finished, and return their results in task order.
    ///
    /// The calling thread helps: it claims its own batch's tasks while
    /// the pool is busy, so completion never depends on pool capacity.
    /// If any task panicked, the first payload is returned as `Err` after
    /// the whole batch has settled (the pool itself is unaffected).
    pub fn scope_run(
        &self,
        n: usize,
        task: ScopedTask<'_>,
    ) -> Result<Vec<Vec<ScoredDoc>>, TaskPanic> {
        if n == 0 {
            return Ok(Vec::new());
        }
        // SAFETY: lifetime erasure only — the pointee lives until this
        // function returns, and the latch below keeps every dereference
        // before that point (see the `Batch::task` invariant).
        let task: *const (dyn Fn(usize) -> Vec<ScoredDoc> + Sync) =
            unsafe { std::mem::transmute(std::ptr::from_ref(task)) };
        let batch = Arc::new(Batch {
            task,
            n,
            next: AtomicUsize::new(0),
            results: Mutex::new((0..n).map(|_| None).collect()),
            panic: Mutex::new(None),
            remaining: Mutex::new(n),
            done: Condvar::new(),
        });
        // One ticket per worker that could usefully participate — each
        // popped ticket drains the batch via the claim counter, so more
        // tickets than workers would only produce stale pops contending
        // on the queue mutex. One lock acquisition enqueues all of them.
        let tickets = n.min(self.workers.len());
        {
            let mut state = self
                .injector
                .state
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            state.queue.extend((0..tickets).map(|_| batch.clone()));
        }
        // Wake exactly as many workers as there are tickets — waking the
        // whole pool for a 2-shard batch is pure queue-mutex contention.
        // (Busy workers re-check the queue after their current batch, and
        // the submitter drains its own batch regardless, so a wakeup
        // landing on no waiter costs nothing and loses nothing.)
        for _ in 0..tickets {
            self.injector.available.notify_one();
        }
        // Help: run unclaimed tasks of this batch on the submitting
        // thread (its thread-local scratch is as pinned as a worker's).
        while batch.run_one() {}
        // Latch: wait for tasks claimed by pool workers.
        {
            let mut remaining = batch.remaining.lock().unwrap_or_else(|e| e.into_inner());
            while *remaining > 0 {
                remaining = batch
                    .done
                    .wait(remaining)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }
        if let Some(payload) = batch.panic.lock().unwrap_or_else(|e| e.into_inner()).take() {
            return Err(payload);
        }
        let results = std::mem::take(&mut *batch.results.lock().unwrap_or_else(|e| e.into_inner()));
        Ok(results
            .into_iter()
            .map(|r| r.expect("latched batch has a result per task"))
            .collect())
    }
}

impl Drop for ScoringExecutor {
    fn drop(&mut self) {
        // The flag lives under the queue mutex, so a worker that already
        // checked it cannot be between check and `wait` while this store
        // happens — it either sees the flag before parking or is parked
        // by the time the lock releases, and the notify reaches it.
        self.injector
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .shutdown = true;
        self.injector.available.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::DocId;
    use std::sync::atomic::AtomicU32;

    fn doc(id: u32, score: f64) -> ScoredDoc {
        ScoredDoc {
            doc: DocId(id),
            score,
        }
    }

    #[test]
    fn results_come_back_in_task_order() {
        let exec = ScoringExecutor::new(3);
        for n in [1, 2, 7, 32] {
            let out = exec
                .scope_run(n, &|i| vec![doc(i as u32, i as f64)])
                .expect("no panics");
            assert_eq!(out.len(), n);
            for (i, hits) in out.iter().enumerate() {
                assert_eq!(hits, &vec![doc(i as u32, i as f64)], "task {i} of {n}");
            }
        }
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let exec = ScoringExecutor::new(2);
        assert!(exec.scope_run(0, &|_| unreachable!()).unwrap().is_empty());
    }

    #[test]
    fn thread_count_clamps_to_one() {
        let exec = ScoringExecutor::new(0);
        assert_eq!(exec.num_threads(), 1);
        assert_eq!(
            exec.scope_run(4, &|i| vec![doc(i as u32, 0.0)])
                .unwrap()
                .len(),
            4
        );
    }

    #[test]
    fn panicking_task_poisons_only_its_batch() {
        let exec = ScoringExecutor::new(1);
        let err = exec
            .scope_run(4, &|i| {
                if i == 2 {
                    panic!("injected shard fault");
                }
                vec![doc(i as u32, 1.0)]
            })
            .expect_err("task 2 panicked");
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "injected shard fault");
    }

    #[test]
    fn worker_survives_a_panicking_task() {
        // Regression: after a poisoned batch, the *same* single worker
        // must serve the next batch normally — the pool is not wedged.
        let exec = ScoringExecutor::new(1);
        for round in 0..3 {
            assert!(exec.scope_run(3, &|_| panic!("boom {round}")).is_err());
            let ok = exec
                .scope_run(3, &|i| vec![doc(i as u32, round as f64)])
                .expect("pool healthy after panic");
            assert_eq!(ok.len(), 3);
            assert_eq!(ok[1], vec![doc(1, round as f64)]);
        }
    }

    #[test]
    fn many_submitters_share_one_worker_without_deadlock() {
        // 8 concurrent submitters × 1 pool thread: the helping submitter
        // guarantees progress no matter how the queue interleaves.
        let exec = Arc::new(ScoringExecutor::new(1));
        let total = Arc::new(AtomicU32::new(0));
        std::thread::scope(|scope| {
            for t in 0..8u32 {
                let exec = exec.clone();
                let total = total.clone();
                scope.spawn(move || {
                    for round in 0..20 {
                        let out = exec
                            .scope_run(5, &|i| vec![doc(t * 1000 + i as u32, round as f64)])
                            .expect("no panics");
                        assert_eq!(out.len(), 5);
                        assert_eq!(out[3][0].doc, DocId(t * 1000 + 3));
                        total.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 8 * 20);
    }

    #[test]
    fn drop_with_idle_pool_does_not_hang() {
        let exec = ScoringExecutor::new(4);
        let _ = exec.scope_run(2, &|i| vec![doc(i as u32, 0.0)]);
        drop(exec); // joins all four workers
    }
}
