//! The measured closed loop: `C` client threads, each sending its next
//! request only after the previous reply arrived, against a pool of `C`
//! workers — the stated load model (callers that wait for their reply).
//!
//! Each client alternates [`REQUEST_SLICE`] of requests with one
//! calibration slice of the reference kernel; a request's raw time is
//! multiplied by the host speed measured on both sides of its slice.
//! Calibration windows are pinned to the loop's clock, so all clients
//! calibrate at the same time and no kernel call shares the machine with
//! a request.

use crate::estimator::{
    block_median_quantile, blocks, median, quantile_of, speed, tail_quantile, Kernel, Timed,
    CALIB_SLICE,
};
use crate::procfs;
use crate::workloads::{IngestDocs, WriteScript};
use serpdiv_serve::{
    GenerationId, PublishError, QueryRequest, RankedResult, SearchEngine, SearchResponse,
    WorkerPool,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a client sends requests between two calibration slices.
pub const REQUEST_SLICE: Duration = Duration::from_millis(200);

/// Blocks the loop is cut into; each timing metric is the median over
/// blocks of the block's own statistic.
pub const NUM_BLOCKS: usize = 20;

/// Every `KEEP_EVERY`-th response of a client keeps its whole page for the
/// bit-comparison against the oracle, up to `KEEP_PER_CLIENT`.
const KEEP_EVERY: u64 = 97;
const KEEP_PER_CLIENT: usize = 250;

/// A client calling the engine directly reads the clock once per this
/// many requests: a cache hit costs a third of a microsecond, two clock
/// reads a seventh of that. One sample is then the batch's mean.
const DIRECT_BATCH: usize = 32;

/// One request as its client saw it — or, for a client calling the engine
/// directly, the last request of a batch with the batch's mean latency.
#[derive(Debug, Clone, Copy)]
pub struct ReqSample {
    /// Reply received, ns since the loop started.
    pub done_ns: u64,
    /// `submit` → reply received.
    pub latency_ns: u64,
    /// The engine's own `timings.total_us`.
    pub service_us: u32,
    pub queue_us: u32,
    /// The engine's own `StageTimings`, in the order of [`crate::layers::STAGES`].
    pub stage_us: [u32; 5],
    /// Index into the request list.
    pub req: u32,
    /// Results on the page.
    pub results: u16,
    pub degraded: bool,
}

#[derive(Debug, Clone, Copy)]
pub struct SliceLog {
    pub start_ns: u64,
    pub end_ns: u64,
    /// Requests sent in the slice, of which `hits` came from the result
    /// cache and `degraded` were shed, failed or degraded.
    pub sent: u64,
    pub hits: u64,
    pub degraded: u64,
    /// The engine's `timings.total_us` summed over the slice's responses
    /// that were *not* cache hits: what refilling the cache cost.
    pub computed_us: u64,
    /// The slice's recorded samples are `samples[first..first + len]`.
    pub first: usize,
    pub len: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Republish,
    Ingest,
    Merge,
}

/// One write the benchmark made beside the reads, timed around the
/// public call.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub kind: OpKind,
    /// When it started, ns since the loop started.
    pub at_ns: u64,
    pub dur_ns: u64,
}

/// A whole page kept for the oracle.
pub struct KeptPage {
    pub req: u32,
    pub results: Arc<Vec<RankedResult>>,
    pub algorithm: &'static str,
}

/// What the writer thread did.
#[derive(Default)]
pub struct WriterLog {
    pub ops: Vec<Op>,
    /// Writes the engine rejected.
    pub failures: u64,
}

impl WriterLog {
    fn run(
        &mut self,
        kind: OpKind,
        t0: Instant,
        op: impl FnOnce() -> Result<GenerationId, PublishError>,
    ) {
        let at = t0.elapsed();
        let outcome = op();
        self.ops.push(Op {
            kind,
            at_ns: at.as_nanos() as u64,
            dur_ns: (t0.elapsed() - at).as_nanos() as u64,
        });
        if outcome.is_err() {
            self.failures += 1;
        }
    }
}

/// The writes of `cached_swap`, on their own thread beside the reading
/// client and on the clock — as a deploy pipeline and a crawler would
/// make them, knowing nothing of query traffic: a `republish()` every
/// `script.republish_every`, one document ingested when
/// `script.ingest_at` of the run has elapsed and merged into the sealed
/// index at `script.merge_at`.
fn writer(
    engine: &SearchEngine,
    script: WriteScript,
    seed: u64,
    t0: Instant,
    run: Duration,
) -> WriterLog {
    let mut log = WriterLog::default();
    let mut docs = IngestDocs::new(seed);
    let (mut ingested, mut merged) = (false, false);
    loop {
        let now = t0.elapsed();
        if now >= run {
            return log;
        }
        let progress = now.as_secs_f64() / run.as_secs_f64();
        if !ingested && progress >= script.ingest_at {
            let doc = docs.document(engine.generation().num_docs() as u32);
            log.run(OpKind::Ingest, t0, || engine.ingest(vec![doc]));
            ingested = true;
        } else if ingested && !merged && progress >= script.merge_at {
            log.run(OpKind::Merge, t0, || engine.merge_delta());
            merged = true;
        } else {
            log.run(OpKind::Republish, t0, || engine.republish());
            std::thread::sleep(script.republish_every);
        }
    }
}

/// Everything one client thread recorded.
pub struct ClientLog {
    /// Median kernel µs of calibration slice `i`; request slice `i` sits
    /// between calibration slices `i` and `i + 1`.
    pub calib_us: Vec<f64>,
    pub slices: Vec<SliceLog>,
    pub samples: Vec<ReqSample>,
    pub kept: Vec<KeptPage>,
    /// Responses whose generation was older than one this client had
    /// already seen.
    pub generation_regressions: u64,
}

impl ClientLog {
    /// Host speed during request slice `i`.
    pub fn slice_speed(&self, i: usize) -> f64 {
        speed(self.calib_us[i], self.calib_us[i + 1])
    }
}

/// Serve one request the way the workload's clients do: through the pool
/// (`submit` → `recv`), or by calling the engine on the client's thread.
fn serve(pool: Option<&WorkerPool>, engine: &SearchEngine, req: QueryRequest) -> SearchResponse {
    match pool {
        Some(pool) => {
            let reply = pool.submit(req);
            reply
                .recv()
                .expect("a serving worker died before replying")
                .1
        }
        None => engine.search(req),
    }
}

#[allow(clippy::too_many_arguments)]
fn client(
    pool: Option<&WorkerPool>,
    engine: &SearchEngine,
    requests: &[QueryRequest],
    lane: usize,
    stride: usize,
    first: usize,
    mut kernel: Kernel,
    t0: Instant,
    run: Duration,
) -> ClientLog {
    let mut log = ClientLog {
        calib_us: Vec::new(),
        slices: Vec::new(),
        samples: Vec::new(),
        kept: Vec::new(),
        generation_regressions: 0,
    };
    let batch = if pool.is_some() { 1 } else { DIRECT_BATCH };
    let mut pending: Vec<(usize, QueryRequest)> = Vec::with_capacity(batch);
    let mut next = (first + lane) % requests.len();
    let mut last_generation = 0u64;
    let mut total_sent = 0u64;
    // Cycle `i` is a calibration window followed by a request window, both
    // pinned to the loop's clock so that all clients calibrate together.
    let cycle = CALIB_SLICE + REQUEST_SLICE;
    for i in 0u32.. {
        log.calib_us
            .push(kernel.calibrate_until(t0, cycle * i + CALIB_SLICE));
        let slice_start = t0.elapsed();
        if slice_start >= run {
            break;
        }
        let mut slice = SliceLog {
            start_ns: slice_start.as_nanos() as u64,
            end_ns: 0,
            sent: 0,
            hits: 0,
            degraded: 0,
            computed_us: 0,
            first: log.samples.len(),
            len: 0,
        };
        let slice_end = cycle * (i + 1);
        loop {
            // The requests are built before the clock starts: a caller has
            // its request in hand when it calls.
            for _ in 0..batch {
                pending.push((next, requests[next].clone()));
                next = (next + stride) % requests.len();
            }
            let mut last = None;
            let sent = Instant::now();
            for (index, req) in pending.drain(..) {
                let response = serve(pool, engine, req);
                if response.generation < last_generation {
                    log.generation_regressions += 1;
                }
                last_generation = response.generation;
                slice.sent += 1;
                slice.degraded += u64::from(response.degraded);
                if response.cache_hit {
                    slice.hits += 1;
                } else {
                    slice.computed_us += response.timings.total_us;
                }
                if total_sent.is_multiple_of(KEEP_EVERY) && log.kept.len() < KEEP_PER_CLIENT {
                    log.kept.push(KeptPage {
                        req: index as u32,
                        results: response.results.clone(),
                        algorithm: response.algorithm,
                    });
                }
                total_sent += 1;
                last = Some((index, response));
            }
            let done = Instant::now();
            let now = done - t0;
            let (index, response) = last.expect("a batch holds at least one request");
            let us = |v: u64| v.min(u64::from(u32::MAX)) as u32;
            let timings = &response.timings;
            log.samples.push(ReqSample {
                done_ns: now.as_nanos() as u64,
                latency_ns: (done - sent).as_nanos() as u64 / batch as u64,
                service_us: us(timings.total_us),
                queue_us: us(timings.queue_wait_us),
                stage_us: [
                    timings.detect_us,
                    timings.retrieve_us,
                    timings.surrogate_us,
                    timings.utility_us,
                    timings.select_us,
                ]
                .map(us),
                req: index as u32,
                results: response.results.len().min(usize::from(u16::MAX)) as u16,
                degraded: response.degraded,
            });
            if now >= slice_end {
                slice.end_ns = now.as_nanos() as u64;
                slice.len = log.samples.len() - slice.first;
                log.slices.push(slice);
                break;
            }
        }
    }
    log
}

/// What the loop recorded, before any reduction.
pub struct LoopLog {
    pub clients: Vec<ClientLog>,
    /// The writer thread's log, on workloads that write.
    pub writes: WriterLog,
    /// Whether requests crossed the worker pool.
    pub through_pool: bool,
    pub run: Duration,
    /// Process (+ children) CPU µs over the loop, calibration included.
    pub cpu_us: f64,
}

/// Serve the first `warmup` requests, closed-loop on one thread.
pub fn warm_up(
    pool: Option<&WorkerPool>,
    engine: &SearchEngine,
    requests: &[QueryRequest],
    warmup: usize,
) {
    for i in 0..warmup {
        serve(pool, engine, requests[i % requests.len()].clone());
    }
}

/// Run the measured loop for `run`: `clients` threads, client `c` sending
/// requests `first + c, first + c + C, …` of the list (wrapping), so all
/// clients walk the list in order together; with `writes`, a writer
/// thread beside them.
#[allow(clippy::too_many_arguments)]
pub fn run_loop(
    pool: Option<&WorkerPool>,
    engine: &SearchEngine,
    requests: &[QueryRequest],
    clients: usize,
    first: usize,
    run: Duration,
    kernel: &Kernel,
    writes: Option<(WriteScript, u64)>,
    children: &[u32],
) -> LoopLog {
    let cpu_before = procfs::total_cpu_us(children);
    let t0 = Instant::now();
    let (logs, writes) = std::thread::scope(|scope| {
        let writing =
            writes.map(|(script, seed)| scope.spawn(move || writer(engine, script, seed, t0, run)));
        let handles: Vec<_> = (0..clients)
            .map(|lane| {
                let kernel = kernel.fork(lane as u64);
                scope.spawn(move || {
                    client(
                        pool, engine, requests, lane, clients, first, kernel, t0, run,
                    )
                })
            })
            .collect();
        let logs = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        let writes = writing.map_or_else(WriterLog::default, |h| {
            h.join().expect("writer thread panicked")
        });
        (logs, writes)
    });
    LoopLog {
        clients: logs,
        writes,
        through_pool: pool.is_some(),
        run,
        cpu_us: procfs::total_cpu_us(children) - cpu_before,
    }
}

/// A raw value beside its host-speed-normalised twin.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pair {
    pub raw: f64,
    pub norm: f64,
}

/// The loop reduced to numbers.
#[derive(Debug, Clone, Default)]
pub struct LoopStats {
    pub attempted: u64,
    pub throughput_qps: Pair,
    pub latency_p50_us: Pair,
    pub latency_tail_us: Pair,
    /// The quantile `latency_tail_us` is taken at (0.99 unless a block
    /// had fewer than 1 000 samples).
    pub tail_q: f64,
    pub blocks: usize,
    pub min_block_samples: usize,
    pub cpu_us_per_request: Pair,
    /// Share of requests answered from the result cache.
    pub hit_share: f64,
    /// What the clients spent on responses that were not cache hits
    /// (`timings.total_us`), reference ms over the whole loop.
    pub computed_ms: f64,
    // Reference µs beside the layer ledger: the median over request
    // slices of each slice's mean, so that a stall costs a slice.
    pub mean_latency_us: f64,
    pub mean_handoff_us: f64,
    pub handoff_us_p50: f64,
    pub handoff_us_p99: f64,
    pub queue_wait_us_p50: f64,
    pub queue_wait_us_p99: f64,
    pub kernel_us_p50: f64,
    pub speed_min: f64,
    pub speed_max: f64,
}

impl LoopLog {
    /// Reduce the log: normalise every sample by its slice's speed, pool
    /// samples per block across clients, take the median over blocks.
    pub fn stats(&self) -> LoopStats {
        let block_ns = (self.run.as_nanos() as u64 / NUM_BLOCKS as u64).max(1);
        let mut norm_obs = Vec::new();
        let mut raw_obs = Vec::new();
        let (mut handoff, mut queue) = (Vec::new(), Vec::new());
        // Per request slice: mean latency and hand-off of its samples.
        let (mut slice_latency, mut slice_handoff) = (Vec::new(), Vec::new());
        let mut speeds = Vec::new();
        let mut kernel_us = Vec::new();
        // Per block and client: requests and (raw, normalised) sending time.
        let mut sent = vec![vec![(0u64, 0.0f64, 0.0f64); self.clients.len()]; NUM_BLOCKS];
        let (mut attempted, mut hits, mut weighted_speed) = (0u64, 0u64, 0.0);
        let mut computed_ms = 0.0;
        for (c, log) in self.clients.iter().enumerate() {
            kernel_us.extend_from_slice(&log.calib_us);
            for (i, slice) in log.slices.iter().enumerate() {
                let s = log.slice_speed(i);
                speeds.push(s);
                attempted += slice.sent;
                hits += slice.hits;
                weighted_speed += s * slice.sent as f64;
                computed_ms += slice.computed_us as f64 * s / 1e3;
                let secs = (slice.end_ns - slice.start_ns) as f64 / 1e9;
                let mid = (slice.start_ns + slice.end_ns) / 2;
                if let Some(cell) = sent.get_mut((mid / block_ns) as usize) {
                    cell[c].0 += slice.sent;
                    cell[c].1 += secs;
                    cell[c].2 += secs * s;
                }
                let mut sums = [0.0f64; 2];
                for sample in &log.samples[slice.first..slice.first + slice.len] {
                    let lat_us = sample.latency_ns as f64 / 1e3;
                    raw_obs.push(Timed {
                        at_ns: sample.done_ns,
                        value: lat_us,
                    });
                    norm_obs.push(Timed {
                        at_ns: sample.done_ns,
                        value: lat_us * s,
                    });
                    // Without a pool on the path the client's call *is*
                    // `search` (whose own µs-resolution timing could not
                    // resolve a cache hit anyway).
                    let service_us = if self.through_pool {
                        f64::from(sample.service_us)
                    } else {
                        lat_us
                    };
                    let handoff_us = (lat_us - service_us).max(0.0);
                    if self.through_pool {
                        handoff.push(handoff_us * s);
                        queue.push(f64::from(sample.queue_us) * s);
                    }
                    sums[0] += lat_us;
                    sums[1] += handoff_us;
                }
                if slice.len > 0 {
                    slice_latency.push(sums[0] * s / slice.len as f64);
                    slice_handoff.push(sums[1] * s / slice.len as f64);
                }
            }
        }
        let norm_blocks = blocks(&norm_obs, block_ns, NUM_BLOCKS);
        let raw_blocks = blocks(&raw_obs, block_ns, NUM_BLOCKS);
        let min_block_samples = norm_blocks.iter().map(Vec::len).min().unwrap_or(0);
        let tail_q = tail_quantile(0.99, min_block_samples);

        // Throughput per block: Σ over clients of requests / sending time,
        // over blocks in which every client sent.
        let (mut qps_raw, mut qps_norm) = (Vec::new(), Vec::new());
        for block in &sent {
            if block.iter().all(|&(n, _, _)| n > 0) {
                qps_raw.push(block.iter().map(|&(n, raw, _)| n as f64 / raw).sum());
                qps_norm.push(block.iter().map(|&(n, _, norm)| n as f64 / norm).sum());
            }
        }

        // CPU: the calibration slices are pure CPU and not the system's.
        let calib_us: f64 = self
            .clients
            .iter()
            .map(|l| l.calib_us.len() as f64 * CALIB_SLICE.as_secs_f64() * 1e6)
            .sum();
        let request_weighted_speed = weighted_speed / attempted.max(1) as f64;
        let cpu_raw = (self.cpu_us - calib_us).max(0.0) / attempted.max(1) as f64;

        LoopStats {
            attempted,
            throughput_qps: Pair {
                raw: median(&mut qps_raw),
                norm: median(&mut qps_norm),
            },
            latency_p50_us: Pair {
                raw: block_median_quantile(&raw_blocks, 0.5),
                norm: block_median_quantile(&norm_blocks, 0.5),
            },
            latency_tail_us: Pair {
                raw: block_median_quantile(&raw_blocks, tail_q),
                norm: block_median_quantile(&norm_blocks, tail_q),
            },
            tail_q,
            blocks: norm_blocks.len(),
            min_block_samples,
            cpu_us_per_request: Pair {
                raw: cpu_raw,
                norm: cpu_raw * request_weighted_speed,
            },
            hit_share: hits as f64 / attempted.max(1) as f64,
            computed_ms,
            mean_latency_us: median(&mut slice_latency),
            mean_handoff_us: median(&mut slice_handoff),
            handoff_us_p50: quantile_of(&mut handoff, 0.5),
            handoff_us_p99: quantile_of(&mut handoff, 0.99),
            queue_wait_us_p50: quantile_of(&mut queue, 0.5),
            queue_wait_us_p99: quantile_of(&mut queue, 0.99),
            kernel_us_p50: median(&mut kernel_us),
            speed_min: speeds.iter().copied().fold(f64::INFINITY, f64::min),
            speed_max: speeds.iter().copied().fold(0.0, f64::max),
        }
    }

    /// Durations of the writes of `kind`, in reference µs: each normalised
    /// by the host speed of client 0's request slice it started in (or
    /// nearest to).
    pub fn op_us(&self, kind: OpKind) -> Vec<f64> {
        let Some(log) = self.clients.first().filter(|l| !l.slices.is_empty()) else {
            return Vec::new();
        };
        self.writes
            .ops
            .iter()
            .filter(|op| op.kind == kind)
            .map(|op| {
                let i = log
                    .slices
                    .partition_point(|s| s.end_ns < op.at_ns)
                    .min(log.slices.len() - 1);
                op.dur_ns as f64 / 1e3 * log.slice_speed(i)
            })
            .collect()
    }
}
