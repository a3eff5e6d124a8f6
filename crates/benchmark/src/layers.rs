//! The traced run: one thread replays the workload's requests and records
//! a span around every call into a layer — `SearchEngine::search`, each
//! stage of `default_stage_chain()` driven by the benchmark itself, and
//! the layers' own public entry points — then reduces the spans to the
//! per-layer metrics of `BENCHMARK.json`.
//!
//! Two engines over the same artifacts serve the run: `search` goes to one
//! (result cache as the workload deploys it), the self-driven stage chain
//! to the other, so neither warms the other's caches. The chain is driven
//! exactly for the requests `search` computed (its result-cache misses).
//!
//! The replay runs in rounds. Each round starts with one untraced slice of
//! the closed loop on the deployment, exactly as the measured loop runs
//! them, and then traces the requests client 0 sent in it: the ledger
//! compares the two request by request, so both sides of a comparison are
//! the same request, served by the same host a fraction of a second apart.

use crate::closed_loop::{self, REQUEST_SLICE};
use crate::estimator::{mean, median, quantile_of, speed, Kernel, Xorshift, CALIB_SLICE};
use crate::fixture::{pipeline_params, Fixture};
use crate::trace::Tracer;
use crate::workloads::{Fleet, IngestDocs, Workload, WriteScript};
use serpdiv_core::{candidate_surrogate, AlgorithmKind, DiversifyInput, UtilityMatrix};
use serpdiv_fleet::protocol::{decode_payload, encode_frame, read_frame, write_frame, Frame};
use serpdiv_fleet::DEFAULT_MAX_FRAME;
use serpdiv_index::{Retriever, ScoringExecutor, ShardedIndex, SnippetGenerator};
use serpdiv_serve::{
    default_stage_chain, Budget, PipelineContext, QueryRequest, SearchEngine, StageKind,
    StageOutcome, WorkerPool,
};
use serpdiv_text::TermId;
use std::collections::BTreeMap;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// How much the traced run replays.
#[derive(Debug, Clone, Copy)]
pub struct TraceShape {
    /// Rounds of the replay: an untraced loop slice, then its requests
    /// traced.
    pub rounds: usize,
    /// Most requests of a slice a round replays through `search` and the
    /// stage chain (a slice of cache hits holds tens of thousands).
    pub per_round: usize,
    /// The first this many replayed requests also go through the layers'
    /// own per-request entry points.
    pub probes: usize,
    /// … and this many, evenly spread, through the entry points that are
    /// not on every request's path.
    pub sample: usize,
    /// Candidate count and page size of the Table 2 point.
    pub table2: (usize, usize),
}

/// What `search` did with a request: served it from the result cache,
/// computed the baseline page, or computed a diversified page. The three
/// cost very differently; the report says how many of each the measured
/// loop served.
pub const CLASSES: [&str; 3] = ["cache hit", "passthrough", "diversified"];
const HIT: usize = 0;
const PASSTHROUGH: usize = 1;
const DIVERSIFIED: usize = 2;

/// The five stages, in ledger order.
pub const STAGES: [(StageKind, &str); 5] = [
    (StageKind::Detect, "stage.detect"),
    (StageKind::Retrieve, "stage.retrieve"),
    (StageKind::Surrogate, "stage.surrogate"),
    (StageKind::Utility, "stage.utility"),
    (StageKind::Select, "stage.select"),
];

fn stage_span(kind: StageKind) -> &'static str {
    STAGES
        .iter()
        .find(|(k, _)| *k == kind)
        .map(|(_, name)| *name)
        .expect("every stage kind is listed")
}

/// The replay's record of how fast the host was. A round's spans are
/// normalised by the speed of the round's own untraced loop slice, which
/// ended a fraction of a second before them: both sides of the ledger then
/// carry one factor, measured as the measured loop measures its own —
/// every client calibrating at once, after a slice of requests. (The
/// kernel reads a tenth faster when it last ran 10 ms ago, as it would
/// between the short passes of a round, than after 200 ms of requests.)
/// After the rounds the probing thread calibrates whenever
/// [`REQUEST_SLICE`] has passed, and a span is normalised by the two
/// points around its start.
struct Calibration {
    kernel: Kernel,
    /// `(from ns, to ns, speed)` of each round, in time order.
    rounds: Vec<(u64, u64, f64)>,
    /// `(ns since the tracer started, median kernel µs)`, in time order.
    points: Vec<(u64, f64)>,
}

impl Calibration {
    fn slice(&mut self, tracer: &Tracer) {
        let us = self.kernel.slice();
        self.points.push((tracer.now_ns(), us));
    }

    /// Called between requests: calibrate if it is time to.
    fn tick(&mut self, tracer: &Tracer) {
        let due = self
            .points
            .last()
            .is_none_or(|&(at, _)| tracer.now_ns() - at >= REQUEST_SLICE.as_nanos() as u64);
        if due {
            self.slice(tracer);
        }
    }

    fn speed_at(&self, start_ns: u64) -> f64 {
        let round = self.rounds.partition_point(|r| r.1 <= start_ns);
        if let Some(&(_, _, speed)) = self.rounds.get(round).filter(|r| r.0 <= start_ns) {
            return speed;
        }
        let after = self.points.partition_point(|p| p.0 <= start_ns);
        let last = self.points.len() - 1;
        speed(
            self.points[after.saturating_sub(1)].1,
            self.points[after.min(last)].1,
        )
    }
}

/// One line of the ledger: a mean per request as the untraced loop slices
/// and as the traced replay saw it — each the median over rounds of the
/// round's mean — and the median over requests of the request's own
/// difference, as a percentage of the mean request.
#[derive(Debug, Clone)]
pub struct LedgerRow {
    pub name: &'static str,
    pub looped_us: f64,
    pub traced_us: f64,
    pub gap_pct: f64,
}

/// What the traced run hands back: the per-layer numbers it can compute
/// alone, the ledger, and the spans.
pub struct LayerReport {
    /// Metric name → value, for the names this module owns.
    pub values: BTreeMap<&'static str, f64>,
    /// Mean client latency and pool hand-off of the untraced slices,
    /// reference µs, medians over rounds.
    pub latency_us: f64,
    pub handoff_us: f64,
    /// `engine search`, then the five stages.
    pub ledger: Vec<LedgerRow>,
    pub tracer: Tracer,
}

/// Everything the traced run reads.
pub struct LayerInputs<'a> {
    pub workload: &'a Workload,
    pub fixture: &'a Fixture,
    pub requests: &'a [QueryRequest],
    /// Index of the first request to trace (the warm-up ends there).
    pub first: usize,
    /// The deployment the measured loop ran on, for the untraced slices.
    pub pool: Option<&'a WorkerPool>,
    pub engine: &'a SearchEngine,
    /// The deployed retrieval layer (the fleet router on `fleet2`).
    pub retriever: Arc<dyn Retriever>,
    pub fleet: Option<&'a Fleet>,
    pub kernel: &'a Kernel,
    pub shape: TraceShape,
    /// Clients of the measured loop: the traced thread replays client 0,
    /// `clients − 1` untraced companions replay the others beside it.
    pub clients: usize,
    /// `cached_swap`'s writes (the replay makes them by request count).
    pub writes: Option<WriteScript>,
    pub seed: u64,
}

fn p(values: &mut [f64], q: f64) -> f64 {
    quantile_of(values, q)
}

/// A crate-local synthetic selection input of Table 2's shape: `n`
/// candidates, 8 specializations with Zipf popularity, each candidate
/// useful mainly for one of them.
fn table2_input(n: usize) -> DiversifyInput {
    const M: usize = 8;
    let mut rng = Xorshift::new(0x7AB2);
    let mut next = move || rng.unit();
    let raw: Vec<f64> = (0..M).map(|j| 1.0 / (j + 1) as f64).collect();
    let total: f64 = raw.iter().sum();
    let probs: Vec<f64> = raw.iter().map(|v| v / total).collect();
    let mut values = vec![0.0; n * M];
    for i in 0..n {
        let u = next();
        let mut acc = 0.0;
        let primary = probs
            .iter()
            .position(|&pr| {
                acc += pr;
                u <= acc
            })
            .unwrap_or(M - 1);
        values[i * M + primary] = 0.2 + 0.8 * next();
        if next() < 0.15 {
            values[i * M + (primary + 1) % M] = 0.05 + 0.45 * next();
        }
    }
    let relevance: Vec<f64> = (0..n).map(|_| next()).collect();
    DiversifyInput::new(probs, relevance, UtilityMatrix::from_values(n, M, values))
}

/// The replay's share of `cached_swap`'s writes before request `r`: one
/// ingest up front, then a republish every so many requests.
fn traced_writes(
    writes: Option<WriteScript>,
    engine: &SearchEngine,
    r: usize,
    docs: &mut IngestDocs,
) {
    let Some(script) = writes else { return };
    let outcome = if r == 0 {
        let doc = docs.document(engine.generation().num_docs() as u32);
        engine.ingest(vec![doc])
    } else if r.is_multiple_of(script.traced_republish_every) {
        engine.republish()
    } else {
        return;
    };
    outcome.expect("the replay's writes are the loop's, which the engine accepted");
}

/// Run the traced replay and the layer probes.
pub fn run(inputs: LayerInputs<'_>) -> LayerReport {
    let LayerInputs {
        workload,
        fixture,
        requests,
        first,
        pool,
        engine,
        retriever,
        fleet,
        kernel,
        shape,
        clients,
        writes,
        seed,
    } = inputs;
    let index = &fixture.index;
    let engine_s = workload.engine(fixture, retriever.clone());
    let engine_c = workload.engine(fixture, retriever);
    for i in 0..first {
        let req = &requests[i % requests.len()];
        engine_s.search(req.clone());
        engine_c.search(req.clone());
    }

    let chain = default_stage_chain();
    let mut tracer = Tracer::new();
    let mut calib = Calibration {
        kernel: kernel.fork(7),
        rounds: Vec::new(),
        points: Vec::new(),
    };
    // How many candidates the retrieve stage asks for on this request.
    let wanted = |req: &QueryRequest| {
        let ambiguous =
            req.algorithm != AlgorithmKind::Baseline && fixture.model.get(&req.query).is_some();
        if ambiguous {
            workload.n_candidates.max(req.k)
        } else {
            req.k
        }
    };
    // The other clients of the loop, untraced, on the same engine from
    // list position `from` on: the traced requests then share caches,
    // locks and memory bandwidth with a neighbour exactly as the measured
    // ones did.
    let companions = |engine: &SearchEngine, from: usize, traced: &mut dyn FnMut()| {
        let stop = &AtomicBool::new(false);
        std::thread::scope(|scope| {
            for lane in 1..clients {
                scope.spawn(move || {
                    let mut next = from + lane;
                    while !stop.load(Ordering::Relaxed) {
                        engine.search(requests[next % requests.len()].clone());
                        next += clients;
                    }
                });
            }
            traced();
            stop.store(true, Ordering::Relaxed);
        });
    };

    // Traced request `r` is the request at `positions[r]` of the list.
    let mut positions: Vec<usize> = Vec::new();
    let mut class: Vec<usize> = Vec::new();
    let mut rounds: Vec<std::ops::Range<usize>> = Vec::new();
    // Per traced request: latency, service, hand-off and stage times as
    // the untraced slice reported them for that very request, reference µs.
    let mut looped_request: Vec<[f64; 8]> = Vec::new();
    let mut cells = Vec::new();
    let mut ambiguous = 0usize;
    let mut postings = Vec::new();
    let (mut docs_s, mut docs_c) = (IngestDocs::new(seed), IngestDocs::new(seed));
    let mut cursor = first;
    for _ in 0..shape.rounds {
        // One untraced slice of the closed loop on the deployment — a
        // calibration window, one request slice, a calibration window; the
        // round then traces the requests client 0 sent in it (the first
        // `per_round` of them).
        let log = closed_loop::run_loop(
            pool,
            engine,
            requests,
            clients,
            cursor,
            CALIB_SLICE + REQUEST_SLICE,
            kernel,
            None,
            &[],
        );
        cursor += log.clients.iter().map(|c| c.samples.len()).sum::<usize>();
        let client = &log.clients[0];
        let sent = &client.samples[..client.samples.len().min(shape.per_round)];
        if sent.is_empty() {
            continue;
        }
        let s = client.slice_speed(0);
        for sample in sent {
            let latency_us = sample.latency_ns as f64 / 1e3;
            let service_us = if log.through_pool {
                f64::from(sample.service_us)
            } else {
                latency_us
            };
            let mut columns = [0.0; 8];
            columns[0] = latency_us;
            columns[1] = service_us;
            columns[2] = (latency_us - service_us).max(0.0);
            for (column, &us) in columns[3..].iter_mut().zip(&sample.stage_us) {
                *column = f64::from(us);
            }
            looped_request.push(columns.map(|us| us * s));
        }
        let start = positions.len();
        positions.extend(sent.iter().map(|sample| sample.req as usize));
        let end = positions.len();
        rounds.push(start..end);
        class.resize(end, HIT);
        let traced_from_ns = tracer.now_ns();

        // Three passes over the round's requests, one after the other, so
        // that in each a request meets the CPU caches as cold as in the
        // measured loop (running them back to back per request would hand
        // the second a warm postings list). Pass 1: `SearchEngine::search`.
        companions(&engine_s, cursor, &mut || {
            for r in start..end {
                let req = requests[positions[r]].clone();
                traced_writes(writes, &engine_s, r, &mut docs_s);
                let response =
                    tracer.leaf("serve.engine.search", r as u32, || engine_s.search(req));
                class[r] = match (response.cache_hit, response.diversified) {
                    (true, _) => HIT,
                    (false, false) => PASSTHROUGH,
                    (false, true) => DIVERSIFIED,
                };
            }
        });

        // Pass 2: the stage chain, driven by the benchmark for exactly the
        // requests `search` computed, on the twin engine receiving the
        // same writes.
        companions(&engine_c, cursor, &mut || {
            for r in start..end {
                let req = &requests[positions[r]];
                traced_writes(writes, &engine_c, r, &mut docs_c);
                if class[r] == HIT {
                    continue;
                }
                let id = r as u32;
                let root = tracer.enter("chain.request", id);
                let generation = tracer.leaf("serve.generation.pin", id, || engine_c.generation());
                let mut ctx = PipelineContext::new(req, Instant::now(), Budget::unlimited());
                for stage in &chain {
                    let kind = stage.kind();
                    let outcome = tracer.leaf(stage_span(kind), id, || {
                        stage.run(&engine_c, &generation, &mut ctx)
                    });
                    if kind == StageKind::Utility {
                        if let Some(input) = &ctx.input {
                            cells.push(
                                (input.num_candidates() * input.num_specializations()) as f64,
                            );
                        }
                    }
                    if outcome == StageOutcome::Finish {
                        break;
                    }
                }
                tracer.exit(root);
            }
        });

        // Pass 3: the layers' own entry points that sit on every
        // request's path.
        for r in start..end.min(shape.probes) {
            let req = &requests[positions[r]];
            let id = r as u32;
            let root = tracer.enter("probe.request", id);
            let terms = tracer.leaf("text.analyze", id, || index.analyze_query(&req.query));
            if tracer.leaf("mining.detect", id, || {
                fixture.model.get(&req.query).is_some()
            }) {
                ambiguous += 1;
            }
            let n = wanted(req);
            tracer.leaf("index.retrieve", id, || {
                index.retrieve_with_status_within(&req.query, n, None)
            });
            tracer.exit(root);
            postings.push(
                terms
                    .iter()
                    .filter_map(|&t| index.term_stats(t))
                    .map(|s| s.doc_freq as f64)
                    .sum::<f64>(),
            );
        }
        calib.rounds.push((traced_from_ns, tracer.now_ns(), s));
    }
    let traced_requests = positions.len();
    calib.slice(&tracer);
    let probed = postings.len().max(1) as f64;

    // Phase 2: the layer entry points that are not on every request's
    // path, on an evenly spread sample of the same requests.
    let probes = shape.probes.min(traced_requests);
    let step = (probes / shape.sample.max(1)).max(1);
    let sample: Vec<(u32, &QueryRequest)> = (0..probes)
        .step_by(step)
        .take(shape.sample)
        .map(|r| (r as u32, &requests[positions[r]]))
        .collect();
    let params = pipeline_params();
    let snippets = SnippetGenerator::with_window(params.snippet_window);
    let mut sharded = ShardedIndex::build(index.clone(), 2);
    let mut worker_conn = fleet.map(|f| UnixStream::connect(&f.sockets[0]).expect("worker socket"));
    let mut exchange_bytes = Vec::new();
    let mut sample_terms: Vec<(u32, Vec<TermId>, usize)> = Vec::new();
    // MMR and IA-Select at |Rq| = 1000 cost milliseconds a call: a hundred
    // inputs give a steady median without owning the traced run.
    let mut select_inputs = 100;
    for &(id, req) in &sample {
        calib.tick(&tracer);
        let terms = index.analyze_query(&req.query);
        let n = wanted(req);
        let hits = tracer.leaf("index.unsharded", id, || index.retrieve_terms(&terms, n));
        tracer.leaf("index.sharded.gather", id, || {
            sharded.retrieve_terms(&terms, n)
        });

        let query = Frame::Query {
            id: u64::from(id),
            k: n as u32,
            terms: terms.clone(),
        };
        let query_bytes = tracer.leaf("fleet.protocol.encode", id, || encode_frame(&query));
        let hits_bytes = encode_frame(&Frame::Hits {
            id: u64::from(id),
            hits: hits.clone(),
        });
        tracer
            .leaf("fleet.protocol.decode", id, || {
                decode_payload(&hits_bytes[4..])
            })
            .expect("a frame this process encoded decodes");
        exchange_bytes.push((query_bytes.len() + hits_bytes.len()) as f64);

        if let (Some(fleet), Some(conn)) = (fleet, worker_conn.as_mut()) {
            tracer.leaf("fleet.worker.roundtrip", id, || {
                write_frame(conn, &query).expect("write to worker");
                read_frame(conn, DEFAULT_MAX_FRAME).expect("read from worker")
            });
            let gathered = tracer.leaf("fleet.router.gather", id, || {
                fleet.router.retrieve_terms_with_status(&terms, n)
            });
            assert!(gathered.complete, "fleet lost a shard during the probe");
        }

        if fixture.model.get(&req.query).is_some() {
            // Miss-path surrogate construction, per document.
            for hit in hits.iter().take(50) {
                tracer.leaf("index.forward.surrogate", id, || {
                    candidate_surrogate(&fixture.forward, hit.doc, &terms, &snippets)
                });
            }
            // Every diversifier on this workload's own input: drive the
            // chain up to the utility stage as an OptSelect request.
            let probe = QueryRequest::new(req.query.clone(), req.k, AlgorithmKind::OptSelect);
            let generation = engine_c.generation();
            let mut ctx = PipelineContext::new(&probe, Instant::now(), Budget::unlimited());
            for stage in chain.iter().take(4) {
                if stage.run(&engine_c, &generation, &mut ctx) == StageOutcome::Finish {
                    break;
                }
            }
            if let Some(input) = ctx.input.take().filter(|_| select_inputs > 0) {
                select_inputs -= 1;
                for (kind, name) in [
                    (AlgorithmKind::OptSelect, "core.select.optselect"),
                    (AlgorithmKind::IaSelect, "core.select.iaselect"),
                    (AlgorithmKind::XQuad, "core.select.xquad"),
                    (AlgorithmKind::Mmr, "core.select.mmr"),
                ] {
                    let diversifier = engine_c.diversifier_for(kind);
                    tracer.leaf(name, id, || diversifier.select(&input, req.k));
                }
            }
        }
        sample_terms.push((id, terms, n));
    }
    // The same sample through a 1-thread executor with the threshold at 0
    // (every retrieval rides the pool): executor minus inline is the
    // hand-off.
    sharded = sharded
        .with_executor(Arc::new(ScoringExecutor::new(1)))
        .with_parallel_threshold(0);
    for (id, terms, n) in &sample_terms {
        calib.tick(&tracer);
        tracer.leaf("index.executor", *id, || sharded.retrieve_terms(terms, *n));
    }
    // The paper's Table 2 point.
    let table2 = table2_input(shape.table2.0);
    for id in (traced_requests as u32..).take(3) {
        calib.slice(&tracer);
        for (kind, name) in [
            (AlgorithmKind::OptSelect, "core.select.table2.optselect"),
            (AlgorithmKind::XQuad, "core.select.table2.xquad"),
            (AlgorithmKind::IaSelect, "core.select.table2.iaselect"),
        ] {
            let diversifier = engine_c.diversifier_for(kind);
            tracer.leaf(name, id, || diversifier.select(&table2, shape.table2.1));
        }
    }
    calib.slice(&tracer);

    // Reduce: every span duration in reference µs, by name, with the
    // request it belongs to.
    let us = |name: &str| -> Vec<(u32, f64)> {
        tracer
            .spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                let us = s.duration_ns() as f64 / 1e3;
                (s.request, us * calib.speed_at(s.start_ns))
            })
            .collect()
    };
    let flat = |name: &str| -> Vec<f64> { us(name).into_iter().map(|(_, v)| v).collect() };
    let mut values = BTreeMap::new();
    let mut put = |name: &'static str, v: f64| {
        values.insert(name, v);
    };

    put("text.analyze.us_p50", p(&mut flat("text.analyze"), 0.5));
    put(
        "mining.detect.ns_p50",
        p(&mut flat("mining.detect"), 0.5) * 1e3,
    );
    put("mining.detect.ambiguous_share", ambiguous as f64 / probed);
    let mut retrieve = flat("index.retrieve");
    put("index.retrieve.us_mean", mean(&retrieve));
    put("index.retrieve.us_p50", p(&mut retrieve, 0.5));
    put("index.retrieve.us_p99", p(&mut retrieve, 0.99));
    put("index.retrieve.postings_per_query", mean(&postings));
    let unsharded_p50 = p(&mut flat("index.unsharded"), 0.5);
    let gather_p50 = p(&mut flat("index.sharded.gather"), 0.5);
    put("index.sharded.gather_us_p50", gather_p50);
    put("index.sharded.overhead_us_p50", gather_p50 - unsharded_p50);
    put(
        "index.executor.handoff_us_p50",
        p(&mut flat("index.executor"), 0.5) - gather_p50,
    );
    put(
        "index.forward.surrogate_us_p50",
        p(&mut flat("index.forward.surrogate"), 0.5),
    );
    let mut surrogate = flat("stage.surrogate");
    put("serve.surrogates.stage_us_p50", p(&mut surrogate, 0.5));
    put("serve.surrogates.stage_us_p99", p(&mut surrogate, 0.99));
    let mut utility = flat("stage.utility");
    put("core.utility.us_p50", p(&mut utility, 0.5));
    put("core.utility.us_p99", p(&mut utility, 0.99));
    put("core.utility.cells_per_query", mean(&cells));
    put(
        "core.select.optselect.us_p50",
        p(&mut flat("core.select.optselect"), 0.5),
    );
    put(
        "core.select.iaselect.us_p50",
        p(&mut flat("core.select.iaselect"), 0.5),
    );
    put(
        "core.select.xquad.us_p50",
        p(&mut flat("core.select.xquad"), 0.5),
    );
    put(
        "core.select.mmr.us_p50",
        p(&mut flat("core.select.mmr"), 0.5),
    );
    put("core.select.us_p99", p(&mut flat("stage.select"), 0.99));
    for (name, span) in [
        (
            "core.select.table2.optselect_ms",
            "core.select.table2.optselect",
        ),
        ("core.select.table2.xquad_ms", "core.select.table2.xquad"),
        (
            "core.select.table2.iaselect_ms",
            "core.select.table2.iaselect",
        ),
    ] {
        put(name, p(&mut flat(span), 0.5) / 1e3);
    }

    // search: all requests, then hits and computed requests apart, and
    // what the driver adds on top of the stages (search span minus the
    // chain's stage spans, per computed request).
    let searches = us("serve.engine.search");
    let mut all: Vec<f64> = searches.iter().map(|&(_, v)| v).collect();
    put("serve.engine.search_us_p50", p(&mut all, 0.5));
    put("serve.engine.search_us_p99", p(&mut all, 0.99));
    let of_class = |c: usize| -> Vec<f64> {
        searches
            .iter()
            .filter(|&&(r, _)| class[r as usize] == c)
            .map(|&(_, v)| v)
            .collect()
    };
    put("serve.cache.hit_us_p50", p(&mut of_class(HIT), 0.5));
    // Per request: its `search` span, its chain span and its stage spans;
    // 0 where a request had none.
    let per_request = |spans: Vec<(u32, f64)>| {
        let mut out = vec![0.0; traced_requests];
        for (request, v) in spans {
            out[request as usize] += v;
        }
        out
    };
    let search_us = per_request(searches.clone());
    let chain_us = per_request(us("chain.request"));
    let stage_us = STAGES.map(|(_, name)| per_request(us(name)));
    let mut driver: Vec<f64> = (0..traced_requests)
        .filter(|&r| class[r] != HIT)
        .map(|r| search_us[r] - stage_us.iter().map(|stage| stage[r]).sum::<f64>())
        .collect();
    put("serve.engine.driver_us_p50", p(&mut driver, 0.5));
    put(
        "serve.generation.pin_ns_p50",
        p(&mut flat("serve.generation.pin"), 0.5) * 1e3,
    );

    // The ledger. Both sides served the very same requests, the untraced
    // slice a fraction of a second before the traced passes: a line's gap
    // is the median over requests of the request's own difference, which
    // a stall or a cache entry one engine had and the other had not
    // cannot move, and a time nobody accounts for cannot hide from. The
    // means beside it are medians over rounds of the round's mean.
    let over_rounds = |of: &dyn Fn(usize) -> f64| -> Vec<f64> {
        rounds
            .iter()
            .map(|range| range.clone().map(of).sum::<f64>() / range.len() as f64)
            .collect()
    };
    let latency_us = median(&mut over_rounds(&|r| looped_request[r][0]));
    let row = |name: &'static str, column: usize, traced: &[f64]| {
        let mut diff: Vec<f64> = (0..traced_requests)
            .map(|r| looped_request[r][column] - traced[r])
            .collect();
        LedgerRow {
            name,
            looped_us: median(&mut over_rounds(&|r| looped_request[r][column])),
            traced_us: median(&mut over_rounds(&|r| traced[r])),
            gap_pct: 100.0 * median(&mut diff).abs() / latency_us.max(f64::MIN_POSITIVE),
        }
    };
    let mut ledger = vec![row("engine search", 1, &search_us)];
    for (i, (_, name)) in STAGES.iter().enumerate() {
        ledger.push(row(name, 3 + i, &stage_us[i]));
    }
    // Tracing overhead: the self-driven, span-wrapped chain against the
    // engine's own `search`, request by request.
    let computed: Vec<usize> = (0..traced_requests).filter(|&r| class[r] != HIT).collect();
    let mut overhead: Vec<f64> = computed
        .iter()
        .map(|&r| chain_us[r] - search_us[r])
        .collect();
    let mut searched: Vec<f64> = computed.iter().map(|&r| search_us[r]).collect();
    put(
        "trace.overhead_pct",
        100.0 * median(&mut overhead) / median(&mut searched),
    );

    put(
        "fleet.protocol.encode_ns_p50",
        p(&mut flat("fleet.protocol.encode"), 0.5) * 1e3,
    );
    put(
        "fleet.protocol.decode_ns_p50",
        p(&mut flat("fleet.protocol.decode"), 0.5) * 1e3,
    );
    put("fleet.protocol.bytes_per_exchange", mean(&exchange_bytes));
    let mut roundtrip = flat("fleet.worker.roundtrip");
    put("fleet.worker.roundtrip_us_p50", p(&mut roundtrip, 0.5));
    put("fleet.worker.roundtrip_us_p99", p(&mut roundtrip, 0.99));
    let mut gather = flat("fleet.router.gather");
    let router_p50 = p(&mut gather, 0.5);
    put("fleet.router.gather_us_p50", router_p50);
    put("fleet.router.gather_us_p99", p(&mut gather, 0.99));
    put(
        "fleet.router.tax_us_p50",
        if fleet.is_some() {
            router_p50 - gather_p50
        } else {
            0.0
        },
    );

    LayerReport {
        values,
        latency_us,
        handoff_us: median(&mut over_rounds(&|r| looped_request[r][2])),
        ledger,
        tracer,
    }
}
