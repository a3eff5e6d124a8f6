//! `bench` — the repo benchmark. See `README.md` beside this crate for
//! every metric's definition and the rules for citing its numbers.
//!
//! ```text
//! bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!       [--smoke] [--out DIR] [--json-out FILE]
//! bench compare A.json B.json
//! ```
//!
//! Run shape: timed set-up → warm-up → measured closed loop → correctness
//! and quality pass → (with `--trace 1`: open-loop probe, single-threaded
//! traced run, ledger reconciliation) → report. `--trace 1` is the same
//! run with the traced part added: it prints the end-to-end metrics too.
//! The last line of standard output is one JSON object: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.

mod closed_loop;
mod estimator;
mod fixture;
mod layers;
mod open_loop;
mod oracle;
mod procfs;
mod report;
mod trace;
mod workloads;

use closed_loop::{LoopStats, OpKind};
use estimator::{mean, median, quantile_of, Kernel};
use fixture::{fingerprint, Fixture, Scale, SetupClock};
use layers::{LayerInputs, TraceShape};
use report::{metric, Metric};
use serpdiv_fleet::{worker, DEFAULT_MAX_FRAME};
use serpdiv_index::ShardArtifact;
use serpdiv_serve::MetricsSnapshot;
use std::collections::BTreeMap;
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use workloads::{Deployment, Workload, WORKLOADS};

const USAGE: &str = "usage: bench --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
                     [--smoke] [--out DIR] [--json-out FILE]\n       \
                     bench compare A.json B.json";

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 2;

/// `ledger.gap_pct` above this fails a traced run whose replay can price
/// a request (see [`traced`]).
const LEDGER_LIMIT_PCT: f64 = 10.0;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    out: PathBuf,
    json_out: Option<PathBuf>,
}

fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}\n{USAGE}");
    std::process::exit(2);
}

fn parse_args(argv: &[String]) -> Args {
    let mut workload = None;
    let mut args = Args {
        workload: &WORKLOADS[0],
        seed: 0,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        out: PathBuf::from("target/benchmark"),
        json_out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage_error(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value();
                workload = Some(Workload::by_name(name).unwrap_or_else(|| {
                    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    usage_error(&format!("unknown workload {name}; known: {known:?}"))
                }));
            }
            "--seed" => {
                args.seed = value()
                    .parse()
                    .unwrap_or_else(|_| usage_error("--seed takes a whole number"));
            }
            "--seconds" => {
                args.seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 600.0)
                    .unwrap_or_else(|| usage_error("--seconds takes a number in (0, 600]"));
            }
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage_error("--trace takes 0 or 1"),
                };
            }
            "--smoke" => args.scale = Scale::Smoke,
            "--out" => args.out = PathBuf::from(value()),
            "--json-out" => args.json_out = Some(PathBuf::from(value())),
            other => usage_error(&format!("unknown flag {other}")),
        }
    }
    args.workload = workload.unwrap_or_else(|| usage_error("--workload is required"));
    args
}

/// `bench --shard-worker --artifact PATH --socket PATH`: serve one shard
/// until killed — or until the parent is gone, so a benchmark that dies
/// abruptly leaves no process behind.
fn shard_worker(argv: &[String]) -> ! {
    let flag = |name: &str| {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .unwrap_or_else(|| usage_error("--shard-worker needs --artifact and --socket"))
    };
    let fail = |what: String| -> ! {
        eprintln!("bench --shard-worker: {what}");
        std::process::exit(1);
    };
    let artifact_path = flag("--artifact");
    let socket_path = flag("--socket");
    let bytes = std::fs::read(artifact_path)
        .unwrap_or_else(|e| fail(format!("cannot read {artifact_path}: {e}")));
    let artifact = ShardArtifact::from_bytes(&bytes)
        .unwrap_or_else(|e| fail(format!("invalid artifact {artifact_path}: {e}")));
    let _ = std::fs::remove_file(socket_path);
    let listener = UnixListener::bind(socket_path)
        .unwrap_or_else(|e| fail(format!("cannot bind {socket_path}: {e}")));
    let parent = procfs::parent_pid();
    std::thread::spawn(move || loop {
        std::thread::sleep(Duration::from_millis(200));
        if procfs::parent_pid() != parent {
            std::process::exit(0);
        }
    });
    worker::serve(&listener, &artifact, DEFAULT_MAX_FRAME);
    std::process::exit(0);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--shard-worker") => shard_worker(&argv),
        Some("compare") => {
            let (Some(a), Some(b)) = (argv.get(1), argv.get(2)) else {
                usage_error("compare takes two result-set files");
            };
            match report::compare(a, b) {
                Ok(0) => println!("every metric of B is within its bound of A"),
                Ok(n) => {
                    println!("{n} metric(s) of B are worse than A by more than their bound");
                    std::process::exit(1);
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(2);
                }
            }
        }
        _ => {
            let args = parse_args(&argv);
            match run(&args) {
                Ok(true) => {}
                Ok(false) => std::process::exit(1),
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }
            }
        }
    }
}

/// Wall-clock time of each part of a run, printed so a reader can see
/// where a run's seconds go.
struct Wall {
    last: Instant,
    laps: Vec<(&'static str, f64)>,
}

impl Wall {
    fn lap(&mut self, name: &'static str) {
        self.laps.push((name, self.last.elapsed().as_secs_f64()));
        self.last = Instant::now();
    }

    fn print(&self) {
        let parts: Vec<String> = self
            .laps
            .iter()
            .map(|(name, s)| format!("{name} {s:.1}"))
            .collect();
        let total: f64 = self.laps.iter().map(|(_, s)| s).sum();
        println!("wall seconds: {} — total {total:.1}", parts.join(", "));
    }
}

/// What the engine's own counters say the loop did (after − before).
struct EngineDelta {
    requests: f64,
    /// Requests per class of `layers::CLASSES`.
    classes: [f64; 3],
    shed: f64,
    internal_errors: f64,
    swaps: f64,
    rejected: f64,
    carried: f64,
    carry_skipped: f64,
}

fn engine_delta(before: &MetricsSnapshot, after: &MetricsSnapshot) -> EngineDelta {
    let d = |a: u64, b: u64| a.saturating_sub(b) as f64;
    EngineDelta {
        requests: d(after.requests, before.requests),
        classes: [
            d(after.cache_hits, before.cache_hits),
            d(after.passthrough, before.passthrough),
            d(after.diversified, before.diversified),
        ],
        shed: d(after.shed, before.shed),
        internal_errors: d(after.internal_errors, before.internal_errors),
        swaps: d(after.swaps, before.swaps),
        rejected: d(after.swap_rejected, before.swap_rejected),
        carried: d(after.carried_over, before.carried_over),
        carry_skipped: d(after.carry_skipped, before.carry_skipped),
    }
}

fn ratio(part: f64, rest: f64) -> f64 {
    if part + rest > 0.0 {
        part / (part + rest)
    } else {
        0.0
    }
}

fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("\n{title}");
    for m in metrics {
        println!("  {:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

/// One benchmark run; `Ok(false)` when outputs were wrong.
fn run(args: &Args) -> Result<bool, String> {
    let workload = args.workload;
    let smoke = args.scale == Scale::Smoke;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let clients = workload.clients(nproc);
    let kernel = Kernel::new();
    let mut wall = Wall {
        last: Instant::now(),
        laps: Vec::new(),
    };
    println!(
        "bench: workload {} — {}\nseed {} · {} s closed loop · {} client(s) × {} worker(s) · \
         nproc {} · commit {} · trace {}{}",
        workload.name,
        workload.why,
        args.seed,
        args.seconds,
        clients,
        clients,
        nproc,
        commit(),
        u8::from(args.trace),
        if smoke { " · SMOKE scale" } else { "" },
    );

    // Set-up, timed, several times: `setup_s` is the median, the last one
    // serves.
    let mut setups = Vec::new();
    let mut built = None;
    for i in 0..SETUP_REPEATS {
        drop(built.take());
        let mut clock = SetupClock::new(kernel.fork(100 + i as u64));
        let fixture = Fixture::build(workload.shape(args.scale), &mut clock);
        let deployment = clock.phase("deploy", || {
            Deployment::launch(workload, &fixture, clients, &args.out)
        })?;
        println!(
            "set-up {}: {:.3} s raw, {:.3} ref-s ({})",
            i + 1,
            clock.raw_s(),
            clock.ref_s(),
            clock
                .phases
                .iter()
                .map(|p| format!("{} {:.2}", p.name, p.raw_s * p.speed))
                .collect::<Vec<_>>()
                .join(", ")
        );
        setups.push((clock.raw_s(), clock.ref_s()));
        built = Some((fixture, deployment));
    }
    let (fixture, deployment) = built.expect("at least one set-up ran");
    let setup_raw_s = median(&mut setups.iter().map(|s| s.0).collect::<Vec<_>>());
    let setup_s = median(&mut setups.iter().map(|s| s.1).collect::<Vec<_>>());

    wall.lap("set-up");

    let log_order = workload.requests(&fixture);
    if log_order.is_empty() {
        return Err("the workload's request list is empty".to_string());
    }
    let print = fingerprint(&fixture, log_order.iter().map(|r| r.query.as_str()));
    let requests = Workload::ordered(log_order, args.seed);
    println!(
        "fixture: {} docs, {} postings, {} log records, {} mined ambiguous queries, \
         {} specializations, {} requests, fingerprint {print:#018x}",
        fixture.index.stats().num_docs,
        fixture.total_postings(),
        fixture.log_records,
        fixture.model.len(),
        fixture.store.len(),
        requests.len(),
    );
    if print != workload.fingerprint(args.scale) {
        return Err(format!(
            "workload drifted: fixture fingerprint {print:#018x}, committed {:#018x} — a \
             corpus/querylog/mining change moved what {} measures; re-baseline in a benchmark PR",
            workload.fingerprint(args.scale),
            workload.name
        ));
    }

    // Warm-up, then the measured closed loop.
    let warmup = workload.warmup(args.scale, requests.len());
    let children = deployment.fleet.as_ref().map_or(Vec::new(), |f| f.pids());
    let engine = &deployment.engine;
    let pool = workload.through_pool.then_some(&deployment.pool);
    closed_loop::warm_up(pool, engine, &requests, warmup);
    wall.lap("warm-up");
    let metrics_before = engine.metrics();
    // (hits, misses) of the surrogate cache so far; zeros without one.
    let surrogate_counts = || {
        engine
            .surrogate_cache()
            .map_or((0, 0), |c| (c.stats().hits, c.stats().misses))
    };
    let surrogates_before = surrogate_counts();
    let writes = workload.write_script().map(|script| (script, args.seed));
    let log = closed_loop::run_loop(
        pool,
        engine,
        &requests,
        clients,
        warmup,
        Duration::from_secs_f64(args.seconds),
        &kernel,
        writes,
        &children,
    );
    wall.lap("closed loop");
    let surrogates_after = surrogate_counts();
    let delta = engine_delta(&metrics_before, &engine.metrics());
    let stats = log.stats();
    let surrogate_hit_ratio = ratio(
        (surrogates_after.0 - surrogates_before.0) as f64,
        (surrogates_after.1 - surrogates_before.1) as f64,
    );

    // Correctness and quality.
    let reference = workload.reference_engine(&fixture);
    let moving = workload.write_script().is_some();
    let mut verdict = oracle::check_loop(&log, &requests, &reference, !moving);
    if moving {
        let twin = workload.uncached_twin(engine);
        let (compared, stale) = oracle::stale_pages(engine, &twin, &requests, 200);
        verdict.pages_compared += compared;
        verdict.page_mismatches += stale;
    }
    let (alpha_ndcg, ia_p) = oracle::quality(workload, &fixture, &reference);
    let peak_rss_mb = procfs::total_peak_rss_mb(&children);
    let failed = verdict.failed();
    let mut correct = failed == 0;
    wall.lap("checks");

    println!(
        "closed loop: {} requests in {} blocks (≥ {} samples per block, tail quantile p{:.2}), \
         host speed {:.3}–{:.3} (kernel p50 {:.1} µs)",
        stats.attempted,
        stats.blocks,
        stats.min_block_samples,
        stats.tail_q * 100.0,
        stats.speed_min,
        stats.speed_max,
        stats.kernel_us_p50,
    );
    println!(
        "checks: {} degraded, {} wrong length, {}/{} pages differ from the oracle, \
         {} generation regressions, {} rejected writes ⇒ failed_share {:.6}",
        verdict.degraded,
        verdict.wrong_length,
        verdict.page_mismatches,
        verdict.pages_compared,
        verdict.generation_regressions,
        verdict.write_failures,
        failed as f64 / stats.attempted.max(1) as f64,
    );
    let end_to_end = report::declared_metrics(
        "end_to_end",
        &BTreeMap::from([
            ("setup_s", setup_s),
            ("throughput_qps", stats.throughput_qps.norm),
            ("latency_p50_us", stats.latency_p50_us.norm),
            ("cpu_us_per_request", stats.cpu_us_per_request.norm),
            ("alpha_ndcg_10", alpha_ndcg),
            ("ia_p_10", ia_p),
            ("peak_rss_mb", peak_rss_mb),
        ]),
    )?;
    print_metrics(
        "end-to-end (times in reference units: raw × host speed)",
        &end_to_end,
    );
    print_metrics(
        "info: the tail (not gated: ten seeds spread it 26 % on diversify_deep) and everything \
         as the wall clock saw it",
        &[
            metric("latency_p99_us", "us", stats.latency_tail_us.norm),
            metric("raw.setup_s", "s", setup_raw_s),
            metric("raw.throughput_qps", "1/s", stats.throughput_qps.raw),
            metric("raw.latency_p50_us", "us", stats.latency_p50_us.raw),
            metric("raw.latency_p99_us", "us", stats.latency_tail_us.raw),
            metric("raw.cpu_us_per_request", "us", stats.cpu_us_per_request.raw),
        ],
    );

    let mut final_metrics = end_to_end;
    if args.trace {
        let measured = Measured {
            log: &log,
            stats: &stats,
            delta: &delta,
            surrogate_hit_ratio,
        };
        let (per_layer, ledger_ok) = traced(
            args,
            &fixture,
            &deployment,
            &requests,
            warmup,
            clients,
            &kernel,
            measured,
            &mut wall,
        )?;
        correct &= ledger_ok;
        final_metrics = per_layer;
    }

    let result = report::result_json(correct, stats.attempted, failed, &final_metrics);
    if let Some(path) = &args.json_out {
        use std::io::Write;
        let line = report::tagged_json(workload.name, args.seed, args.trace, &result);
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{line}"))
            .map_err(|e| format!("cannot append to {}: {e}", path.display()))?;
    }
    // Stop pool, engine and worker processes before the result is out.
    drop(deployment);
    wall.lap("report");
    wall.print();
    println!("{result}");
    Ok(correct)
}

/// What the untraced loop measured, for the traced part to reconcile with.
struct Measured<'a> {
    log: &'a closed_loop::LoopLog,
    stats: &'a LoopStats,
    delta: &'a EngineDelta,
    surrogate_hit_ratio: f64,
}

/// The `--trace 1` part: open-loop probe, traced run, ledger; returns the
/// per-layer metrics and whether the ledger reconciled.
#[allow(clippy::too_many_arguments)]
fn traced(
    args: &Args,
    fixture: &Fixture,
    deployment: &Deployment,
    requests: &[serpdiv_serve::QueryRequest],
    warmup: usize,
    clients: usize,
    kernel: &Kernel,
    measured: Measured<'_>,
    wall: &mut Wall,
) -> Result<(Vec<Metric>, bool), String> {
    let Measured {
        log,
        stats,
        delta,
        surrogate_hit_ratio,
    } = measured;
    let workload = args.workload;
    let smoke = args.scale == Scale::Smoke;
    let open = open_loop::probe(
        &deployment.pool,
        requests,
        warmup,
        if smoke {
            workload.open_rate_qps / 10.0
        } else {
            workload.open_rate_qps
        },
        Duration::from_secs_f64(args.seconds * 0.3),
        kernel,
    );
    wall.lap("open loop");
    println!(
        "\nopen loop (info): {} requests offered at {:.0}/s, {} degraded",
        open.sent, open.rate_qps, open.degraded
    );

    let shape = if smoke {
        TraceShape {
            rounds: 3,
            per_round: 100,
            probes: 300,
            sample: 60,
            table2: (1_000, 20),
        }
    } else {
        TraceShape {
            rounds: 12,
            per_round: 5_000,
            probes: 5_000,
            sample: 500,
            table2: (10_000, 100),
        }
    };
    // The measured loop's own counters say how many requests of each
    // class it served.
    let served = delta.requests.max(1.0);
    let share: [f64; 3] = std::array::from_fn(|c| delta.classes[c] / served);
    let report = layers::run(LayerInputs {
        workload,
        fixture,
        requests,
        first: warmup,
        pool: workload.through_pool.then_some(&deployment.pool),
        engine: &deployment.engine,
        // The fixture's own retrieval layer, not whatever the loop's
        // writes have since published on the deployed engine.
        retriever: match &deployment.fleet {
            Some(fleet) => fleet.router.clone(),
            None => fixture.index.clone(),
        },
        fleet: deployment.fleet.as_ref(),
        kernel,
        shape,
        clients,
        writes: workload.write_script(),
        seed: args.seed,
    });
    wall.lap("traced run");
    let trace_path = args.out.join(format!("{}.trace.jsonl", workload.name));
    trace::write_jsonl(&trace_path, report.tracer.spans())
        .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;
    println!(
        "traced run: {} spans written to {}",
        report.tracer.spans().len(),
        trace_path.display()
    );

    // The ledger. Between the replay's rounds the deployment served
    // untraced slices of the closed loop, and each round traced the very
    // requests of its slice. Client latency there is pool hand-off plus
    // `search`, with `search` priced independently by the traced replay;
    // and what each stage contributes to a request must agree between the
    // benchmark's spans and the engine's own StageTimings as the untraced
    // response carried them. A line's gap is the median over requests of
    // the request's own difference, as a share of the mean request.
    println!(
        "\nledger (reference µs per request: medians over {} rounds of the round's mean; the \
         measured loop served {}; gap: median of the requests' own differences as % of the \
         mean request)",
        shape.rounds,
        layers::CLASSES
            .iter()
            .zip(share)
            .map(|(name, s)| format!("{:.1} % {name}", 100.0 * s))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!(
        "  {:<28} {:>10.2} (measured loop: {:.2})",
        "client latency (loop)", report.latency_us, stats.mean_latency_us
    );
    println!(
        "  {:<28} {:>10.2} (measured loop: {:.2})",
        "pool hand-off (loop)", report.handoff_us, stats.mean_handoff_us
    );
    let mut gap_pct = 0.0f64;
    for row in &report.ledger {
        gap_pct = gap_pct.max(row.gap_pct);
        println!(
            "  {:<28} {:>10.2} loop {:>10.2} traced {:>6.2} %",
            row.name, row.looped_us, row.traced_us, row.gap_pct
        );
    }
    // The limit binds where the replay can price a request: in-process and
    // through the pool. A span costs half as much as the cache hit it wraps
    // when a client calls `search` directly 2 M times a second, and a
    // fleet request is an exchange with two other processes, whose
    // scheduling the replay does not reproduce; there the gap is reported
    // and nothing more. So it is at smoke scale, whose 300 replayed
    // requests are no measurement.
    let binding = workload.through_pool && deployment.fleet.is_none() && !smoke;
    let reconciled = gap_pct <= LEDGER_LIMIT_PCT;
    println!(
        "  ledger gap {gap_pct:.2} % — limit {LEDGER_LIMIT_PCT} % {}",
        match (binding, reconciled) {
            (true, true) => "holds",
            (true, false) => "BROKEN: the traced run does not account for the measured one",
            (false, _) => "not binding on this workload (info)",
        }
    );
    let ledger_ok = reconciled || !binding;

    let mut publish = log.op_us(OpKind::Republish);
    let ingest = log.op_us(OpKind::Ingest);
    let mut merge = log.op_us(OpKind::Merge);
    let router = deployment
        .fleet
        .as_ref()
        .map(|f| f.router.metrics())
        .unwrap_or_default();
    // The replay's own numbers, joined by what only the loop, the writer
    // thread and the router can say.
    let mut values = report.values;
    for (name, value) in [
        ("index.delta.ingest_us_per_doc", mean(&ingest)),
        ("index.delta.merge_ms", median(&mut merge) / 1e3),
        ("serve.surrogates.hit_ratio", surrogate_hit_ratio),
        ("serve.cache.hit_ratio", stats.hit_share),
        (
            "serve.cache.refill_ms",
            if workload.result_cache > 0 {
                stats.computed_ms
            } else {
                0.0
            },
        ),
        ("latency_p99_us", stats.latency_tail_us.norm),
        ("serve.pool.handoff_us_p50", stats.handoff_us_p50),
        ("serve.pool.handoff_us_p99", stats.handoff_us_p99),
        ("serve.pool.queue_wait_us_p50", stats.queue_wait_us_p50),
        ("serve.pool.queue_wait_us_p99", stats.queue_wait_us_p99),
        ("serve.pool.shed", delta.shed),
        ("serve.pool.internal_errors", delta.internal_errors),
        (
            "serve.generation.publish_us_p50",
            quantile_of(&mut publish, 0.5),
        ),
        (
            "serve.generation.publish_us_p99",
            quantile_of(&mut publish, 0.99),
        ),
        ("serve.generation.swaps", delta.swaps),
        ("serve.generation.rejected", delta.rejected),
        (
            "serve.carry.promoted_ratio",
            ratio(delta.carried, delta.carry_skipped),
        ),
        ("fleet.router.hedges", router.hedges as f64),
        ("fleet.router.timeouts", router.shard_timeouts as f64),
        (
            "fleet.router.partial_gathers",
            router.partial_gathers as f64,
        ),
        ("fleet.router.reconnects", router.reconnects as f64),
        ("fleet.router.breaker_trips", router.breaker_trips as f64),
        ("ledger.gap_pct", gap_pct),
        ("calib.kernel_us_p50", stats.kernel_us_p50),
        ("calib.speed_min", stats.speed_min),
        ("calib.speed_max", stats.speed_max),
        ("open.rate_qps", open.rate_qps),
        ("open.latency_p50_us", open.latency_p50_us),
        ("open.latency_p99_us", open.latency_p99_us),
        ("open.gen_lag_us_p99", open.gen_lag_us_p99),
    ] {
        values.insert(name, value);
    }
    let per_layer = report::declared_metrics("per_layer", &values)?;
    print_metrics(
        "per layer (times in reference units; 0 = layer not on this workload's path)",
        &per_layer,
    );
    Ok((per_layer, ledger_ok))
}
