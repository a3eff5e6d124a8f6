//! The open-loop probe — information only, never gated.
//!
//! Requests become due on a fixed schedule whether or not earlier ones
//! have been answered, and each is timed from when it was *due*, so a
//! stalled server cannot hide its own queue. On this 2-core shared box
//! the p99 of such a probe swings 1.5–43 ms (once 357 ms) between runs of
//! unchanged code, which is why the closed loop is the gated instrument.

use crate::estimator::{quantile_of, speed, Kernel};
use serpdiv_serve::{QueryRequest, SearchResponse, WorkerPool};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// What the probe saw, in reference µs.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpenStats {
    pub rate_qps: f64,
    pub latency_p50_us: f64,
    pub latency_p99_us: f64,
    /// How late the generator released requests, p99.
    pub gen_lag_us_p99: f64,
    pub sent: u64,
    pub degraded: u64,
}

/// Offer `rate_qps` for `run`: one scheduler thread (this one) sleeps
/// until the next request is due and releases every request then due; a
/// collector thread receives replies in release order.
pub fn probe(
    pool: &WorkerPool,
    requests: &[QueryRequest],
    first: usize,
    rate_qps: f64,
    run: Duration,
    kernel: &Kernel,
) -> OpenStats {
    let mut kernel = kernel.fork(11);
    let before = kernel.slice();
    let total = (rate_qps * run.as_secs_f64()) as usize;
    let gap = Duration::from_secs_f64(1.0 / rate_qps);
    type Pending = (Duration, mpsc::Receiver<(usize, SearchResponse)>);
    let (tx, rx) = mpsc::channel::<Pending>();
    let t0 = Instant::now();
    let (latencies_us, degraded, mut lag_us) = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut latencies_us = Vec::with_capacity(total);
            let mut degraded = 0u64;
            for (due, reply) in rx {
                let (_, response) = reply.recv().expect("a serving worker died before replying");
                latencies_us.push((t0.elapsed() - due).as_secs_f64() * 1e6);
                degraded += u64::from(response.degraded);
            }
            (latencies_us, degraded)
        });
        let mut lag_us = Vec::with_capacity(total);
        let mut sent = 0usize;
        while sent < total {
            let now = t0.elapsed();
            let due = gap * sent as u32;
            if due > now {
                std::thread::sleep(due - now);
                continue;
            }
            lag_us.push((now - due).as_secs_f64() * 1e6);
            let req = requests[(first + sent) % requests.len()].clone();
            tx.send((due, pool.submit(req)))
                .expect("collector outlives the scheduler");
            sent += 1;
        }
        drop(tx);
        let (latencies_us, degraded) = collector.join().expect("collector thread panicked");
        (latencies_us, degraded, lag_us)
    });
    let s = speed(before, kernel.slice());
    let mut latencies_us: Vec<f64> = latencies_us.into_iter().map(|v| v * s).collect();
    OpenStats {
        rate_qps,
        latency_p50_us: quantile_of(&mut latencies_us, 0.5),
        latency_p99_us: quantile_of(&mut latencies_us, 0.99),
        gen_lag_us_p99: quantile_of(&mut lag_us, 0.99) * s,
        sent: total as u64,
        degraded,
    }
}
