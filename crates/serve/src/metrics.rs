//! Serving-engine observability: lock-free request counters, plus
//! per-stage log-bucketed latency histograms (see [`crate::histogram`]).
//! Every latency is counted once, in its histogram; the snapshot's sums
//! and means are read back from the histograms' own sums and counts.

use crate::histogram::{LatencyHistogram, LatencyStats};
use crate::request::StageTimings;
use crate::slo::{SloConfig, SloMonitor};
use std::sync::atomic::{AtomicU64, Ordering};

/// Why a request was not served its full diversified page — the rungs of
/// the serving stack's **degradation ladder**, from cheapest to most
/// severe.
///
/// Each class answers a different operational question — an exhausted
/// per-request budget means the *request* ran long, a lost shard means
/// the *fleet* is unhealthy, a shed request means the *pool* is
/// saturated, an internal error means a *worker* contained a panic — so
/// they are counted (and labeled on the response) separately. Degraded
/// responses of every class are **never cached**: they are an accident of
/// one request, not the canonical SERP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Degradation {
    /// Not degraded.
    None,
    /// The request's compute [`Budget`](crate::Budget) was exhausted
    /// ([`EngineConfig::deadline_us`](crate::EngineConfig::deadline_us));
    /// the page is the baseline ranking prefix, labeled
    /// `"DPH (degraded)"`.
    Deadline,
    /// Retrieval lost at least one index shard (a fleet worker timed out
    /// or died) and the page was built from a partial gather; labeled
    /// `"DPH (degraded: shard loss)"`.
    ShardLoss,
    /// Admission control refused the request before any engine work: the
    /// worker-pool queue was over its bound
    /// ([`AdmissionPolicy`](crate::AdmissionPolicy)). The page is empty,
    /// labeled [`LABEL_SHED`](crate::request::LABEL_SHED), and the
    /// rejection costs O(µs), not a deadline.
    Shed,
    /// A serving worker contained a panic while computing this request
    /// (a scoring bug, or a test's faulted retriever). The page is empty,
    /// labeled [`LABEL_INTERNAL`](crate::request::LABEL_INTERNAL); the
    /// worker itself survives and keeps serving.
    Internal,
}

/// Cumulative counters updated by every request (relaxed atomics — the
/// counters are monotone and read only for reporting).
#[derive(Debug, Default)]
pub struct ServeMetrics {
    requests: AtomicU64,
    cache_hits: AtomicU64,
    diversified: AtomicU64,
    passthrough: AtomicU64,
    degraded: AtomicU64,
    degraded_shard_loss: AtomicU64,
    shed: AtomicU64,
    internal_errors: AtomicU64,
    /// Generations successfully published to this engine (hot swaps).
    swaps: AtomicU64,
    /// Candidate generations refused by validate-then-publish (decode
    /// failure, stale id, inconsistent artifacts).
    swap_rejected: AtomicU64,
    /// Per-stage latency distributions over *computed* requests' non-zero
    /// stage samples (cache hits and shed/internal refusals would flood
    /// the stage medians with zeros, and a skipped stage carries no
    /// attribution signal), keyed like [`StageLatencies`]. Every sample
    /// they skip is a 0, so their sums are the sums over all requests.
    hist_detect: LatencyHistogram,
    hist_retrieve: LatencyHistogram,
    hist_surrogate: LatencyHistogram,
    hist_utility: LatencyHistogram,
    hist_select: LatencyHistogram,
    /// Queue-wait distribution over queued requests (shed included — the
    /// wait is real even when the answer is a refusal).
    hist_queue_wait: LatencyHistogram,
    /// Service-time distribution over **all** requests, cache hits
    /// included. A pooled request's time starts at pickup: its queue wait
    /// is in `hist_queue_wait`, not here.
    hist_total: LatencyHistogram,
    /// Burn-rate SLO evaluator (`None` ⇒ no SLO configured); fed one
    /// outcome per recorded request.
    slo: Option<SloMonitor>,
}

/// Latency percentile summaries per pipeline stage, from the log-bucketed
/// histograms (computed requests only, except `queue_wait` — queued
/// requests — and `total` — all requests).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StageLatencies {
    /// Ambiguity-detection stage.
    pub detect: LatencyStats,
    /// Baseline-retrieval stage.
    pub retrieve: LatencyStats,
    /// Surrogate-construction stage.
    pub surrogate: LatencyStats,
    /// Utility-matrix stage (Definition 2 scoring).
    pub utility: LatencyStats,
    /// Diversified-selection stage.
    pub select: LatencyStats,
    /// Worker-pool queue wait (enqueue → worker pickup).
    pub queue_wait: LatencyStats,
    /// End-to-end service time.
    pub total: LatencyStats,
}

/// A point-in-time copy of [`ServeMetrics`] with derived averages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricsSnapshot {
    /// Requests served (hits + computed).
    pub requests: u64,
    /// Requests answered from the result cache.
    pub cache_hits: u64,
    /// Computed requests where diversification ran.
    pub diversified: u64,
    /// Computed requests served as baseline passthrough.
    pub passthrough: u64,
    /// Passthrough requests caused by a per-request budget found
    /// exhausted at a stage edge or on entry to the retrieve stage (a
    /// subset of `passthrough`).
    pub degraded: u64,
    /// Passthrough requests caused by a lost index shard — a fleet
    /// worker that timed out or died mid-gather (a subset of
    /// `passthrough`, disjoint from `degraded`).
    pub degraded_shard_loss: u64,
    /// Requests refused by worker-pool admission control before any
    /// engine work ([`Degradation::Shed`]). Disjoint from every class
    /// above: `requests = cache_hits + diversified + passthrough + shed
    /// + internal_errors`.
    pub shed: u64,
    /// Requests whose serving worker contained a panic
    /// ([`Degradation::Internal`]). Disjoint from every other class.
    pub internal_errors: u64,
    /// The [`GenerationId`](crate::GenerationId) currently serving (0
    /// when the snapshot was taken straight from a [`ServeMetrics`] with
    /// no engine attached).
    pub generation: u64,
    /// Generations successfully hot-swapped into this engine.
    pub swaps: u64,
    /// Candidate generations refused by validate-then-publish while the
    /// old generation kept serving.
    pub swap_rejected: u64,
    /// Always 0. Counted the cache entries a swap promoted one probe at
    /// a time; entries now stay reachable through the generation's content
    /// stamps with no per-entry work (see [`crate::generation`]), so
    /// there is nothing to count. The field remains only because the
    /// repo benchmark reads it (ROADMAP item 1(a) removes it).
    pub carried_over: u64,
    /// Always 0, kept for the same reader as
    /// [`carried_over`](Self::carried_over).
    pub carry_skipped: u64,
    /// Cumulative SLO burn-rate alert firings (rising edges; see
    /// [`SloMonitor`]). 0 when no SLO is configured.
    pub slo_burn_alerts: u64,
    /// Whether the SLO burn-rate alert is currently latched.
    pub slo_alert_active: bool,
    /// Requests that passed through the worker-pool queue (the
    /// denominator of `mean_queue_wait_us`).
    pub queue_waits: u64,
    /// Mean worker-pool queue wait per queued request, microseconds.
    pub mean_queue_wait_us: f64,
    /// Cumulative per-stage microseconds (computed requests only;
    /// `queue_wait_us` sums over queued requests).
    pub stage_sums: StageTimings,
    /// Mean end-to-end service time per request, microseconds.
    pub mean_total_us: f64,
    /// Per-stage latency percentiles from the log-bucketed histograms —
    /// the tail-attribution view: a p99 that dwarfs every stage's p99
    /// happened *between* stages (scheduler preemption, queue), not in
    /// one.
    pub latency: StageLatencies,
}

impl ServeMetrics {
    /// Metrics that also hold the engine to an SLO: every recorded
    /// request feeds the burn-rate monitor (`None` keeps the plain
    /// counters only).
    pub fn with_slo(slo: Option<SloConfig>) -> Self {
        ServeMetrics {
            slo: slo.map(SloMonitor::new),
            ..ServeMetrics::default()
        }
    }

    /// The burn-rate monitor, when an SLO is configured.
    pub fn slo(&self) -> Option<&SloMonitor> {
        self.slo.as_ref()
    }

    /// Count one successful generation publish (hot swap).
    pub fn record_swap(&self) {
        self.swaps.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one refused generation publish.
    pub fn record_swap_rejected(&self) {
        self.swap_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one served request.
    pub fn record(
        &self,
        cache_hit: bool,
        diversified: bool,
        degradation: Degradation,
        timings: StageTimings,
    ) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        if cache_hit {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
        } else if diversified {
            self.diversified.fetch_add(1, Ordering::Relaxed);
        } else {
            // Shed and internal-error responses never produced a page, so
            // they are counted apart from (not inside) `passthrough`; the
            // five leaf classes always sum to `requests`.
            match degradation {
                Degradation::Shed => {
                    self.shed.fetch_add(1, Ordering::Relaxed);
                }
                Degradation::Internal => {
                    self.internal_errors.fetch_add(1, Ordering::Relaxed);
                }
                Degradation::None => {
                    self.passthrough.fetch_add(1, Ordering::Relaxed);
                }
                Degradation::Deadline => {
                    self.passthrough.fetch_add(1, Ordering::Relaxed);
                    self.degraded.fetch_add(1, Ordering::Relaxed);
                }
                Degradation::ShardLoss => {
                    self.passthrough.fetch_add(1, Ordering::Relaxed);
                    self.degraded_shard_loss.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        // Stage distributions cover computed requests only (cache hits and
        // shed/internal refusals report all-zero stages and would bury the
        // medians), and skip 0 µs samples: a stage that didn't run — or
        // rounded below a microsecond — carries no attribution signal, and
        // skipping it keeps the cheap passthrough path at one or two
        // histogram updates instead of five. The total distribution covers
        // every request's service time, hits included.
        let computed =
            !cache_hit && !matches!(degradation, Degradation::Shed | Degradation::Internal);
        if computed {
            record_nonzero(&self.hist_detect, timings.detect_us);
            record_nonzero(&self.hist_retrieve, timings.retrieve_us);
            record_nonzero(&self.hist_surrogate, timings.surrogate_us);
            record_nonzero(&self.hist_utility, timings.utility_us);
            record_nonzero(&self.hist_select, timings.select_us);
        }
        self.hist_total.record(timings.total_us);
        if let Some(slo) = &self.slo {
            // Bad = not served its full contract: any degradation (a
            // shed, a contained panic, a deadline or shard-loss
            // fallback), or a full page that simply took too long.
            let bad = !matches!(degradation, Degradation::None)
                || timings.total_us > slo.config().target_us;
            slo.observe(bad);
        }
    }

    /// Record one worker-pool queue wait (enqueue → worker pickup).
    ///
    /// Kept separate from [`record`](Self::record) because the wait is
    /// known only to the pool, after the engine has already recorded the
    /// request.
    pub fn record_queue_wait(&self, us: u64) {
        self.hist_queue_wait.record(us);
    }

    /// Copy out the counters; sums and means come from the histograms.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let latency = StageLatencies {
            detect: self.hist_detect.stats(),
            retrieve: self.hist_retrieve.stats(),
            surrogate: self.hist_surrogate.stats(),
            utility: self.hist_utility.stats(),
            select: self.hist_select.stats(),
            queue_wait: self.hist_queue_wait.stats(),
            total: self.hist_total.stats(),
        };
        MetricsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            diversified: self.diversified.load(Ordering::Relaxed),
            passthrough: self.passthrough.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            degraded_shard_loss: self.degraded_shard_loss.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            internal_errors: self.internal_errors.load(Ordering::Relaxed),
            generation: 0, // filled by the engine, which knows the handle
            swaps: self.swaps.load(Ordering::Relaxed),
            swap_rejected: self.swap_rejected.load(Ordering::Relaxed),
            carried_over: 0,
            carry_skipped: 0,
            slo_burn_alerts: self.slo.as_ref().map_or(0, |s| s.alerts()),
            slo_alert_active: self.slo.as_ref().is_some_and(|s| s.alert_active()),
            queue_waits: latency.queue_wait.count,
            mean_queue_wait_us: latency.queue_wait.mean_us,
            stage_sums: StageTimings {
                detect_us: self.hist_detect.sum_us(),
                retrieve_us: self.hist_retrieve.sum_us(),
                surrogate_us: self.hist_surrogate.sum_us(),
                utility_us: self.hist_utility.sum_us(),
                select_us: self.hist_select.sum_us(),
                queue_wait_us: self.hist_queue_wait.sum_us(),
                total_us: self.hist_total.sum_us(),
            },
            mean_total_us: latency.total.mean_us,
            latency,
        }
    }
}

/// Record `us` into `h` unless it is a structural zero (stage skipped or
/// sub-µs): stage histograms attribute *where time went*, and 0 µs
/// samples say only "not here" while costing atomics on the hot path.
fn record_nonzero(h: &LatencyHistogram, us: u64) {
    if us > 0 {
        h.record(us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_classifies() {
        let m = ServeMetrics::default();
        m.record(
            false,
            true,
            Degradation::None,
            StageTimings {
                detect_us: 1,
                retrieve_us: 2,
                surrogate_us: 5,
                utility_us: 3,
                select_us: 4,
                queue_wait_us: 0,
                total_us: 11,
            },
        );
        m.record(
            true,
            true,
            Degradation::None,
            StageTimings {
                total_us: 1,
                ..Default::default()
            },
        );
        m.record(
            false,
            false,
            Degradation::Deadline,
            StageTimings {
                total_us: 3,
                ..Default::default()
            },
        );
        let s = m.snapshot();
        assert_eq!(s.requests, 3);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.diversified, 1);
        assert_eq!(s.passthrough, 1);
        assert_eq!(s.degraded, 1);
        assert_eq!(s.degraded_shard_loss, 0);
        assert_eq!(s.stage_sums.detect_us, 1);
        assert_eq!(s.stage_sums.surrogate_us, 5);
        assert_eq!(s.stage_sums.total_us, 15);
        assert!((s.mean_total_us - 5.0).abs() < 1e-12);
    }

    #[test]
    fn shard_loss_counted_apart_from_deadline_degradation() {
        let m = ServeMetrics::default();
        m.record(
            false,
            false,
            Degradation::ShardLoss,
            StageTimings::default(),
        );
        m.record(false, false, Degradation::Deadline, StageTimings::default());
        m.record(false, false, Degradation::None, StageTimings::default());
        let s = m.snapshot();
        assert_eq!(s.passthrough, 3);
        assert_eq!(s.degraded, 1);
        assert_eq!(s.degraded_shard_loss, 1);
    }

    #[test]
    fn shed_and_internal_are_disjoint_leaf_classes() {
        let m = ServeMetrics::default();
        m.record(false, false, Degradation::Shed, StageTimings::default());
        m.record(false, false, Degradation::Shed, StageTimings::default());
        m.record(false, false, Degradation::Internal, StageTimings::default());
        m.record(false, true, Degradation::None, StageTimings::default());
        m.record(true, true, Degradation::None, StageTimings::default());
        m.record(false, false, Degradation::Deadline, StageTimings::default());
        let s = m.snapshot();
        assert_eq!(s.shed, 2);
        assert_eq!(s.internal_errors, 1);
        assert_eq!(s.passthrough, 1, "shed/internal are not passthrough");
        // The leaf classes partition the request total.
        assert_eq!(
            s.requests,
            s.cache_hits + s.diversified + s.passthrough + s.shed + s.internal_errors
        );
    }

    #[test]
    fn queue_waits_average_over_queued_requests_only() {
        let m = ServeMetrics::default();
        let s = m.snapshot();
        assert_eq!(s.queue_waits, 0);
        assert_eq!(s.mean_queue_wait_us, 0.0);
        m.record_queue_wait(100);
        m.record_queue_wait(300);
        let s = m.snapshot();
        assert_eq!(s.queue_waits, 2);
        assert!((s.mean_queue_wait_us - 200.0).abs() < 1e-12);
        assert_eq!(s.stage_sums.queue_wait_us, 400);
    }

    #[test]
    fn stage_histograms_cover_computed_requests_only() {
        let m = ServeMetrics::default();
        // A computed, diversified request: lands in the stage histograms.
        m.record(
            false,
            true,
            Degradation::None,
            StageTimings {
                utility_us: 9,
                select_us: 3,
                total_us: 12,
                ..Default::default()
            },
        );
        // A cache hit and a shed refusal: total-only.
        m.record(
            true,
            true,
            Degradation::None,
            StageTimings {
                total_us: 1,
                ..Default::default()
            },
        );
        m.record(false, false, Degradation::Shed, StageTimings::default());
        m.record_queue_wait(40);
        let s = m.snapshot();
        assert_eq!(s.latency.utility.count, 1);
        assert_eq!(s.latency.utility.p99_us, 9);
        assert_eq!(s.latency.select.max_us, 3);
        assert_eq!(s.latency.total.count, 3, "total covers every request");
        assert_eq!(s.latency.total.max_us, 12);
        assert_eq!(s.latency.queue_wait.count, 1);
        assert_eq!(s.latency.queue_wait.p50_us, 40);
    }

    #[test]
    fn swap_counters_and_slo_surface_in_the_snapshot() {
        let m = ServeMetrics::with_slo(Some(SloConfig {
            target_us: 100,
            objective: 0.9,
            window: 4,
            burn_threshold: 2.0,
        }));
        m.record_swap();
        m.record_swap();
        m.record_swap_rejected();
        // One hot window: 4/4 degraded requests ⇒ burn 10 ≥ 2.
        for _ in 0..4 {
            m.record(false, false, Degradation::Deadline, StageTimings::default());
        }
        let s = m.snapshot();
        assert_eq!(s.swaps, 2);
        assert_eq!(s.swap_rejected, 1);
        assert_eq!(s.slo_burn_alerts, 1);
        assert!(s.slo_alert_active);
        assert_eq!(s.generation, 0, "bare metrics know no generation");
        // A clean window clears the latch; slow-but-served still counts
        // as bad when above target.
        for _ in 0..4 {
            m.record(false, true, Degradation::None, StageTimings::default());
        }
        let s = m.snapshot();
        assert_eq!(s.slo_burn_alerts, 1);
        assert!(!s.slo_alert_active);
        for _ in 0..4 {
            m.record(
                false,
                true,
                Degradation::None,
                StageTimings {
                    total_us: 10_000, // 100× the target: bad despite a full page
                    ..Default::default()
                },
            );
        }
        let s = m.snapshot();
        assert_eq!(s.slo_burn_alerts, 2);
        assert!(s.slo_alert_active);
    }

    #[test]
    fn concurrent_updates_do_not_lose_counts() {
        let m = ServeMetrics::default();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        m.record(
                            false,
                            true,
                            Degradation::None,
                            StageTimings {
                                total_us: 2,
                                ..Default::default()
                            },
                        );
                    }
                });
            }
        });
        let s = m.snapshot();
        assert_eq!(s.requests, 8000);
        assert_eq!(s.stage_sums.total_us, 16_000);
    }
}
