//! Log-bucketed latency histograms: the one place [`ServeMetrics`]
//! counts a latency.
//!
//! A sum answers "where does the *mean* go" but is blind to the tail: a
//! 28 ms p99 on a 0.15 ms p50 workload moves a mean by ~1 ms and is
//! invisible in a sum. [`LatencyHistogram`] keeps the full latency
//! *distribution* at fixed memory cost, together with its sample count
//! and sum, so one record per sample serves both views: percentiles per
//! stage (detect / retrieve / surrogate / utility / select), for queue
//! wait and for the end-to-end total — pinning a tail to a stage instead
//! of inferring it — and the sums and means of the metrics snapshot.
//!
//! Bucketing is HDR-style: exact 1 µs buckets below `LINEAR_BUCKETS` µs,
//! then 8 sub-buckets per power-of-two octave, which bounds the relative
//! quantization error of any reported percentile at 12.5% while covering
//! the entire `u64` microsecond range in [`NUM_BUCKETS`] (≈ 4 KiB of)
//! counters. Recording is a single relaxed atomic increment plus an atomic
//! max — wait-free, no locks on the serving path — and the exact observed
//! maximum is tracked separately so the top percentile can never be
//! *over*-reported past a real sample.
//!
//! [`ServeMetrics`]: crate::ServeMetrics

use std::sync::atomic::{AtomicU64, Ordering};

/// Values below this many microseconds get exact 1 µs-wide buckets.
const LINEAR_BUCKETS: u64 = 16;
/// Sub-buckets per power-of-two octave above the linear range (8 ⇒ each
/// bucket is 1/8 of its octave wide ⇒ ≤ 12.5% quantization error).
const SUB_BUCKETS: u64 = 8;
/// log2 of [`SUB_BUCKETS`].
const SUB_BITS: u32 = 3;
/// First octave above the linear range: values in `[16, 32)` are octave 4.
const FIRST_OCTAVE: u32 = 4;
/// Total bucket count: 16 linear + 8 per octave for octaves 4..=63.
pub const NUM_BUCKETS: usize = (LINEAR_BUCKETS + (64 - FIRST_OCTAVE as u64) * SUB_BUCKETS) as usize;

/// Bucket index for a microsecond value (total function over `u64`).
#[inline]
fn bucket_index(us: u64) -> usize {
    if us < LINEAR_BUCKETS {
        return us as usize;
    }
    let octave = 63 - us.leading_zeros(); // >= FIRST_OCTAVE
    let sub = (us >> (octave - SUB_BITS)) & (SUB_BUCKETS - 1);
    (LINEAR_BUCKETS + (octave - FIRST_OCTAVE) as u64 * SUB_BUCKETS + sub) as usize
}

/// Largest microsecond value falling into `bucket` (its inclusive upper
/// edge) — what [`LatencyHistogram::percentile_us`] reports, so
/// percentiles are conservative (never below the true order statistic).
fn bucket_upper_edge(bucket: usize) -> u64 {
    let b = bucket as u64;
    if b < LINEAR_BUCKETS {
        return b;
    }
    let octave = FIRST_OCTAVE + ((b - LINEAR_BUCKETS) / SUB_BUCKETS) as u32;
    let sub = (b - LINEAR_BUCKETS) % SUB_BUCKETS;
    let width = 1u64 << (octave - SUB_BITS);
    let lower = (1u64 << octave) + sub * width;
    lower + (width - 1)
}

/// A fixed-size, wait-free, log-bucketed latency histogram (microseconds).
///
/// See the [module docs](self) for the bucketing scheme. All updates are
/// relaxed atomics: counts are monotone and only read for reporting, so a
/// snapshot race can momentarily under-count but never corrupt.
///
/// ```
/// use serpdiv_serve::LatencyHistogram;
/// let h = LatencyHistogram::default();
/// for us in [10, 12, 100, 30_000] {
///     h.record(us);
/// }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.percentile_us(50.0), 12); // exact below 16 µs
/// assert_eq!(h.max_us(), 30_000); // the max is always exact
/// assert!(h.percentile_us(99.0) >= 30_000);
/// ```
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: Vec<AtomicU64>,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Record one latency observation, in microseconds. Wait-free: three
    /// relaxed atomic updates on the serving path (the observation count
    /// is derived from the buckets at read time, not tracked separately).
    pub fn record(&self, us: u64) {
        self.buckets[bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        // Plain wrapping add, not a saturating CAS loop: overflowing a u64
        // of summed microseconds takes ~585k years of recorded latency, and
        // this runs on the serving path for every request.
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        // Guarded max: `fetch_max` is a locked CAS loop even when the max
        // is unchanged, which is the steady state — a relaxed load makes
        // the common case lock-free (the race just retries via fetch_max).
        if us > self.max_us.load(Ordering::Relaxed) {
            self.max_us.fetch_max(us, Ordering::Relaxed);
        }
    }

    /// Number of recorded observations (a read-time sum over the bucket
    /// counters — reporting pays, the serving path doesn't).
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all observations, microseconds (wrapping, see
    /// [`record`](Self::record)).
    pub fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }

    /// Exact maximum observation, microseconds (0 when empty).
    pub fn max_us(&self) -> u64 {
        self.max_us.load(Ordering::Relaxed)
    }

    /// The `p`-th percentile (`0.0..=100.0`), in microseconds.
    ///
    /// Reports the inclusive upper edge of the bucket holding the p-th
    /// order statistic — exact below 16 µs, within 12.5% above — clamped
    /// to the exact observed [`max_us`](Self::max_us) so quantization can
    /// never push a percentile past a real sample. Returns 0 when empty.
    pub fn percentile_us(&self, p: f64) -> u64 {
        let total: u64 = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum();
        if total == 0 {
            return 0;
        }
        // Rank of the order statistic, 1-based: ceil(p/100 * total),
        // clamped into [1, total] (the sorted-vector convention).
        let rank = ((p / 100.0) * total as f64).ceil().max(1.0) as u64;
        let rank = rank.min(total);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_upper_edge(i).min(self.max_us());
            }
        }
        self.max_us()
    }

    /// Condense into a plain-old-data [`LatencyStats`] for snapshots.
    pub fn stats(&self) -> LatencyStats {
        let count = self.count();
        LatencyStats {
            count,
            p50_us: self.percentile_us(50.0),
            p95_us: self.percentile_us(95.0),
            p99_us: self.percentile_us(99.0),
            max_us: self.max_us(),
            mean_us: if count == 0 {
                0.0
            } else {
                self.sum_us() as f64 / count as f64
            },
        }
    }
}

/// Point-in-time percentile summary of one [`LatencyHistogram`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencyStats {
    /// Observations recorded.
    pub count: u64,
    /// Median, microseconds (bucket upper edge; exact below 16 µs).
    pub p50_us: u64,
    /// 95th percentile, microseconds.
    pub p95_us: u64,
    /// 99th percentile, microseconds.
    pub p99_us: u64,
    /// Exact maximum, microseconds.
    pub max_us: u64,
    /// Mean, microseconds.
    pub mean_us: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_range_is_exact() {
        for us in 0..LINEAR_BUCKETS {
            assert_eq!(bucket_index(us), us as usize);
            assert_eq!(bucket_upper_edge(us as usize), us);
        }
    }

    #[test]
    fn buckets_partition_the_u64_range() {
        // Edges and interior points of every octave map to monotonically
        // non-decreasing buckets whose upper edge is >= the value.
        let mut values: Vec<u64> = Vec::new();
        for shift in 0..63 {
            let base = 1u64 << shift;
            values.extend([base, base + 1, base + base / 2, base + (base - 1)]);
        }
        values.push(u64::MAX);
        values.sort_unstable();
        let mut last = 0usize;
        for &us in &values {
            let b = bucket_index(us);
            assert!(b >= last, "bucket order broke at {us}");
            assert!(b < NUM_BUCKETS);
            assert!(
                bucket_upper_edge(b) >= us,
                "upper edge {} < value {us}",
                bucket_upper_edge(b)
            );
            last = b;
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn quantization_error_is_bounded() {
        // Above the linear range the reported edge overshoots by < 12.5%.
        for us in [20u64, 100, 1000, 12_345, 1_000_000, 123_456_789] {
            let edge = bucket_upper_edge(bucket_index(us));
            assert!(edge >= us);
            assert!(
                (edge - us) as f64 <= us as f64 * 0.125,
                "edge {edge} overshoots {us}"
            );
        }
    }

    #[test]
    fn percentiles_match_exact_on_small_samples() {
        let h = LatencyHistogram::default();
        for us in 1..=10u64 {
            h.record(us); // all in the exact linear range
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.percentile_us(50.0), 5);
        assert_eq!(h.percentile_us(100.0), 10);
        assert_eq!(h.percentile_us(0.0), 1);
        assert_eq!(h.max_us(), 10);
        assert!((h.stats().mean_us - 5.5).abs() < 1e-12);
    }

    #[test]
    fn tail_is_conservative_but_clamped_to_max() {
        let h = LatencyHistogram::default();
        for _ in 0..99 {
            h.record(100);
        }
        h.record(28_000);
        let p99 = h.percentile_us(99.0);
        // p99 lands in the 100 µs bucket: reported edge covers 100 but
        // stays within the 12.5% bound.
        assert!((100..=112).contains(&p99), "p99 {p99}");
        // p100 is the straggler, clamped to the exact max.
        assert_eq!(h.percentile_us(100.0), 28_000);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LatencyHistogram::default();
        assert_eq!(h.percentile_us(50.0), 0);
        let s = h.stats();
        assert_eq!((s.count, s.p99_us, s.max_us), (0, 0, 0));
        assert_eq!(s.mean_us, 0.0);
    }

    #[test]
    fn concurrent_records_are_not_lost() {
        let h = LatencyHistogram::default();
        std::thread::scope(|s| {
            for t in 0..4 {
                let h = &h;
                s.spawn(move || {
                    for i in 0..1000u64 {
                        h.record(t * 10_000 + i);
                    }
                });
            }
        });
        assert_eq!(h.count(), 4000);
        assert_eq!(h.max_us(), 30_999);
    }
}
