//! The noise-robust estimator: a fixed reference kernel that measures how
//! fast the host is *right now*, the speed normalisation built on it, the
//! tail-percentile rule and the median-over-blocks reduction.
//!
//! On the shared 2-core box this benchmark was written on, the same binary
//! swings 14.4 k–21.1 k QPS between invocations with CPU-µs/request moving
//! in step — the host gets slower and faster, the code does not. Every raw
//! time is therefore multiplied by the `speed` measured right beside it,
//! giving "reference µs": what the time would have been on a host that
//! runs the kernel in [`REF_KERNEL_US`].

use std::sync::Arc;
use std::time::{Duration, Instant};

/// The kernel time, in µs, of the reference host. A constant of the
/// benchmark: changing it rescales every normalised metric.
pub const REF_KERNEL_US: f64 = 40.0;

/// Length of one calibration slice.
pub const CALIB_SLICE: Duration = Duration::from_millis(20);

const TABLE_ENTRIES: usize = 1 << 20; // × 4 bytes = 4 MiB
const KERNEL_STEPS: usize = 2_000;
/// Fewest kernel calls a calibration slice rests on, however late it
/// started.
const MIN_CALLS: usize = 16;

/// The reference kernel: an xorshift-indexed walk over a 4 MiB table with
/// an `f64` `log2` accumulate — a mix of cache-missing loads and float
/// work, like the serving path it stands beside.
#[derive(Clone)]
pub struct Kernel {
    table: Arc<Vec<u32>>,
    state: u64,
}

impl Kernel {
    /// A kernel over a freshly filled table.
    pub fn new() -> Self {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let table = (0..TABLE_ENTRIES)
            .map(|_| {
                x = xorshift(x);
                (x >> 32) as u32
            })
            .collect();
        Kernel {
            table: Arc::new(table),
            state: 0x2545_F491_4F6C_DD1D,
        }
    }

    /// A kernel over the same table with its own walk state, for another
    /// thread.
    pub fn fork(&self, lane: u64) -> Self {
        Kernel {
            table: self.table.clone(),
            state: self.state ^ (lane + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93),
        }
    }

    /// One kernel call: [`KERNEL_STEPS`] steps.
    fn call(&mut self) -> f64 {
        let mut x = self.state;
        let mut acc = 0.0f64;
        for _ in 0..KERNEL_STEPS {
            x = xorshift(x);
            let v = self.table[(x as usize) & (TABLE_ENTRIES - 1)];
            acc += f64::from(v | 1).log2();
        }
        self.state = x | 1;
        acc
    }

    /// Run kernel calls until `clock` has advanced to `until` (and at least
    /// [`MIN_CALLS`] of them); returns the median call time in µs.
    ///
    /// Calibration windows are pinned to the run's own clock so that every
    /// client thread calibrates *at the same time*: the kernel then shares
    /// the machine with other kernels only, never with requests in flight,
    /// and its time says how fast the host is, not how busy the benchmark
    /// keeps the other core.
    pub fn calibrate_until(&mut self, clock: Instant, until: Duration) -> f64 {
        let mut calls_ns: Vec<u64> = Vec::with_capacity(1024);
        loop {
            let t = Instant::now();
            std::hint::black_box(self.call());
            calls_ns.push(t.elapsed().as_nanos() as u64);
            if calls_ns.len() >= MIN_CALLS && clock.elapsed() >= until {
                break;
            }
        }
        calls_ns.sort_unstable();
        quantile(&calls_ns, 0.5) as f64 / 1e3
    }

    /// One default-length calibration slice, starting now.
    pub fn slice(&mut self) -> f64 {
        self.calibrate_until(Instant::now(), CALIB_SLICE)
    }
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// The benchmark's own seeded generator (xorshift64): its inputs must not
/// change because a dependency's generator did.
pub struct Xorshift(u64);

impl Xorshift {
    pub fn new(seed: u64) -> Self {
        Xorshift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = xorshift(self.0);
        self.0
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The factor that turns a raw time into reference time, from the median
/// kernel times of the two calibration slices adjacent to the measurement:
/// `normalised = raw × speed`, above 1 when this host is the faster one.
pub fn speed(kernel_us_before: f64, kernel_us_after: f64) -> f64 {
    REF_KERNEL_US / ((kernel_us_before + kernel_us_after) / 2.0)
}

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`); 0 when
/// empty.
pub fn quantile<T: Copy + Default>(sorted: &[T], q: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort and take the nearest-rank quantile.
pub fn quantile_of(values: &mut [f64], q: f64) -> f64 {
    values.sort_unstable_by(f64::total_cmp);
    quantile(values, q)
}

/// Median of a list (sorts it); 0 when empty.
pub fn median(values: &mut [f64]) -> f64 {
    quantile_of(values, 0.5)
}

/// Mean of a list; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The tail-percentile rule: the highest quantile, capped at `wanted`,
/// that leaves at least ten samples beyond it in a block of
/// `min_block_samples` samples. A p99 over 300 samples rests on three of
/// them; this reports p96.7 instead and says so.
pub fn tail_quantile(wanted: f64, min_block_samples: usize) -> f64 {
    if min_block_samples <= 20 {
        return 0.5;
    }
    wanted.min(1.0 - 10.0 / min_block_samples as f64)
}

/// One timed observation: when it completed (ns since the loop started)
/// and its value in reference units.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub at_ns: u64,
    pub value: f64,
}

/// Pool observations into `block_ns`-long blocks by completion time and
/// return each non-empty block's sorted values, in time order.
pub fn blocks(observations: &[Timed], block_ns: u64, num_blocks: usize) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); num_blocks];
    for o in observations {
        let b = (o.at_ns / block_ns) as usize;
        if b < num_blocks {
            out[b].push(o.value);
        }
    }
    out.retain(|b| !b.is_empty());
    for b in &mut out {
        b.sort_unstable_by(f64::total_cmp);
    }
    out
}

/// The median over blocks of each block's own `q`-quantile.
pub fn block_median_quantile(sorted_blocks: &[Vec<f64>], q: f64) -> f64 {
    let mut per_block: Vec<f64> = sorted_blocks.iter().map(|b| quantile(b, q)).collect();
    median(&mut per_block)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly ten beyond it.
        assert_eq!(tail_quantile(0.99, 1_000), 0.99);
        // 5000 samples: p99 is still the cap.
        assert_eq!(tail_quantile(0.99, 5_000), 0.99);
        // 300 samples: only p96.67 has ten beyond it.
        let q = tail_quantile(0.99, 300);
        assert!((q - (1.0 - 10.0 / 300.0)).abs() < 1e-12);
        let beyond = 300 - (q * 300.0).ceil() as usize;
        assert!(beyond >= 10, "{beyond}");
        // Too few samples for any tail: fall back to the median.
        assert_eq!(tail_quantile(0.99, 15), 0.5);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&v, 1.0), 100);
        assert_eq!(quantile(&v, 0.0), 1);
        assert_eq!(quantile::<u64>(&[], 0.5), 0);
    }

    #[test]
    fn speed_normalisation_cancels_a_slow_host() {
        // A host twice as slow as the reference: kernel takes 80 µs, a
        // 100 µs request there is a 50 µs request on the reference host.
        let s = speed(2.0 * REF_KERNEL_US, 2.0 * REF_KERNEL_US);
        assert!((s - 0.5).abs() < 1e-12);
        assert!((100.0 * s - 50.0).abs() < 1e-9);
        // Adjacent slices disagreeing: their mean decides.
        let s = speed(30.0, 50.0);
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn block_median_ignores_one_bad_block() {
        let second = 1_000_000_000u64;
        let mut obs = Vec::new();
        for b in 0..5u64 {
            for i in 0..100u64 {
                // Block 2 is ten times slower (a noisy neighbour).
                let value = if b == 2 { 1_000.0 } else { 100.0 } + i as f64;
                obs.push(Timed {
                    at_ns: b * second + i,
                    value,
                });
            }
        }
        let bl = blocks(&obs, second, 5);
        assert_eq!(bl.len(), 5);
        assert_eq!(block_median_quantile(&bl, 0.5), 149.0);
        assert_eq!(block_median_quantile(&bl, 0.99), 198.0);
        // Observations past the last block are dropped, empty blocks too.
        let bl = blocks(&obs, second, 3);
        assert_eq!(bl.len(), 3);
        let bl = blocks(&obs[..100], second, 5);
        assert_eq!(bl.len(), 1);
    }

    #[test]
    fn kernel_is_deterministic_and_takes_time() {
        let mut a = Kernel::new();
        let mut b = a.clone();
        assert_eq!(a.call().to_bits(), b.call().to_bits());
        let us = a.calibrate_until(Instant::now(), Duration::from_millis(2));
        assert!(us > 0.0);
        // Forked lanes walk different paths over the same table.
        let mut c = a.fork(0);
        let mut d = a.fork(1);
        assert_ne!(c.call().to_bits(), d.call().to_bits());
    }
}
