//! Wall-clock timing helpers for the table binaries.
//!
//! The table binaries need raw per-call milliseconds in a controlled
//! loop, because the paper reports absolute per-query times (Table 2).

use std::time::Instant;

/// A measured quantity: median over repetitions.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Median wall-clock milliseconds.
    pub median_ms: f64,
    /// Minimum observed.
    pub min_ms: f64,
    /// Maximum observed.
    pub max_ms: f64,
}

/// Run `f` `reps` times and report the median/min/max in milliseconds.
/// The closure's result is returned through `sink` semantics (black-box:
/// its length is accumulated) so the optimizer cannot elide the work.
pub fn time_median_ms<T>(reps: usize, mut f: impl FnMut() -> Vec<T>) -> Timed {
    assert!(reps >= 1);
    let mut samples = Vec::with_capacity(reps);
    let mut sink = 0usize;
    for _ in 0..reps {
        let start = Instant::now();
        let out = f();
        let elapsed = start.elapsed();
        sink = sink.wrapping_add(out.len());
        samples.push(elapsed.as_secs_f64() * 1e3);
    }
    std::hint::black_box(sink);
    samples.sort_by(f64::total_cmp);
    Timed {
        median_ms: samples[samples.len() / 2],
        min_ms: samples[0],
        max_ms: *samples.last().unwrap(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_positive_time() {
        let t = time_median_ms(3, || {
            let v: Vec<u64> = (0..10_000).collect();
            v
        });
        assert!(t.median_ms >= 0.0);
        assert!(t.min_ms <= t.median_ms && t.median_ms <= t.max_ms);
    }

    #[test]
    #[should_panic]
    fn zero_reps_panics() {
        let _ = time_median_ms(0, Vec::<u8>::new);
    }
}
