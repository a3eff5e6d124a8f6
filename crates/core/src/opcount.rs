//! Table 1 by counting — "IASelect O(nk), xQuAD O(nk), OptSelect
//! O(n log k)" — with no stopwatch.
//!
//! This module exists in test builds only. It holds two thread-local
//! counters and the one test that reads them. The cost model is §4's:
//! the utilities `Ũ(d|R_q′)` are inputs, and an algorithm's work is
//!
//! * **utility reads** — one per [`UtilityMatrix::row`] / `get` call (a
//!   candidate's `|Sq|` cells, `|Sq|` constant), and
//! * **comparisons** — one per comparison a ranking makes: every
//!   comparison of OptSelect's selection of its top `2k` rank keys and of
//!   the sorts that order them (`select_nth_unstable_by` and
//!   `sort_unstable_by` compare through one counting function), and
//!   every comparison of the lazy greedy's queue.
//!
//! The ticks sit behind `#[cfg(test)]` at their four call sites, so no
//! other build contains them.
//!
//! [`UtilityMatrix::row`]: crate::UtilityMatrix::row

use crate::{Diversifier, DiversifyInput, IaSelect, OptSelect, UtilityMatrix, XQuad};
use std::cell::Cell;

thread_local! {
    static UTILITY_READS: Cell<u64> = const { Cell::new(0) };
    static COMPARISONS: Cell<u64> = const { Cell::new(0) };
}

pub(crate) fn utility_read() {
    UTILITY_READS.with(|c| c.set(c.get() + 1));
}

pub(crate) fn comparison() {
    COMPARISONS.with(|c| c.set(c.get() + 1));
}

type Select = fn(&DiversifyInput, usize) -> Vec<usize>;

/// What one selection cost on this thread.
#[derive(Debug, Clone, Copy)]
struct Ops {
    reads: u64,
    comparisons: u64,
}

impl Ops {
    fn of(select: Select, input: &DiversifyInput, k: usize) -> Ops {
        UTILITY_READS.with(|c| c.set(0));
        COMPARISONS.with(|c| c.set(0));
        assert_eq!(select(input, k).len(), k);
        Ops {
            reads: UTILITY_READS.with(Cell::get),
            comparisons: COMPARISONS.with(Cell::get),
        }
    }

    fn total(self) -> u64 {
        self.reads + self.comparisons
    }
}

/// One seeded query of the Table 2 shape: `n` candidates, 5
/// specializations of Zipf-like probability, each candidate useful for
/// exactly one of them.
pub(crate) fn workload(n: usize, seed: u64) -> DiversifyInput {
    let m = 5;
    let raw: Vec<f64> = (0..m).map(|j| 1.0 / (j + 1) as f64).collect();
    let total: f64 = raw.iter().sum();
    let probs: Vec<f64> = raw.into_iter().map(|p| p / total).collect();
    let mut state = seed;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (1u64 << 31) as f64
    };
    let mut values = vec![0.0f64; n * m];
    let mut relevance = Vec::with_capacity(n);
    for i in 0..n {
        let primary = (next() * m as f64) as usize % m;
        values[i * m + primary] = 0.2 + 0.8 * next();
        relevance.push(next());
    }
    DiversifyInput::new(probs, relevance, UtilityMatrix::from_values(n, m, values))
}

/// Least-squares slope of `ln(y)` against `ln(x)`.
fn loglog_slope(points: impl Iterator<Item = (usize, u64)>) -> f64 {
    let (mut n, mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for (x, y) in points {
        let (lx, ly) = ((x as f64).ln(), (y as f64).ln());
        n += 1.0;
        sx += lx;
        sy += ly;
        sxx += lx * lx;
        sxy += lx * ly;
    }
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

const SEED: u64 = 0x5EED;
const NS: [usize; 5] = [2_000, 4_000, 8_000, 16_000, 32_000];
const KS: [usize; 4] = [16, 64, 256, 1_024];

/// `(n, cost)` over [`NS`] at k = 100.
fn sweep_n(select: Select) -> Vec<(usize, Ops)> {
    NS.iter()
        .map(|&n| (n, Ops::of(select, &workload(n, SEED), 100)))
        .collect()
}

/// `(k, cost)` over [`KS`] on `n` candidates.
fn sweep_k(select: Select, n: usize) -> Vec<(usize, Ops)> {
    let input = workload(n, SEED);
    KS.iter()
        .map(|&k| (k, Ops::of(select, &input, k)))
        .collect()
}

fn slope(sweep: &[(usize, Ops)]) -> f64 {
    loglog_slope(sweep.iter().map(|&(x, ops)| (x, ops.total())))
}

/// The O(nk) algorithms sweep `k` on 4 000 candidates, not OptSelect's
/// 20 000: 20 000 × 1 024 is twenty million row reads a greedy, three
/// seconds each in an unoptimized test build.
const GREEDY_K_SWEEP_N: usize = 4_000;

#[test]
fn table1_scaling_holds_in_operation_counts() {
    // OptSelect, O(n log k). In n at fixed k: at most linear, and — what
    // separates it from a full sort's O(n log n) — the cost per candidate
    // does not grow with n. (The log–log slope itself reads 0.76 on this
    // grid, not 1: the sort of the top 2k and the reads of M are a fixed
    // cost, the selection's comparisons per candidate fall as 2k/n does,
    // and at n = 2 000 and 4 000 the top 200 hold fewer than the 44
    // useful documents the most probable specialization's list needs, so
    // the remainder scan reads every row a second time.)
    let opt: Select = |input, k| OptSelect::new().select(input, k);
    let by_n = sweep_n(opt);
    assert!(slope(&by_n) <= 1.1, "OptSelect vs n: {by_n:?}");
    for pair in by_n.windows(2) {
        let ((n0, c0), (n1, c1)) = (pair[0], pair[1]);
        assert!(
            c1.total() * n0 as u64 <= c0.total() * n1 as u64,
            "OptSelect's cost per candidate grew from n = {n0} to {n1}: {by_n:?}"
        );
    }
    // In k at fixed n: no faster than log k, whose own log–log slope on
    // this grid is 0.22.
    let by_k = sweep_k(opt, 20_000);
    let log_k = loglog_slope(KS.iter().map(|&k| (k, u64::from(k.ilog2()))));
    assert!(slope(&by_k) <= log_k + 0.05, "OptSelect vs k: {by_k:?}");

    // xQuAD and IASelect as the paper prints them, O(nk): linear in both.
    let greedies: [(Select, Select); 2] = [
        (
            |input, k| XQuad::new().select_eager(input, k),
            |input, k| XQuad::new().select(input, k),
        ),
        (
            |input, k| IaSelect.select_eager(input, k),
            |input, k| IaSelect.select(input, k),
        ),
    ];
    for (eager, lazy) in greedies {
        for (axis, sweep, lazy_sweep) in [
            ("n", sweep_n(eager), sweep_n(lazy)),
            (
                "k",
                sweep_k(eager, GREEDY_K_SWEEP_N),
                sweep_k(lazy, GREEDY_K_SWEEP_N),
            ),
        ] {
            let s = slope(&sweep);
            assert!((0.9..=1.1).contains(&s), "greedy vs {axis}: {s} {sweep:?}");
            // The served lazy twin is not O(nk); all it promises is never
            // to evaluate more marginal utilities than the full rescan.
            // Its queue's comparisons are extra: IASelect's gain has no
            // relevance term, so one pick stales a whole specialization
            // and the re-sifting outweighs the reads it saves.
            for (&(x, e), &(_, l)) in sweep.iter().zip(&lazy_sweep) {
                assert!(l.reads <= e.reads, "lazy vs eager at {axis} = {x}");
            }
        }
    }
}
