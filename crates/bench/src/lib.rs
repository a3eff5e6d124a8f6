//! Benchmark harness — regenerates every table and figure of the paper.
//!
//! Library side: the synthetic selection workload (Table 1/2) and the
//! shared end-to-end laboratory (Table 3, Figure 1, recall, footprint).
//! The binaries under `src/bin/` print the corresponding paper artifacts;
//! "as served" marks the ones whose candidates, surrogates and utilities
//! come out of the serving engine's stage chain (`serpdiv_serve`).
//!
//! | binary | paper artifact |
//! |--------|----------------|
//! | `table1_complexity`   | Table 1 (empirical scaling fits) |
//! | `table2_efficiency`   | Table 2 (selection time grid) |
//! | `table3_effectiveness`| Table 3 (α-NDCG / IA-P sweep over c), as served |
//! | `figure1_utility`     | Figure 1 (avg utility vs |Sq|, AOL & MSN), as served |
//! | `recall_coverage`     | App. C recall (61% AOL / 65% MSN) |
//! | `footprint`           | §4.1 memory budget |
//! | `ablation_lambda`     | λ sweep (ours), as served |
//! | `ablation_heap`       | heap vs full-sort OptSelect (ours) |
//! | `utility_bench`, `surrogate_bench`, `shard_micro`, `pool_micro` | layer micro-benches (ours): naive vs compiled utility, text vs forward-index surrogates, the retrieval kernel, the pool hand-off |
//!
//! End-to-end serving performance is not measured here: that is the repo
//! benchmark, `crates/benchmark` (`bench`, declared in `BENCHMARK.json`).

pub mod lab;
pub mod timing;
pub mod workload;

pub use lab::{baseline_docs, diversify_input, Lab, LabConfig};
pub use timing::{time_median_ms, Timed};
pub use workload::{SelectionWorkload, WorkloadConfig};

/// The `usize` value following `flag` on the command line, if any.
pub fn arg_usize(flag: &str) -> Option<usize> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}
