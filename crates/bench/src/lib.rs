//! The paper's effectiveness artifacts, regenerated: seeded, and with no
//! clock anywhere.
//!
//! Library side: the shared end-to-end laboratory. The binaries under
//! `src/bin/` print the corresponding paper artifacts; "as served" marks
//! the ones whose candidates, surrogates and utilities come out of the
//! serving engine's stage chain (`serpdiv_serve`). `tests/golden.rs` pins
//! the stdout of `ablation_lambda` and `footprint`, byte for byte.
//!
//! | binary | paper artifact |
//! |--------|----------------|
//! | `table3_effectiveness`| Table 3 (α-NDCG / IA-P sweep over c), as served |
//! | `figure1_utility`     | Figure 1 (avg utility vs |Sq|, AOL & MSN), as served |
//! | `recall_coverage`     | App. C recall (61% AOL / 65% MSN) |
//! | `footprint`           | §4.1 memory budget |
//! | `ablation_lambda`     | λ sweep (ours), as served |
//!
//! Nothing here measures time. Table 1's scaling is an operation-count
//! test (`serpdiv_core`'s `opcount`); Table 2's time grid, every layer
//! timing and end-to-end serving performance are rows of the repo
//! benchmark, `crates/benchmark` (`bench`, declared in `BENCHMARK.json`).

pub mod lab;

pub use lab::{baseline_docs, diversify_input, Lab, LabConfig};

/// The `usize` value following `flag` on the command line, if any.
pub fn arg_usize(flag: &str) -> Option<usize> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}
