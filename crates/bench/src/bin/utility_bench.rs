//! `utility_bench` — microbenchmark of the Eq. 1 utility stage: the naive
//! pairwise-cosine matrix build (`UtilityMatrix::compute`) versus the
//! compiled inverted-index fast path (`CompiledSpecStore` + accumulator
//! scoring), over the serve-path workload shape, plus the one-off
//! compilation cost and the parallel-rows variant.
//!
//! Usage:
//! ```text
//! utility_bench [--candidates N] [--specs N] [--results N] [--nnz N] [--iters N]
//! ```
//! Defaults: 100 candidates (the serving `|Rq|`), 8 specializations,
//! 20 results/spec (the paper's `|R_q′|`), 25 nonzeros/surrogate, 20 iters.

use serpdiv_core::{CompiledSpecStore, UtilityMatrix, UtilityParams};
use serpdiv_index::SparseVector;
use serpdiv_text::TermId;
use std::time::Instant;

fn arg(name: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Deterministic LCG vectors (no rand dependency in the measured loop).
fn make_vector(seed: u64, nnz: usize, vocab: u32) -> SparseVector {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state
    };
    SparseVector::from_pairs((0..nnz).map(|_| {
        let t = (next() % u64::from(vocab)) as u32;
        let w = (next() % 1000) as f32 / 100.0 + 0.1;
        (TermId(t), w)
    }))
}

fn median_us(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn main() {
    let n = arg("--candidates", 100);
    let m = arg("--specs", 8);
    let r = arg("--results", 20);
    let nnz = arg("--nnz", 25);
    let iters = arg("--iters", 20).max(1);
    let vocab = 5_000u32;
    let params = UtilityParams::default();

    println!("utility_bench — {n} candidates × {m} specs × {r} results/spec, nnz={nnz}");

    let candidates: Vec<SparseVector> = (0..n as u64).map(|i| make_vector(i, nnz, vocab)).collect();
    let spec_lists: Vec<(String, Vec<SparseVector>)> = (0..m as u64)
        .map(|s| {
            let list = (0..r as u64)
                .map(|i| make_vector(1_000_000 + s * 1_000 + i, nnz, vocab))
                .collect();
            (format!("spec{s}"), list)
        })
        .collect();

    // One-off compilation (the offline deployment step).
    let t = Instant::now();
    let compiled = CompiledSpecStore::build(
        spec_lists
            .iter()
            .map(|(name, list)| (name.as_str(), list.iter())),
    );
    let compile_us = t.elapsed().as_secs_f64() * 1e6;
    println!(
        "compile: {compile_us:.0} µs ({} terms, {} postings, {:.1} KiB)",
        compiled.num_terms(),
        compiled.num_postings(),
        compiled.byte_size() as f64 / 1024.0
    );

    // Naive pairwise path.
    let lists: Vec<Vec<SparseVector>> = spec_lists.iter().map(|(_, l)| l.clone()).collect();
    let naive_us = median_us(
        (0..iters)
            .map(|_| {
                let t = Instant::now();
                let m = UtilityMatrix::compute(&candidates, &lists, params);
                std::hint::black_box(&m);
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect(),
    );

    // Compiled fast path: per-request scorer build + row accumulation.
    let spec_names: Vec<&str> = spec_lists.iter().map(|(s, _)| s.as_str()).collect();
    let fast_us = median_us(
        (0..iters)
            .map(|_| {
                let t = Instant::now();
                let scorer = compiled.scorer(spec_names.iter().copied());
                let m = scorer.matrix(&candidates, params);
                std::hint::black_box(&m);
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect(),
    );

    // Parallel rows (worth it for offline/batch-sized candidate sets).
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let par_us = median_us(
        (0..iters)
            .map(|_| {
                let t = Instant::now();
                let scorer = compiled.scorer(spec_names.iter().copied());
                let m = scorer.matrix_parallel(&candidates, params, threads);
                std::hint::black_box(&m);
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect(),
    );

    // Equivalence sanity check on the exact benchmarked inputs.
    let naive = UtilityMatrix::compute(&candidates, &lists, params);
    let scorer = compiled.scorer(spec_names.iter().copied());
    let fast = scorer.matrix(&candidates, params);
    let mut max_err = 0.0f64;
    for i in 0..n {
        for j in 0..m {
            max_err = max_err.max((naive.get(i, j) - fast.get(i, j)).abs());
        }
    }

    // What one resident scorer costs in memory: its own terms, ranges,
    // postings and bounds — against the same plus the 4-byte-per-term-id
    // dense lookup table every scorer carried before the table moved to
    // one per thread.
    let max_term = spec_lists
        .iter()
        .flat_map(|(_, list)| list.iter())
        .filter_map(|vector| vector.entries().last())
        .map(|&(t, _)| t.0 as usize)
        .max()
        .unwrap_or(0);
    println!(
        "scorer resident:    {:>10} B   (was {} B with its own {}-slot lookup table)",
        scorer.byte_size(),
        scorer.byte_size() + 4 * (max_term + 1),
        max_term + 1
    );
    println!("naive matrix:       {naive_us:>10.0} µs  (median of {iters})");
    println!(
        "compiled matrix:    {fast_us:>10.0} µs  ({:.1}× faster)",
        naive_us / fast_us
    );
    println!(
        "compiled ∥ ({threads:>2}t):   {par_us:>10.0} µs  ({:.1}× faster)",
        naive_us / par_us
    );
    println!("max |naive − compiled| = {max_err:.2e}");
    assert!(max_err < 1e-9, "fast path diverged from the oracle");
}
