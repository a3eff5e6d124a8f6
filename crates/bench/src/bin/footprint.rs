//! §4.1's memory-feasibility budget — "storing N ambiguous queries along
//! with the data needed to assess the similarity among results lists
//! incurs in a maximal memory occupancy of N · |S_q̂| · |R_q̂′| · L bytes."
//!
//! Usage: `footprint [--sessions N]` (default 20 000)
//!
//! Builds the deployable stores (specialization model + per-specialization
//! surrogate store) and compares the *measured* bytes against the paper's
//! back-of-the-envelope bound.

use serpdiv_bench::{arg_usize, Lab, LabConfig};
use serpdiv_core::{PipelineParams, SpecializationStore};
use serpdiv_eval::Table;
use serpdiv_index::SearchEngine;

fn main() {
    let sessions = arg_usize("--sessions").unwrap_or(20_000);
    eprintln!("building lab ({sessions} sessions)...");
    let lab = Lab::build(LabConfig::trec(sessions));
    let params = PipelineParams {
        k_spec_results: 20,
        ..PipelineParams::default()
    };
    let store = SpecializationStore::build(
        &lab.model,
        &SearchEngine::new(&lab.index),
        params.k_spec_results,
        params.snippet_window,
    );

    let n = lab.model.len();
    let max_specs = lab.model.max_specializations();
    let r = params.k_spec_results;
    let l = store.avg_snippet_len();
    let bound = n as f64 * max_specs as f64 * r as f64 * l;

    println!("\nSection 4.1 memory-feasibility reproduction\n");
    let mut t = Table::new(&["quantity", "value"]);
    t.row(vec!["N (ambiguous queries)".into(), n.to_string()]);
    t.row(vec![
        "|S_q̂| (max specializations)".into(),
        max_specs.to_string(),
    ]);
    t.row(vec![
        "|R_q̂′| (results per specialization)".into(),
        r.to_string(),
    ]);
    t.row(vec!["L (avg snippet bytes)".into(), format!("{l:.1}")]);
    t.row(vec![
        "paper bound N·|S_q̂|·|R_q̂′|·L".into(),
        format!("{:.1} KiB", bound / 1024.0),
    ]);
    t.row(vec![
        "measured surrogate store".into(),
        format!("{:.1} KiB", store.byte_size() as f64 / 1024.0),
    ]);
    t.row(vec![
        "measured query-level model".into(),
        format!("{:.1} KiB", lab.model.byte_size() as f64 / 1024.0),
    ]);
    println!("{}", t.render());
    println!(
        "store holds {} distinct specializations; measured/bound = {:.2}",
        store.len(),
        store.byte_size() as f64 / bound.max(1.0)
    );
    println!("(the measured store must stay below the worst-case bound)");
}
