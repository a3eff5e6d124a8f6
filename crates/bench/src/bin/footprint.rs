//! §4.1's memory-feasibility budget — "storing N ambiguous queries along
//! with the data needed to assess the similarity among results lists
//! incurs in a maximal memory occupancy of N · |S_q̂| · |R_q̂′| · L bytes."
//!
//! Usage: `footprint [--sessions N]` (default 20 000)
//!
//! Builds the deployable stores (specialization model + per-specialization
//! surrogate store) and compares the *measured* bytes against the paper's
//! back-of-the-envelope bound. The bound counts snippet *text*; the store
//! this repo deploys keeps each snippet's TF-IDF vector instead and never
//! materializes the text, so the text side is measured here, through the
//! text-path oracle, and the two are printed apart.

use serpdiv_bench::{arg_usize, Lab, LabConfig};
use serpdiv_core::{PipelineParams, SpecializationStore};
use serpdiv_eval::Table;
use serpdiv_index::{ForwardIndex, Retriever, SnippetGenerator};

fn main() {
    let sessions = arg_usize("--sessions").unwrap_or(20_000);
    eprintln!("building lab ({sessions} sessions)...");
    let lab = Lab::build(LabConfig::trec(sessions));
    let params = PipelineParams {
        k_spec_results: 20,
        ..PipelineParams::default()
    };
    let index = lab.index.as_ref();
    let store = SpecializationStore::build_with(
        &lab.model,
        index,
        &ForwardIndex::build(index),
        params.k_spec_results,
        params.snippet_window,
    );

    // The snippet text behind every stored vector: same retrieval, the
    // text-path snippet of each hit.
    let snippets = SnippetGenerator::with_window(params.snippet_window);
    let (mut text_bytes, mut num_snippets) = (0usize, 0usize);
    for (spec, _) in store.iter() {
        let terms = index.analyze_query(spec);
        for hit in index.retrieve_terms(&terms, params.k_spec_results) {
            let doc = index
                .store()
                .get(hit.doc)
                .expect("a hit is a stored document");
            text_bytes += snippets.snippet(doc, &terms, index.vocab()).len();
            num_snippets += 1;
        }
    }

    let n = lab.model.len();
    let max_specs = lab.model.max_specializations();
    let r = params.k_spec_results;
    let l = text_bytes as f64 / num_snippets.max(1) as f64;
    let bound = n as f64 * max_specs as f64 * r as f64 * l;
    let kib = |bytes: usize| format!("{:.1} KiB", bytes as f64 / 1024.0);

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
    t.row(vec!["measured snippet text".into(), kib(text_bytes)]);
    t.row(vec![
        "measured surrogate store (vectors)".into(),
        kib(store.byte_size()),
    ]);
    t.row(vec![
        "text + vectors".into(),
        kib(text_bytes + store.byte_size()),
    ]);
    t.row(vec![
        "measured query-level model".into(),
        kib(lab.model.byte_size()),
    ]);
    println!("{}", t.render());
    println!(
        "store holds {} distinct specializations; snippet text/bound = {:.2}, \
         (text + vectors)/bound = {:.2}",
        store.len(),
        text_bytes as f64 / bound.max(1.0),
        (text_bytes + store.byte_size()) as f64 / bound.max(1.0)
    );
    println!("(the bound counts snippet text, and the measured text must stay below it;");
    println!(" the deployed store keeps each snippet's vector instead of its text)");
}
