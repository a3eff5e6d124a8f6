//! Ablation (ours): sweep the relevance/diversity mixing parameter λ for
//! OptSelect and xQuAD and report α-NDCG@20 / IA-P@20.
//!
//! Usage: `ablation_lambda [--sessions N]` (default 20 000)
//!
//! The paper fixes λ = 0.15 ("the value maximizing α-NDCG@20 in \[24\]")
//! without showing the sweep; this binary regenerates it on the synthetic
//! testbed, plus MMR across its own λ for context.

use serpdiv_bench::{arg_usize, baseline_docs, diversify_input, Lab, LabConfig};
use serpdiv_core::{Diversifier, Mmr, OptSelect, PipelineParams, XQuad};
use serpdiv_eval::report::f3;
use serpdiv_eval::{alpha_ndcg_at, ia_precision_at, Table};
use serpdiv_index::DocId;

const K: usize = 1_000;
const N_CANDIDATES: usize = 25_000;
const LAMBDAS: [f64; 11] = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];

fn main() {
    let sessions = arg_usize("--sessions").unwrap_or(20_000);
    eprintln!("building lab ({sessions} sessions)...");
    let lab = Lab::build(LabConfig::trec(sessions));
    let params = PipelineParams {
        k_spec_results: 20,
        utility: serpdiv_core::UtilityParams { threshold_c: 0.05 },
        ..PipelineParams::default()
    };
    let engine = lab.deploy(N_CANDIDATES, params);

    // One input per topic, shared across the sweep.
    let inputs: Vec<Option<(Vec<DocId>, serpdiv_core::DiversifyInput)>> = lab
        .testbed
        .topics
        .iter()
        .map(|t| {
            diversify_input(&engine, &t.query, K)
                .map(|(b, i)| (b.into_iter().map(|h| h.doc).collect(), i))
        })
        .collect();
    let baselines: Vec<Vec<DocId>> = lab
        .testbed
        .topics
        .iter()
        .map(|t| baseline_docs(&engine, &t.query, K))
        .collect();

    println!("\nLambda sweep (alpha-NDCG@20 / IA-P@20, threshold c = 0.05)\n");
    let mut t = Table::new(&[
        "lambda",
        "OptSelect aNDCG@20",
        "OptSelect IA-P@20",
        "xQuAD aNDCG@20",
        "xQuAD IA-P@20",
        "MMR aNDCG@20",
        "MMR IA-P@20",
    ]);
    for &lambda in &LAMBDAS {
        let mut cells = vec![format!("{lambda:.2}")];
        for algo in ["opt", "xquad", "mmr"] {
            let (mut andcg, mut iap) = (0.0, 0.0);
            for (ti, topic) in lab.testbed.topics.iter().enumerate() {
                let ranking: Vec<DocId> = match &inputs[ti] {
                    None => baselines[ti].clone(),
                    Some((docs, input)) => {
                        let idx = match algo {
                            "opt" => OptSelect::with_lambda(lambda).select(input, K),
                            "xquad" => XQuad::with_lambda(lambda).select(input, K),
                            _ => Mmr::with_lambda(lambda).select(input, K),
                        };
                        idx.into_iter().map(|i| docs[i]).collect()
                    }
                };
                andcg += alpha_ndcg_at(&ranking, &lab.testbed.qrels, topic.id, 0.5, 20);
                iap += ia_precision_at(&ranking, &lab.testbed.qrels, topic.id, 20);
            }
            let n = lab.testbed.topics.len() as f64;
            cells.push(f3(andcg / n));
            cells.push(f3(iap / n));
        }
        t.row(cells);
    }
    println!("{}", t.render());
    println!("(the paper fixes lambda = 0.15 for OptSelect and xQuAD)");
}
