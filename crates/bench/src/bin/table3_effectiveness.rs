//! Table 3 — "Values of α-NDCG, and IA-P for OptSelect, xQuAD, and
//! IASelect by varying the threshold c" on the TREC-2009-shaped testbed.
//!
//! Usage: `table3_effectiveness [--sessions N]` (default 40 000)
//!
//! Setup follows §5: DPH baseline retrieval, |R_q′| = 20, k = 1000,
//! λ = 0.15, α = 0.5, nine thresholds c, metrics at cutoffs
//! {5, 10, 20, 100, 1000}, Wilcoxon significance at the end. The
//! specializations and their probabilities are *mined from the synthetic
//! query log* through the full §3 stack — not read from the ground truth.

use serpdiv_bench::{arg_usize, baseline_docs, diversify_input, Lab, LabConfig};
use serpdiv_core::{run_algorithm, AlgorithmKind, DiversifyInput, PipelineParams};
use serpdiv_eval::report::f3;
use serpdiv_eval::{alpha_ndcg_at, ia_precision_at, wilcoxon_signed_rank, Table, PAPER_CUTOFFS};
use serpdiv_index::DocId;

const C_VALUES: [f64; 9] = [0.0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.35, 0.50, 0.75];
const K: usize = 1_000;
const N_CANDIDATES: usize = 25_000;
const ALPHA: f64 = 0.5;

struct PerTopic {
    topic: usize,
    baseline_docs: Vec<DocId>,
    /// `None` when the model did not flag the query (passthrough).
    input: Option<(Vec<DocId>, DiversifyInput)>,
}

fn main() {
    let sessions = arg_usize("--sessions").unwrap_or(40_000);
    eprintln!("building lab ({sessions} sessions)...");
    let lab = Lab::build(LabConfig::trec(sessions));
    eprintln!(
        "lab ready: {} docs, {} train records, detection rate {:.2}",
        lab.testbed.num_docs(),
        lab.train.len(),
        lab.detection_rate()
    );
    let params = PipelineParams {
        k_spec_results: 20,
        lambda: 0.15,
        ..PipelineParams::default()
    };
    let engine = lab.deploy(N_CANDIDATES, params);

    // Build one input per topic at c = 0; thresholds are applied afterwards
    // (same utilities, tightened) so the retrieval cost is paid once.
    eprintln!("preparing per-topic inputs...");
    let topics: Vec<PerTopic> = lab
        .testbed
        .topics
        .iter()
        .map(|t| {
            let input = diversify_input(&engine, &t.query, K)
                .map(|(b, i)| (b.into_iter().map(|h| h.doc).collect::<Vec<_>>(), i));
            PerTopic {
                topic: t.id,
                baseline_docs: baseline_docs(&engine, &t.query, K),
                input,
            }
        })
        .collect();

    let systems = [
        ("OptSelect", AlgorithmKind::OptSelect),
        ("xQuAD", AlgorithmKind::XQuad),
        ("IASelect", AlgorithmKind::IaSelect),
    ];

    let mut header: Vec<String> = vec!["c".into()];
    header.extend(PAPER_CUTOFFS.iter().map(|c| format!("aNDCG@{c}")));
    header.extend(PAPER_CUTOFFS.iter().map(|c| format!("IA-P@{c}")));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();

    // Baseline row.
    let base_scores = score_rankings(&lab, &topics, |pt| pt.baseline_docs.clone());
    let mut t = Table::new(&header_refs);
    t.row(row_cells("-", &base_scores));
    println!("DPH Baseline");
    println!("{}", t.render());

    // Per-topic α-NDCG@20 series for the Wilcoxon checks.
    let mut per_topic_at20: Vec<(String, Vec<f64>)> = Vec::new();
    per_topic_at20.push((
        "baseline".into(),
        per_topic_metric(&lab, &topics, |pt| pt.baseline_docs.clone()),
    ));

    for (name, kind) in systems {
        let mut t = Table::new(&header_refs);
        for &c in &C_VALUES {
            let ranking_of = |pt: &PerTopic| ranking_for(pt, kind, c, params);
            let scores = score_rankings(&lab, &topics, ranking_of);
            t.row(row_cells(&format!("{c:.2}"), &scores));
            if (c - 0.05).abs() < 1e-9 {
                per_topic_at20.push((
                    format!("{name} (c=0.05)"),
                    per_topic_metric(&lab, &topics, |pt| ranking_for(pt, kind, c, params)),
                ));
            }
        }
        println!("{name}");
        println!("{}", t.render());
    }

    println!("Wilcoxon signed-rank (two-sided) on per-topic alpha-NDCG@20:");
    for i in 0..per_topic_at20.len() {
        for j in (i + 1)..per_topic_at20.len() {
            let r = wilcoxon_signed_rank(&per_topic_at20[i].1, &per_topic_at20[j].1);
            println!(
                "  {:>22} vs {:<22} p = {:.4}{}",
                per_topic_at20[i].0,
                per_topic_at20[j].0,
                r.p_value,
                if r.significant_at(0.05) {
                    "  (significant)"
                } else {
                    ""
                }
            );
        }
    }
    println!("(paper: no difference among the diversifiers is significant at the 0.05 level)");
}

/// The ranking a system produces for one topic at threshold `c`.
fn ranking_for(pt: &PerTopic, kind: AlgorithmKind, c: f64, params: PipelineParams) -> Vec<DocId> {
    match &pt.input {
        None => pt.baseline_docs.clone(),
        Some((docs, input)) => {
            let thresholded = DiversifyInput::new(
                input.spec_probs.clone(),
                input.relevance.clone(),
                input.utilities.clone().with_threshold(c),
            );
            let (indices, _) = run_algorithm(kind, &thresholded, K, params);
            indices.into_iter().map(|i| docs[i]).collect()
        }
    }
}

/// Mean metric values over all topics at every cutoff: (α-NDCG, IA-P).
fn score_rankings(
    lab: &Lab,
    topics: &[PerTopic],
    ranking_of: impl Fn(&PerTopic) -> Vec<DocId>,
) -> (Vec<f64>, Vec<f64>) {
    let mut andcg = vec![0.0; PAPER_CUTOFFS.len()];
    let mut iap = vec![0.0; PAPER_CUTOFFS.len()];
    for pt in topics {
        let ranking = ranking_of(pt);
        for (ci, &cutoff) in PAPER_CUTOFFS.iter().enumerate() {
            andcg[ci] += alpha_ndcg_at(&ranking, &lab.testbed.qrels, pt.topic, ALPHA, cutoff);
            iap[ci] += ia_precision_at(&ranking, &lab.testbed.qrels, pt.topic, cutoff);
        }
    }
    let n = topics.len() as f64;
    for v in andcg.iter_mut().chain(iap.iter_mut()) {
        *v /= n;
    }
    (andcg, iap)
}

/// Per-topic α-NDCG@20 vector (Wilcoxon input).
fn per_topic_metric(
    lab: &Lab,
    topics: &[PerTopic],
    ranking_of: impl Fn(&PerTopic) -> Vec<DocId>,
) -> Vec<f64> {
    topics
        .iter()
        .map(|pt| alpha_ndcg_at(&ranking_of(pt), &lab.testbed.qrels, pt.topic, ALPHA, 20))
        .collect()
}

fn row_cells(label: &str, scores: &(Vec<f64>, Vec<f64>)) -> Vec<String> {
    let mut cells = vec![label.to_string()];
    cells.extend(scores.0.iter().map(|&v| f3(v)));
    cells.extend(scores.1.iter().map(|&v| f3(v)));
    cells
}
