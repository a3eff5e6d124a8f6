//! Figure 1 — "Average utility per number of specializations referring to
//! the AOL and MSN query logs" (Appendix C).
//!
//! Usage: `figure1_utility [--sessions N]` (default 30 000 per log)
//!
//! Setup follows Appendix C: each log is split 70/30 into train/test; for
//! every ambiguous query mined from the training log that also occurs in
//! the test log, retrieve |Rq| = 200 results (the paper uses Yahoo! BOSS;
//! we use our DPH engine — the measurement only needs a fixed baseline
//! ranking), diversify with OptSelect (Algorithm 2) at k = 20 with
//! |R_q′| = 20, and report the utility ratio
//! `Σ Ũ(dᵢ ∈ S) / Σ Ũ(dᵢ ∈ Rq top-k)`, bucketed by the number of mined
//! specializations |Sq|. The paper observes ratios roughly between 5 and
//! 10. The testbed here allows up to 28 subtopics per topic, matching the
//! figure's x-range.

use serpdiv_bench::{arg_usize, diversify_input, Lab, LabConfig};
use serpdiv_core::{Diversifier, OptSelect, PipelineParams};
use serpdiv_corpus::TestbedConfig;
use serpdiv_eval::Table;
use serpdiv_querylog::LogConfig;

const N_RQ: usize = 200;
const K: usize = 20;

/// Web-like testbed: many topics with 2–28 subtopics (Figure 1's x-range).
fn weblike_testbed() -> TestbedConfig {
    TestbedConfig {
        num_topics: 60,
        min_subtopics: 2,
        max_subtopics: 28,
        docs_per_subtopic: 8,
        proportional_docs: false,
        // The web at large: most pages matching an ambiguous query serve
        // none of its interpretations. This is what keeps the original
        // (relevance-only) top-k's utility low in the paper's Figure 1.
        distractors_per_topic: 400,
        noise_docs: 1_500,
        background_vocab: 5_000,
        terms_per_subtopic: 12,
        subtopic_popularity_exponent: 0.7,
        docgen: serpdiv_corpus::DocGenConfig {
            // Keyword-heavy junk floats to the top of the relevance-only
            // ranking; flatter background vocabulary keeps accidental
            // snippet overlap low.
            distractor_head_boost: 1.6,
            background_exponent: 0.8,
            ..serpdiv_corpus::DocGenConfig::default()
        },
        seed: 0xF161,
    }
}

fn main() {
    let sessions = arg_usize("--sessions").unwrap_or(30_000);
    let logs = [
        ("AOL", LogConfig::aol_like(sessions)),
        ("MSN", LogConfig::msn_like(sessions)),
    ];

    // bucket |Sq| → (sum of ratios, count) per log.
    let mut buckets: Vec<std::collections::BTreeMap<usize, (f64, usize)>> = vec![
        std::collections::BTreeMap::new(),
        std::collections::BTreeMap::new(),
    ];

    for (li, (label, log_cfg)) in logs.iter().enumerate() {
        eprintln!("building {label}-like lab ({sessions} sessions)...");
        let cfg = LabConfig {
            testbed: weblike_testbed(),
            log: log_cfg.clone(),
            // Laxer filter so large |Sq| survives Algorithm 1's step 2.
            detector_s: 60.0,
            shortcuts_max: 40,
            qfg_threshold: 0.0005,
            train_fraction: 0.7,
        };
        let lab = Lab::build(cfg);
        eprintln!(
            "  mined {} ambiguous queries (detection rate {:.2})",
            lab.model.len(),
            lab.detection_rate()
        );
        let params = PipelineParams {
            k_spec_results: 20,
            // Zero out the weak head-term-only similarity of distractor
            // pages (the §5 threshold mechanism).
            utility: serpdiv_core::UtilityParams { threshold_c: 0.20 },
            snippet_window: 60,
            ..PipelineParams::default()
        };
        let engine = lab.deploy(N_RQ, params);
        // λ = 1: Appendix C compares lists "by means of the utility
        // function as in Definition 2" — pure utility, no relevance mix.
        let optselect = OptSelect::with_lambda(1.0);

        // Ambiguous queries that actually occur in the test split.
        let test_queries: std::collections::BTreeSet<String> = lab
            .test
            .records()
            .iter()
            .filter_map(|r| lab.test.query_text(r.query).map(str::to_string))
            .collect();

        for entry in lab.model.iter() {
            if !test_queries.contains(&entry.query) {
                continue;
            }
            let Some((_, input)) = diversify_input(&engine, &entry.query, K) else {
                continue;
            };
            let k = K.min(input.num_candidates());
            if k == 0 {
                continue;
            }
            let overall = |i: usize| input.overall_utility(i, 1.0).max(0.0);
            let selected = optselect.select(&input, k);
            let num: f64 = selected.iter().map(|&i| overall(i)).sum();
            // Original list = candidate order (the baseline ranking).
            let den: f64 = (0..k).map(overall).sum();
            if den <= 1e-12 {
                continue;
            }
            let ratio = num / den;
            let bucket = buckets[li].entry(entry.len()).or_insert((0.0, 0));
            bucket.0 += ratio;
            bucket.1 += 1;
        }
    }

    println!("\nFigure 1 reproduction — average utility ratio per number of specializations");
    println!("(paper: improvement factor between 5 and 10 across |Sq| for both logs)\n");
    let mut t = Table::new(&["|Sq|", "AOL ratio", "AOL n", "MSN ratio", "MSN n"]);
    let all_keys: std::collections::BTreeSet<usize> =
        buckets.iter().flat_map(|b| b.keys().copied()).collect();
    for key in all_keys {
        let cell = |li: usize| -> (String, String) {
            match buckets[li].get(&key) {
                Some(&(sum, n)) if n > 0 => (format!("{:.2}", sum / n as f64), format!("{n}")),
                _ => ("-".into(), "0".into()),
            }
        };
        let (a, an) = cell(0);
        let (m, mn) = cell(1);
        t.row(vec![format!("{key}"), a, an, m, mn]);
    }
    println!("{}", t.render());
}
