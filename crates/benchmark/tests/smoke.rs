//! Runs every workload of `BENCHMARK.json` end to end at `--smoke` scale
//! (≤ 1 000 documents, 1 s loops), in both trace modes, and checks the
//! printed result against the contract: every metric of `BENCHMARK.json`
//! exactly once, a well-formed name, the declared unit.

use serpdiv_mining::json::{self, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// `name → unit` of one metric list of `BENCHMARK.json`.
fn declared(doc: &Value, list: &str) -> BTreeMap<String, String> {
    doc.as_object().unwrap()[list]
        .as_array()
        .unwrap()
        .iter()
        .map(|m| {
            let m = m.as_object().unwrap();
            (
                m["name"].as_str().unwrap().to_string(),
                m["unit"].as_str().unwrap().to_string(),
            )
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn run_bench(workload: &str, trace: &str, out: &Path) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(["--workload", workload, "--smoke", "--seconds", "1"])
        .args(["--seed", "3", "--trace", trace])
        .arg("--out")
        .arg(out)
        .output()
        .expect("bench runs");
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    assert!(
        output.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    stdout
}

#[test]
fn every_workload_prints_every_declared_metric_once() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(manifest.join("../../BENCHMARK.json")).unwrap();
    let doc = json::parse(&text).unwrap();
    let end_to_end = declared(&doc, "end_to_end");
    let per_layer = declared(&doc, "per_layer");
    assert!(end_to_end.contains_key("setup_s"));
    for name in end_to_end.keys().chain(per_layer.keys()) {
        assert!(well_formed(name), "{name:?}");
        assert!(
            !(end_to_end.contains_key(name) && per_layer.contains_key(name)),
            "{name} is declared twice"
        );
    }
    let workloads: Vec<String> = doc.as_object().unwrap()["workloads"]
        .as_array()
        .unwrap()
        .iter()
        .map(|w| w.as_object().unwrap()["name"].as_str().unwrap().to_string())
        .collect();
    assert_eq!(workloads.len(), 4);

    // Relative to the package root, where cargo runs tests: short enough
    // for the fleet's Unix socket paths.
    let out = PathBuf::from(format!(
        "../../target/benchmark-test/smoke-{}",
        std::process::id()
    ));
    for workload in &workloads {
        for (trace, expected) in [("0", &end_to_end), ("1", &per_layer)] {
            let stdout = run_bench(workload, trace, &out);
            let last = stdout.lines().last().expect("bench printed a result");
            let result = json::parse(last).unwrap_or_else(|e| panic!("{e}: {last}"));
            let result = result.as_object().unwrap();
            let mut keys: Vec<&str> = result.keys().map(String::as_str).collect();
            keys.sort_unstable();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(result["correct"], Value::Bool(true), "{workload}: {last}");
            assert!(result["attempted"].as_f64().unwrap() >= 1.0);
            assert_eq!(result["failed"].as_f64(), Some(0.0), "{workload}: {last}");

            let metrics = result["metrics"].as_object().unwrap();
            let printed: Vec<&String> = metrics.keys().collect();
            let wanted: Vec<&String> = expected.keys().collect();
            let mut printed_sorted = printed.clone();
            printed_sorted.sort_unstable();
            assert_eq!(printed_sorted, wanted, "{workload} --trace {trace}");
            for (name, unit) in expected {
                // The parser keeps one value per key: count in the text.
                assert_eq!(
                    last.matches(&format!("\"{name}\":")).count(),
                    1,
                    "{name} printed more than once"
                );
                let m = metrics[name].as_object().unwrap();
                assert!(m["value"].as_f64().unwrap().is_finite(), "{name}");
                assert_eq!(m["unit"].as_str(), Some(unit.as_str()), "{name}");
            }
            if trace == "0" {
                for (name, m) in metrics {
                    let v = m.as_object().unwrap()["value"].as_f64().unwrap();
                    assert!(v > 0.0, "{workload}: end-to-end {name} must never be 0");
                }
            } else {
                // The traced run is the one command that prints everything:
                // the end-to-end metrics too, as report lines.
                for name in end_to_end.keys() {
                    let row = format!("{name} ");
                    assert!(
                        stdout.lines().any(|l| l.trim_start().starts_with(&row)),
                        "{workload} --trace 1 does not print {name}"
                    );
                }
            }
        }
        // The traced run left its spans behind.
        assert!(out.join(format!("{workload}.trace.jsonl")).is_file());
    }
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn usage_errors_exit_2_and_print_no_result() {
    for args in [&["--workload", "nope"][..], &["--seed", "x"], &[]] {
        let output = Command::new(env!("CARGO_BIN_EXE_bench"))
            .args(args)
            .output()
            .unwrap();
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}");
    }
}
