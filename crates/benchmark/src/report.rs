//! Result printing and the two-set `compare`.
//!
//! A run prints its report as plain lines and, last, one JSON object with
//! exactly `correct`, `attempted`, `failed` and `metrics`. `--json-out`
//! appends the same object, tagged with workload, seed and trace mode, to
//! a result-set file; `bench compare A B` applies the bounds of
//! `BENCHMARK.json` to two such sets.
//!
//! `BENCHMARK.json` is compiled in: it is the one list of metric names,
//! units and bounds, and a run prints exactly what it declares.

use crate::estimator::quantile;
use serpdiv_mining::json::{self, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;

const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
}

pub fn metric(name: &str, unit: &str, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit: unit.to_string(),
        // JSON has no NaN/∞; a metric that could not be computed reads 0.
        value: if value.is_finite() { value } else { 0.0 },
    }
}

/// The machine-readable result object.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// `result` tagged for a result-set file.
pub fn tagged_json(workload: &str, seed: u64, trace: bool, result: &str) -> String {
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {}, \"result\": {result}}}",
        u8::from(trace)
    )
}

/// One metric as `BENCHMARK.json` declares it.
struct Declared {
    name: String,
    unit: String,
    higher_is_better: bool,
    /// Allowed worsening as a share of the parent's median; end-to-end
    /// metrics only.
    bound: Option<f64>,
}

/// The metrics `list` (`end_to_end` or `per_layer`) declares, in order.
fn declared(list: &str) -> Result<Vec<Declared>, String> {
    let doc = json::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let entries = doc
        .as_object()
        .and_then(|o| o.get(list))
        .and_then(Value::as_array)
        .ok_or_else(|| format!("BENCHMARK.json: no {list} list"))?;
    entries
        .iter()
        .map(|m| {
            let o = m.as_object().ok_or("entry is not an object")?;
            let text = |key: &str| {
                o.get(key)
                    .and_then(Value::as_str)
                    .ok_or("entry lacks a key")
            };
            Ok(Declared {
                name: text("name")?.to_string(),
                unit: text("unit")?.to_string(),
                higher_is_better: text("better")? == "higher",
                bound: o.get("bound").and_then(Value::as_f64),
            })
        })
        .collect::<Result<_, &str>>()
        .map_err(|e| format!("BENCHMARK.json: {list}: {e}"))
}

/// The metrics `list` declares, with the values this run computed. A name
/// the run has no value for is an error: `BENCHMARK.json` and the code
/// have drifted apart.
pub fn declared_metrics(list: &str, values: &BTreeMap<&str, f64>) -> Result<Vec<Metric>, String> {
    declared(list)?
        .iter()
        .map(|d| {
            let value = values.get(d.name.as_str()).ok_or_else(|| {
                format!(
                    "BENCHMARK.json declares {}, which bench does not compute",
                    d.name
                )
            })?;
            Ok(metric(&d.name, &d.unit, *value))
        })
        .collect()
}

/// Per workload and metric, the values of every untraced run in a set.
type ResultSet = BTreeMap<(String, String), Vec<f64>>;

fn load_set(path: &str) -> Result<ResultSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut set = ResultSet::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("{path}:{}: {what}", n + 1);
        let doc = json::parse(line).map_err(|e| bad(&e.to_string()))?;
        let o = doc.as_object().ok_or_else(|| bad("not an object"))?;
        if o.get("trace").and_then(Value::as_f64) != Some(0.0) {
            continue;
        }
        let workload = o
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("no workload"))?;
        let result = o
            .get("result")
            .and_then(Value::as_object)
            .ok_or_else(|| bad("no result"))?;
        if result.get("failed").and_then(Value::as_f64) != Some(0.0) {
            return Err(bad("a run with failed operations cannot be compared"));
        }
        let metrics = result
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or_else(|| bad("no metrics"))?;
        for (name, m) in metrics {
            let value = m
                .as_object()
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
                .ok_or_else(|| bad("metric without value"))?;
            set.entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(set)
}

/// Median and quartile spread (`(Q3 − Q1) / median`, Python's
/// `statistics.quantiles(n=4)` exclusive method) of a list.
fn median_and_spread(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let med = if v.len() % 2 == 1 {
        v[v.len() / 2]
    } else {
        (v[v.len() / 2 - 1] + v[v.len() / 2]) / 2.0
    };
    if v.len() < 2 || med == 0.0 {
        return (quantile(&v, 0.5), 0.0);
    }
    let at = |p: f64| {
        // Exclusive method: position p·(n+1), 1-based, clamped, linear.
        let pos = (p * (v.len() + 1) as f64).clamp(1.0, v.len() as f64);
        let lo = pos.floor() as usize;
        let hi = (lo + 1).min(v.len());
        v[lo - 1] + (v[hi - 1] - v[lo - 1]) * (pos - lo as f64)
    };
    (med, (at(0.75) - at(0.25)) / med)
}

/// Apply the bounds to two result sets: `b`'s median may not be worse than
/// `a`'s by more than the metric's bound. Prints one row per workload and
/// metric with both medians and spreads; returns the number of breaches.
pub fn compare(a_path: &str, b_path: &str) -> Result<usize, String> {
    let bounds = declared("end_to_end")?;
    let a = load_set(a_path)?;
    let b = load_set(b_path)?;
    let mut breaches = 0;
    println!(
        "{:<16} {:<20} {:>12} {:>8} {:>12} {:>8} {:>8} {:>6}",
        "workload", "metric", "median A", "iqr A", "median B", "iqr B", "B vs A", "bound"
    );
    for ((workload, name), a_values) in &a {
        let Some((spec, bound)) = bounds
            .iter()
            .find(|d| &d.name == name)
            .and_then(|d| Some((d, d.bound?)))
        else {
            continue;
        };
        let Some(b_values) = b.get(&(workload.clone(), name.clone())) else {
            return Err(format!("{b_path} has no {name} for {workload}"));
        };
        let (ma, sa) = median_and_spread(a_values);
        let (mb, sb) = median_and_spread(b_values);
        let worse = if spec.higher_is_better {
            (ma - mb) / ma
        } else {
            (mb - ma) / ma
        };
        let breach = worse > bound;
        breaches += usize::from(breach);
        println!(
            "{workload:<16} {name:<20} {ma:>12.4} {:>7.1}% {mb:>12.4} {:>7.1}% {:>+7.1}% {:>5.1}%{}",
            sa * 100.0,
            sb * 100.0,
            worse * 100.0,
            bound * 100.0,
            if breach { "  BREACH" } else { "" }
        );
    }
    Ok(breaches)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_json_round_trips_through_the_parser() {
        let line = result_json(
            true,
            1000,
            0,
            &[
                metric("latency_p50_us", "us", 1.2034),
                metric("setup_s", "s", f64::NAN),
            ],
        );
        let doc = json::parse(&line).unwrap();
        let o = doc.as_object().unwrap();
        assert_eq!(o.len(), 4);
        assert_eq!(o["attempted"].as_f64(), Some(1000.0));
        let m = o["metrics"].as_object().unwrap();
        assert_eq!(
            m["latency_p50_us"].as_object().unwrap()["value"].as_f64(),
            Some(1.2034)
        );
        assert_eq!(
            m["setup_s"].as_object().unwrap()["value"].as_f64(),
            Some(0.0)
        );
        let tagged = tagged_json("fleet2", 3, false, &line);
        assert!(json::parse(&tagged).is_ok());
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (med, spread) = median_and_spread(&v);
        assert_eq!(med, 5.5);
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(median_and_spread(&[4.0]), (4.0, 0.0));
    }
}
