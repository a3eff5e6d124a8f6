//! Mining the deployable [`SpecializationModel`] ([`AmbiguityDetector`] is
//! the [`Miner`] that [`SpecializationModel::mine`] sweeps over the training
//! log), and the model's JSON deployment form ([`to_json`], [`from_json`]).

use crate::detect::{AmbiguityDetector, Recommender};
use crate::json;
use serpdiv_core::{Miner, SpecializationEntry, SpecializationModel};
use serpdiv_querylog::{QueryId, QueryLog};

/// Algorithm 1 over every distinct query of the log.
impl<A: Recommender> Miner<QueryLog> for AmbiguityDetector<'_, A> {
    fn mine_into(&self, log: &QueryLog, model: &mut SpecializationModel) {
        for i in 0..log.num_queries() {
            let q = QueryId(i as u32);
            let Some(specs) = self.detect(q) else {
                continue;
            };
            let text = log.query_text(q).expect("interned").to_string();
            let specializations = specs
                .iter()
                .map(|s| {
                    (
                        log.query_text(s.query).expect("interned").to_string(),
                        s.probability,
                    )
                })
                .collect();
            model.insert(SpecializationEntry {
                query: text,
                specializations,
            });
        }
    }
}

/// Serialize to JSON (the deployment wire format of §4.1):
/// `{"entries":{"<query>":{"query":"...","specializations":[["text",p],…]}}}`.
pub fn to_json(model: &SpecializationModel) -> String {
    let mut out = String::with_capacity(64 + model.byte_size() * 2);
    out.push_str("{\"entries\":{");
    // Deterministic output: sort by query text (each entry's key).
    let mut entries: Vec<&SpecializationEntry> = model.iter().collect();
    entries.sort_unstable_by(|a, b| a.query.cmp(&b.query));
    for (i, entry) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_escaped(&mut out, &entry.query);
        out.push_str(":{\"query\":");
        json::write_escaped(&mut out, &entry.query);
        out.push_str(",\"specializations\":[");
        for (j, (spec, p)) in entry.specializations.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push('[');
            json::write_escaped(&mut out, spec);
            out.push(',');
            json::write_number(&mut out, *p);
            out.push(']');
        }
        out.push_str("]}");
    }
    out.push_str("}}");
    out
}

/// Deserialize from the JSON produced by [`to_json`].
///
/// Refuses, as [`ModelFormatError::Shape`], what serving would later
/// trip over: an entry whose key is not its `"query"` (lookups go by
/// key, per-entry state by `"query"`), and a specialization list whose
/// probabilities are not a distribution — each finite and
/// non-negative, and a non-empty list summing to 1 within 1e-6.
pub fn from_json(text: &str) -> Result<SpecializationModel, ModelFormatError> {
    let doc = json::parse(text)?;
    let top = doc
        .as_object()
        .ok_or_else(|| bad("top-level value must be an object"))?;
    let entries_val = top
        .get("entries")
        .ok_or_else(|| bad("missing \"entries\" key"))?;
    let raw_entries = entries_val
        .as_object()
        .ok_or_else(|| bad("\"entries\" must be an object"))?;
    let mut model = SpecializationModel::default();
    for (key, val) in raw_entries {
        let obj = val
            .as_object()
            .ok_or_else(|| bad(format!("entry {key:?} must be an object")))?;
        let query = obj
            .get("query")
            .and_then(json::Value::as_str)
            .ok_or_else(|| bad(format!("entry {key:?} needs a string \"query\"")))?
            .to_string();
        if query != *key {
            return Err(bad(format!("entry {key:?} has \"query\" {query:?}")));
        }
        let raw_specs = obj
            .get("specializations")
            .and_then(json::Value::as_array)
            .ok_or_else(|| bad(format!("entry {key:?} needs a \"specializations\" array")))?;
        let mut specializations = Vec::with_capacity(raw_specs.len());
        for pair in raw_specs {
            let pair = pair
                .as_array()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| bad("each specialization must be a [text, p] pair"))?;
            let spec = pair[0]
                .as_str()
                .ok_or_else(|| bad("specialization text must be a string"))?;
            let p = pair[1]
                .as_f64()
                .ok_or_else(|| bad("specialization probability must be a number"))?;
            if !p.is_finite() || p < 0.0 {
                return Err(bad(format!("entry {key:?} has probability {p}")));
            }
            specializations.push((spec.to_string(), p));
        }
        let total: f64 = specializations.iter().map(|(_, p)| p).sum();
        if !specializations.is_empty() && (total - 1.0).abs() >= 1e-6 {
            return Err(bad(format!(
                "entry {key:?} has probabilities summing to {total}"
            )));
        }
        model.insert(SpecializationEntry {
            query,
            specializations,
        });
    }
    Ok(model)
}

/// Error decoding a serialized [`SpecializationModel`]: either malformed
/// JSON or a document with the wrong shape.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelFormatError {
    /// The text is not valid JSON.
    Syntax(json::ParseError),
    /// The JSON does not have the model's shape.
    Shape(String),
}

fn bad(msg: impl Into<String>) -> ModelFormatError {
    ModelFormatError::Shape(msg.into())
}

impl From<json::ParseError> for ModelFormatError {
    fn from(e: json::ParseError) -> Self {
        ModelFormatError::Syntax(e)
    }
}

impl std::fmt::Display for ModelFormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelFormatError::Syntax(e) => write!(f, "{e}"),
            ModelFormatError::Shape(msg) => write!(f, "model format error: {msg}"),
        }
    }
}

impl std::error::Error for ModelFormatError {}

#[cfg(test)]
mod tests {
    use super::*;
    use serpdiv_querylog::{FreqTable, LogRecord, UserId};

    /// Log: "apple" is refined to two popular specializations by many
    /// users; "banana" is unambiguous.
    fn training_log() -> QueryLog {
        let mut log = QueryLog::new();
        let mut t = 0u64;
        let push = |log: &mut QueryLog, q: &str, u: u32, time: u64| {
            let query = log.intern_query(q);
            log.push(LogRecord {
                query,
                user: UserId(u),
                time,
                results: Vec::new(),
                clicks: Vec::new(),
            });
        };
        for u in 0..20u32 {
            push(&mut log, "apple", u, t);
            let spec = if u % 3 == 0 {
                "apple fruit"
            } else {
                "apple iphone"
            };
            push(&mut log, spec, u, t + 30);
            t += 3600 * 24;
        }
        for u in 0..5u32 {
            push(&mut log, "banana", u, t);
            push(&mut log, "banana bread", u, t + 30);
            t += 3600 * 24;
        }
        log.sort_by_time();
        log
    }

    fn mined(log: &QueryLog) -> SpecializationModel {
        let sessions = serpdiv_querylog::split_sessions(log);
        let shortcuts = crate::shortcuts::ShortcutsModel::train(log, &sessions, 16);
        let freq = FreqTable::build(log);
        let detector = AmbiguityDetector::new(&shortcuts, &freq, 10.0);
        SpecializationModel::mine(log, &detector)
    }

    #[test]
    fn mines_ambiguous_queries_only() {
        let log = training_log();
        let model = mined(&log);
        let apple = model.get("apple").expect("apple is ambiguous");
        assert_eq!(apple.len(), 2);
        // banana has a single refinement ⇒ not ambiguous by Algorithm 1.
        assert!(model.get("banana").is_none());
        assert!(model.get("zebra").is_none());
    }

    #[test]
    fn probabilities_reflect_popularity() {
        let log = training_log();
        let model = mined(&log);
        let apple = model.get("apple").unwrap();
        // iphone: 13 users of 20; fruit: 7 of 20.
        assert_eq!(apple.specializations[0].0, "apple iphone");
        let p: f64 = apple.specializations.iter().map(|(_, p)| p).sum();
        assert!((p - 1.0).abs() < 1e-9);
        assert!(apple.specializations[0].1 > apple.specializations[1].1);
    }

    #[test]
    fn json_roundtrip() {
        let log = training_log();
        let model = mined(&log);
        let json = to_json(&model);
        let back = from_json(&json).unwrap();
        assert_eq!(back.len(), model.len());
        assert_eq!(
            back.get("apple").unwrap().specializations,
            model.get("apple").unwrap().specializations
        );
    }

    /// A one-entry model document: key, `"query"`, specialization list.
    fn doc(key: &str, query: &str, specs: &str) -> String {
        format!(r#"{{"entries":{{"{key}":{{"query":"{query}","specializations":[{specs}]}}}}}}"#)
    }

    fn is_shape_error(text: &str) -> bool {
        matches!(from_json(text), Err(ModelFormatError::Shape(_)))
    }

    #[test]
    fn from_json_refuses_a_key_that_is_not_its_query() {
        // Two keys sharing one "query" would share one serving scorer.
        let shared = r#"{"entries":{
            "apple":{"query":"apple","specializations":[["apple iphone",1.0]]},
            "pear":{"query":"apple","specializations":[["pear tree",1.0]]}}}"#;
        assert!(is_shape_error(shared));
        assert!(is_shape_error(&doc(
            "apple",
            "Apple",
            r#"["apple iphone",1.0]"#
        )));
    }

    #[test]
    fn from_json_refuses_probabilities_that_are_not_a_distribution() {
        for specs in [
            r#"["a",0.5],["b",0.4]"#,       // sums to 0.9
            r#"["a",1.5],["b",-0.5]"#,      // sums to 1, one negative
            r#"["a",1e400],["b",0.0]"#,     // infinite
            r#"["a",0.6],["b",0.4000011]"#, // 1.1e-6 over 1
        ] {
            assert!(is_shape_error(&doc("q", "q", specs)), "{specs}");
        }
        // A sum within 1e-6 of 1, and an empty list, are accepted.
        for specs in [r#"["a",0.6],["b",0.4000001]"#, ""] {
            let model = from_json(&doc("q", "q", specs)).unwrap();
            assert_eq!(model.get("q").unwrap().query, "q", "{specs}");
        }
    }

    #[test]
    fn footprint_accounting() {
        let log = training_log();
        let model = mined(&log);
        assert!(model.byte_size() > 0);
        assert_eq!(model.max_specializations(), 2);
    }
}
