//! The deployable specialization model.
//!
//! §4.1: "The only information we need are: the ambiguous queries, the list
//! of their possible specializations mined from a long-term query log, \[and\]
//! the probabilities associated with such specializations" (the per-
//! specialization result lists `R_q′` live in [`crate::framework`], which
//! also accounts for their §4.1 memory footprint).
//!
//! The model is mined offline (`serpdiv_mining` sweeps Algorithm 1 over a
//! training log through [`Miner`]) and only read by serving.

use std::collections::HashMap;

/// Specializations of one ambiguous query.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecializationEntry {
    /// The ambiguous query text.
    pub query: String,
    /// `(specialization text, P(q′|q))`, decreasing probability.
    pub specializations: Vec<(String, f64)>,
}

impl SpecializationEntry {
    /// Number of specializations `|Sq|`.
    pub fn len(&self) -> usize {
        self.specializations.len()
    }

    /// True when no specialization is stored (never produced by mining).
    pub fn is_empty(&self) -> bool {
        self.specializations.is_empty()
    }
}

/// Algorithm 1 over a training log of type `Log`, for [`SpecializationModel::mine`].
pub trait Miner<Log: ?Sized> {
    /// Insert into `model` one entry per ambiguous query of `log`.
    fn mine_into(&self, log: &Log, model: &mut SpecializationModel);
}

/// The mined model: every ambiguous query of the log with its
/// specializations and probabilities.
#[derive(Debug, Default, Clone)]
pub struct SpecializationModel {
    entries: HashMap<String, SpecializationEntry>,
}

impl SpecializationModel {
    /// Mine the model: run `miner` over every distinct query of `log` and
    /// keep the ambiguous ones (`Q̂` of Definition 1).
    pub fn mine<Log: ?Sized>(log: &Log, miner: &impl Miner<Log>) -> Self {
        let mut model = SpecializationModel::default();
        miner.mine_into(log, &mut model);
        model
    }

    /// Insert (or replace) the entry of `entry.query` — what mining and
    /// the model's JSON decoder build a model with.
    pub fn insert(&mut self, entry: SpecializationEntry) {
        self.entries.insert(entry.query.clone(), entry);
    }

    /// Look up the specializations of `query`; `None` means "not ambiguous:
    /// serve the baseline ranking unchanged".
    pub fn get(&self, query: &str) -> Option<&SpecializationEntry> {
        self.entries.get(query)
    }

    /// Number of ambiguous queries in the model (`N` of §4.1).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no query was detected as ambiguous.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate over entries in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = &SpecializationEntry> {
        self.entries.values()
    }

    /// Largest `|Sq|` over the model (the `|S_q̂|` of the §4.1 bound).
    pub fn max_specializations(&self) -> usize {
        self.entries.values().map(|e| e.len()).max().unwrap_or(0)
    }

    /// In-memory footprint estimate in bytes (query-level part of §4.1).
    pub fn byte_size(&self) -> usize {
        self.entries
            .values()
            .map(|e| {
                e.query.len()
                    + e.specializations
                        .iter()
                        .map(|(s, _)| s.len() + std::mem::size_of::<f64>())
                        .sum::<usize>()
            })
            .sum()
    }
}
