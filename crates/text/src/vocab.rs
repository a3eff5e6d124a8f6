//! Interning term dictionary.
//!
//! Maps analyzed terms to dense [`TermId`]s so downstream structures
//! (postings lists, TF-IDF vectors, language models) can work with `u32`
//! keys instead of strings. Ids are assigned in first-seen order and are
//! stable for the lifetime of the vocabulary.

use std::collections::HashMap;

/// Dense identifier of an interned term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TermId(pub u32);

impl TermId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A bidirectional term ↔ id dictionary.
#[derive(Debug, Default, Clone)]
pub struct Vocabulary {
    terms: Vec<String>,
    by_term: HashMap<String, TermId>,
}

impl Vocabulary {
    /// Create an empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True when no term has been interned.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Intern `term`, returning its id (existing or freshly assigned).
    pub fn intern(&mut self, term: &str) -> TermId {
        if let Some(&id) = self.by_term.get(term) {
            return id;
        }
        let id = TermId(self.terms.len() as u32);
        self.terms.push(term.to_string());
        self.by_term.insert(term.to_string(), id);
        id
    }

    /// Look up the id of `term` without interning.
    pub fn id(&self, term: &str) -> Option<TermId> {
        self.by_term.get(term).copied()
    }

    /// The string for `id`, if assigned.
    pub fn term(&self, id: TermId) -> Option<&str> {
        self.terms.get(id.index()).map(String::as_str)
    }

    /// Iterate over `(TermId, &str)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &str)> {
        self.terms
            .iter()
            .enumerate()
            .map(|(i, t)| (TermId(i as u32), t.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut v = Vocabulary::new();
        let a = v.intern("apple");
        let b = v.intern("apple");
        assert_eq!(a, b);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut v = Vocabulary::new();
        assert_eq!(v.intern("a"), TermId(0));
        assert_eq!(v.intern("b"), TermId(1));
        assert_eq!(v.intern("c"), TermId(2));
    }

    #[test]
    fn roundtrip_lookup() {
        let mut v = Vocabulary::new();
        let id = v.intern("leopard");
        assert_eq!(v.id("leopard"), Some(id));
        assert_eq!(v.term(id), Some("leopard"));
        assert_eq!(v.id("missing"), None);
        assert_eq!(v.term(TermId(99)), None);
    }

    #[test]
    fn iter_visits_in_id_order() {
        let mut v = Vocabulary::new();
        v.intern("x");
        v.intern("y");
        let collected: Vec<_> = v.iter().map(|(id, t)| (id.0, t.to_string())).collect();
        assert_eq!(collected, vec![(0, "x".to_string()), (1, "y".to_string())]);
    }
}
