//! Property-based tests for the IR substrate.

use proptest::prelude::*;
use serpdiv_index::postings::PostingsBuilder;
use serpdiv_index::search::top_k;
use serpdiv_index::{cosine, DocId, Document, IndexBuilder, ScoredDoc, SearchEngine, SparseVector};
use serpdiv_text::{Analyzer, TermId};

proptest! {
    /// Postings survive an encode/decode round trip for any increasing
    /// doc-id sequence and positive frequencies.
    #[test]
    fn postings_roundtrip(
        mut docs in prop::collection::btree_set(0u32..1_000_000, 0..200),
        tfs in prop::collection::vec(1u32..10_000, 200),
    ) {
        let docs: Vec<u32> = std::mem::take(&mut docs).into_iter().collect();
        let mut b = PostingsBuilder::new();
        let expected: Vec<(u32, u32)> = docs
            .iter()
            .zip(tfs.iter())
            .map(|(&d, &tf)| (d, tf))
            .collect();
        for &(d, tf) in &expected {
            b.push(DocId(d), tf);
        }
        let list = b.build();
        let decoded: Vec<(u32, u32)> = list.iter().map(|p| (p.doc.0, p.tf)).collect();
        prop_assert_eq!(decoded, expected);
    }

    /// `top_k` agrees with full sort on arbitrary score sets.
    #[test]
    fn top_k_matches_sort(
        scores in prop::collection::vec(-1e6f64..1e6, 0..300),
        k in 0usize..50,
    ) {
        let items: Vec<ScoredDoc> = scores
            .iter()
            .enumerate()
            .map(|(i, &s)| ScoredDoc { doc: DocId(i as u32), score: s })
            .collect();
        let mut reference = items.clone();
        reference.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.doc.cmp(&b.doc)));
        reference.truncate(k);
        let got = top_k(items.into_iter(), k);
        prop_assert_eq!(got, reference);
    }

    /// Cosine similarity is symmetric, bounded and 1 on self.
    #[test]
    fn cosine_properties(
        a in prop::collection::vec((0u32..500, 0.0f32..100.0), 0..40),
        b in prop::collection::vec((0u32..500, 0.0f32..100.0), 0..40),
    ) {
        let va = SparseVector::from_pairs(a.iter().map(|&(t, w)| (TermId(t), w)));
        let vb = SparseVector::from_pairs(b.iter().map(|&(t, w)| (TermId(t), w)));
        let sab = cosine(&va, &vb);
        let sba = cosine(&vb, &va);
        prop_assert!((0.0..=1.0).contains(&sab));
        prop_assert!((sab - sba).abs() < 1e-6);
        if !va.is_zero() {
            prop_assert!((cosine(&va, &va) - 1.0).abs() < 1e-5);
        }
    }

    /// Every document containing all query terms is retrievable, and no
    /// returned document lacks all of them (bag-of-words conjunctive lower
    /// bound: returned docs contain at least one query term).
    #[test]
    fn retrieval_soundness(bodies in prop::collection::vec("[a-d]{1,6}( [a-d]{1,6}){0,8}", 1..20)) {
        let mut builder = IndexBuilder::new();
        for (i, body) in bodies.iter().enumerate() {
            builder.add(Document::new(i as u32, format!("u{i}"), "", body.clone()));
        }
        let idx = builder.build();
        let engine = SearchEngine::new(&idx);
        let query = &bodies[0];
        let hits = engine.search(query, bodies.len());
        // Every hit must share at least one analyzed term with the query.
        let qterms = idx.analyze_query(query);
        for h in &hits {
            let doc = idx.store().get(h.doc).unwrap();
            let dterms = idx.analyze_query(&doc.full_text());
            prop_assert!(qterms.iter().any(|t| dterms.contains(t)));
        }
        // Document 0 matches its own text, so it must be retrieved
        // (unless its text analyzed to nothing).
        if !qterms.is_empty() {
            prop_assert!(hits.iter().any(|h| h.doc == DocId(0)));
        }
    }

    /// Index statistics are consistent: Σ doc_len == num_tokens and
    /// Σ coll_freq over terms == num_tokens.
    #[test]
    fn index_statistics_consistent(bodies in prop::collection::vec("[a-f ]{0,60}", 0..30)) {
        let mut builder = IndexBuilder::new();
        for (i, body) in bodies.iter().enumerate() {
            builder.add(Document::new(i as u32, format!("u{i}"), "", body.clone()));
        }
        let idx = builder.build();
        let total_len: u64 = (0..bodies.len())
            .map(|i| u64::from(idx.doc_len(DocId(i as u32)).unwrap()))
            .sum();
        prop_assert_eq!(total_len, idx.stats().num_tokens);
        let total_cf: u64 = (0..idx.num_terms() as u32)
            .map(|t| idx.term_stats(TermId(t)).unwrap().coll_freq)
            .sum();
        prop_assert_eq!(total_cf, idx.stats().num_tokens);
    }
}

proptest! {
    /// Index persistence: serialization round-trips arbitrary corpora and
    /// preserves retrieval behaviour.
    #[test]
    fn serialization_roundtrip(
        bodies in prop::collection::vec("[a-e]{1,4}( [a-e]{1,4}){0,8}", 0..15),
    ) {
        let mut builder = IndexBuilder::new();
        for (i, body) in bodies.iter().enumerate() {
            builder.add(Document::new(i as u32, format!("u{i}"), "", body.clone()));
        }
        let idx = builder.build();
        let restored = serpdiv_index::InvertedIndex::from_bytes(
            &idx.to_bytes(),
            Analyzer::english(),
        ).unwrap();
        prop_assert_eq!(restored.stats(), idx.stats());
        prop_assert_eq!(restored.num_terms(), idx.num_terms());
        if let Some(body) = bodies.first() {
            let a = SearchEngine::new(&idx).search(body, 10);
            let b = SearchEngine::new(&restored).search(body, 10);
            prop_assert_eq!(a.len(), b.len());
        }
    }
}
