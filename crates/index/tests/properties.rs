//! Randomized properties of the IR substrate. Each test runs `CASES`
//! cases, case `seed` drawing its input from `StdRng::seed_from_u64(seed)`;
//! a failure names its seed, and rerunning the test reproduces it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serpdiv_index::postings::PostingsBuilder;
use serpdiv_index::search::top_k;
use serpdiv_index::{
    cosine, CollectionStats, DocId, Document, Dph, DphTable, IndexBuilder, InvertedIndex,
    RankingModel, ScoredDoc, SearchEngine, SparseVector, TermStats,
};
use serpdiv_text::TermId;
use std::collections::BTreeSet;
use std::ops::{Range, RangeInclusive};

const CASES: u64 = 256;

/// `n` draws of `draw`, `n` from `lens`.
fn vec_of<T>(
    rng: &mut StdRng,
    lens: Range<usize>,
    mut draw: impl FnMut(&mut StdRng) -> T,
) -> Vec<T> {
    (0..rng.gen_range(lens)).map(|_| draw(rng)).collect()
}

/// `[letters]{word_len}( [letters]{word_len}){0,8}`.
fn sentence(
    rng: &mut StdRng,
    letters: RangeInclusive<u8>,
    word_len: RangeInclusive<usize>,
) -> String {
    let words: Vec<String> = (0..rng.gen_range(1..=9))
        .map(|_| {
            (0..rng.gen_range(word_len.clone()))
                .map(|_| char::from(rng.gen_range(letters.clone())))
                .collect()
        })
        .collect();
    words.join(" ")
}

fn build(bodies: &[String]) -> InvertedIndex {
    let mut builder = IndexBuilder::new();
    for (i, body) in bodies.iter().enumerate() {
        builder.add(Document::new(i as u32, format!("u{i}"), "", body.clone()));
    }
    builder.build()
}

/// Postings survive an encode/decode round trip for any increasing
/// doc-id sequence and positive frequencies.
#[test]
fn postings_roundtrip() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let size = rng.gen_range(0..200);
        let mut docs = BTreeSet::new();
        while docs.len() < size {
            docs.insert(rng.gen_range(0u32..1_000_000));
        }
        let expected: Vec<(u32, u32)> = docs
            .into_iter()
            .map(|d| (d, rng.gen_range(1u32..10_000)))
            .collect();
        let mut b = PostingsBuilder::new();
        for &(d, tf) in &expected {
            b.push(DocId(d), tf);
        }
        let decoded: Vec<(u32, u32)> = b.build().iter().map(|p| (p.doc.0, p.tf)).collect();
        assert_eq!(decoded, expected, "seed {seed}");
    }
}

/// `top_k` agrees with full sort on arbitrary score sets.
#[test]
fn top_k_matches_sort() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let scores = vec_of(&mut rng, 0..300, |rng| rng.gen_range(-1e6..1e6));
        let k = rng.gen_range(0..50);
        let items: Vec<ScoredDoc> = scores
            .iter()
            .enumerate()
            .map(|(i, &score)| ScoredDoc {
                doc: DocId(i as u32),
                score,
            })
            .collect();
        let mut reference = items.clone();
        reference.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.doc.cmp(&b.doc)));
        reference.truncate(k);
        assert_eq!(top_k(items.into_iter(), k), reference, "seed {seed}");
    }
}

/// Cosine similarity is symmetric, bounded and 1 on self.
#[test]
fn cosine_properties() {
    let pairs = |rng: &mut StdRng| {
        let pairs = vec_of(rng, 0..40, |rng| {
            (TermId(rng.gen_range(0..500)), rng.gen::<f32>() * 100.0)
        });
        SparseVector::from_pairs(pairs)
    };
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let (va, vb) = (pairs(&mut rng), pairs(&mut rng));
        let sab = cosine(&va, &vb);
        let sba = cosine(&vb, &va);
        assert!((0.0..=1.0).contains(&sab), "seed {seed}: cosine {sab}");
        assert!((sab - sba).abs() < 1e-6, "seed {seed}: {sab} vs {sba}");
        if !va.is_zero() {
            let own = cosine(&va, &va);
            assert!((own - 1.0).abs() < 1e-5, "seed {seed}: self-cosine {own}");
        }
    }
}

/// Every returned document shares at least one analyzed term with the
/// query, and a document queried by its own text is retrieved.
#[test]
fn retrieval_soundness() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let bodies = vec_of(&mut rng, 1..20, |rng| sentence(rng, b'a'..=b'd', 1..=6));
        let idx = build(&bodies);
        let query = &bodies[0];
        let hits = SearchEngine::new(&idx).search(query, bodies.len());
        let qterms = idx.analyze_query(query);
        for h in &hits {
            let doc = idx.store().get(h.doc).unwrap();
            let dterms = idx.analyze_query(&doc.full_text());
            assert!(
                qterms.iter().any(|t| dterms.contains(t)),
                "seed {seed}: {:?} shares no term with {query:?}",
                h.doc
            );
        }
        // Document 0 matches its own text, so it must be retrieved
        // (unless its text analyzed to nothing).
        if !qterms.is_empty() {
            assert!(
                hits.iter().any(|h| h.doc == DocId(0)),
                "seed {seed}: document 0 not retrieved for {query:?}"
            );
        }
    }
}

/// Index statistics are consistent: Σ doc_len == num_tokens and
/// Σ coll_freq over terms == num_tokens.
#[test]
fn index_statistics_consistent() {
    const ALPHABET: &[u8] = b"abcdef ";
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let bodies = vec_of(&mut rng, 0..30, |rng| {
            (0..rng.gen_range(0..=60))
                .map(|_| char::from(ALPHABET[rng.gen_range(0..ALPHABET.len())]))
                .collect()
        });
        let idx = build(&bodies);
        let total_len: u64 = (0..bodies.len() as u32)
            .map(|i| u64::from(idx.doc_len(DocId(i)).unwrap()))
            .sum();
        assert_eq!(
            total_len,
            idx.stats().num_tokens,
            "seed {seed}: doc lengths"
        );
        let total_cf: u64 = (0..idx.num_terms() as u32)
            .map(|t| idx.term_stats(TermId(t)).unwrap().coll_freq)
            .sum();
        assert_eq!(total_cf, idx.stats().num_tokens, "seed {seed}: coll freqs");
    }
}

/// Index persistence: serialization round-trips arbitrary corpora and
/// preserves retrieval behaviour.
#[test]
fn serialization_roundtrip() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let bodies = vec_of(&mut rng, 0..15, |rng| sentence(rng, b'a'..=b'e', 1..=4));
        let idx = build(&bodies);
        let restored = InvertedIndex::from_bytes(&idx.to_bytes()).unwrap();
        assert_eq!(restored.stats(), idx.stats(), "seed {seed}");
        assert_eq!(restored.num_terms(), idx.num_terms(), "seed {seed}");
        if let Some(body) = bodies.first() {
            let a = SearchEngine::new(&idx).search(body, 10);
            let b = SearchEngine::new(&restored).search(body, 10);
            assert_eq!(a.len(), b.len(), "seed {seed}: {body:?}");
        }
    }
}

/// A DPH table scores exactly what the formula scores, `f64` bit for bit,
/// at every cell, at `tf` or `dl` zero, and at the first `tf` and `dl`
/// past each cap (where it falls back to the formula). The statistics are
/// random: a fractional average length, and collection frequencies above
/// and below the document count, so scores of both signs occur. Every
/// sixteenth case asks for documents far longer than the 2 MiB cap holds.
#[test]
fn dph_table_scores_bit_for_bit_like_the_formula() {
    let mut signs = [false; 2];
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let num_docs = rng.gen_range(1u64..2_000_000);
        let num_tokens = num_docs * rng.gen_range(1..400) + rng.gen_range(1..num_docs + 1);
        let coll = CollectionStats {
            num_docs,
            num_tokens,
            avg_doc_len: num_tokens as f64 / num_docs as f64,
        };
        let huge = seed % 16 == 0;
        let (max_tf, max_dl) = if huge {
            (rng.gen_range(1..5_000), rng.gen_range(50_000..3_000_000))
        } else {
            (rng.gen_range(1..40), rng.gen_range(1..300))
        };
        let table = DphTable::new(coll, max_tf, max_dl);
        let (tf_cap, dl_cap) = (table.tf_cap(), table.dl_cap());
        assert!(tf_cap <= max_tf && dl_cap <= max_dl, "seed {seed}");
        assert!(
            u64::from(tf_cap) * u64::from(dl_cap) * 24 <= 2 << 20,
            "seed {seed}: {tf_cap} x {dl_cap} cells"
        );
        if !huge {
            assert_eq!((tf_cap, dl_cap), (max_tf, max_dl), "seed {seed}");
        } else {
            assert!(tf_cap >= max_tf.min(16), "seed {seed}: {tf_cap} rows");
        }
        for _ in 0..if huge { 1 } else { 3 } {
            let coll_freq = rng.gen_range(1..4 * num_docs);
            let term = TermStats {
                doc_freq: coll_freq.min(num_docs),
                coll_freq,
            };
            let scorer = table.term_scorer(term, coll);
            for tf in 0..=tf_cap + 1 {
                for dl in 0..=dl_cap + 1 {
                    let want = Dph.score(tf, dl, term, coll);
                    assert_eq!(
                        scorer(tf, dl).to_bits(),
                        want.to_bits(),
                        "seed {seed}: tf {tf}, dl {dl}, {term:?}, {coll:?}"
                    );
                    signs[usize::from(want < 0.0)] |= want != 0.0;
                }
            }
        }
    }
    assert_eq!(signs, [true, true], "scores of both signs");
}
