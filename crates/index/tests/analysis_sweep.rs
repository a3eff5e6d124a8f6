//! Seeded sweep of build-time analysis: the index builder and the forward
//! index resolve raw tokens through a memo that analyzes each distinct
//! token once per build. Every case builds random documents from a token
//! pool with stopwords, digits, mixed case, characters whose lowercase
//! expands or changes (`İ`, `ẞ`, `Σ`), tokens of exactly 20 and 21
//! characters (the tokenizer keeps 20 and drops 21), empty titles and
//! repeated tokens, and checks each artifact against a per-occurrence
//! oracle:
//!
//! - `InvertedIndex::to_bytes()` equals the bytes of an in-test reference
//!   build that interns `analyze_interned(&doc.full_text())` per
//!   document and writes the forward rows of the per-raw-token oracle
//!   below, also when the collection is built as a base plus a merged
//!   delta, and the index's postings bytes, term statistics, lengths
//!   and collection statistics (which the image does not store) equal
//!   that reference's counts;
//! - every `ForwardIndex::{doc_tokens, title_tf}` equals what analyzing
//!   each raw token by itself (`analyze(raw).first()`) gives;
//! - an index decoded from its image (of a build, of a merge, and a merge
//!   over a decoded base) equals the index encoded: the same image, the
//!   same counted parts, the same rows and the same IDF table.
//!
//! Case `seed` draws from `StdRng::seed_from_u64(seed)`; a failure names
//! its seed, and rerunning the test reproduces it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serpdiv_index::forward::STOP;
use serpdiv_index::postings::PostingsBuilder;
use serpdiv_index::{
    merge_sealed, ByteWriter, DeltaIndex, DocId, Document, ForwardIndex, IndexBuilder,
    InvertedIndex,
};
use serpdiv_text::{tokenize, Analyzer, TermId, Vocabulary};
use std::collections::BTreeMap;

const CASES: u64 = 96;

/// Raw tokens the documents are drawn from.
const POOL: &[&str] = &[
    // Stopwords, in several cases.
    "the",
    "The",
    "OF",
    "and",
    "is",
    "were",
    // Digits and mixed alphanumerics.
    "2009",
    "7",
    "trec2009",
    // Mixed case and shared stems.
    "Running",
    "RUNNERS",
    "run",
    "runs",
    "iPhone",
    "Apple",
    "apples",
    "jaguar",
    "Jaguars",
    // Lowercase expands ('İ' → i + U+0307) or changes ('ẞ' → 'ß', 'Σ' → 'σ').
    "İstanbul",
    "İ",
    "STRAẞE",
    "ẞ",
    "ΣΟΦΙΑ",
    "Σ",
    "Café",
    // Exactly 20 characters (kept) and 21 (dropped), plain and cased.
    "abcdefghijklmnopqrst",
    "abcdefghijklmnopqrstu",
    "İbcdefghijklmnopqrst",
    "ABCDEFGHIJKLMNOPQRSTU",
    // Several tokens in one raw string.
    "web-track",
    "e.g.",
];

const SEPARATORS: &[&str] = &[" ", "  ", ", ", " - ", "\n", "'"];

/// `n` pool tokens joined by random separators, with repeats.
fn text(rng: &mut StdRng, n: usize) -> String {
    let mut out = String::new();
    for i in 0..n {
        if i > 0 {
            out.push_str(SEPARATORS[rng.gen_range(0..SEPARATORS.len())]);
        }
        out.push_str(POOL[rng.gen_range(0..POOL.len())]);
    }
    out
}

fn documents(rng: &mut StdRng) -> Vec<Document> {
    (0..rng.gen_range(1..24u32))
        .map(|id| {
            let title = if rng.gen_range(0..3) == 0 {
                String::new()
            } else {
                let n = rng.gen_range(1..6);
                text(rng, n)
            };
            let n = rng.gen_range(0..40);
            Document::new(id, format!("u{id}"), title, text(rng, n))
        })
        .collect()
}

fn build(docs: &[Document]) -> InvertedIndex {
    let mut builder = IndexBuilder::new();
    for doc in docs {
        builder.add(doc.clone());
    }
    builder.build()
}

/// What the index image does not store but determines, to the bit:
/// each term's postings bytes and statistics, each document's length,
/// and the collection statistics.
fn counted_parts(index: &InvertedIndex) -> Counted {
    let terms = (0..index.num_terms() as u32).map(TermId);
    let docs = (0..index.stats().num_docs as u32).map(DocId);
    let stats = index.stats();
    Counted {
        postings: terms
            .clone()
            .map(|t| index.postings(t).unwrap().raw_bytes().to_vec())
            .collect(),
        term_stats: terms
            .map(|t| {
                let ts = index.term_stats(t).unwrap();
                (ts.doc_freq, ts.coll_freq)
            })
            .collect(),
        doc_lens: docs.map(|d| index.doc_len(d).unwrap()).collect(),
        coll: (
            stats.num_docs,
            stats.num_tokens,
            stats.avg_doc_len.to_bits(),
        ),
    }
}

#[derive(Debug, PartialEq)]
struct Counted {
    postings: Vec<Vec<u8>>,
    term_stats: Vec<(u64, u64)>,
    doc_lens: Vec<u32>,
    coll: (u64, u64, u64),
}

/// The serialized index (layout in `serialize.rs`'s module doc) of a build
/// that analyzes every token occurrence, with the parts it determines:
/// `analyze_interned` of each document's full text, counted per term,
/// and forward rows of each raw token analyzed by itself.
fn reference(docs: &[Document]) -> (Vec<u8>, Counted) {
    let mut vocab = Vocabulary::new();
    let mut lists: Vec<Vec<(u32, u32)>> = Vec::new();
    let mut doc_lens = Vec::new();
    for doc in docs {
        let terms = Analyzer::analyze_interned(&doc.full_text(), &mut vocab);
        doc_lens.push(terms.len() as u32);
        lists.resize_with(vocab.len(), Vec::new);
        let mut tf: BTreeMap<u32, u32> = BTreeMap::new();
        for term in terms {
            *tf.entry(term.0).or_default() += 1;
        }
        for (term, tf) in tf {
            lists[term as usize].push((doc.id.0, tf));
        }
    }
    let num_tokens: u64 = doc_lens.iter().map(|&l| u64::from(l)).sum();
    let num_docs = docs.len() as u64;
    let avg = if docs.is_empty() {
        0.0
    } else {
        num_tokens as f64 / num_docs as f64
    };
    let counted = Counted {
        postings: lists
            .iter()
            .map(|list| {
                let mut pb = PostingsBuilder::new();
                for &(doc, tf) in list {
                    pb.push(DocId(doc), tf);
                }
                pb.build().raw_bytes().to_vec()
            })
            .collect(),
        term_stats: lists
            .iter()
            .map(|list| {
                let coll_freq = list.iter().map(|&(_, tf)| u64::from(tf)).sum();
                (list.len() as u64, coll_freq)
            })
            .collect(),
        doc_lens,
        coll: (num_docs, num_tokens, avg.to_bits()),
    };

    let mut w = ByteWriter::new();
    w.u32(0x5E9D_1F01); // the format's magic
    w.u32(3); // and version
    w.count(vocab.len());
    for (_, term) in vocab.iter() {
        w.str(term);
    }
    w.count(docs.len());
    for doc in docs {
        w.str(&doc.url);
        w.str(&doc.title);
        w.str(&doc.body);
    }
    let bodies: Vec<Vec<u32>> = docs.iter().map(|d| body_row(&vocab, &d.body)).collect();
    let titles: Vec<Vec<(u32, u32)>> = docs.iter().map(|d| title_row(&vocab, &d.title)).collect();
    fn offsets(lens: impl Iterator<Item = usize>) -> Vec<u32> {
        let mut end = 0;
        let ends = lens.map(|len| {
            end += len as u32;
            end
        });
        std::iter::once(0).chain(ends).collect()
    }
    w.count(docs.len());
    w.u32s(&offsets(bodies.iter().map(Vec::len)));
    w.count(bodies.iter().map(Vec::len).sum());
    w.u32s(&bodies.concat());
    w.u32s(&offsets(titles.iter().map(Vec::len)));
    w.count(titles.iter().map(Vec::len).sum());
    for &(term, tf) in titles.iter().flatten() {
        w.u32(term);
        w.u32(tf);
    }
    (w.finish(), counted)
}

/// Each raw token analyzed by itself, its first term looked up in
/// `vocab`: the text oracle's per-token normalization.
fn per_raw_token(vocab: &Vocabulary, text: &str) -> Vec<Option<u32>> {
    tokenize(text)
        .iter()
        .map(|raw| {
            let analyzed = Analyzer::analyze(raw);
            analyzed
                .first()
                .and_then(|term| vocab.id(term))
                .map(|t| t.0)
        })
        .collect()
}

/// The body row of the per-raw-token oracle: `STOP` where a raw token
/// analyzes to nothing.
fn body_row(vocab: &Vocabulary, body: &str) -> Vec<u32> {
    per_raw_token(vocab, body)
        .into_iter()
        .map(|t| t.unwrap_or(STOP))
        .collect()
}

/// The title row of the per-raw-token oracle: `(term, tf)` by term id.
fn title_row(vocab: &Vocabulary, title: &str) -> Vec<(u32, u32)> {
    let mut counts: BTreeMap<u32, u32> = BTreeMap::new();
    for term in per_raw_token(vocab, title).into_iter().flatten() {
        *counts.entry(term).or_default() += 1;
    }
    counts.into_iter().collect()
}

/// Checks `forward` against the per-raw-token oracle over every document
/// of `index`.
fn check_forward(index: &InvertedIndex, forward: &ForwardIndex, seed: u64) {
    for doc in index.store().iter() {
        let what = format!("seed {seed} doc {:?}", doc.id);
        assert_eq!(
            forward.doc_tokens(doc.id),
            body_row(index.vocab(), &doc.body),
            "{what}"
        );
        assert_eq!(
            forward.title_tf(doc.id),
            title_row(index.vocab(), &doc.title),
            "{what}"
        );
    }
}

#[test]
fn builds_equal_the_per_occurrence_analysis() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let docs = documents(&mut rng);
        let (image, counted) = reference(&docs);

        let index = build(&docs);
        assert_eq!(index.to_bytes(), image, "seed {seed}: from-scratch build");
        assert_eq!(
            counted_parts(&index),
            counted,
            "seed {seed}: from-scratch build"
        );
        check_forward(&index, &ForwardIndex::build(&index), seed);

        // A delta's builder extends the base's vocabulary with a memo of
        // its own; the merge must still equal the from-scratch bytes.
        let split = rng.gen_range(0..=docs.len());
        let base = build(&docs[..split]);
        let delta = DeltaIndex::build(&base, docs[split..].to_vec());
        let merged = merge_sealed(&base, &delta);
        assert_eq!(merged.to_bytes(), image, "seed {seed}: merge at {split}");
        assert_eq!(
            counted_parts(&merged),
            counted,
            "seed {seed}: merge at {split}"
        );
    }
}

#[test]
fn two_builds_on_one_thread_keep_their_own_term_ids() {
    // Both documents have the body "cherry apple"; their titles make the
    // two indexes number "appl" and "cherri" the other way round. Both
    // are built (index, then forward index) on this one thread. A memo
    // kept in a static or a thread-local and reused across builds would
    // hand the second build the first build's ids (a term its vocabulary
    // never interned, or a body stream in the first build's numbering)
    // and fail here.
    let first = [Document::new(0, "a", "Apple", "cherry apple")];
    let second = [Document::new(0, "b", "Cherry", "cherry apple")];
    let a = build(&first);
    let b = build(&second);
    let id = |index: &InvertedIndex, term: &str| index.vocab().id(term).unwrap();
    assert_ne!(id(&a, "appl"), id(&b, "appl"));
    assert_ne!(id(&a, "cherri"), id(&b, "cherri"));

    for (index, docs) in [(&a, &first), (&b, &second)] {
        let (image, counted) = reference(docs);
        assert_eq!(index.to_bytes(), image);
        assert_eq!(counted_parts(index), counted);
    }
    let (fa, fb) = (ForwardIndex::build(&a), ForwardIndex::build(&b));
    check_forward(&a, &fa, 0);
    check_forward(&b, &fb, 0);
    assert_eq!(fa.doc_tokens(DocId(0)), [1, 0]);
    assert_eq!(fb.doc_tokens(DocId(0)), [0, 1]);
}

/// `decoded` equals `built` in everything: its image, the parts the
/// image determines, and its forward view's rows and IDF bits (one past
/// the last document and term, both views answer empty).
fn assert_decoded_equals(decoded: &InvertedIndex, built: &InvertedIndex, what: &str) {
    assert_eq!(decoded.to_bytes(), built.to_bytes(), "{what}");
    assert_eq!(counted_parts(decoded), counted_parts(built), "{what}");
    let (read, wrote) = (decoded.forward(), built.forward());
    assert_eq!(read.num_docs(), wrote.num_docs(), "{what}");
    for doc in (0..=wrote.num_docs() as u32).map(DocId) {
        assert_eq!(
            read.doc_tokens(doc),
            wrote.doc_tokens(doc),
            "{what} {doc:?}"
        );
        assert_eq!(read.title_tf(doc), wrote.title_tf(doc), "{what} {doc:?}");
    }
    for term in (0..=built.num_terms() as u32).map(TermId) {
        assert_eq!(
            read.idf(term).to_bits(),
            wrote.idf(term).to_bits(),
            "{what} {term:?}"
        );
    }
}

#[test]
fn a_decoded_index_equals_the_index_it_was_encoded_from() {
    // Built, merged, and merged over a decoded base. (The range-count
    // sweep in `builder::tests` decodes the builds of 2, 3 and more
    // ranges; they write these bytes too.)
    let decode = |index: &InvertedIndex| InvertedIndex::from_bytes(&index.to_bytes()).unwrap();
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let docs = documents(&mut rng);
        let index = build(&docs);
        assert_decoded_equals(&decode(&index), &index, &format!("seed {seed}"));

        let split = rng.gen_range(0..=docs.len());
        let base = build(&docs[..split]);
        let delta = DeltaIndex::build(&base, docs[split..].to_vec());
        let merged = merge_sealed(&base, &delta);
        let what = format!("seed {seed}, merged at {split}");
        assert_decoded_equals(&decode(&merged), &merged, &what);
        let over_decoded = merge_sealed(&decode(&base), &delta);
        assert_decoded_equals(
            &over_decoded,
            &merged,
            &format!("{what} over a decoded base"),
        );
    }
}
