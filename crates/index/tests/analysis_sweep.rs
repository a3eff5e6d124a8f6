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
//!   delta;
//! - every `ForwardIndex::{doc_tokens, title_tf}` equals what analyzing
//!   each raw token by itself (`analyze(raw).first()`) gives;
//! - an index decoded from its image holds the forward view it was
//!   encoded with: the same rows and the same IDF table.
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

/// The serialized index (layout in `serialize.rs`'s module doc) of a build
/// that analyzes every token occurrence: `analyze_interned` of each
/// document's full text, counted per term, and forward rows of each raw
/// token analyzed by itself.
fn reference_bytes(docs: &[Document]) -> Vec<u8> {
    let mut vocab = Vocabulary::new();
    let mut postings: Vec<Vec<(u32, u32)>> = Vec::new();
    let mut doc_lens = Vec::new();
    for doc in docs {
        let terms = Analyzer::analyze_interned(&doc.full_text(), &mut vocab);
        doc_lens.push(terms.len() as u32);
        postings.resize_with(vocab.len(), Vec::new);
        let mut tf: BTreeMap<u32, u32> = BTreeMap::new();
        for term in terms {
            *tf.entry(term.0).or_default() += 1;
        }
        for (term, tf) in tf {
            postings[term as usize].push((doc.id.0, tf));
        }
    }
    let mut w = ByteWriter::new();
    w.u32(0x5E9D_1F01); // the format's magic
    w.u32(2); // and version
    w.u64(docs.len() as u64);
    w.u64(doc_lens.iter().map(|&l| u64::from(l)).sum());
    w.count(doc_lens.len());
    w.u32s(&doc_lens);
    w.count(vocab.len());
    for (_, term) in vocab.iter() {
        w.str(term);
    }
    w.count(postings.len());
    for list in &postings {
        w.count(list.len());
        w.u64(list.iter().map(|&(_, tf)| u64::from(tf)).sum());
        let mut pb = PostingsBuilder::new();
        for &(doc, tf) in list {
            pb.push(DocId(doc), tf);
        }
        let payload = pb.build();
        w.count(payload.raw_bytes().len());
        w.bytes(payload.raw_bytes());
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
    w.finish()
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
        let expected = reference_bytes(&docs);

        let index = build(&docs);
        assert_eq!(
            index.to_bytes(),
            expected,
            "seed {seed}: from-scratch build"
        );
        check_forward(&index, &ForwardIndex::build(&index), seed);

        // A delta's builder extends the base's vocabulary with a memo of
        // its own; the merge must still equal the from-scratch bytes.
        let split = rng.gen_range(0..=docs.len());
        let base = build(&docs[..split]);
        let delta = DeltaIndex::build(&base, docs[split..].to_vec());
        let merged = merge_sealed(&base, &delta);
        assert_eq!(merged.to_bytes(), expected, "seed {seed}: merge at {split}");
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
        assert_eq!(index.to_bytes(), reference_bytes(docs));
    }
    let (fa, fb) = (ForwardIndex::build(&a), ForwardIndex::build(&b));
    check_forward(&a, &fa, 0);
    check_forward(&b, &fb, 0);
    assert_eq!(fa.doc_tokens(DocId(0)), [1, 0]);
    assert_eq!(fb.doc_tokens(DocId(0)), [0, 1]);
}

#[test]
fn a_decoded_index_holds_the_forward_view_it_was_encoded_with() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let index = build(&documents(&mut rng));
        let bytes = index.to_bytes();
        let decoded = InvertedIndex::from_bytes(&bytes).unwrap();
        assert_eq!(decoded.to_bytes(), bytes, "seed {seed}");
        let (built, read) = (index.forward(), decoded.forward());
        assert_eq!(read.num_docs(), built.num_docs(), "seed {seed}");
        // One past the last document and term: both views answer empty.
        for doc in (0..=built.num_docs() as u32).map(DocId) {
            assert_eq!(
                read.doc_tokens(doc),
                built.doc_tokens(doc),
                "seed {seed} {doc:?}"
            );
            assert_eq!(
                read.title_tf(doc),
                built.title_tf(doc),
                "seed {seed} {doc:?}"
            );
        }
        for term in (0..=index.num_terms() as u32).map(TermId) {
            assert_eq!(
                read.idf(term).to_bits(),
                built.idf(term).to_bits(),
                "seed {seed} {term:?}"
            );
        }
    }
}
