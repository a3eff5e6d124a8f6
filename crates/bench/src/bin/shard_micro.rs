//! Layer bench for postings scoring (dev aid, smoke-run by CI).
//!
//! Two tables:
//!
//! * the hash-map `SearchEngine` oracle, the unsharded `InvertedIndex`
//!   retriever and `ShardedIndex` at 1/2/4 shards on the small lab's test
//!   queries, ns per query — the retrieval kernel under all of the
//!   retrievers, so unsharded must not read slower than one shard;
//! * oracle vs kernel **ns per posting** on synthetic lists of 100 / 1 k /
//!   10 k / 40 k postings, one- and two-term queries, k ∈ {10, 1000} — the
//!   per-posting cost the kernel exists to cut, by list length.

use serpdiv_bench::{Lab, LabConfig};
use serpdiv_index::{
    Document, IndexBuilder, InvertedIndex, Retriever, ScoredDoc, SearchEngine, ShardedIndex,
};
use serpdiv_text::TermId;
use std::time::Instant;

/// Mean ns per call of `run` over `reps` passes of `inputs`.
fn ns_per_call<T>(reps: usize, inputs: &[T], mut run: impl FnMut(&T) -> usize) -> (f64, usize) {
    let t = Instant::now();
    let mut sink = 0usize;
    for _ in 0..reps {
        for input in inputs {
            sink += run(std::hint::black_box(input));
        }
    }
    (
        t.elapsed().as_nanos() as f64 / (reps * inputs.len()) as f64,
        sink,
    )
}

fn lab_rows() {
    let lab = Lab::build(LabConfig::small());
    let index = lab.index;
    let queries: Vec<String> = lab
        .test
        .records()
        .iter()
        .take(200)
        .map(|r| lab.test.query_text(r.query).expect("interned").to_string())
        .collect();
    // Pre-analyzed terms: isolates analysis cost from scoring cost.
    let terms: Vec<Vec<TermId>> = queries.iter().map(|q| index.analyze_query(q)).collect();
    let reps = 50;
    let row = |label: &str, (ns, sink): (f64, usize)| {
        println!("{label:<16}{ns:>8.1} ns/query (sink {sink})");
    };

    let oracle = SearchEngine::new(&index);
    row(
        "oracle",
        ns_per_call(reps, &queries, |q| oracle.search(q, 10).len()),
    );
    row(
        "unsharded",
        ns_per_call(reps, &queries, |q| index.retrieve(q, 10).len()),
    );
    row(
        "analyze only",
        ns_per_call(reps, &queries, |q| index.analyze_query(q).len()),
    );
    row(
        "oracle terms",
        ns_per_call(reps, &terms, |ts| oracle.search_terms(ts, 10).len()),
    );
    row(
        "unsharded terms",
        ns_per_call(reps, &terms, |ts| index.retrieve_terms(ts, 10).len()),
    );
    let sharded1 = ShardedIndex::build(index.clone(), 1);
    row(
        "sharded1 terms",
        ns_per_call(reps, &terms, |ts| sharded1.retrieve_terms(ts, 10).len()),
    );
    for shards in [1, 2, 4] {
        let sharded = ShardedIndex::build(index.clone(), shards);
        row(
            &format!("sharded x{shards}"),
            ns_per_call(reps, &queries, |q| sharded.retrieve(q, 10).len()),
        );
    }
}

/// 40 000 documents of varied length in which `lista`/`listb` occur in
/// every document, `kilotena`/`kilotenb` in every 4th, `kiloa`/`kilob` in
/// every 40th and `hundreda`/`hundredb` in every 400th — two lists of each
/// length, the `b` ones offset so a two-term query's lists overlap only
/// in part.
fn synthetic_index() -> InvertedIndex {
    const DOCS: u32 = 40_000;
    let filler = ["quartz", "meadow", "lantern", "harbor", "violin"];
    let mut builder = IndexBuilder::new();
    for i in 0..DOCS {
        let mut body = String::from("lista listb");
        for (name, every) in [("kiloten", 4), ("kilo", 40), ("hundred", 400)] {
            if i % every == 0 {
                body.push_str(&format!(" {name}a"));
            }
            if (i + every / 2) % every == 0 {
                body.push_str(&format!(" {name}b"));
            }
        }
        for j in 0..(i % 7) as usize {
            body.push(' ');
            body.push_str(filler[(i as usize + j) % filler.len()]);
        }
        builder.add(Document::new(i, format!("http://syn/{i}"), "", body));
    }
    builder.build()
}

fn bit_identical(a: &[ScoredDoc], b: &[ScoredDoc]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.doc == y.doc && x.score.to_bits() == y.score.to_bits())
}

fn per_posting_rows() {
    let index = synthetic_index();
    let oracle = SearchEngine::new(&index);
    println!(
        "\n{:<10}{:>6}{:>6}{:>16}{:>16}{:>9}",
        "postings", "terms", "k", "oracle ns/post", "kernel ns/post", "speedup"
    );
    for (label, name) in [
        ("100", "hundred"),
        ("1k", "kilo"),
        ("10k", "kiloten"),
        ("40k", "list"),
    ] {
        for suffixes in [&["a"][..], &["a", "b"][..]] {
            let terms: Vec<TermId> = suffixes
                .iter()
                .flat_map(|s| index.analyze_query(&format!("{name}{s}")))
                .collect();
            assert_eq!(terms.len(), suffixes.len(), "synthetic terms are indexed");
            let postings: usize = terms
                .iter()
                .map(|&t| index.postings(t).expect("indexed").len())
                .sum();
            // ~2 M postings per measurement, whatever the list length.
            let reps = (2_000_000 / postings).max(3);
            for k in [10, 1000] {
                assert!(
                    bit_identical(
                        &oracle.search_terms(&terms, k),
                        &index.retrieve_terms(&terms, k)
                    ),
                    "kernel and oracle disagree"
                );
                let inputs = [terms.clone()];
                let (oracle_ns, _) =
                    ns_per_call(reps, &inputs, |ts| oracle.search_terms(ts, k).len());
                let (kernel_ns, _) =
                    ns_per_call(reps, &inputs, |ts| index.retrieve_terms(ts, k).len());
                println!(
                    "kernel {label:<3}{:>6}{k:>6}{:>16.1}{:>16.1}{:>8.2}x",
                    terms.len(),
                    oracle_ns / postings as f64,
                    kernel_ns / postings as f64,
                    oracle_ns / kernel_ns
                );
            }
        }
    }
}

fn main() {
    lab_rows();
    per_posting_rows();
}
