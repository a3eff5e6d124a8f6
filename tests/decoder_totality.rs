//! Every artifact decoder is **total** on hostile bytes: for a small valid
//! image of each of `InvertedIndex` (version 3: vocabulary, documents and
//! forward rows, with the postings and statistics counted from the rows
//! on decode), `ShardArtifact` and `CompiledSpecStore`, every truncation, every
//! single-byte mutant (`+1`, `0x00`, `0x7F`, `0xFF` at every position), a
//! few thousand seeded multi-byte mutants and raw random buffers must
//!
//! * never panic the decoder,
//! * never make it allocate more than a stated multiple of the input
//!   length (a counting global allocator, local to this binary, records
//!   the peak of every single decode), and
//! * when accepted, yield a value that is safe to use: it re-encodes to
//!   an image that decodes to an equal value, and it can be searched /
//!   scored without panicking. An accepted index also holds forward rows
//!   a surrogate can be read from: one row per document, body ids in its
//!   vocabulary or `STOP`, and each title's terms strictly increasing with
//!   `tf > 0` — so a mutant that breaks one of these and still decodes
//!   fails the sweep. No byte mutant can keep the rows section framed
//!   while changing its row count, so the sweep also splices on the
//!   whole rows section of a collection one document shorter and one
//!   longer, and expects both refused.
//!
//! The sweep itself is the `#[ignore]`d test `sweep`; the test that
//! `cargo test` runs, `every_artifact_decoder_is_total`, runs it in a
//! child process, so that even a decoder regression that aborts the
//! process (an allocation the OS refuses is `SIGABRT`, not a panic) is
//! reported here as a failed assertion with the child's stderr.
//!
//! The fleet *frame* decoder has its own sweep of the same shape in
//! `crates/fleet/tests/protocol_robustness.rs`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serpdiv::core::specindex::CompiledSpecStore;
use serpdiv::core::UtilityParams;
use serpdiv::index::forward::STOP;
use serpdiv::index::{
    DecodeError, DocId, Document, IndexBuilder, InvertedIndex, Retriever, ShardArtifact,
    ShardedIndex, SparseVector,
};
use serpdiv::text::TermId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// One decode may allocate at most `ALLOC_MULTIPLE × input bytes +
/// ALLOC_SLACK`. The valid images decode within 4 × their length (a
/// 5-byte vocabulary record becomes two `String`s and a hash bucket); the
/// multiple leaves room for mutants that are denser in records, the slack
/// for the fixed tables a decoder builds whatever the input. A count field
/// sizing an allocation the input does not back is past both.
const ALLOC_MULTIPLE: usize = 16;
const ALLOC_SLACK: usize = 4 << 10;

/// Bytes live since the last [`measured`] reset, and their peak.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator plus two counters; the sweep runs alone in its
/// process (one test, `--test-threads=1`), so the counters see one decode
/// at a time.
struct Counting;

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are plain atomics and never
// allocate or unwind. `realloc` is the trait's default (alloc + copy +
// dealloc through the two methods below), so it is counted too.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
        PEAK.fetch_max(live, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through untouched.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // Saturating: memory allocated before the last reset may die now.
        let _ = LIVE.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |live| {
            Some(live.saturating_sub(layout.size()))
        });
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Run `f`, returning its result and the peak bytes it had live.
fn measured<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed))
}

/// Push every mutant of `image` through `decode`; `accepted` is handed
/// whatever decodes and must find it usable.
fn sweep_decoder<T>(
    name: &str,
    image: &[u8],
    decode: impl Fn(&[u8]) -> Result<T, DecodeError>,
    accepted: impl Fn(&T),
) {
    let check = |bytes: &[u8], what: &str| -> bool {
        let (decoded, peak) = measured(|| decode(bytes));
        let budget = ALLOC_MULTIPLE * bytes.len() + ALLOC_SLACK;
        assert!(
            peak <= budget,
            "{name}, {what}: decoding {} bytes allocated {peak} (budget {budget})",
            bytes.len()
        );
        match decoded {
            Ok(value) => {
                accepted(&value);
                true
            }
            Err(_) => false,
        }
    };

    assert!(check(image, "valid image"), "{name}: the valid image");
    for cut in 0..image.len() {
        assert!(
            !check(&image[..cut], "truncation"),
            "{name}: accepted a {cut}-byte prefix"
        );
    }
    let mut rejected = 0usize;
    for pos in 0..image.len() {
        for value in [image[pos].wrapping_add(1), 0x00, 0x7F, 0xFF] {
            let mut mutant = image.to_vec();
            mutant[pos] = value;
            rejected += usize::from(!check(&mutant, &format!("byte {pos} = {value:#04x}")));
        }
    }
    assert!(rejected > 0, "{name}: no single-byte mutant was rejected");

    let seed = 0xD1CE_0000 ^ image.len() as u64;
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..4_000 {
        let mutant: Vec<u8> = if i % 4 == 0 {
            // Random bytes, half of them behind the real magic + version
            // so that they reach the count fields.
            let header = if i % 8 == 0 { 8 } else { 0 };
            let len = rng.gen_range(0..256);
            image[..header]
                .iter()
                .copied()
                .chain((0..len).map(|_| rng.gen::<u8>()))
                .collect()
        } else {
            // 1–8 bytes changed, sometimes truncated or extended.
            let mut b = image.to_vec();
            for _ in 0..rng.gen_range(1..=8) {
                let pos = rng.gen_range(0..b.len());
                b[pos] ^= rng.gen_range(1..=255u8);
            }
            match rng.gen_range(0..4) {
                0 => b.truncate(rng.gen_range(0..=b.len())),
                1 => {
                    let extra = rng.gen_range(0..16);
                    b.extend((0..extra).map(|_| rng.gen::<u8>()));
                }
                _ => {}
            }
            b
        };
        check(&mutant, &format!("seed {seed:#x}, mutant {i}"));
    }
}

/// `(title, body)` of the small collection every image is built from.
const DOCS: [(&str, &str); 4] = [
    ("apple iphone", "apple announces new iphone chip"),
    ("apple pie", "bake an apple pie with cinnamon apple"),
    ("", "sailing boats race in the storm"),
    ("storm", "storm warning for sailing boats"),
];

fn index_of(docs: &[(&str, &str)]) -> Arc<InvertedIndex> {
    let mut b = IndexBuilder::new();
    for (i, &(title, body)) in docs.iter().enumerate() {
        b.add(Document::new(
            i as u32,
            format!("http://d/{i}"),
            title,
            body,
        ));
    }
    Arc::new(b.build())
}

/// The forward rows section that ends `index`'s image (layout in
/// `serialize.rs`'s module doc): three counts, two offset tables, the
/// body ids and the title entries.
fn rows_section(index: &InvertedIndex) -> Vec<u8> {
    let forward = index.forward();
    let docs = (0..forward.num_docs() as u32).map(DocId);
    let tokens: usize = docs.clone().map(|d| forward.doc_tokens(d).len()).sum();
    let titles: usize = docs.map(|d| forward.title_tf(d).len()).sum();
    let len = 3 * 4 + 2 * 4 * (forward.num_docs() + 1) + 4 * tokens + 8 * titles;
    let image = index.to_bytes();
    image[image.len() - len..].to_vec()
}

const QUERIES: [&str; 4] = ["apple", "apple pie", "storm sailing boats", "iphone chip"];

#[test]
#[ignore = "run by `every_artifact_decoder_is_total`, alone in a child process"]
fn sweep() {
    let index = index_of(&DOCS);
    let query_terms: Vec<Vec<TermId>> = QUERIES.iter().map(|q| index.analyze_query(q)).collect();

    sweep_decoder(
        "InvertedIndex",
        &index.to_bytes(),
        InvertedIndex::from_bytes,
        |decoded| {
            let image = decoded.to_bytes();
            let again = InvertedIndex::from_bytes(&image).expect("a re-encoded index decodes");
            assert_eq!(again.to_bytes(), image, "InvertedIndex round trip");
            for query in QUERIES {
                let _ = decoded.retrieve(query, 10);
            }
            let forward = decoded.forward();
            let num_docs = decoded.stats().num_docs as usize;
            assert_eq!(forward.num_docs(), num_docs, "a row per document");
            let num_terms = decoded.num_terms();
            for doc in (0..=num_docs as u32).map(DocId) {
                let body = forward.doc_tokens(doc);
                assert!(body.iter().all(|&t| t == STOP || (t as usize) < num_terms));
                let title = forward.title_tf(doc);
                assert!(title
                    .iter()
                    .all(|&(t, tf)| (t as usize) < num_terms && tf > 0));
                assert!(title.windows(2).all(|e| e[0].0 < e[1].0));
                for terms in &query_terms {
                    let _ = forward.surrogate(doc, terms, 4);
                }
            }
        },
    );

    // Rows sections that frame, sort and stay inside the vocabulary, but
    // hold one row fewer or one more than the index has documents.
    let image = index.to_bytes();
    let head = &image[..image.len() - rows_section(&index).len()];
    let longer = [&DOCS[..], &DOCS[..1]].concat();
    for other in [index_of(&DOCS[..3]), index_of(&longer)] {
        let spliced = [head, &rows_section(&other)].concat();
        assert_eq!(
            InvertedIndex::from_bytes(&spliced).unwrap_err(),
            DecodeError::Corrupt("forward row count differs from document count"),
            "{} rows on {} documents",
            other.stats().num_docs,
            index.stats().num_docs
        );
    }

    // The only encoder is `export_shard`, so an accepted mutant is held
    // to scoring the query set without panicking.
    sweep_decoder(
        "ShardArtifact",
        &ShardedIndex::build(index.clone(), 2).export_shard(1),
        ShardArtifact::from_bytes,
        |decoded| {
            for terms in &query_terms {
                for k in [1, 10] {
                    let _ = decoded.score_terms(terms, k);
                }
            }
        },
    );

    let vector =
        |pairs: &[(u32, f32)]| SparseVector::from_pairs(pairs.iter().map(|&(t, w)| (TermId(t), w)));
    let fruit = [vector(&[(1, 1.0), (4, 0.5)]), vector(&[(1, 0.3), (7, 2.0)])];
    let phone = [vector(&[(2, 1.5), (4, 0.25), (9, 1.0)])];
    let store = CompiledSpecStore::build(vec![
        ("apple fruit", fruit.iter()),
        ("apple iphone", phone.iter()),
        ("empty", [].iter()),
    ]);
    sweep_decoder(
        "CompiledSpecStore",
        &store.to_bytes(),
        CompiledSpecStore::from_bytes,
        |decoded| {
            let image = decoded.to_bytes();
            let again = CompiledSpecStore::from_bytes(&image).expect("a re-encoded store decodes");
            assert_eq!(again.to_bytes(), image, "CompiledSpecStore round trip");
            let names = (0..decoded.len() as u32).map(|id| decoded.name(id));
            let _ = decoded
                .scorer(names)
                .matrix(&fruit, UtilityParams::default());
        },
    );
}

#[test]
fn every_artifact_decoder_is_total() {
    let exe = std::env::current_exe().expect("the test binary's own path");
    let child = std::process::Command::new(exe)
        .args(["--ignored", "--exact", "sweep", "--test-threads=1"])
        .output()
        .expect("re-running this test binary");
    assert!(
        child.status.success(),
        "the decoder sweep died ({}):\n{}\n{}",
        child.status,
        String::from_utf8_lossy(&child.stdout),
        String::from_utf8_lossy(&child.stderr)
    );
}
