//! The four binary images are a contract with bytes already on disk and
//! with workers already running: for a fixed small corpus each encoder
//! must keep producing the image it produced at commit `96f7e1c`, before
//! the encoders moved onto `ByteWriter`. A digest that moves here is a
//! format change and needs a version bump, not a new constant. The
//! `InvertedIndex` digest is version 3's, the image that holds its
//! vocabulary, documents and forward rows and no postings, lengths or
//! counts; the other three are unchanged since `96f7e1c`.

use serpdiv::core::specindex::CompiledSpecStore;
use serpdiv::fleet::protocol::{encode_frame, Frame};
use serpdiv::index::{DocId, Document, IndexBuilder, ScoredDoc, ShardedIndex, SparseVector};
use serpdiv::text::TermId;
use std::sync::Arc;

/// FNV-1a, 64 bit: the digest is part of the test, not of a toolchain.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn every_image_keeps_its_bytes() {
    let mut builder = IndexBuilder::new();
    for (i, (title, body)) in [
        ("apple iphone", "apple announces new iphone chip"),
        ("apple pie", "bake an apple pie with cinnamon apple"),
        ("", "sailing boats race in the storm"),
        ("storm", "storm warning for sailing boats"),
        ("naïve café", "the of and"),
    ]
    .into_iter()
    .enumerate()
    {
        builder.add(Document::new(
            i as u32,
            format!("http://d/{i}"),
            title,
            body,
        ));
    }
    let index = Arc::new(builder.build());

    let vector =
        |pairs: &[(u32, f32)]| SparseVector::from_pairs(pairs.iter().map(|&(t, w)| (TermId(t), w)));
    let fruit = [vector(&[(1, 1.0), (4, 0.5)]), vector(&[(1, 0.3), (7, 2.0)])];
    let phone = [vector(&[(2, 1.5), (4, 0.25), (9, 1.0)])];
    let store = CompiledSpecStore::build(vec![
        ("apple fruit", fruit.iter()),
        ("apple iphone", phone.iter()),
        ("empty", [].iter()),
    ]);

    let frames: Vec<u8> = [
        Frame::Query {
            id: 7,
            k: 10,
            terms: vec![TermId(3), TermId(0), TermId(u32::MAX)],
        },
        Frame::Hits {
            id: u64::MAX,
            hits: vec![
                ScoredDoc {
                    doc: DocId(4),
                    score: 1.5,
                },
                ScoredDoc {
                    doc: DocId(0),
                    score: -0.0,
                },
            ],
        },
        Frame::Ping { id: 0 },
        Frame::Pong {
            id: 9,
            shard_id: 1,
            base: 2,
            range_len: 3,
        },
    ]
    .iter()
    .flat_map(encode_frame)
    .collect();

    let images: [(&str, Vec<u8>, u64); 4] = [
        ("InvertedIndex", index.to_bytes(), 0x2d11_6218_b4bd_0108),
        (
            "ShardArtifact",
            ShardedIndex::build(index.clone(), 2).export_shard(1),
            0xa3b2_0522_3603_ce8c,
        ),
        ("CompiledSpecStore", store.to_bytes(), 0x0d9b_9d13_06d7_1461),
        ("fleet frames", frames, 0x0cdd_6c75_95dc_fdf2),
    ];
    let moved: Vec<String> = images
        .iter()
        .filter(|(_, image, pinned)| fnv1a(image) != *pinned)
        .map(|(name, image, _)| {
            format!(
                "{name}: {} bytes digest to {:#018x}",
                image.len(),
                fnv1a(image)
            )
        })
        .collect();
    assert!(moved.is_empty(), "images moved: {moved:#?}");
}
