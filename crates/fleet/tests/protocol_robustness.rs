//! Protocol robustness: the router must survive every way a worker can
//! misbehave on the wire — garbage bytes, truncated frames, hostile
//! length prefixes, wrong request ids, mid-response death, and plain
//! silence — without panicking, without hanging, and while still serving
//! a page from the shards that behave. Afterwards, a healthy worker on
//! the same socket must be picked back up (a failed link reconnects on
//! its next exchange).
//!
//! Layout of every scenario: shard 0 is a *real* worker (the crate's
//! serve loop over a real exported artifact, in a thread); shard 1 is an
//! evil peer speaking the scripted corruption. The gather must come back
//! partial with exactly shard 0's hits, bit-identical to the shard-0
//! artifact scored in-process.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serpdiv_fleet::protocol::{decode_payload, encode_frame, read_frame, Frame, FrameReader};
use serpdiv_fleet::worker;
use serpdiv_fleet::{FleetConfig, FleetRouter, WireError, DEFAULT_MAX_FRAME};
use serpdiv_index::{
    merge_top_k, DocId, Document, IndexBuilder, InvertedIndex, Retriever, ScoredDoc, ShardArtifact,
    ShardedIndex,
};
use serpdiv_text::TermId;
use std::io::{Read, Write};
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn corpus() -> Arc<InvertedIndex> {
    let texts = [
        "apple iphone smartphone chip battery",
        "apple fruit orchard sweet harvest",
        "apple pie cinnamon recipe baking",
        "storm wind rain forecast cloud",
    ];
    let mut b = IndexBuilder::new();
    for i in 0..24u32 {
        b.add(Document::new(
            i,
            format!("http://d/{i}"),
            "",
            texts[i as usize % texts.len()],
        ));
    }
    Arc::new(b.build())
}

fn socket(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("serpdiv-robust-{}-{tag}.sock", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

/// Real worker in a thread: the crate's accept loop over shard `s`'s
/// exported artifact. The thread is detached (it blocks in `accept`
/// forever); the process exit reaps it.
fn spawn_real_worker(path: &PathBuf, sharded: &ShardedIndex, s: usize) {
    let bytes = sharded.export_shard(s);
    let listener = UnixListener::bind(path).expect("bind worker socket");
    std::thread::spawn(move || {
        let artifact = ShardArtifact::from_bytes(&bytes).expect("valid artifact");
        worker::serve(&listener, &artifact, serpdiv_fleet::DEFAULT_MAX_FRAME);
    });
}

/// Evil peer: for `connections` accepted connections, read a little and
/// answer with `reply` bytes (possibly none), then close. Drops the
/// listener afterwards so the socket can be re-bound by a real worker.
fn spawn_evil(path: &PathBuf, connections: usize, reply: Vec<u8>) {
    let listener = UnixListener::bind(path).expect("bind evil socket");
    let path = path.clone();
    std::thread::spawn(move || {
        for stream in listener.incoming().take(connections) {
            let Ok(mut stream) = stream else { continue };
            let mut buf = [0u8; 256];
            let _ = stream.read(&mut buf); // consume the request
            let _ = stream.write_all(&reply);
            // close
        }
        drop(listener);
        let _ = std::fs::remove_file(&path);
    });
}

/// The shard-0-only expectation: the partial gather over the surviving
/// shard, computed from the same artifact bytes in-process.
fn shard0_expectation(sharded: &ShardedIndex, index: &InvertedIndex, k: usize) -> Vec<ScoredDoc> {
    let artifact = ShardArtifact::from_bytes(&sharded.export_shard(0)).unwrap();
    let terms = index.analyze_query("apple pie");
    merge_top_k(vec![artifact.score_terms(&terms, k)], k)
}

fn fast_config() -> FleetConfig {
    FleetConfig {
        shard_timeout: Duration::from_millis(200),
        ..FleetConfig::default()
    }
}

/// Drive one evil scenario: shard 1 answers with `evil_reply` bytes on
/// every connection; assert the router serves a partial, shard-0-exact
/// page and never panics.
fn assert_survives(tag: &str, evil_reply: Vec<u8>) {
    let index = corpus();
    let sharded = ShardedIndex::build(index.clone(), 2);
    let (sock0, sock1) = (socket(&format!("{tag}-0")), socket(&format!("{tag}-1")));
    spawn_real_worker(&sock0, &sharded, 0);
    // Generous connection budget: the router reconnects per failure.
    spawn_evil(&sock1, 64, evil_reply);
    let router = FleetRouter::new(index.clone(), vec![sock0, sock1], fast_config());

    let r = router.retrieve_with_status_within("apple pie", 5, None);
    assert!(!r.complete, "{tag}: the evil shard must be lost");
    let expect = shard0_expectation(&sharded, &index, 5);
    assert_eq!(r.hits.len(), expect.len(), "{tag}: shard-0 page size");
    for (e, g) in expect.iter().zip(&r.hits) {
        assert_eq!(e.doc, g.doc, "{tag}: doc");
        assert_eq!(e.score.to_bits(), g.score.to_bits(), "{tag}: score bits");
    }
    let m = router.metrics();
    assert_eq!(m.partial_gathers, 1, "{tag}");
    assert!(m.shard_failures >= 1, "{tag}");
}

#[test]
fn survives_garbage_bytes() {
    assert_survives("garbage", vec![0xFF; 64]);
}

#[test]
fn survives_truncated_frame() {
    // Declares a 100-byte payload, delivers 10, closes mid-response.
    let mut reply = 100u32.to_le_bytes().to_vec();
    reply.extend_from_slice(&[0xAB; 10]);
    assert_survives("truncated", reply);
}

#[test]
fn survives_oversized_length_prefix() {
    // A hostile prefix claiming a 4 GiB frame: the router must refuse at
    // the prefix (no allocation), not try to read it.
    assert_survives("oversized", u32::MAX.to_le_bytes().to_vec());
}

#[test]
fn survives_wrong_request_id_reply() {
    // A perfectly well-formed Hits frame — for a question nobody asked.
    // Accepting it would desync every later exchange.
    let reply = encode_frame(&Frame::Hits {
        id: 0xDEAD_BEEF,
        hits: vec![ScoredDoc {
            doc: serpdiv_index::DocId(0),
            score: 99.0,
        }],
    });
    assert_survives("wrong-id", reply);
}

#[test]
fn survives_worker_killed_mid_response() {
    // Nothing at all: accept, read, close — the socket dies between the
    // request and the response, exactly like a worker killed mid-write.
    assert_survives("mid-kill", Vec::new());
}

#[test]
fn survives_silent_worker_within_deadline() {
    // Shard 1 accepts and then says nothing: the router must give up at
    // the configured deadline, not hang the request.
    let index = corpus();
    let sharded = ShardedIndex::build(index.clone(), 2);
    let (sock0, sock1) = (socket("silent-0"), socket("silent-1"));
    spawn_real_worker(&sock0, &sharded, 0);
    let listener = UnixListener::bind(&sock1).expect("bind silent socket");
    std::thread::spawn(move || {
        let mut held = Vec::new();
        for stream in listener.incoming() {
            held.push(stream); // keep connections open, never answer
        }
    });
    let config = fast_config();
    let router = FleetRouter::new(index.clone(), vec![sock0, sock1], config);

    let t = std::time::Instant::now();
    let r = router.retrieve_with_status_within("apple pie", 5, None);
    let elapsed = t.elapsed();
    assert!(!r.complete, "silent shard must be dropped");
    assert!(
        elapsed < config.shard_timeout * 4,
        "one silent shard costs at most the deadline (took {elapsed:?})"
    );
    let expect = shard0_expectation(&sharded, &index, 5);
    assert_eq!(
        r.hits.iter().map(|h| h.doc).collect::<Vec<_>>(),
        expect.iter().map(|h| h.doc).collect::<Vec<_>>()
    );
    assert!(router.metrics().shard_timeouts >= 1);
}

/// `iterations` seeded mutants of valid frames, every fourth a raw
/// random buffer instead, each handed to `check` with its index.
fn for_each_mutant(iterations: usize, seed: u64, mut check: impl FnMut(usize, &[u8])) {
    let mut rng = StdRng::seed_from_u64(seed);
    let corpus: Vec<Vec<u8>> = vec![
        encode_frame(&Frame::Ping { id: 1 }),
        encode_frame(&Frame::Pong {
            id: 2,
            shard_id: 3,
            base: 40,
            range_len: 12,
        }),
        encode_frame(&Frame::Query {
            id: 6,
            k: 10,
            terms: vec![TermId(1), TermId(7), TermId(99)],
        }),
        encode_frame(&Frame::Hits {
            id: 7,
            hits: vec![
                ScoredDoc {
                    doc: DocId(1),
                    score: 1.5,
                },
                ScoredDoc {
                    doc: DocId(9),
                    score: -0.25,
                },
            ],
        }),
    ];
    for i in 0..iterations {
        let bytes: Vec<u8> = if i % 4 == 0 {
            // A raw random buffer, no structure at all.
            let len = rng.gen_range(0..96);
            (0..len).map(|_| rng.gen::<u8>()).collect()
        } else {
            // A valid frame with 1–8 bytes flipped, sometimes truncated
            // or extended — length prefixes, magic, opcodes, and count
            // fields all get hit.
            let mut b = corpus.choose(&mut rng).unwrap().clone();
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
        check(i, &bytes);
    }
}

/// Push `iterations` seeded mutants of valid frames (plus raw random
/// buffers) through both decode paths. The decoder must never panic and
/// never allocate past what the validated length fields admit (hostile
/// counts are checked against the remaining payload *before* any `Vec` is
/// sized); whatever decodes cleanly must re-encode to bytes that decode
/// to the same frame.
fn fuzz_decode_sweep(iterations: usize, seed: u64) {
    for_each_mutant(iterations, seed, |i, bytes| {
        // Full wire path: the length prefix and frame-size cap.
        let mut cursor = std::io::Cursor::new(bytes);
        let _ = read_frame(&mut cursor, DEFAULT_MAX_FRAME);
        // Payload path: whatever decodes must round-trip bit-exactly
        // (compared on re-encoded bytes — scores may be NaN).
        if bytes.len() >= 4 {
            if let Ok(frame) = decode_payload(&bytes[4..]) {
                let reencoded = encode_frame(&frame);
                let redecoded = decode_payload(&reencoded[4..]).unwrap_or_else(|e| {
                    panic!("seed {seed:#x}, mutant {i}: re-encoded frame must decode: {e:?}")
                });
                assert_eq!(
                    reencoded,
                    encode_frame(&redecoded),
                    "seed {seed:#x}, mutant {i}: round trip"
                );
            }
        }
    });
}

#[test]
fn frame_decode_survives_mutation_sweep() {
    fuzz_decode_sweep(4_000, 0xF00D_F00D);
}

/// The heavyweight sweep: 16 seeds × 50 000 mutants of the decoder every
/// router read relies on.
#[test]
fn frame_decode_survives_large_mutation_sweep() {
    for seed in 0..16u64 {
        fuzz_decode_sweep(50_000, 0xDEAD_0000 ^ seed);
    }
}

/// A socket that delivers `bytes` in random chunks of 1 to `bytes.len()`
/// bytes, with a `WouldBlock` (a socket timeout) before about a third of
/// the reads, then end of stream.
struct Trickle<'a> {
    bytes: &'a [u8],
    rng: StdRng,
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.rng.gen_bool(0.3) {
            return Err(std::io::ErrorKind::WouldBlock.into());
        }
        if self.bytes.is_empty() {
            return Ok(0);
        }
        let n = self.rng.gen_range(1..=self.bytes.len()).min(buf.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

/// Whether two reads of one wire came to the same end: the same frame
/// (compared on its encoding — scores may be NaN), the same frame error,
/// or the same kind of I/O error.
fn same_outcome(a: &Result<Frame, WireError>, b: &Result<Frame, WireError>) -> bool {
    match (a, b) {
        (Ok(x), Ok(y)) => encode_frame(x) == encode_frame(y),
        (Err(WireError::Frame(x)), Err(WireError::Frame(y))) => x == y,
        (Err(WireError::Io(x)), Err(WireError::Io(y))) => x.kind() == y.kind(),
        _ => false,
    }
}

/// Every mutant of the decode sweep, trickled through a [`FrameReader`]
/// in random chunks with timeouts in between, must end as [`read_frame`]
/// (the oracle) ends on the same bytes — and the reader's buffer must
/// never outgrow `max_frame + 4`, an oversized prefix included.
#[test]
fn frame_reader_matches_read_frame_on_every_mutant() {
    for (seed, max_frame) in [(0xBEEF, 40), (0xCAFE, 64), (0xF00D_F00D, DEFAULT_MAX_FRAME)] {
        for_each_mutant(4_000, seed, |i, bytes| {
            let oracle = read_frame(&mut std::io::Cursor::new(bytes), max_frame);
            let mut trickle = Trickle {
                bytes,
                rng: StdRng::seed_from_u64(seed ^ i as u64),
            };
            let mut reader = FrameReader::new(max_frame);
            let got = loop {
                match reader.read_frame(&mut trickle) {
                    Err(WireError::Io(e)) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                    outcome => break outcome,
                }
            };
            assert!(
                same_outcome(&got, &oracle),
                "seed {seed:#x}, mutant {i}: reader {got:?}, oracle {oracle:?}"
            );
            assert!(
                reader.capacity() <= max_frame as usize + 4,
                "seed {seed:#x}, mutant {i}: buffer {} past the cap",
                reader.capacity()
            );
        });
    }
}

/// A socket that hands over all of its bytes in its first read; every
/// later read times out.
struct OneRead<'a>(Option<&'a [u8]>);

impl Read for OneRead<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let bytes = self.0.take().ok_or(std::io::ErrorKind::WouldBlock)?;
        buf[..bytes.len()].copy_from_slice(bytes);
        Ok(bytes.len())
    }
}

#[test]
fn two_frames_in_one_read_both_decode() {
    let first = Frame::Query {
        id: 1,
        k: 10,
        terms: vec![TermId(3), TermId(4)],
    };
    let second = Frame::Ping { id: 2 };
    let wire = [encode_frame(&first), encode_frame(&second)].concat();
    let mut socket = OneRead(Some(&wire));
    let mut reader = FrameReader::new(DEFAULT_MAX_FRAME);
    assert_eq!(reader.read_frame(&mut socket).unwrap(), first);
    assert_eq!(reader.read_frame(&mut socket).unwrap(), second);
    assert!(matches!(
        reader.read_frame(&mut socket),
        Err(WireError::Io(_))
    ));
}

#[test]
fn recovers_after_evil_worker_is_replaced_by_real_one() {
    let index = corpus();
    let sharded = ShardedIndex::build(index.clone(), 2);
    let (sock0, sock1) = (socket("recover-0"), socket("recover-1"));
    spawn_real_worker(&sock0, &sharded, 0);
    // The evil peer serves exactly 2 connections' worth of garbage, then
    // releases the socket.
    spawn_evil(&sock1, 2, vec![0xFF; 32]);
    let router = FleetRouter::new(index.clone(), vec![sock0, sock1.clone()], fast_config());

    let r = router.retrieve_with_status_within("apple pie", 5, None);
    assert!(!r.complete, "garbage shard lost");

    // Give the evil thread time to drain its budget and free the path,
    // then boot a REAL worker for shard 1 on the same socket.
    std::thread::sleep(Duration::from_millis(50));
    let _ = std::fs::remove_file(&sock1);
    spawn_real_worker(&sock1, &sharded, 1);
    router
        .wait_ready(Duration::from_secs(5))
        .expect("fleet heals once a real worker listens");

    let healed = router.retrieve_with_status_within("apple pie", 5, None);
    assert!(healed.complete, "healed fleet serves complete gathers");
    // And the page is the full two-shard merge, bit-identical to the
    // in-process oracle: the same shards scored one after another (no
    // executor attached).
    let oracle = sharded.retrieve_terms(&index.analyze_query("apple pie"), 5);
    assert_eq!(healed.hits.len(), oracle.len());
    for (e, g) in oracle.iter().zip(&healed.hits) {
        assert_eq!(e.doc, g.doc);
        assert_eq!(e.score.to_bits(), g.score.to_bits());
    }
}
