//! Hedging and circuit-breaker behavior of the [`FleetRouter`]:
//!
//! * a stalled primary connection is hedged, at 4× the latency its link
//!   has shown so far, onto a fresh connection and the hedged page is
//!   **bit-identical** to the in-process oracle; a cold link never hedges;
//! * a failed link reconnects on its next query: one failure costs one
//!   degraded response, not a waiting period;
//! * five consecutive failures open a per-link breaker that fails the
//!   shard instantly (no connect attempts); after the cooldown the next
//!   query is the probe, on a fresh connection, and heals the link with a
//!   bit-identical page;
//! * a failed probe re-opens the breaker;
//! * timeouts caused by a clamped deadline budget blame the request, not
//!   the shard: no failure counters, no breaker movement;
//! * a resend through a broken connection gets what is left of the
//!   deadline, not a new one;
//! * the gather runs on one thread yet costs its slowest shard, not the
//!   sum: every deadline and hedge threshold counts from its own shard's
//!   write.

use serpdiv_fleet::protocol::{read_frame, write_frame};
use serpdiv_fleet::{worker, FleetConfig, FleetRouter, Frame, DEFAULT_MAX_FRAME};
use serpdiv_index::{
    merge_top_k, Document, IndexBuilder, InvertedIndex, Retriever, ScoredDoc, ShardArtifact,
    ShardedIndex,
};
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

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
    let p = std::env::temp_dir().join(format!("serpdiv-hedge-{}-{tag}.sock", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

/// The single-shard oracle: shard 0 of a 1-way split, scored in-process.
fn oracle(sharded: &ShardedIndex, index: &InvertedIndex, query: &str, k: usize) -> Vec<ScoredDoc> {
    let artifact = ShardArtifact::from_bytes(&sharded.export_shard(0)).unwrap();
    let terms = index.analyze_query(query);
    merge_top_k(vec![artifact.score_terms(&terms, k)], k)
}

fn assert_bit_identical(tag: &str, got: &[ScoredDoc], want: &[ScoredDoc]) {
    assert_eq!(got.len(), want.len(), "{tag}: page size");
    for (w, g) in want.iter().zip(got) {
        assert_eq!(w.doc, g.doc, "{tag}: doc order");
        assert_eq!(w.score.to_bits(), g.score.to_bits(), "{tag}: score bits");
    }
}

/// A worker whose first connection answers its first query after about
/// 20 ms — which seeds the link's latency EWMA, putting the router's
/// hedge threshold near 80 ms, far above scheduler noise — and then
/// swallows the second query silently (the shape of a stuck thread, not
/// a dead process). Every later connection is served for real. Exactly
/// what hedging exists for.
fn spawn_slow_then_stalled_worker(path: &PathBuf, sharded: &ShardedIndex, s: usize) {
    let bytes = sharded.export_shard(s);
    let listener = UnixListener::bind(path).expect("bind worker socket");
    std::thread::spawn(move || {
        let artifact = ShardArtifact::from_bytes(&bytes).expect("valid artifact");
        let mut held = Vec::new();
        for (n, stream) in listener.incoming().enumerate() {
            let Ok(mut stream) = stream else { continue };
            if n == 0 {
                if let Ok(Frame::Query { id, k, terms }) =
                    read_frame(&mut stream, DEFAULT_MAX_FRAME)
                {
                    std::thread::sleep(Duration::from_millis(20));
                    let hits = artifact.score_terms(&terms, (k as usize).min(artifact.range_len()));
                    let _ = write_frame(&mut stream, &Frame::Hits { id, hits });
                }
                let _ = read_frame(&mut stream, DEFAULT_MAX_FRAME);
                held.push(stream); // the second query stalls forever
                continue;
            }
            worker::serve_connection(stream, &artifact, DEFAULT_MAX_FRAME);
        }
    });
}

/// A worker that accepts and never answers anyone.
fn spawn_silent_worker(path: &PathBuf) {
    let listener = UnixListener::bind(path).expect("bind silent socket");
    std::thread::spawn(move || {
        let mut held = Vec::new();
        for stream in listener.incoming() {
            held.push(stream);
        }
    });
}

/// A worker that, on every connection in turn, reads the query, waits
/// `hang` and hangs up without answering: each leg of an exchange sees a
/// broken connection, late.
fn spawn_late_hangup_worker(path: &PathBuf, hang: Duration) {
    let listener = UnixListener::bind(path).expect("bind hang-up socket");
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            let _ = read_frame(&mut stream, DEFAULT_MAX_FRAME);
            std::thread::sleep(hang);
        }
    });
}

/// A real worker that records the first frame of every connection it
/// accepts, answers it as [`worker::serve_connection`] would, and then
/// hands the connection to that serve loop. Returns the record.
fn spawn_recording_worker(
    path: &PathBuf,
    sharded: &ShardedIndex,
    s: usize,
) -> Arc<Mutex<Vec<Frame>>> {
    let bytes = sharded.export_shard(s);
    let listener = UnixListener::bind(path).expect("bind recording socket");
    let firsts = Arc::new(Mutex::new(Vec::new()));
    let record = firsts.clone();
    std::thread::spawn(move || {
        let artifact = Arc::new(ShardArtifact::from_bytes(&bytes).expect("valid artifact"));
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            let Ok(first) = read_frame(&mut stream, DEFAULT_MAX_FRAME) else {
                continue;
            };
            record.lock().unwrap().push(first.clone());
            let reply = match first {
                Frame::Query { id, k, terms } => Frame::Hits {
                    id,
                    hits: artifact.score_terms(&terms, (k as usize).min(artifact.range_len())),
                },
                Frame::Ping { id } => Frame::Pong {
                    id,
                    shard_id: artifact.shard_id(),
                    base: artifact.base(),
                    range_len: artifact.range_len() as u32,
                },
                Frame::Hits { .. } | Frame::Pong { .. } => continue,
            };
            if write_frame(&mut stream, &reply).is_ok() {
                let artifact = artifact.clone();
                std::thread::spawn(move || {
                    worker::serve_connection(stream, &artifact, DEFAULT_MAX_FRAME)
                });
            }
        }
    });
    firsts
}

fn spawn_real_worker(path: &PathBuf, sharded: &ShardedIndex, s: usize) {
    let bytes = sharded.export_shard(s);
    let listener = UnixListener::bind(path).expect("bind worker socket");
    std::thread::spawn(move || {
        let artifact = ShardArtifact::from_bytes(&bytes).expect("valid artifact");
        worker::serve(&listener, &artifact, DEFAULT_MAX_FRAME);
    });
}

/// Whether an unbudgeted "apple pie" gather heard from every shard.
fn complete(router: &FleetRouter) -> bool {
    router
        .retrieve_with_status_within("apple pie", 5, None)
        .complete
}

#[test]
fn hedge_recovers_stalled_primary_with_bit_identical_page() {
    let index = corpus();
    let sharded = ShardedIndex::build(index.clone(), 1);
    let sock = socket("stall");
    spawn_slow_then_stalled_worker(&sock, &sharded, 0);
    let config = FleetConfig {
        shard_timeout: Duration::from_millis(800),
        ..FleetConfig::default()
    };
    let router = FleetRouter::new(index.clone(), vec![sock], config);

    // The slow first answer seeds the link's EWMA; a cold link does not
    // hedge.
    let first = router.retrieve_with_status_within("apple pie", 5, None);
    assert!(first.complete);
    assert_bit_identical(
        "first page",
        &first.hits,
        &oracle(&sharded, &index, "apple pie", 5),
    );
    assert_eq!(router.metrics().hedges, 0, "a cold link does not hedge");

    let t = Instant::now();
    let r = router.retrieve_with_status_within("apple pie", 5, None);
    let elapsed = t.elapsed();
    assert!(r.complete, "the hedge leg must answer");
    assert_bit_identical(
        "hedged page",
        &r.hits,
        &oracle(&sharded, &index, "apple pie", 5),
    );
    assert!(
        elapsed < config.shard_timeout,
        "hedging must beat the full deadline (took {elapsed:?})"
    );
    let m = router.metrics();
    assert_eq!(m.hedges, 1, "exactly one hedged exchange");
    assert_eq!(m.shard_failures, 0, "a won hedge is not a shard failure");
    assert_eq!(m.partial_gathers, 0);

    // The hedge connection was adopted: the next query flows over it
    // without hedging again.
    let again = router.retrieve_with_status_within("apple pie", 5, None);
    assert!(again.complete);
    assert_eq!(router.metrics().hedges, 1);
}

#[test]
fn a_failed_link_reconnects_on_its_next_query() {
    let index = corpus();
    let sharded = ShardedIndex::build(index.clone(), 1);
    let sock = socket("next");
    let router = FleetRouter::new(index.clone(), vec![sock.clone()], FleetConfig::default());
    // Nothing listens yet: one refused connect.
    assert!(!complete(&router));

    // A worker comes up; the very next query connects to it.
    spawn_real_worker(&sock, &sharded, 0);
    let r = router.retrieve_with_status_within("apple pie", 5, None);
    assert!(r.complete, "the next query reconnects");
    assert_bit_identical(
        "reconnected page",
        &r.hits,
        &oracle(&sharded, &index, "apple pie", 5),
    );
    let m = router.metrics();
    assert_eq!(m.shard_failures, 1);
    assert_eq!(m.breaker_trips, 0, "one failure does not open the breaker");
}

#[test]
fn the_first_query_after_the_cooldown_is_the_probe() {
    let index = corpus();
    let sharded = ShardedIndex::build(index.clone(), 1);
    let sock = socket("probe");
    let config = FleetConfig {
        breaker_cooldown: Duration::from_millis(100),
        ..FleetConfig::default()
    };
    // Nothing listens yet: five refused connects trip the breaker.
    let router = FleetRouter::new(index.clone(), vec![sock.clone()], config);
    for _ in 0..5 {
        assert!(!complete(&router));
    }
    let m = router.metrics();
    assert_eq!(m.shard_failures, 5);
    assert_eq!(
        m.breaker_trips, 1,
        "five consecutive failures trip the breaker"
    );

    // A worker comes up, but the open breaker fails the shard without
    // connecting to it.
    let firsts = spawn_recording_worker(&sock, &sharded, 0);
    assert!(!complete(&router));
    assert_eq!(router.metrics().breaker_fast_fails, 1);

    // After the cooldown, one query: it is the probe, it heals the link,
    // and its page is bit-identical to the oracle.
    std::thread::sleep(config.breaker_cooldown + Duration::from_millis(20));
    let healed = router.retrieve_with_status_within("apple pie", 5, None);
    assert!(healed.complete, "the probe heals the breaker");
    assert_bit_identical(
        "healed page",
        &healed.hits,
        &oracle(&sharded, &index, "apple pie", 5),
    );
    {
        let firsts = firsts.lock().unwrap();
        assert_eq!(firsts.len(), 1, "one connection: the probe's own");
        assert!(
            matches!(firsts[0], Frame::Query { .. }),
            "the probe is the query itself, got {:?}",
            firsts[0]
        );
    }
    let m = router.metrics();
    assert_eq!(m.breaker_trips, 1, "no re-trip after healing");
    assert_eq!(m.shard_failures, 5);

    // Closed again: the next query flows over the probe's connection.
    assert!(complete(&router));
    assert_eq!(firsts.lock().unwrap().len(), 1);
}

#[test]
fn a_failed_probe_reopens_the_breaker() {
    let index = corpus();
    let config = FleetConfig {
        breaker_cooldown: Duration::from_millis(60),
        ..FleetConfig::default()
    };
    let router = FleetRouter::new(index, vec![socket("reopen")], config);
    for _ in 0..5 {
        assert!(!complete(&router));
    }
    assert_eq!(router.metrics().breaker_trips, 1);

    // Past the cooldown, still nobody listening: the probe fails and the
    // breaker re-opens (a second trip), still without serving.
    std::thread::sleep(Duration::from_millis(80));
    assert!(!complete(&router));
    let m = router.metrics();
    assert_eq!(m.breaker_trips, 2, "failed probe re-opens");
    assert_eq!(m.shard_failures, 6);

    // And the re-opened breaker fast-fails again.
    assert!(!complete(&router));
    assert_eq!(router.metrics().breaker_fast_fails, 1);
}

#[test]
fn budget_clamped_timeouts_blame_the_request_not_the_shard() {
    let index = corpus();
    let sock = socket("clamped");
    spawn_silent_worker(&sock);
    let config = FleetConfig {
        shard_timeout: Duration::from_millis(100),
        ..FleetConfig::default()
    };
    let router = FleetRouter::new(index.clone(), vec![sock], config);
    let terms = index.analyze_query("apple pie");

    // 5 ms of budget against a 100 ms shard deadline: each exchange
    // times out almost immediately — and blamelessly, five times over.
    let t = Instant::now();
    for _ in 0..5 {
        assert!(
            !router
                .retrieve_terms_within(&terms, 5, Some(5_000))
                .complete
        );
    }
    let elapsed = t.elapsed();
    assert!(
        elapsed < Duration::from_millis(250),
        "budget clamps the wire deadline (five took {elapsed:?})"
    );
    let m = router.metrics();
    assert_eq!(
        m.shard_failures, 0,
        "clamped timeouts are not shard failures"
    );
    assert_eq!(m.shard_timeouts, 0);
    assert_eq!(
        m.breaker_trips, 0,
        "clamped timeouts must not trip the breaker"
    );

    // The same silent worker under the *full* deadline: five real shard
    // timeouts, and exactly one trip.
    for _ in 0..5 {
        assert!(!router.retrieve_terms_with_status(&terms, 5).complete);
    }
    let m = router.metrics();
    assert_eq!(m.shard_timeouts, 5);
    assert_eq!(m.breaker_trips, 1);
}

#[test]
fn a_resend_gets_the_remaining_deadline_not_a_new_one() {
    let index = corpus();
    let sock = socket("hangup");
    spawn_late_hangup_worker(&sock, Duration::from_millis(300));
    let config = FleetConfig {
        shard_timeout: Duration::from_millis(400),
        ..FleetConfig::default()
    };
    let router = FleetRouter::new(index, vec![sock], config);

    // The primary breaks at 300 ms; the fresh leg has the 100 ms that is
    // left, not another 400.
    let t = Instant::now();
    let r = router.retrieve_with_status_within("apple pie", 5, None);
    let elapsed = t.elapsed();
    assert!(!r.complete);
    assert!(
        elapsed < Duration::from_millis(500),
        "one exchange must not outlive its deadline (took {elapsed:?})"
    );
    assert_eq!(router.metrics().shard_failures, 1);
}

#[test]
fn two_silent_shards_cost_one_deadline_not_two() {
    let index = corpus();
    let socks = vec![socket("silent2-0"), socket("silent2-1")];
    for sock in &socks {
        spawn_silent_worker(sock);
    }
    let config = FleetConfig {
        shard_timeout: Duration::from_millis(300),
        ..FleetConfig::default()
    };
    let router = FleetRouter::new(index, socks, config);

    let t = Instant::now();
    let r = router.retrieve_with_status_within("apple pie", 5, None);
    let elapsed = t.elapsed();
    assert!(!r.complete);
    assert!(r.hits.is_empty());
    // Both deadlines count from their own shard's write, and both writes
    // happen before either read: the second read is already due.
    assert!(
        elapsed < Duration::from_millis(450),
        "a gather waits for its slowest shard, not the sum (took {elapsed:?})"
    );
    let m = router.metrics();
    assert_eq!(m.shard_timeouts, 2);
    assert_eq!(m.partial_gathers, 1);
}

#[test]
fn two_stalled_primaries_both_hedge_within_one_deadline() {
    let index = corpus();
    let sharded = ShardedIndex::build(index.clone(), 2);
    let socks = vec![socket("stall2-0"), socket("stall2-1")];
    for (s, sock) in socks.iter().enumerate() {
        spawn_slow_then_stalled_worker(sock, &sharded, s);
    }
    let config = FleetConfig {
        shard_timeout: Duration::from_millis(800),
        ..FleetConfig::default()
    };
    let router = FleetRouter::new(index, socks, config);

    // Both slow first answers seed their links' EWMAs.
    let first = router.retrieve_with_status_within("apple pie", 5, None);
    assert!(first.complete);
    assert_bit_identical(
        "first two-shard page",
        &first.hits,
        &sharded.retrieve("apple pie", 5),
    );
    assert_eq!(router.metrics().hedges, 0, "cold links do not hedge");

    let t = Instant::now();
    let r = router.retrieve_with_status_within("apple pie", 5, None);
    let elapsed = t.elapsed();
    assert!(r.complete, "both hedge legs must answer");
    assert_bit_identical(
        "two hedged shards",
        &r.hits,
        &sharded.retrieve("apple pie", 5),
    );
    assert!(
        elapsed < config.shard_timeout,
        "both hedges must beat the full deadline (took {elapsed:?})"
    );
    let m = router.metrics();
    assert_eq!(m.hedges, 2, "each stalled primary hedges once");
    assert_eq!(m.shard_failures, 0);
    assert_eq!(m.partial_gathers, 0);
}
