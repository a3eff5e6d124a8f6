//! Hedging and circuit-breaker behavior of the [`FleetRouter`]:
//!
//! * a stalled primary connection is hedged, at 4× the latency its link
//!   has shown so far, onto a fresh connection and the hedged page is
//!   **bit-identical** to the in-process oracle; a cold link never hedges;
//! * consecutive failures open a per-link breaker that fails the shard
//!   instantly (no connect attempts) until a half-open ping probe heals
//!   it;
//! * a failed half-open probe re-opens the breaker;
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
use std::sync::Arc;
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
fn breaker_opens_after_consecutive_failures_and_heals_via_probe() {
    let index = corpus();
    let sharded = ShardedIndex::build(index.clone(), 1);
    let sock = socket("breaker");
    let config = FleetConfig {
        backoff_base: Duration::from_millis(1),
        backoff_max: Duration::from_millis(2),
        breaker_threshold: 2,
        breaker_cooldown: Duration::from_millis(150),
        ..FleetConfig::default()
    };
    // Nothing listens yet: every query is a failed connect.
    let router = FleetRouter::new(index.clone(), vec![sock.clone()], config);
    for _ in 0..2 {
        assert!(!complete(&router));
        // Let the (jittered, ≤ 2 ms) backoff window pass so the next
        // query really attempts a connect.
        std::thread::sleep(Duration::from_millis(5));
    }
    let m = router.metrics();
    assert_eq!(m.shard_failures, 2);
    assert_eq!(
        m.breaker_trips, 1,
        "two consecutive failures trip the breaker"
    );

    // Open: queries fail instantly without touching the socket.
    let t = Instant::now();
    assert!(!complete(&router));
    assert!(
        t.elapsed() < Duration::from_millis(50),
        "open breaker fails fast"
    );
    let m = router.metrics();
    assert_eq!(m.breaker_fast_fails, 1);
    assert_eq!(m.shard_failures, 2, "fast-fails are not new shard failures");

    // A real worker comes up; after the cooldown the half-open probe
    // heals the link and the page is bit-identical to the oracle.
    spawn_real_worker(&sock, &sharded, 0);
    std::thread::sleep(config.breaker_cooldown + Duration::from_millis(20));
    let healed = router.retrieve_with_status_within("apple pie", 5, None);
    assert!(healed.complete, "half-open probe heals the breaker");
    assert_bit_identical(
        "healed page",
        &healed.hits,
        &oracle(&sharded, &index, "apple pie", 5),
    );
    assert_eq!(
        router.metrics().breaker_trips,
        1,
        "no re-trip after healing"
    );

    // Closed again: the next query flows normally.
    assert!(complete(&router));
}

#[test]
fn failed_half_open_probe_reopens_the_breaker() {
    let index = corpus();
    let config = FleetConfig {
        backoff_base: Duration::from_millis(1),
        breaker_threshold: 1,
        breaker_cooldown: Duration::from_millis(60),
        ..FleetConfig::default()
    };
    let router = FleetRouter::new(index, vec![socket("reopen")], config);
    assert!(!complete(&router));
    assert_eq!(router.metrics().breaker_trips, 1);

    // Past the cooldown, still nobody listening: the probe fails and the
    // breaker re-opens (a second trip), still without serving.
    std::thread::sleep(Duration::from_millis(80));
    assert!(!complete(&router));
    let m = router.metrics();
    assert_eq!(m.breaker_trips, 2, "failed probe re-opens");

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
        shard_timeout: Duration::from_millis(300),
        breaker_threshold: 1,
        ..FleetConfig::default()
    };
    let router = FleetRouter::new(index.clone(), vec![sock], config);
    let terms = index.analyze_query("apple pie");

    // 5 ms of budget against a 300 ms shard deadline: the exchange times
    // out almost immediately — and blamelessly.
    let t = Instant::now();
    let r = router.retrieve_terms_within(&terms, 5, Some(5_000));
    let elapsed = t.elapsed();
    assert!(!r.complete);
    assert!(
        elapsed < Duration::from_millis(150),
        "budget clamps the wire deadline (took {elapsed:?})"
    );
    let m = router.metrics();
    assert_eq!(
        m.shard_failures, 0,
        "clamped timeout is not a shard failure"
    );
    assert_eq!(m.shard_timeouts, 0);
    assert_eq!(
        m.breaker_trips, 0,
        "clamped timeout must not trip the breaker"
    );

    // The same silent worker under the *full* deadline is a real shard
    // timeout, and (threshold 1) trips the breaker.
    assert!(!router.retrieve_terms_with_status(&terms, 5).complete);
    let m = router.metrics();
    assert_eq!(m.shard_timeouts, 1);
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
