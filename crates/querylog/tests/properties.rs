//! Randomized properties of the query-log substrate. Each test runs
//! `CASES` cases, case `seed` drawing its input from
//! `StdRng::seed_from_u64(seed)`; a failure names its seed, and rerunning
//! the test reproduces it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serpdiv_querylog::{
    split_sessions, FreqTable, LogRecord, QueryId, QueryLog, SessionSplitter, UserId,
};
use std::ops::Range;

const CASES: u64 = 256;

/// A log of `records` (arbitrary `u8` user, time in `times`) pairs; the
/// query text derives from the time.
fn random_log(rng: &mut StdRng, records: Range<usize>, times: Range<u32>) -> QueryLog {
    let mut log = QueryLog::new();
    for _ in 0..rng.gen_range(records) {
        let (u, t): (u8, u32) = (rng.gen(), rng.gen_range(times.clone()));
        let q = log.intern_query(&format!("q{}", t % 7));
        log.push(LogRecord {
            query: q,
            user: UserId(u32::from(u % 5)),
            time: u64::from(t),
            results: Vec::new(),
            clicks: Vec::new(),
        });
    }
    log
}

/// Session splitting is a partition: every record in exactly one
/// session, sessions time-ordered within, single-user.
#[test]
fn session_split_is_a_partition() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let log = random_log(&mut rng, 0..120, 0..100_000);
        let sessions = split_sessions(&log);
        let mut seen: Vec<usize> = sessions.iter().flat_map(|s| s.records.clone()).collect();
        seen.sort_unstable();
        let expected: Vec<usize> = (0..log.len()).collect();
        assert_eq!(seen, expected, "seed {seed}");
        for s in &sessions {
            assert!(!s.is_empty(), "seed {seed}: empty session");
            for w in s.records.windows(2) {
                let (a, b) = (&log.records()[w[0]], &log.records()[w[1]]);
                assert!(a.time <= b.time, "seed {seed}: out of time order");
                assert_eq!(a.user, s.user, "seed {seed}: mixed users");
            }
        }
    }
}

/// Within a session, consecutive gaps never exceed the timeout.
#[test]
fn session_gaps_respect_timeout() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let log = random_log(&mut rng, 1..80, 0..50_000);
        let timeout = rng.gen_range(1..5_000);
        let sessions = SessionSplitter { timeout }.split(&log);
        for s in &sessions {
            for w in s.records.windows(2) {
                let gap = log.records()[w[1]].time - log.records()[w[0]].time;
                assert!(gap <= timeout, "seed {seed}: gap {gap} > timeout {timeout}");
            }
        }
    }
}

/// Train/test split preserves record count and order for any fraction.
#[test]
fn train_test_split_partitions() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut log = random_log(&mut rng, 0..60, 0..10_000);
        let fraction = rng.gen_range(0.0..1.0);
        log.sort_by_time();
        let (train, test) = log.split_train_test(fraction);
        assert_eq!(train.len() + test.len(), log.len(), "seed {seed}");
        // Concatenation reproduces the original record times.
        let combined: Vec<u64> = train
            .records()
            .iter()
            .chain(test.records())
            .map(|r| r.time)
            .collect();
        let original: Vec<u64> = log.records().iter().map(|r| r.time).collect();
        assert_eq!(combined, original, "seed {seed}");
    }
}

/// Frequency table totals match the record count.
#[test]
fn freq_table_total() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let log = random_log(&mut rng, 0..60, 0..10_000);
        let f = FreqTable::build(&log);
        assert_eq!(f.total(), log.len() as u64, "seed {seed}");
        let sum: u64 = (0..log.num_queries() as u32)
            .map(|i| f.freq(QueryId(i)))
            .sum();
        assert_eq!(sum, log.len() as u64, "seed {seed}");
    }
}
