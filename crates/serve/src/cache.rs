//! The sharded SERP result cache.
//!
//! Query streams are heavily skewed (Zipfian), so a result cache in front
//! of the diversification pipeline absorbs most of the load — the paper's
//! §4.1 observation that specialization results "are few, popular, and
//! change slowly" applies to whole diversified SERPs as well. The cache is
//! sharded so concurrent workers rarely contend on the same lock, and
//! each shard evicts LRU.
//!
//! A probe hashes its key once, with the cache's own randomly keyed
//! hasher, into a 64-bit fingerprint: its high half picks the shard (bits
//! the shard's table does not index by), and the shard's map uses it as
//! its hash. The slot holds the one owned key, which a hit compares in
//! full, so a collision can cost a miss but never serve another key's
//! page. Under a fixed-key hash a client could pick its shard and lock.
//!
//! Keys name what a page was computed *from*, not when: their first part
//! is the serving generation's page stamp (see [`crate::generation`]),
//! which a successor inherits exactly when it shares every artifact a
//! page reads. A republish therefore keeps every page reachable with no
//! per-entry work, and any publish that could change a byte of a page
//! draws a fresh stamp, after which the old entries are never probed
//! again and leave each shard LRU-first.

use crate::lru::LruCache;
use crate::request::RankedResult;
use serpdiv_core::AlgorithmKind;
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Cache key: the full identity of a served SERP — `(page epoch, query,
/// k, algorithm)`. The epoch is the content stamp of everything the page
/// was computed from (see [`crate::generation`]), so a hot swap that
/// changes any of it can never serve the previous page: entries under a
/// stamp no live generation carries simply stop matching and age out of
/// the LRU under new traffic — no global flush, no stall.
pub type CacheKey = (u64, String, usize, AlgorithmKind);

/// The shard map's hasher: its keys are fingerprints, already hashed
/// under the cache's random key, so it hands each one back unchanged.
#[derive(Debug, Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn write(&mut self, _: &[u8]) {
        unreachable!("a shard map hashes only u64 fingerprints")
    }

    fn write_u64(&mut self, fingerprint: u64) {
        self.0 = fingerprint;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One shard: fingerprint → the page and the key it was stored under.
type Shard = LruCache<u64, (CacheKey, CachedSerp), BuildHasherDefault<PassThrough>>;

/// The cached portion of a response.
#[derive(Debug, Clone)]
pub struct CachedSerp {
    /// Ranked results (shared, so a hit clones an `Arc`, not the page).
    pub results: Arc<Vec<RankedResult>>,
    /// Whether diversification ran when the page was computed.
    pub diversified: bool,
    /// Algorithm name recorded at compute time.
    pub algorithm: &'static str,
}

/// Cache observability counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the pipeline.
    pub misses: u64,
    /// Entries currently resident (across all shards).
    pub entries: usize,
}

impl CacheStats {
    /// `hits / (hits + misses)`; 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Sharded LRU cache of `(page epoch, query, k, algorithm) → SERP`.
///
/// `S` hashes a key into its fingerprint; [`new`](ShardedResultCache::new)
/// gives every cache a freshly keyed [`RandomState`].
#[derive(Debug)]
pub struct ShardedResultCache<S = RandomState> {
    shards: Vec<Mutex<Shard>>,
    hasher: S,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ShardedResultCache {
    /// A cache of `shards` independent LRU shards holding at least
    /// `capacity` entries in total (the per-shard capacity is rounded up,
    /// so the real bound is `capacity.div_ceil(shards) · shards`).
    ///
    /// # Panics
    /// Panics when `shards == 0` or `capacity == 0`.
    pub fn new(shards: usize, capacity: usize) -> Self {
        Self::with_hasher(shards, capacity, RandomState::new())
    }
}

impl<S: BuildHasher> ShardedResultCache<S> {
    /// [`new`](ShardedResultCache::new) with `hasher` making the
    /// fingerprints (the tests' fixed-key, counting or colliding one).
    fn with_hasher(shards: usize, capacity: usize, hasher: S) -> Self {
        assert!(shards > 0, "need at least one shard");
        assert!(capacity > 0, "need nonzero capacity");
        let per_shard = capacity.div_ceil(shards);
        ShardedResultCache {
            shards: (0..shards)
                .map(|_| Mutex::new(LruCache::with_hasher(per_shard, Default::default())))
                .collect(),
            hasher,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Shard `i`, locked; a panicked holder does not poison it.
    fn lock(&self, i: usize) -> MutexGuard<'_, Shard> {
        self.shards[i]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The shard a fingerprint lives in, by its high half.
    fn shard(&self, fingerprint: u64) -> MutexGuard<'_, Shard> {
        self.lock((fingerprint >> 32) as usize % self.shards.len())
    }

    /// The one hash of a probe or an insert.
    fn fingerprint(&self, epoch: u64, query: &str, k: usize, algorithm: AlgorithmKind) -> u64 {
        self.hasher.hash_one((epoch, query, k, algorithm))
    }

    /// Look up a SERP by its identity parts, counting the outcome. The
    /// probe borrows the query — no allocation on either hit or miss.
    /// Entries written under a different epoch never match.
    pub fn get(
        &self,
        epoch: u64,
        query: &str,
        k: usize,
        algorithm: AlgorithmKind,
    ) -> Option<CachedSerp> {
        let fingerprint = self.fingerprint(epoch, query, k, algorithm);
        let found = self
            .shard(fingerprint)
            .get(&fingerprint)
            .filter(|(key, _)| {
                (key.0, key.1.as_str(), key.2, key.3) == (epoch, query, k, algorithm)
            })
            .map(|(_, serp)| serp.clone());
        match found {
            Some(serp) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(serp)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Store a freshly computed SERP (the one place an owned key is
    /// allocated), replacing any entry under the same fingerprint.
    pub fn insert(&self, key: CacheKey, serp: CachedSerp) {
        let fingerprint = self.fingerprint(key.0, &key.1, key.2, key.3);
        self.shard(fingerprint).insert(fingerprint, (key, serp));
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: (0..self.shards.len()).map(|i| self.lock(i).len()).sum(),
        }
    }

    /// Drop every cached SERP and reset the counters.
    pub fn clear(&self) {
        for i in 0..self.shards.len() {
            self.lock(i).clear();
        }
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serpdiv_index::DocId;
    use std::collections::hash_map::DefaultHasher;

    /// A fixed-key hasher, so shard placement is the same every run.
    type Fixed = BuildHasherDefault<DefaultHasher>;

    fn cache(shards: usize, capacity: usize) -> ShardedResultCache<Fixed> {
        ShardedResultCache::with_hasher(shards, capacity, Fixed::default())
    }

    fn serp(n: usize) -> CachedSerp {
        CachedSerp {
            results: Arc::new(
                (0..n)
                    .map(|i| RankedResult {
                        doc: DocId(i as u32),
                        score: 1.0 / (i + 1) as f64,
                        url: format!("http://x/{i}").into(),
                        title: format!("doc {i}").into(),
                    })
                    .collect(),
            ),
            diversified: true,
            algorithm: "OptSelect",
        }
    }

    fn key(q: &str) -> CacheKey {
        (1, q.to_string(), 10, AlgorithmKind::OptSelect)
    }

    /// Counts the hashes finished through it.
    #[derive(Debug, Default)]
    struct Counting(Arc<AtomicU64>);

    struct CountingHasher(DefaultHasher, Arc<AtomicU64>);

    impl Hasher for CountingHasher {
        fn write(&mut self, bytes: &[u8]) {
            self.0.write(bytes);
        }

        fn finish(&self) -> u64 {
            self.1.fetch_add(1, Ordering::Relaxed);
            self.0.finish()
        }
    }

    impl BuildHasher for Counting {
        type Hasher = CountingHasher;

        fn build_hasher(&self) -> CountingHasher {
            CountingHasher(DefaultHasher::new(), self.0.clone())
        }
    }

    /// Hashes every key to the same fingerprint.
    #[derive(Debug, Default)]
    struct Collide;

    impl Hasher for Collide {
        fn write(&mut self, _: &[u8]) {}

        fn finish(&self) -> u64 {
            0x5eed_0000_0000_0001
        }
    }

    #[test]
    fn miss_then_hit() {
        let cache = cache(4, 64);
        assert!(cache
            .get(1, "apple", 10, AlgorithmKind::OptSelect)
            .is_none());
        cache.insert(key("apple"), serp(3));
        let hit = cache
            .get(1, "apple", 10, AlgorithmKind::OptSelect)
            .expect("hit");
        assert_eq!(hit.results.len(), 3);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn each_probe_and_insert_hashes_once() {
        let hashes = Arc::new(AtomicU64::new(0));
        let cache = ShardedResultCache::with_hasher(4, 64, Counting(hashes.clone()));
        let count = || hashes.load(Ordering::Relaxed);
        assert!(cache
            .get(1, "apple", 10, AlgorithmKind::OptSelect)
            .is_none());
        assert_eq!(count(), 1, "a miss");
        cache.insert(key("apple"), serp(3));
        assert_eq!(count(), 2, "an insert");
        assert!(cache
            .get(1, "apple", 10, AlgorithmKind::OptSelect)
            .is_some());
        assert_eq!(count(), 3, "a hit");
        cache.insert(key("apple"), serp(2));
        assert_eq!(count(), 4, "a replacing insert");
        cache.stats();
        cache.clear();
        assert_eq!(count(), 4, "stats and clear hash nothing");
    }

    #[test]
    fn a_colliding_probe_misses_and_a_colliding_insert_replaces() {
        // Every key has one fingerprint: the slot's owned key is what
        // tells the pages apart.
        let cache =
            ShardedResultCache::with_hasher(4, 64, BuildHasherDefault::<Collide>::default());
        cache.insert(key("apple"), serp(3));
        assert!(cache.get(1, "pear", 10, AlgorithmKind::OptSelect).is_none());
        assert!(cache
            .get(2, "apple", 10, AlgorithmKind::OptSelect)
            .is_none());
        assert!(cache.get(1, "apple", 5, AlgorithmKind::OptSelect).is_none());
        assert!(cache.get(1, "apple", 10, AlgorithmKind::Mmr).is_none());
        assert_eq!(
            cache
                .get(1, "apple", 10, AlgorithmKind::OptSelect)
                .expect("its own key hits")
                .results
                .len(),
            3
        );
        cache.insert(key("pear"), serp(2));
        assert!(cache
            .get(1, "apple", 10, AlgorithmKind::OptSelect)
            .is_none());
        let pear = cache
            .get(1, "pear", 10, AlgorithmKind::OptSelect)
            .expect("the later insert");
        assert_eq!(pear.results.len(), 2);
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn algorithm_is_part_of_the_key() {
        let cache = cache(2, 16);
        cache.insert(key("q"), serp(2));
        assert!(cache.get(1, "q", 10, AlgorithmKind::Mmr).is_none());
        assert!(cache.get(1, "q", 5, AlgorithmKind::OptSelect).is_none());
        assert!(cache.get(1, "q", 10, AlgorithmKind::OptSelect).is_some());
    }

    #[test]
    fn epoch_is_part_of_the_key() {
        // The hot-swap invariant: a page cached under epoch 1 is invisible
        // to epoch-2 probes (and vice versa) — a swap that draws a fresh
        // page stamp can never serve the previous page.
        let cache = cache(2, 16);
        cache.insert(key("q"), serp(2));
        assert!(cache.get(2, "q", 10, AlgorithmKind::OptSelect).is_none());
        assert!(cache.get(1, "q", 10, AlgorithmKind::OptSelect).is_some());
    }

    #[test]
    fn capacity_bounds_occupancy() {
        let small = cache(4, 8); // 2 per shard
        for i in 0..100 {
            small.insert(key(&format!("q{i}")), serp(1));
        }
        assert!(small.stats().entries <= 8);
        // Rounded up, never down: 12 entries over 8 shards gives each
        // shard 2, for a real bound of 16 ≥ 12.
        let uneven = cache(8, 12);
        for i in 0..100 {
            uneven.insert(key(&format!("q{i}")), serp(1));
        }
        let entries = uneven.stats().entries;
        assert!(entries > 8 && entries <= 16, "got {entries}");
    }

    #[test]
    fn concurrent_access() {
        let cache = Arc::new(cache(8, 128));
        std::thread::scope(|s| {
            for t in 0..8 {
                let cache = cache.clone();
                s.spawn(move || {
                    for i in 0..200 {
                        let k = key(&format!("q{}", (t * 7 + i) % 32));
                        if cache.get(k.0, &k.1, k.2, k.3).is_none() {
                            cache.insert(k, serp(2));
                        }
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 8 * 200);
        assert!(stats.hits > 0);
    }

    #[test]
    fn clear_resets() {
        let cache = cache(2, 8);
        cache.insert(key("a"), serp(1));
        cache.get(1, "a", 10, AlgorithmKind::OptSelect);
        cache.clear();
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 0, 0));
    }
}
