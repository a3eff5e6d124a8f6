//! The sharded SERP result cache.
//!
//! Query streams are heavily skewed (Zipfian), so a result cache in front
//! of the diversification pipeline absorbs most of the load — the paper's
//! §4.1 observation that specialization results "are few, popular, and
//! change slowly" applies to whole diversified SERPs as well. The cache is
//! sharded by key hash so concurrent workers rarely contend on the same
//! lock, and each shard evicts LRU.
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
use std::borrow::Borrow;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Cache key: the full identity of a served SERP — `(page epoch, query,
/// k, algorithm)`. The epoch is the content stamp of everything the page
/// was computed from (see [`crate::generation`]), so a hot swap that
/// changes any of it can never serve the previous page: entries under a
/// stamp no live generation carries simply stop matching and age out of
/// the LRU under new traffic — no global flush, no stall.
pub type CacheKey = (u64, String, usize, AlgorithmKind);

/// A borrowed view of a [`CacheKey`], so lookups can probe the map with
/// request-owned parts (`&str` query) instead of allocating an owned
/// `String` per probe. The owned key is built only on insert.
///
/// `Hash` must visit exactly the fields the owned tuple's derived `Hash`
/// visits, in the same order — that is what makes
/// `HashMap<CacheKey, _>::get::<dyn KeyView>` sound.
trait KeyView {
    fn epoch(&self) -> u64;
    fn query(&self) -> &str;
    fn page_size(&self) -> usize;
    fn algorithm(&self) -> AlgorithmKind;
}

impl KeyView for CacheKey {
    fn epoch(&self) -> u64 {
        self.0
    }
    fn query(&self) -> &str {
        &self.1
    }
    fn page_size(&self) -> usize {
        self.2
    }
    fn algorithm(&self) -> AlgorithmKind {
        self.3
    }
}

/// The borrowed probe: one request's key parts by reference.
struct KeyParts<'a> {
    epoch: u64,
    query: &'a str,
    k: usize,
    algorithm: AlgorithmKind,
}

impl KeyView for KeyParts<'_> {
    fn epoch(&self) -> u64 {
        self.epoch
    }
    fn query(&self) -> &str {
        self.query
    }
    fn page_size(&self) -> usize {
        self.k
    }
    fn algorithm(&self) -> AlgorithmKind {
        self.algorithm
    }
}

impl Hash for dyn KeyView + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Mirrors the derived tuple Hash: String delegates to str.
        self.epoch().hash(state);
        self.query().hash(state);
        self.page_size().hash(state);
        self.algorithm().hash(state);
    }
}

impl PartialEq for dyn KeyView + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.epoch() == other.epoch()
            && self.query() == other.query()
            && self.page_size() == other.page_size()
            && self.algorithm() == other.algorithm()
    }
}

impl Eq for dyn KeyView + '_ {}

impl<'a> Borrow<dyn KeyView + 'a> for CacheKey {
    fn borrow(&self) -> &(dyn KeyView + 'a) {
        self
    }
}

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
#[derive(Debug)]
pub struct ShardedResultCache {
    shards: Vec<Mutex<LruCache<CacheKey, CachedSerp>>>,
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
        assert!(shards > 0, "need at least one shard");
        assert!(capacity > 0, "need nonzero capacity");
        let per_shard = capacity.div_ceil(shards);
        ShardedResultCache {
            shards: (0..shards)
                .map(|_| Mutex::new(LruCache::new(per_shard)))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Shard `i`, locked; a panicked holder does not poison it.
    fn lock(&self, i: usize) -> MutexGuard<'_, LruCache<CacheKey, CachedSerp>> {
        self.shards[i]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn shard(&self, key: &(dyn KeyView + '_)) -> MutexGuard<'_, LruCache<CacheKey, CachedSerp>> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        self.lock((h.finish() as usize) % self.shards.len())
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
        let probe = KeyParts {
            epoch,
            query,
            k,
            algorithm,
        };
        let found = self.shard(&probe).get_by(&probe as &dyn KeyView).cloned();
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
    /// allocated).
    pub fn insert(&self, key: CacheKey, serp: CachedSerp) {
        self.shard(&key as &dyn KeyView).insert(key, serp);
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

    #[test]
    fn miss_then_hit() {
        let cache = ShardedResultCache::new(4, 64);
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
    fn algorithm_is_part_of_the_key() {
        let cache = ShardedResultCache::new(2, 16);
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
        let cache = ShardedResultCache::new(2, 16);
        cache.insert(key("q"), serp(2));
        assert!(cache.get(2, "q", 10, AlgorithmKind::OptSelect).is_none());
        assert!(cache.get(1, "q", 10, AlgorithmKind::OptSelect).is_some());
    }

    #[test]
    fn borrowed_probe_hashes_like_the_owned_key() {
        // The dyn-KeyView Hash must mirror the derived tuple Hash bit for
        // bit, or shard selection and map lookups silently diverge.
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        for (g, q, k, a) in [
            (1, "apple", 10, AlgorithmKind::OptSelect),
            (0, "", 0, AlgorithmKind::Baseline),
            (u64::MAX, "longer query with spaces", 77, AlgorithmKind::Mmr),
        ] {
            let owned: CacheKey = (g, q.to_string(), k, a);
            let mut h1 = DefaultHasher::new();
            owned.hash(&mut h1);
            let mut h2 = DefaultHasher::new();
            let parts = KeyParts {
                epoch: g,
                query: q,
                k,
                algorithm: a,
            };
            (&parts as &dyn KeyView).hash(&mut h2);
            assert_eq!(h1.finish(), h2.finish(), "{q:?}");
            let mut h3 = DefaultHasher::new();
            Borrow::<dyn KeyView>::borrow(&owned).hash(&mut h3);
            assert_eq!(h1.finish(), h3.finish(), "{q:?} owned view");
        }
    }

    #[test]
    fn capacity_bounds_occupancy() {
        let cache = ShardedResultCache::new(4, 8); // 2 per shard
        for i in 0..100 {
            cache.insert(key(&format!("q{i}")), serp(1));
        }
        assert!(cache.stats().entries <= 8);
        // Rounded up, never down: 12 entries over 8 shards gives each
        // shard 2, for a real bound of 16 ≥ 12.
        let uneven = ShardedResultCache::new(8, 12);
        for i in 0..100 {
            uneven.insert(key(&format!("q{i}")), serp(1));
        }
        let entries = uneven.stats().entries;
        assert!(entries > 8 && entries <= 16, "got {entries}");
    }

    #[test]
    fn concurrent_access() {
        let cache = Arc::new(ShardedResultCache::new(8, 128));
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
        let cache = ShardedResultCache::new(2, 8);
        cache.insert(key("a"), serp(1));
        cache.get(1, "a", 10, AlgorithmKind::OptSelect);
        cache.clear();
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 0, 0));
    }
}
