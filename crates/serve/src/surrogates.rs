//! The candidate-surrogate cache: one table per analyzed query.
//!
//! Building a candidate's snippet surrogate (snippet extraction +
//! tokenize/stem + TF-IDF weighting) is the per-document cost of the
//! utility stage, and it is fully determined by `(document, query terms)`.
//! The query terms are part of that identity, so a cached vector is only
//! ever reused by a request with the *same* analyzed query — reuse runs
//! along the query axis. The cache is therefore keyed by query, not by
//! document: `(surrogate epoch, query terms)` maps to an immutable, doc-sorted
//! [`SurrogateTable`] holding the vectors of that query's candidates. A
//! request pays one hash, one lock and one `Arc` clone for the whole
//! table, then resolves its candidates by binary search in its private
//! copy with no shared state touched; only a request that had to compute
//! something publishes a replacement table (copy-on-write — readers of
//! the old table are never disturbed).
//!
//! It still serves *uncached* SERPs, which is what makes it effective for
//! the traffic the result cache misses (another `k`, another algorithm,
//! another spelling that analyzes to the same terms).
//!
//! Values are `Arc<SparseVector>`: a hit is a refcount bump, and the
//! vector is shared zero-copy with the diversification input (and MMR).

use crate::cache::CacheStats;
use crate::lru::LruCache;
use serpdiv_index::{DocId, SparseVector};
use serpdiv_text::TermId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Table key: the surrogate epoch — the content stamp of the sealed index
/// and forward index the vectors were computed from (see
/// [`crate::generation`]) — and the analyzed query terms the snippets
/// were extracted for. A successor generation that shares both artifacts
/// (a republish, an NRT ingest) inherits the epoch and finds the table
/// with the same one probe; one that replaces them (a merge, a shipped
/// bundle — whose index may assign the same `DocId` different content)
/// draws a fresh epoch, so the old tables stop matching and age out of
/// the LRU — no flush stall. Hashing/equality go through the term
/// contents, so two query strings that analyze alike share one table.
pub type TableKey = (u64, Arc<[TermId]>);

/// One query's surrogates, sorted by `DocId` for binary search. Immutable
/// once published: extending it means publishing a new table.
pub type SurrogateTable = Arc<[(DocId, Arc<SparseVector>)]>;

/// The vector `table` holds for `doc`, if any.
pub(crate) fn lookup(table: &SurrogateTable, doc: DocId) -> Option<&Arc<SparseVector>> {
    let i = table.binary_search_by_key(&doc, |entry| entry.0).ok()?;
    Some(&table[i].1)
}

#[derive(Debug)]
struct Tables {
    lru: LruCache<TableKey, SurrogateTable>,
    /// Vectors held across all resident tables — what capacity bounds.
    vectors: usize,
}

/// LRU cache of `(surrogate epoch, query-terms) → surrogate table`, bounded by
/// the total number of vectors its tables hold.
#[derive(Debug)]
pub struct SurrogateCache {
    tables: Mutex<Tables>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl SurrogateCache {
    /// A cache holding at most `capacity` vectors, evicting whole tables
    /// least-recently-used first. One global budget rather than a split
    /// per shard: a table is as large as a request's candidate set, so a
    /// per-shard share would fit only a couple of deep tables.
    ///
    /// # Panics
    /// Panics when `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        SurrogateCache {
            // Every resident table holds at least one vector, so the
            // table count can never reach the LRU's own entry bound.
            tables: Mutex::new(Tables {
                lru: LruCache::new(capacity),
                vectors: 0,
            }),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Tables> {
        self.tables.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The table under `key`, marked most recently used.
    pub fn get(&self, key: &TableKey) -> Option<SurrogateTable> {
        self.lock().lru.get(key).cloned()
    }

    /// Install `table` under `key`, replacing what was there (racing
    /// publishers of one query hold equally valid tables; the last one
    /// wins) and evicting least-recently-used tables until the vector
    /// budget holds. A table larger than the whole budget is not
    /// retained — its request was served from the private copy already.
    pub fn publish(&self, key: TableKey, table: SurrogateTable) {
        let mut tables = self.lock();
        if let Some(replaced) = tables.lru.remove(&key) {
            tables.vectors -= replaced.len();
        }
        if table.is_empty() || table.len() > self.capacity {
            return;
        }
        while tables.vectors + table.len() > self.capacity {
            let (_, evicted) = tables
                .lru
                .pop_lru()
                .expect("vectors are held by resident tables");
            tables.vectors -= evicted.len();
        }
        tables.vectors += table.len();
        tables.lru.insert(key, table);
    }

    /// Count one request's candidates: `hits` served from a table,
    /// `misses` computed.
    pub fn record(&self, hits: u64, misses: u64) {
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses.fetch_add(misses, Ordering::Relaxed);
    }

    /// Current counters and occupancy, all per vector.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.lock().vectors,
        }
    }

    /// Drop every cached table and reset the counters.
    pub fn clear(&self) {
        let mut tables = self.lock();
        tables.lru.clear();
        tables.vectors = 0;
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(epoch: u64, terms: &[u32]) -> TableKey {
        (epoch, terms.iter().map(|&t| TermId(t)).collect())
    }

    /// A table over `docs` whose vectors encode their doc id.
    fn table(docs: std::ops::Range<u32>) -> SurrogateTable {
        docs.map(|d| {
            let v = SparseVector::from_pairs([(TermId(1), d as f32 + 1.0)]);
            (DocId(d), Arc::new(v))
        })
        .collect()
    }

    #[test]
    fn published_table_is_shared_and_searchable() {
        let cache = SurrogateCache::new(64);
        assert!(cache.get(&key(1, &[1, 2])).is_none());
        cache.publish(key(1, &[1, 2]), table(0..10));
        let a = cache.get(&key(1, &[1, 2])).unwrap();
        let b = cache.get(&key(1, &[1, 2])).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "a hit shares the table");
        assert_eq!(lookup(&a, DocId(7)).unwrap().entries()[0].1, 8.0);
        assert!(lookup(&a, DocId(10)).is_none());
        assert_eq!(cache.stats().entries, 10);
    }

    #[test]
    fn key_is_epoch_and_term_contents() {
        let cache = SurrogateCache::new(64);
        cache.publish(key(1, &[5]), table(0..3));
        // Different query terms → different snippets → another table.
        assert!(cache.get(&key(1, &[6])).is_none());
        // Same terms under a different epoch → miss: a swap that replaces
        // the sealed artifacts must never serve the previous vectors.
        assert!(cache.get(&key(2, &[5])).is_none());
        // Equal contents through a *different* allocation → hit.
        assert!(cache.get(&key(1, &[5])).is_some());
    }

    #[test]
    fn capacity_counts_vectors_and_evicts_whole_tables_lru_first() {
        let cache = SurrogateCache::new(10);
        cache.publish(key(1, &[1]), table(0..4));
        cache.publish(key(1, &[2]), table(0..4));
        cache.get(&key(1, &[1])); // [2] is now the LRU table
        cache.publish(key(1, &[3]), table(0..4));
        assert!(cache.get(&key(1, &[2])).is_none(), "LRU table evicted");
        assert!(cache.get(&key(1, &[1])).is_some());
        assert!(cache.get(&key(1, &[3])).is_some());
        assert_eq!(cache.stats().entries, 8);
        // Replacing a table re-weighs it instead of counting it twice.
        cache.publish(key(1, &[3]), table(0..6));
        assert_eq!(cache.stats().entries, 10);
        // A table over the whole budget is not retained — and does not
        // flush the resident ones to make room it can never fit in.
        cache.publish(key(1, &[9]), table(0..11));
        assert!(cache.get(&key(1, &[9])).is_none());
        assert_eq!(cache.stats().entries, 10);
        for q in 0..100 {
            cache.publish(key(1, &[100 + q]), table(0..3));
            assert!(cache.stats().entries <= 10);
        }
    }

    #[test]
    fn counters_and_clear() {
        let cache = SurrogateCache::new(16);
        cache.publish(key(1, &[1]), table(0..8));
        cache.record(8, 2);
        cache.record(3, 0);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (11, 2, 8));
        cache.clear();
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 0, 0));
        assert!(cache.get(&key(1, &[1])).is_none());
    }

    #[test]
    fn racing_publishers_keep_the_budget() {
        let cache = Arc::new(SurrogateCache::new(64));
        let barrier = Arc::new(std::sync::Barrier::new(8));
        std::thread::scope(|s| {
            for t in 0..8u32 {
                let (cache, barrier) = (cache.clone(), barrier.clone());
                s.spawn(move || {
                    barrier.wait();
                    for i in 0..200u32 {
                        let k = key(1, &[(t + i) % 12]);
                        match cache.get(&k) {
                            Some(found) => {
                                assert_eq!(lookup(&found, DocId(3)).unwrap().entries()[0].1, 4.0)
                            }
                            None => cache.publish(k, table(0..(4 + i % 9))),
                        }
                        assert!(cache.stats().entries <= 64);
                    }
                });
            }
        });
    }
}
