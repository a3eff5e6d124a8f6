//! The candidate-surrogate cache: one table per analyzed query.
//!
//! Building a candidate's snippet surrogate (snippet extraction +
//! tokenize/stem + TF-IDF weighting) is the per-document cost of the
//! utility stage, and it is fully determined by `(document, query terms)`.
//! The query terms are part of that identity, so a cached vector is only
//! ever reused by a request with the *same* analyzed query — reuse runs
//! along the query axis. The cache is therefore keyed by query, not by
//! document: `(surrogate epoch, query terms)` maps to an immutable
//! [`SurrogateTable`] holding the vectors of that query's candidates. A
//! request pays one hash, one lock and one `Arc` clone for the whole
//! table, then resolves its candidates in that private copy with no
//! shared state touched; only a request that had to compute something
//! publishes a replacement table (copy-on-write — readers of the old
//! table are never disturbed).
//!
//! A table keeps its publisher's sealed candidates in the publisher's
//! rank order, so resolving a candidate is one probe of the slot at its
//! own sealed rank: the next request for the query almost always ranks
//! the same list, and then every probe hits in `O(1)`. A list ranked
//! otherwise — re-ranked after an ingest moved the union statistics, a
//! shorter prefix, a foreign document shifting the ranks after it — finds
//! a candidate whose slot holds another document through the table's
//! `DocId`-sorted index instead, by binary search, with the same result.
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

/// One query's surrogates: the sealed candidates of the request that
/// published it, in that request's rank order, and their positions sorted
/// by `DocId` (4 bytes an entry beside the 16 of the ranked list).
/// Immutable once published: extending it means publishing a new table.
#[derive(Debug)]
pub struct SurrogateTable {
    ranked: Box<[(DocId, Arc<SparseVector>)]>,
    by_doc: Box<[u32]>,
}

impl SurrogateTable {
    /// A table over `ranked`: a request's sealed candidates with their
    /// vectors, in the request's rank order.
    pub fn new(ranked: Vec<(DocId, Arc<SparseVector>)>) -> Self {
        let len = u32::try_from(ranked.len()).expect("fewer than 2^32 vectors");
        let mut by_doc: Vec<u32> = (0..len).collect();
        by_doc.sort_unstable_by_key(|&at| ranked[at as usize].0);
        SurrogateTable {
            ranked: ranked.into(),
            by_doc: by_doc.into(),
        }
    }

    /// Number of vectors held.
    pub fn len(&self) -> usize {
        self.ranked.len()
    }

    /// True when no vector is held.
    pub fn is_empty(&self) -> bool {
        self.ranked.is_empty()
    }

    /// The vector held for `doc`, the candidate at sealed rank `rank` of
    /// the caller's list: the slot at `rank` when the publisher ranked
    /// `doc` there too, a binary search of the index otherwise.
    pub fn get(&self, rank: usize, doc: DocId) -> Option<&Arc<SparseVector>> {
        match self.ranked.get(rank) {
            Some((at, vector)) if *at == doc => Some(vector),
            _ => {
                let found = self
                    .by_doc
                    .binary_search_by_key(&doc, |&at| self.ranked[at as usize].0);
                Some(&self.ranked[self.by_doc[found.ok()?] as usize].1)
            }
        }
    }
}

#[derive(Debug)]
struct Tables {
    lru: LruCache<TableKey, Arc<SurrogateTable>>,
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
    pub fn get(&self, key: &TableKey) -> Option<Arc<SurrogateTable>> {
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
        tables.lru.insert(key, Arc::new(table));
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

    /// `docs` in the given order, each with a vector encoding its id.
    fn ranked(docs: impl IntoIterator<Item = u32>) -> Vec<(DocId, Arc<SparseVector>)> {
        docs.into_iter()
            .map(|d| {
                let v = SparseVector::from_pairs([(TermId(1), d as f32 + 1.0)]);
                (DocId(d), Arc::new(v))
            })
            .collect()
    }

    /// A table over `docs`, ranked in increasing id order.
    fn table(docs: std::ops::Range<u32>) -> SurrogateTable {
        SurrogateTable::new(ranked(docs))
    }

    #[test]
    fn published_table_is_shared_and_searchable() {
        let cache = SurrogateCache::new(64);
        assert!(cache.get(&key(1, &[1, 2])).is_none());
        cache.publish(key(1, &[1, 2]), table(0..10));
        let a = cache.get(&key(1, &[1, 2])).unwrap();
        let b = cache.get(&key(1, &[1, 2])).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "a hit shares the table");
        assert_eq!(a.get(7, DocId(7)).unwrap().entries()[0].1, 8.0);
        assert_eq!(a.get(0, DocId(7)).unwrap().entries()[0].1, 8.0);
        assert!(a.get(10, DocId(10)).is_none());
        assert_eq!(cache.stats().entries, 10);
    }

    /// Resolve a probe list the way the surrogate stage does — each
    /// sealed document at its sealed rank, documents at or past `sealed`
    /// skipped — and check every answer against a `DocId`-sorted lookup
    /// of the publisher's entries. Returns how many probes the slot at
    /// their rank answered.
    fn probe(
        table: &SurrogateTable,
        entries: &[(DocId, Arc<SparseVector>)],
        list: &[u32],
    ) -> usize {
        let sealed = 1_000;
        let mut sorted: Vec<&(DocId, Arc<SparseVector>)> = entries.iter().collect();
        sorted.sort_unstable_by_key(|entry| entry.0);
        let mut at_slot = 0;
        for (rank, &d) in list.iter().filter(|&&d| d < sealed).enumerate() {
            let want = sorted
                .binary_search_by_key(&DocId(d), |entry| entry.0)
                .ok()
                .map(|i| &sorted[i].1);
            let got = table.get(rank, DocId(d));
            assert_eq!(
                got.map(Arc::as_ptr),
                want.map(Arc::as_ptr),
                "doc {d} at rank {rank}"
            );
            at_slot += usize::from(table.ranked.get(rank).is_some_and(|e| e.0 == DocId(d)));
        }
        at_slot
    }

    #[test]
    fn every_probe_list_resolves_like_a_doc_sorted_lookup() {
        let order = [41, 7, 300, 12, 999, 0, 58, 203, 77, 5];
        let entries = ranked(order);
        let table = SurrogateTable::new(entries.clone());
        // The publisher's own list: every probe is its slot.
        assert_eq!(probe(&table, &entries, &order), order.len());
        // A permutation: the slots mostly hold other documents, and the
        // index answers.
        let mut permuted = order;
        permuted.reverse();
        assert_eq!(probe(&table, &entries, &permuted), 0);
        // A prefix, as a shallower request asks for.
        assert_eq!(probe(&table, &entries, &order[..4]), 4);
        // Delta documents interleaved: they take no sealed rank.
        let with_delta = [1_000, 41, 7, 1_001, 300, 12, 999, 1_002, 0, 58, 203, 77, 5];
        assert_eq!(probe(&table, &entries, &with_delta), order.len());
        // A foreign document shifts every rank after it.
        let foreign = [41, 7, 500, 300, 12, 999, 0];
        assert_eq!(probe(&table, &entries, &foreign), 2);
        // An empty table answers nothing.
        let empty = SurrogateTable::new(Vec::new());
        assert!(empty.is_empty());
        assert_eq!(probe(&empty, &[], &order), 0);
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
                                assert_eq!(found.get(3, DocId(3)).unwrap().entries()[0].1, 4.0)
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
