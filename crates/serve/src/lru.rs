//! An intrusive-list LRU map — the eviction policy of each result-cache
//! shard and of the surrogate-table cache.
//!
//! `O(1)` get/insert/evict: a `HashMap` from key to slot index plus a
//! doubly-linked recency list threaded through a slab of slots. No
//! per-operation allocation after the slab reaches capacity (evicted slots
//! are reused in place). The map's hasher is a type parameter: the result
//! cache keys its shards by a fingerprint it already hashed, and passes it
//! through unchanged.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Slot<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// A fixed-capacity least-recently-used map.
#[derive(Debug)]
pub struct LruCache<K, V, S = RandomState> {
    map: HashMap<K, usize, S>,
    slots: Vec<Slot<K, V>>,
    head: usize,
    tail: usize,
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// An empty cache holding at most `capacity` entries.
    ///
    /// # Panics
    /// Panics when `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        Self::with_hasher(capacity, RandomState::new())
    }
}

impl<K: Eq + Hash + Clone, V, S: BuildHasher> LruCache<K, V, S> {
    /// [`new`](LruCache::new) with the map hashing keys through `hasher`.
    ///
    /// # Panics
    /// Panics when `capacity == 0`.
    pub(crate) fn with_hasher(capacity: usize, hasher: S) -> Self {
        assert!(capacity > 0, "LRU capacity must be positive");
        LruCache {
            map: HashMap::with_capacity_and_hasher(capacity + 1, hasher),
            slots: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Maximum entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Look up `key`, marking it most recently used on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let idx = *self.map.get(key)?;
        self.move_to_front(idx);
        Some(&self.slots[idx].value)
    }

    /// Insert (or replace) `key → value`; evicts the least recently used
    /// entry when full.
    pub fn insert(&mut self, key: K, value: V) {
        if let Some(&idx) = self.map.get(&key) {
            self.slots[idx].value = value;
            self.move_to_front(idx);
            return;
        }
        if self.map.len() == self.capacity {
            // Reuse the LRU slot in place.
            let idx = self.tail;
            self.detach(idx);
            let slot = &mut self.slots[idx];
            self.map.remove(&slot.key);
            slot.key = key.clone();
            slot.value = value;
            self.map.insert(key, idx);
            self.attach_front(idx);
        } else {
            let idx = self.slots.len();
            self.slots.push(Slot {
                key: key.clone(),
                value,
                prev: NIL,
                next: NIL,
            });
            self.map.insert(key, idx);
            self.attach_front(idx);
        }
    }

    /// Remove `key`, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let idx = *self.map.get(key)?;
        Some(self.remove_slot(idx).1)
    }

    /// Remove and return the least recently used entry — lets an owner
    /// that weighs its values (the surrogate cache counts vectors, not
    /// tables) evict down to its own budget.
    pub fn pop_lru(&mut self) -> Option<(K, V)> {
        (self.tail != NIL).then(|| self.remove_slot(self.tail))
    }

    /// Unlink slot `idx` and drop it from the slab. `swap_remove` moves
    /// the last slot into the hole, so that slot's neighbours and map
    /// entry are re-pointed at its new index.
    fn remove_slot(&mut self, idx: usize) -> (K, V) {
        self.detach(idx);
        let slot = self.slots.swap_remove(idx);
        self.map.remove(&slot.key);
        if let Some(moved) = self.slots.get(idx) {
            let (prev, next) = (moved.prev, moved.next);
            *self
                .map
                .get_mut(&moved.key)
                .expect("every slot is indexed by the map") = idx;
            match prev {
                NIL => self.head = idx,
                p => self.slots[p].next = idx,
            }
            match next {
                NIL => self.tail = idx,
                n => self.slots[n].prev = idx,
            }
        }
        (slot.key, slot.value)
    }

    /// Drop every entry (keeps the allocation).
    pub fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = (self.slots[idx].prev, self.slots[idx].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn attach_front(&mut self, idx: usize) {
        self.slots[idx].prev = NIL;
        self.slots[idx].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn move_to_front(&mut self, idx: usize) {
        if self.head == idx {
            return;
        }
        self.detach(idx);
        self.attach_front(idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_and_miss() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        assert_eq!(c.get(&"a"), Some(&1));
        assert_eq!(c.get(&"b"), None);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        c.get(&"a"); // a is now MRU; b is LRU
        c.insert("c", 3); // evicts b
        assert_eq!(c.get(&"b"), None);
        assert_eq!(c.get(&"a"), Some(&1));
        assert_eq!(c.get(&"c"), Some(&3));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn reinsert_updates_value_and_recency() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        c.insert("a", 10); // refresh a
        c.insert("c", 3); // evicts b, not a
        assert_eq!(c.get(&"a"), Some(&10));
        assert_eq!(c.get(&"b"), None);
    }

    #[test]
    fn capacity_one() {
        let mut c = LruCache::new(1);
        c.insert(1, "x");
        c.insert(2, "y");
        assert_eq!(c.get(&1), None);
        assert_eq!(c.get(&2), Some(&"y"));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn clear_empties() {
        let mut c = LruCache::new(4);
        for i in 0..4 {
            c.insert(i, i);
        }
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.get(&0), None);
        c.insert(9, 9);
        assert_eq!(c.get(&9), Some(&9));
    }

    #[test]
    fn stress_against_reference_model() {
        // Compare with a naive Vec-based LRU over a pseudo-random workload.
        let cap = 8;
        let mut lru = LruCache::new(cap);
        let mut reference: Vec<(u64, u64)> = Vec::new(); // MRU first
        let mut state = 0x1234_5678_u64;
        for _ in 0..10_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (state >> 33) % 24;
            let op_insert = state & 1 == 0;
            if state & 0b1110 == 0 {
                // One op in eight removes: by key, or the LRU entry.
                if state & 0b1_0000 == 0 {
                    let pos = reference.iter().position(|&(k, _)| k == key);
                    assert_eq!(lru.remove(&key), pos.map(|p| reference.remove(p).1));
                } else {
                    assert_eq!(lru.pop_lru(), reference.pop());
                }
            } else if op_insert {
                lru.insert(key, key * 7);
                if let Some(pos) = reference.iter().position(|&(k, _)| k == key) {
                    reference.remove(pos);
                }
                reference.insert(0, (key, key * 7));
                reference.truncate(cap);
            } else {
                let got = lru.get(&key).copied();
                let pos = reference.iter().position(|&(k, _)| k == key);
                assert_eq!(got, pos.map(|p| reference[p].1), "key {key}");
                if let Some(p) = pos {
                    let e = reference.remove(p);
                    reference.insert(0, e);
                }
            }
            assert_eq!(lru.len(), reference.len());
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = LruCache::<u8, u8>::new(0);
    }
}
