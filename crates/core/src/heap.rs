//! Bounded top-`m` heaps — the data structure behind Algorithm 2.
//!
//! §4: "we use a collection of |Sq| heaps each of those keeps the top
//! ⌊k · P(q′|q)⌋ + 1 most useful documents for that specialization ... all
//! the heap operations are carried out on data structures having a constant
//! size bounded by k", giving OptSelect its `O(n · log k)` cost.
//!
//! [`BoundedHeap`] keeps the `m` highest-scoring items seen so far using an
//! internal min-heap of size ≤ m: each `push` is `O(log m)`; items that
//! cannot enter the top-`m` are rejected in `O(1)` (comparison against the
//! root). Ties break towards the smaller item id, deterministically.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Entry ordered so the [`BinaryHeap`] root is the *weakest* kept item.
#[derive(Debug, Clone, Copy, PartialEq)]
struct MinEntry {
    score: f64,
    item: usize,
}

impl Eq for MinEntry {}

impl Ord for MinEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        #[cfg(test)]
        crate::opcount::heap_step();
        // Reversed score (min-heap); on ties the *larger* id is weaker, so
        // equal-score items survive in increasing-id order.
        other
            .score
            .total_cmp(&self.score)
            .then_with(|| self.item.cmp(&other.item))
    }
}

impl PartialOrd for MinEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A heap retaining the top-`m` `(score, item)` pairs.
#[derive(Debug, Clone)]
pub struct BoundedHeap {
    capacity: usize,
    heap: BinaryHeap<MinEntry>,
}

impl BoundedHeap {
    /// Heap keeping at most `capacity` items. `capacity == 0` is a valid
    /// degenerate heap that rejects everything (a specialization with
    /// ⌊k·P⌋+1 = 0 cannot happen, but the framework guards uniformly).
    pub fn new(capacity: usize) -> Self {
        BoundedHeap {
            capacity,
            heap: BinaryHeap::with_capacity(capacity + 1),
        }
    }

    /// Capacity bound `m`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of kept items.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is kept.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Offer `(score, item)`; returns `true` if it entered the top-`m`.
    pub fn push(&mut self, score: f64, item: usize) -> bool {
        if self.capacity == 0 {
            return false;
        }
        if self.heap.len() < self.capacity {
            self.heap.push(MinEntry { score, item });
            return true;
        }
        // Full: compare with the weakest kept entry.
        let weakest = self.heap.peek().expect("nonempty when full");
        let candidate = MinEntry { score, item };
        // `candidate > weakest` in MinEntry order ⇔ candidate is weaker.
        if candidate < *weakest {
            self.heap.pop();
            self.heap.push(candidate);
            true
        } else {
            false
        }
    }

    /// Drain into a vector sorted by decreasing score (ties by increasing
    /// item id).
    pub fn into_sorted_desc(self) -> Vec<(f64, usize)> {
        let mut v: Vec<(f64, usize)> = self.heap.into_iter().map(|e| (e.score, e.item)).collect();
        v.sort_unstable_by(|a, b| {
            #[cfg(test)]
            crate::opcount::heap_step();
            b.0.total_cmp(&a.0).then(a.1.cmp(&b.1))
        });
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_top_m() {
        let mut h = BoundedHeap::new(3);
        for (s, i) in [(1.0, 0), (5.0, 1), (3.0, 2), (4.0, 3), (2.0, 4)] {
            h.push(s, i);
        }
        assert_eq!(h.len(), 3);
        let sorted = h.into_sorted_desc();
        assert_eq!(sorted, vec![(5.0, 1), (4.0, 3), (3.0, 2)]);
    }

    #[test]
    fn rejects_weak_items_when_full() {
        let mut h = BoundedHeap::new(2);
        assert!(h.push(5.0, 0));
        assert!(h.push(4.0, 1));
        assert!(!h.push(1.0, 2), "weaker than both kept");
        assert!(h.push(6.0, 3), "stronger than the weakest");
        let sorted = h.into_sorted_desc();
        assert_eq!(sorted, vec![(6.0, 3), (5.0, 0)]);
    }

    #[test]
    fn ties_keep_smaller_ids() {
        let mut h = BoundedHeap::new(2);
        h.push(1.0, 5);
        h.push(1.0, 1);
        h.push(1.0, 3);
        let kept: Vec<usize> = h.into_sorted_desc().iter().map(|&(_, i)| i).collect();
        assert_eq!(kept, vec![1, 3]);
    }

    #[test]
    fn zero_capacity_rejects_everything() {
        let mut h = BoundedHeap::new(0);
        assert!(!h.push(9.0, 0));
        assert!(h.is_empty());
        assert!(h.into_sorted_desc().is_empty());
    }

    #[test]
    fn under_capacity_keeps_everything() {
        let mut h = BoundedHeap::new(10);
        h.push(2.0, 0);
        h.push(1.0, 1);
        assert_eq!(h.len(), 2);
        assert_eq!(h.capacity(), 10);
    }

    #[test]
    fn negative_and_nan_free_scores() {
        let mut h = BoundedHeap::new(2);
        h.push(-5.0, 0);
        h.push(-1.0, 1);
        h.push(-3.0, 2);
        let sorted = h.into_sorted_desc();
        assert_eq!(sorted, vec![(-1.0, 1), (-3.0, 2)]);
    }
}
