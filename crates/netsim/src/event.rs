//! A deterministic discrete-event queue.
//!
//! Events at equal timestamps pop in insertion order (a monotonically
//! increasing sequence number breaks ties), which keeps multi-component
//! simulations reproducible regardless of float equality quirks.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event queue ordered by time, FIFO within equal times.
#[derive(Debug)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    seq: u64,
}

#[derive(Debug)]
struct Entry<T> {
    time_s: f64,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time_s == other.time_s && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first. total_cmp
        // keeps the heap order total even if a NaN time ever slips in
        // (the old `.expect` panicked the worker instead).
        other
            .time_s
            .total_cmp(&self.time_s)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<T> EventQueue<T> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Create an empty queue with room for `n` events before reallocating.
    pub fn with_capacity(n: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(n),
            seq: 0,
        }
    }

    /// Remove all pending events, keeping the backing allocation.
    ///
    /// Re-arms the tie-break sequence from zero, so a cleared queue is
    /// indistinguishable from a fresh one — long-lived simulations reuse
    /// one queue across work units instead of rebuilding the heap (and
    /// its allocation) per unit.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.seq = 0;
    }

    /// Number of events the queue can hold without reallocating.
    pub fn capacity(&self) -> usize {
        self.heap.capacity()
    }

    /// Schedule `payload` at absolute time `time_s`.
    ///
    /// # Panics
    /// Panics if `time_s` is not finite.
    pub fn schedule(&mut self, time_s: f64, payload: T) {
        assert!(time_s.is_finite(), "event time must be finite");
        self.heap.push(Entry {
            time_s,
            seq: self.seq,
            payload,
        });
        self.seq += 1;
    }

    /// Pop the earliest event, if any, returning `(time, payload)`.
    pub fn pop(&mut self) -> Option<(f64, T)> {
        self.heap.pop().map(|e| (e.time_s, e.payload))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(3.0, "c");
        q.schedule(1.0, "a");
        q.schedule(2.0, "b");
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert_eq!(q.pop(), Some((2.0, "b")));
        assert_eq!(q.pop(), Some((3.0, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_within_equal_times() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(5.0, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((5.0, i)));
        }
    }

    #[test]
    fn schedule_counts_pending_events() {
        let mut q = EventQueue::new();
        q.schedule(7.0, ());
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan_time() {
        let mut q = EventQueue::new();
        q.schedule(f64::NAN, ());
    }

    #[test]
    fn clear_keeps_allocation_and_resets_ties() {
        let mut q = EventQueue::with_capacity(64);
        let cap = q.capacity();
        assert!(cap >= 64);
        for i in 0..50 {
            q.schedule(1.0, i);
        }
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.capacity(), cap, "clear must keep the backing buffer");
        // A cleared queue behaves exactly like a fresh one, including the
        // FIFO tie-break restarting from scratch.
        q.schedule(2.0, 100);
        q.schedule(2.0, 101);
        assert_eq!(q.pop(), Some((2.0, 100)));
        assert_eq!(q.pop(), Some((2.0, 101)));
    }
}
