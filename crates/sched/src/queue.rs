//! Server-side queue disciplines.
//!
//! Each server owns one request queue per the paper's credits realization
//! ("each server maintains a separate priority-queue"); the C3 baseline
//! uses FIFO. Both disciplines share one trait so the server model is
//! generic over them. The priority queue is *stable*: among equal
//! priorities it serves in insertion order, which keeps simulations
//! deterministic and avoids starvation-by-tie.

use crate::priority::Priority;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// A queue of prioritized items.
pub trait RequestQueue<T> {
    /// Enqueues `item` with `priority`.
    fn push(&mut self, priority: Priority, item: T);

    /// Dequeues the next item to serve.
    fn pop(&mut self) -> Option<(Priority, T)>;

    /// The priority the next `pop` would return.
    fn peek_priority(&self) -> Option<Priority>;

    /// Queued item count.
    fn len(&self) -> usize;

    /// Whether the queue is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// First-in, first-out; ignores priorities (task-oblivious servers).
#[derive(Debug, Clone, Default)]
pub struct FifoQueue<T> {
    items: VecDeque<(Priority, T)>,
}

impl<T> FifoQueue<T> {
    /// Creates an empty FIFO queue.
    pub fn new() -> Self {
        FifoQueue {
            items: VecDeque::new(),
        }
    }
}

impl<T> RequestQueue<T> for FifoQueue<T> {
    fn push(&mut self, priority: Priority, item: T) {
        self.items.push_back((priority, item));
    }

    fn pop(&mut self) -> Option<(Priority, T)> {
        self.items.pop_front()
    }

    fn peek_priority(&self) -> Option<Priority> {
        self.items.front().map(|(p, _)| *p)
    }

    fn len(&self) -> usize {
        self.items.len()
    }
}

struct Entry<T> {
    priority: Priority,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    /// Reversed so `BinaryHeap` (max-heap) pops the lowest priority value;
    /// FIFO tie-break on the insertion sequence.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .priority
            .cmp(&self.priority)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Stable min-priority queue: pops the lowest priority value first, FIFO
/// among ties.
#[derive(Default)]
pub struct PriorityQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
}

impl<T> PriorityQueue<T> {
    /// Creates an empty priority queue.
    pub fn new() -> Self {
        PriorityQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Creates an empty queue with room for `cap` items — hot-path
    /// queues (client hold queues, server queues) are built once per run
    /// and should never reallocate in steady state.
    pub fn with_capacity(cap: usize) -> Self {
        PriorityQueue {
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
        }
    }

    /// Borrows the item the next `pop` would return.
    pub fn peek_item(&self) -> Option<&T> {
        self.heap.peek().map(|e| &e.item)
    }

    /// Drops all items, keeping the allocation *and* the sequence
    /// counter (so FIFO tie-breaking stays globally consistent across
    /// reuse).
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// Removes every item for which `keep` returns `false`, preserving
    /// the priority/FIFO order of the survivors (their sequence numbers
    /// are untouched). Returns how many items were removed — callers
    /// that mirror the queue length (the live server's atomic counter)
    /// need the exact count. O(n); used by cold paths only (duplicate
    /// cancellation), never per-request.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) -> usize {
        let before = self.heap.len();
        self.heap.retain(|e| keep(&e.item));
        before - self.heap.len()
    }
}

impl<T> std::fmt::Debug for PriorityQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PriorityQueue")
            .field("len", &self.heap.len())
            .field("next_seq", &self.next_seq)
            .finish()
    }
}

impl<T> RequestQueue<T> for PriorityQueue<T> {
    fn push(&mut self, priority: Priority, item: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            priority,
            seq,
            item,
        });
    }

    fn pop(&mut self) -> Option<(Priority, T)> {
        self.heap.pop().map(|e| (e.priority, e.item))
    }

    fn peek_priority(&self) -> Option<Priority> {
        self.heap.peek().map(|e| e.priority)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_ignores_priority() {
        let mut q = FifoQueue::new();
        q.push(Priority(9), "first");
        q.push(Priority(1), "second");
        assert_eq!(q.peek_priority(), Some(Priority(9)));
        assert_eq!(q.pop().unwrap().1, "first");
        assert_eq!(q.pop().unwrap().1, "second");
        assert!(q.pop().is_none());
    }

    #[test]
    fn priority_queue_orders_by_priority() {
        let mut q = PriorityQueue::new();
        q.push(Priority(30), "c");
        q.push(Priority(10), "a");
        q.push(Priority(20), "b");
        assert_eq!(q.peek_priority(), Some(Priority(10)));
        assert_eq!(q.pop().unwrap(), (Priority(10), "a"));
        assert_eq!(q.pop().unwrap(), (Priority(20), "b"));
        assert_eq!(q.pop().unwrap(), (Priority(30), "c"));
    }

    #[test]
    fn priority_queue_is_fifo_stable_on_ties() {
        let mut q = PriorityQueue::new();
        for i in 0..100 {
            q.push(Priority(7), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap(), (Priority(7), i));
        }
    }

    #[test]
    fn interleaved_ties_and_urgencies() {
        let mut q = PriorityQueue::new();
        q.push(Priority(5), "a5");
        q.push(Priority(5), "b5");
        q.push(Priority(1), "c1");
        assert_eq!(q.pop().unwrap().1, "c1");
        q.push(Priority(5), "d5");
        q.push(Priority(0), "e0");
        assert_eq!(q.pop().unwrap().1, "e0");
        assert_eq!(q.pop().unwrap().1, "a5");
        assert_eq!(q.pop().unwrap().1, "b5");
        assert_eq!(q.pop().unwrap().1, "d5");
        assert!(q.is_empty());
    }

    #[test]
    fn clear_keeps_capacity_and_seq_counter() {
        let mut q = PriorityQueue::with_capacity(8);
        q.push(Priority(5), "before-a");
        q.push(Priority(5), "before-b");
        q.clear();
        assert!(q.is_empty());
        // Ties pushed after a clear still pop after re-pushed earlier
        // items would have — the seq counter must survive the clear.
        q.push(Priority(5), "after-a");
        q.push(Priority(5), "after-b");
        assert_eq!(q.pop().unwrap().1, "after-a");
        assert_eq!(q.pop().unwrap().1, "after-b");
    }

    #[test]
    fn retain_removes_and_keeps_stable_order() {
        let mut q = PriorityQueue::new();
        q.push(Priority(5), "a5");
        q.push(Priority(5), "b5");
        q.push(Priority(1), "c1");
        q.push(Priority(5), "d5");
        // Remove one tie from the middle; survivors keep priority order
        // and FIFO stability among remaining ties.
        assert_eq!(q.retain(|item| *item != "b5"), 1);
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop().unwrap().1, "c1");
        assert_eq!(q.pop().unwrap().1, "a5");
        assert_eq!(q.pop().unwrap().1, "d5");
        // Retaining nothing reports the full count.
        q.push(Priority(2), "x");
        q.push(Priority(3), "y");
        assert_eq!(q.retain(|_| false), 2);
        assert!(q.is_empty());
    }

    #[test]
    fn len_tracks_both_disciplines() {
        let mut f: FifoQueue<u32> = FifoQueue::new();
        let mut p: PriorityQueue<u32> = PriorityQueue::new();
        for q in [&mut f as &mut dyn RequestQueue<u32>, &mut p] {
            assert!(q.is_empty());
            q.push(Priority(1), 1);
            q.push(Priority(2), 2);
            assert_eq!(q.len(), 2);
            q.pop();
            assert_eq!(q.len(), 1);
        }
    }
}
