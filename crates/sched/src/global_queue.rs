//! The ideal "model" realization: a single global priority queue.
//!
//! From §2.2: "servers utilize a work-pulling mechanism to fetch requests
//! from a single global priority-based queue shared by all clients.
//! However, such a model is unrealizable since it assumes perfect
//! knowledge of global state." It is the lower bound BRB's credits
//! realization is measured against (the 38% headline).
//!
//! One subtlety survives even in the ideal: the *replica constraint*. A
//! server may only pull requests whose replica group it belongs to, so the
//! global queue is maintained per replica group and a puller scans exactly
//! the groups it serves.

use crate::priority::Priority;
use crate::queue::{PriorityQueue, RequestQueue};
use brb_store::ids::{GroupId, ServerId};
use brb_store::partition::Ring;

/// A globally-shared, priority-ordered queue partitioned by replica group.
pub struct GlobalQueue<T> {
    per_group: Vec<PriorityQueue<(u64, T)>>,
    /// Global insertion sequence: preserves cross-group FIFO among equal
    /// priorities so pulls are deterministic.
    next_seq: u64,
    len: usize,
}

impl<T> std::fmt::Debug for GlobalQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GlobalQueue")
            .field("groups", &self.per_group.len())
            .field("next_seq", &self.next_seq)
            .field("len", &self.len)
            .finish_non_exhaustive()
    }
}

impl<T> GlobalQueue<T> {
    /// Creates a queue for `num_groups` replica groups.
    pub fn new(num_groups: u32) -> Self {
        GlobalQueue {
            per_group: (0..num_groups).map(|_| PriorityQueue::new()).collect(),
            next_seq: 0,
            len: 0,
        }
    }

    /// Enqueues an item destined for replica group `group`.
    ///
    /// # Panics
    /// Panics if `group` is out of range.
    pub fn push(&mut self, group: GroupId, priority: Priority, item: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.per_group[group.index()].push(priority, (seq, item));
        self.len += 1;
    }

    /// Pulls the highest-priority request `server` is allowed to serve
    /// (lowest priority value; ties broken by global insertion order).
    pub fn pull_for(&mut self, server: ServerId, ring: &Ring) -> Option<(Priority, GroupId, T)> {
        // Scan the R groups this server belongs to and take the best head.
        let mut best: Option<(Priority, u64, GroupId)> = None;
        for g in ring.iter_groups_of_server(server) {
            let q = &mut self.per_group[g.index()];
            if let Some(p) = q.peek_priority() {
                // Need the seq for tie-break: peek deeper via a pop/push
                // would disturb order, so we track (priority, seq) by
                // peeking the entry through pop-then-reinsert only when
                // chosen. Instead, compare priorities first and use the
                // stored seq lazily: pop is deferred until the winner is
                // known, so we must read the head's seq without popping.
                let seq = q.peek_seq().expect("non-empty");
                let candidate = (p, seq, g);
                best = match best {
                    None => Some(candidate),
                    Some(b) if (p, seq) < (b.0, b.1) => Some(candidate),
                    Some(b) => Some(b),
                };
            }
        }
        let (_, _, g) = best?;
        let (priority, (_, item)) = self.per_group[g.index()].pop().expect("head vanished");
        self.len -= 1;
        Some((priority, g, item))
    }

    /// Queued items across all groups.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queued items for one group.
    pub fn len_for_group(&self, group: GroupId) -> usize {
        self.per_group[group.index()].len()
    }
}

impl<T> PriorityQueue<(u64, T)> {
    /// The insertion sequence of the head entry (helper for the global
    /// queue's cross-group tie-break).
    fn peek_seq(&self) -> Option<u64> {
        self.peek_item().map(|(seq, _)| *seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring() -> Ring {
        Ring::paper_default() // 9 servers, R=3
    }

    #[test]
    fn pull_respects_replica_constraint() {
        let mut q = GlobalQueue::new(9);
        // Server 0 serves groups {0, 8, 7} (it is replica 1/2/3 of those).
        q.push(GroupId::new(4), Priority(1), "far");
        assert!(q.pull_for(ServerId::new(0), &ring()).is_none());
        // Server 4 is the primary of group 4.
        let (p, g, item) = q.pull_for(ServerId::new(4), &ring()).unwrap();
        assert_eq!((p, g, item), (Priority(1), GroupId::new(4), "far"));
    }

    #[test]
    fn pull_takes_global_best_across_groups() {
        let mut q = GlobalQueue::new(9);
        // Server 2 serves groups 2 (primary), 1, 0.
        q.push(GroupId::new(0), Priority(50), "g0");
        q.push(GroupId::new(1), Priority(10), "g1");
        q.push(GroupId::new(2), Priority(30), "g2");
        let r = ring();
        let s = ServerId::new(2);
        assert_eq!(q.pull_for(s, &r).unwrap().2, "g1");
        assert_eq!(q.pull_for(s, &r).unwrap().2, "g2");
        assert_eq!(q.pull_for(s, &r).unwrap().2, "g0");
        assert!(q.pull_for(s, &r).is_none());
    }

    #[test]
    fn ties_break_by_global_insertion_order() {
        let mut q = GlobalQueue::new(9);
        q.push(GroupId::new(1), Priority(5), "first");
        q.push(GroupId::new(0), Priority(5), "second");
        let r = ring();
        let s = ServerId::new(2); // serves both groups
        assert_eq!(q.pull_for(s, &r).unwrap().2, "first");
        assert_eq!(q.pull_for(s, &r).unwrap().2, "second");
    }

    #[test]
    fn len_accounting() {
        let mut q = GlobalQueue::new(9);
        assert!(q.is_empty());
        q.push(GroupId::new(0), Priority(1), 1);
        q.push(GroupId::new(0), Priority(2), 2);
        q.push(GroupId::new(3), Priority(3), 3);
        assert_eq!(q.len(), 3);
        assert_eq!(q.len_for_group(GroupId::new(0)), 2);
        assert_eq!(q.len_for_group(GroupId::new(3)), 1);
        q.pull_for(ServerId::new(0), &ring());
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn two_servers_drain_shared_group_without_duplication() {
        let mut q = GlobalQueue::new(9);
        for i in 0..10 {
            q.push(GroupId::new(1), Priority(i), i);
        }
        let r = ring();
        let mut seen = Vec::new();
        // Servers 1, 2, 3 all serve group 1; alternate pulls.
        for i in 0..10 {
            let s = ServerId::new(1 + (i % 3));
            seen.push(q.pull_for(s, &r).unwrap().2);
        }
        let expect: Vec<u64> = (0..10).collect();
        assert_eq!(seen, expect);
        assert!(q.is_empty());
    }
}
