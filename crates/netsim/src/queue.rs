//! The event queue behind [`crate::Network`]: a binary heap ordered by
//! `(time, seq)`, `seq` being the monotone insertion counter. Events pop in
//! strictly increasing `(time, seq)` order — those scheduled for one instant
//! in the order they were scheduled — so a run is a pure function of its
//! pushes. Every deterministic artefact in the repo rests on that contract.
//!
//! Depth stays small (DESIGN.md §11 "Event queue"): a flow keeps about
//! rate × one RTT packets in flight and a client host one wake-up timer,
//! so a 10⁶-flow soak peaks near 1,200 pending events. `soak_ci` and
//! `tests/campaign_kernel.rs` fail if a workload parks far more.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::time::Time;

struct Entry<T> {
    key: (Time, u64),
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
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
        self.key.cmp(&other.key)
    }
}

/// Pending events: earliest first, insertion order within one instant.
pub struct EventQueue<T> {
    heap: BinaryHeap<Reverse<Entry<T>>>,
    next_seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue. Allocates nothing.
    pub fn new() -> EventQueue<T> {
        EventQueue { heap: BinaryHeap::new(), next_seq: 0 }
    }

    /// Pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `item` at `time`, after anything already due at that instant.
    pub fn push(&mut self, time: Time, item: T) {
        self.heap.push(Reverse(Entry { key: (time, self.next_seq), item }));
        self.next_seq += 1;
    }

    /// Due time of the next event, without popping it.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|Reverse(e)| e.key.0)
    }

    /// Pops the earliest event.
    pub fn pop(&mut self) -> Option<(Time, T)> {
        self.heap.pop().map(|Reverse(e)| (e.key.0, e.item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_one_instant() {
        let mut q = EventQueue::new();
        for i in 0..10u32 {
            q.push(Time::from_micros(5), i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|(_, i)| i).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn far_timers_interleave_with_near_hops() {
        let mut q = EventQueue::new();
        q.push(Time::from_secs(480), 'z');
        q.push(Time::from_micros(1000), 'a');
        q.push(Time::from_micros(2000), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop()).map(|(_, c)| c).collect();
        assert_eq!(order, ['a', 'b', 'z']);
    }

    #[test]
    fn peek_time_agrees_with_pop() {
        let mut q = EventQueue::new();
        q.push(Time::from_micros(3000), 'c');
        q.push(Time::from_micros(1), 'a');
        q.push(Time::from_micros(1), 'b');
        for (us, item) in [(1, 'a'), (1, 'b'), (3000, 'c')] {
            assert_eq!(q.peek_time(), Some(Time::from_micros(us)));
            assert_eq!(q.pop(), Some((Time::from_micros(us), item)));
        }
        assert_eq!(q.peek_time(), None);
    }
}
