//! The event queue behind [`crate::Network`]: events ordered by
//! `(time, seq)`, `seq` being the monotone insertion counter. Events pop in
//! strictly increasing `(time, seq)` order — those scheduled for one instant
//! in the order they were scheduled — so a run is a pure function of its
//! pushes. Every deterministic artefact in the repo rests on that contract.
//!
//! Two sorted sources hold the pending events: a FIFO *run* and a binary
//! heap. A push due no earlier than the run's last entry (or into an empty
//! run) appends to the run in O(1); any other push goes to the heap. A pop
//! takes whichever head has the smaller `(time, seq)`, so the order is
//! exactly a single heap's. A burst one hop latency out, the wave of
//! deliveries behind it and the ACKs behind those arrive in time order and
//! stay in the run; a soak's scattered timers fall to the heap
//! (DESIGN.md §11 "Event queue").
//!
//! Depth is small except in a bulk transfer: a flow keeps about rate × one
//! RTT packets in flight and a client host one wake-up timer, so a
//! 10⁶-flow soak peaks near 1,200 pending events, while `bulk_download`'s
//! whole-response bursts park about 5,750, every one of them in the run.
//! `soak_ci` and `tests/campaign_kernel.rs` fail if a soak or a sweep parks
//! far more.

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};

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
    /// Entries pushed in time order: sorted by `(time, seq)` as it stands.
    run: VecDeque<Entry<T>>,
    /// Every other entry.
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
        EventQueue { run: VecDeque::new(), heap: BinaryHeap::new(), next_seq: 0 }
    }

    /// Pending events.
    pub fn len(&self) -> usize {
        self.run.len() + self.heap.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.run.is_empty() && self.heap.is_empty()
    }

    /// Schedules `item` at `time`, after anything already due at that instant.
    pub fn push(&mut self, time: Time, item: T) {
        let entry = Entry { key: (time, self.next_seq), item };
        self.next_seq += 1;
        match self.run.back() {
            Some(last) if time < last.key.0 => self.heap.push(Reverse(entry)),
            _ => self.run.push_back(entry),
        }
    }

    /// True when the next event is the run's head rather than the heap's.
    fn run_is_next(&self) -> bool {
        match (self.run.front(), self.heap.peek()) {
            (Some(r), Some(Reverse(h))) => r.key < h.key,
            (r, _) => r.is_some(),
        }
    }

    /// Due time of the next event, without popping it.
    pub fn peek_time(&self) -> Option<Time> {
        if self.run_is_next() {
            self.run.front().map(|e| e.key.0)
        } else {
            self.heap.peek().map(|Reverse(e)| e.key.0)
        }
    }

    /// Pops the earliest event.
    pub fn pop(&mut self) -> Option<(Time, T)> {
        let entry = if self.run_is_next() { self.run.pop_front() } else { self.heap.pop().map(|Reverse(e)| e) };
        entry.map(|e| (e.key.0, e.item))
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
