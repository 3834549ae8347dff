//! The event scheduler behind [`crate::Network`]: a hierarchical timer
//! wheel — near-future microsecond buckets plus an overflow heap for far
//! timers — that replaces the old `BinaryHeap<Reverse<Event>>` priority
//! queue.
//!
//! ## Why a wheel
//!
//! A binary heap pays O(log n) per schedule and per pop, with a pointer
//! walk that misses cache at every level. At the population scale this
//! repo now drives (10⁵–10⁶ packets in flight), `log n` is ~20 and the
//! scheduler becomes the simulator's dominant cost. Virtual time makes a
//! wheel almost free instead: event times are discrete microseconds,
//! nearly all of them within a few hop-latencies of `now`, so a ring of
//! one-microsecond buckets covers the near future and schedule/pop become
//! O(1) array operations. The rare far-future event (an idle-timeout probe
//! sleeping 480 s, a diurnal load tick) goes to a conventional heap whose
//! size stays tiny.
//!
//! ## Ordering guarantee
//!
//! The wheel reproduces the heap's total order **byte for byte**: events
//! pop in strictly increasing `(time, seq)` order, where `seq` is the
//! monotone insertion counter. Three facts make this work:
//!
//! 1. Each bucket covers exactly one microsecond, and the window invariant
//!    (every wheel-resident event's time lies in `[base, base + SLOTS)`,
//!    with `base` only ever advancing) means a bucket never mixes two
//!    distinct timestamps. Pushes append, `seq` is monotone, so a bucket
//!    is FIFO-ordered by `seq` for free.
//! 2. The overflow heap orders its own events by `(time, seq)` exactly as
//!    the old scheduler did.
//! 3. A pop compares the wheel's head `(time, seq)` against the heap's
//!    head `(time, seq)` and takes the smaller — no invariant about which
//!    side "should" win is needed; the comparison is the proof.
//!
//! The differential proptest at the bottom drives arbitrary interleaved
//! push/pop schedules through the wheel and a reference heap and asserts
//! identical pop sequences.
//!
//! ## Engagement
//!
//! The bucket array costs ~128 KiB. A forked scenario cell that moves
//! fourteen packets must not pay that, so the wheel starts *disengaged* —
//! everything goes through the overflow heap, byte-identical to the old
//! scheduler — and the buckets are allocated only once the pending-event
//! count crosses [`ENGAGE_THRESHOLD`]. Small labs never engage; a
//! million-flow soak engages once and amortizes the allocation over
//! millions of events. [`TimerWheel::shrink`] releases the buckets (and
//! excess heap capacity) again so a drained engine can be kept around
//! without pinning the soak's peak memory.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::Time;

/// One scheduled item: its due time, the monotone insertion counter that
/// breaks ties, and the caller's payload.
struct Entry<T> {
    time: Time,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// Number of near-future buckets; must be a power of two. At one bucket
/// per microsecond this is a ~4 ms window — several hop latencies deep, so
/// the packet-in-flight population lives entirely in the wheel while
/// application timers (hundreds of ms to hundreds of s) overflow to the
/// heap.
const SLOTS: usize = 4096;
const SLOT_MASK: u64 = (SLOTS as u64) - 1;

/// Pending-event count at which the bucket array is allocated. Below this
/// the queue is exactly the old binary heap; a scenario cell moving a
/// handful of packets never pays for buckets it would not fill.
const ENGAGE_THRESHOLD: usize = 1024;

/// The scheduler: near-future microsecond buckets plus an overflow heap,
/// popping in strictly increasing `(time, seq)` order.
pub struct TimerWheel<T> {
    /// Near-future buckets, indexed by `time_us & SLOT_MASK`. Empty until
    /// the queue engages ([`ENGAGE_THRESHOLD`]).
    slots: Vec<VecDeque<Entry<T>>>,
    /// Occupancy bitmap over `slots`, one bit per bucket, so a pop skips
    /// empty buckets a word at a time.
    occupied: Vec<u64>,
    /// Events currently resident in the wheel (not the heap).
    wheel_len: usize,
    /// Lower bound of the wheel window in microseconds. Only advances.
    base_us: u64,
    /// Far-future (and, defensively, any out-of-window) events, ordered by
    /// `(time, seq)` exactly like the pre-wheel scheduler.
    overflow: BinaryHeap<Reverse<Entry<T>>>,
    /// Monotone insertion counter; the deterministic tiebreaker.
    next_seq: u64,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        TimerWheel::new()
    }
}

impl<T> TimerWheel<T> {
    /// An empty, disengaged queue. Allocates nothing.
    pub fn new() -> TimerWheel<T> {
        TimerWheel {
            slots: Vec::new(),
            occupied: Vec::new(),
            wheel_len: 0,
            base_us: 0,
            overflow: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Total pending events.
    pub fn len(&self) -> usize {
        self.wheel_len + self.overflow.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sequence number the next push will get. Exposed so the engine's
    /// fork bookkeeping stays exact.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Number of occupied near-future buckets — the wheel-bitmap popcount.
    /// This is the occupancy statistic the engine samples into
    /// `netsim.queue_depth`: unlike [`TimerWheel::len`] it measures how
    /// *spread out* the pending population is across the window, which is
    /// what bounds a pop's bucket scan. Zero while disengaged.
    pub fn occupied_slots(&self) -> usize {
        self.occupied.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Events currently parked in the overflow heap (far timers and
    /// out-of-window pushes).
    pub fn overflow_len(&self) -> usize {
        self.overflow.len()
    }

    /// Schedules `item` at `time`, after everything already scheduled at
    /// the same instant.
    pub fn push(&mut self, time: Time, item: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = Entry { time, seq, item };
        if self.is_empty() {
            // Nothing pending constrains the window: snap it forward so
            // the near future around this event is wheel-eligible. `base`
            // still never moves backward.
            self.base_us = self.base_us.max(time.as_micros());
        }
        if self.slots.is_empty() {
            if self.len() + 1 > ENGAGE_THRESHOLD {
                self.engage();
            } else {
                self.overflow.push(Reverse(entry));
                return;
            }
        }
        let t_us = time.as_micros();
        if t_us < self.base_us || t_us - self.base_us >= SLOTS as u64 {
            // Out of window (far timer, or a defensive below-base push):
            // the heap handles it; the pop-side comparison keeps order.
            self.overflow.push(Reverse(entry));
            return;
        }
        let slot = (t_us & SLOT_MASK) as usize;
        self.slots[slot].push_back(entry);
        self.occupied[slot >> 6] |= 1u64 << (slot & 63);
        self.wheel_len += 1;
    }

    /// Allocates the bucket array. Existing heap residents stay where they
    /// are — the pop-side comparison orders across both halves — so
    /// engagement is a pure accelerator, not a migration.
    fn engage(&mut self) {
        self.slots = (0..SLOTS).map(|_| VecDeque::new()).collect();
        self.occupied = vec![0u64; SLOTS / 64];
    }

    /// Index of the first occupied bucket at or circularly after
    /// `from_slot`, or `None` when the wheel half is empty.
    fn next_occupied(&self, from_slot: usize) -> Option<usize> {
        if self.wheel_len == 0 {
            return None;
        }
        let words = self.occupied.len();
        let start_word = from_slot >> 6;
        let first = self.occupied[start_word] & (!0u64 << (from_slot & 63));
        if first != 0 {
            return Some((start_word << 6) + first.trailing_zeros() as usize);
        }
        for i in 1..=words {
            let w = (start_word + i) % words;
            if self.occupied[w] != 0 {
                return Some((w << 6) + self.occupied[w].trailing_zeros() as usize);
            }
        }
        None
    }

    /// `(time, seq)` of the wheel half's head, plus its bucket index.
    fn wheel_head(&self) -> Option<(Time, u64, usize)> {
        let base_slot = (self.base_us & SLOT_MASK) as usize;
        let slot = self.next_occupied(base_slot)?;
        let head = self.slots[slot].front().expect("occupied bit without entry");
        Some((head.time, head.seq, slot))
    }

    /// Due time of the next event, without popping it.
    pub fn peek_time(&self) -> Option<Time> {
        match (self.wheel_head(), self.overflow.peek()) {
            (Some((wt, ws, _)), Some(Reverse(h))) => {
                Some(if (wt, ws) <= (h.time, h.seq) { wt } else { h.time })
            }
            (Some((wt, _, _)), None) => Some(wt),
            (None, Some(Reverse(h))) => Some(h.time),
            (None, None) => None,
        }
    }

    /// Pops the earliest event — smallest `(time, seq)` across both
    /// halves.
    pub fn pop(&mut self) -> Option<(Time, T)> {
        let from_wheel = match (self.wheel_head(), self.overflow.peek()) {
            (Some((wt, ws, _)), Some(Reverse(h))) => (wt, ws) <= (h.time, h.seq),
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => return None,
        };
        if from_wheel {
            let (time, _, slot) = self.wheel_head().expect("wheel head vanished");
            let entry = self.slots[slot].pop_front().expect("occupied bucket");
            if self.slots[slot].is_empty() {
                self.occupied[slot >> 6] &= !(1u64 << (slot & 63));
            }
            self.wheel_len -= 1;
            // The popped event was the global minimum, so every remaining
            // wheel resident is at or after it: the window may advance.
            self.base_us = self.base_us.max(time.as_micros());
            Some((time, entry.item))
        } else {
            let Reverse(entry) = self.overflow.pop().expect("peeked overflow entry");
            self.base_us = self.base_us.max(entry.time.as_micros());
            Some((entry.time, entry.item))
        }
    }

    /// Drops every pending event, keeping allocated capacity.
    pub fn clear(&mut self) {
        for slot in &mut self.slots {
            slot.clear();
        }
        self.occupied.fill(0);
        self.wheel_len = 0;
        self.overflow.clear();
    }

    /// Releases the bucket array and excess heap capacity — the
    /// post-soak diet. The queue reverts to the disengaged (pure-heap)
    /// state and re-engages on demand; pending events survive.
    ///
    /// # Panics
    /// Never; safe on an empty or never-engaged queue.
    pub fn shrink(&mut self) {
        if !self.slots.is_empty() {
            // Move any wheel residents to the heap before dropping the
            // buckets. Their `(time, seq)` tags ride along, so order is
            // unaffected.
            for slot in &mut self.slots {
                while let Some(entry) = slot.pop_front() {
                    self.overflow.push(Reverse(entry));
                }
            }
            self.slots = Vec::new();
            self.occupied = Vec::new();
            self.wheel_len = 0;
        }
        self.overflow.shrink_to_fit();
    }

    /// Approximate heap bytes retained by the queue's own structures
    /// (buckets, bitmap, overflow arena) — the number the soak-footprint
    /// tests watch. Excludes per-item payload allocations.
    pub fn capacity_bytes(&self) -> usize {
        let slot_bytes: usize = self
            .slots
            .iter()
            .map(|s| s.capacity() * std::mem::size_of::<Entry<T>>())
            .sum();
        self.slots.capacity() * std::mem::size_of::<VecDeque<Entry<T>>>()
            + slot_bytes
            + self.occupied.capacity() * std::mem::size_of::<u64>()
            + self.overflow.capacity() * std::mem::size_of::<Reverse<Entry<T>>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference scheduler: the exact structure the wheel replaced.
    struct HeapRef<T> {
        heap: BinaryHeap<Reverse<Entry<T>>>,
        next_seq: u64,
    }

    impl<T> HeapRef<T> {
        fn new() -> Self {
            HeapRef { heap: BinaryHeap::new(), next_seq: 0 }
        }
        fn push(&mut self, time: Time, item: T) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Reverse(Entry { time, seq, item }));
        }
        fn pop(&mut self) -> Option<(Time, T)> {
            self.heap.pop().map(|Reverse(e)| (e.time, e.item))
        }
    }

    #[test]
    fn fifo_within_one_instant() {
        let mut w = TimerWheel::new();
        for i in 0..10u32 {
            w.push(Time::from_micros(5), i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| w.pop().map(|(_, i)| i)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn far_timers_interleave_with_near_hops() {
        let mut w = TimerWheel::new();
        w.push(Time::from_secs(480), 'z'); // far: overflow
        w.push(Time::from_micros(1000), 'a'); // near
        w.push(Time::from_micros(2000), 'b');
        assert_eq!(w.pop().unwrap().1, 'a');
        assert_eq!(w.pop().unwrap().1, 'b');
        assert_eq!(w.pop().unwrap().1, 'z');
        assert!(w.pop().is_none());
    }

    #[test]
    fn engagement_preserves_order_across_halves() {
        let mut w = TimerWheel::new();
        let mut r = HeapRef::new();
        // Fill past the engage threshold with colliding timestamps, then
        // keep pushing after engagement at the same instants.
        for i in 0..(ENGAGE_THRESHOLD as u64 + 500) {
            let t = Time::from_micros(i % 97);
            w.push(t, i);
            r.push(t, i);
        }
        loop {
            let (a, b) = (w.pop(), r.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn interleaved_push_pop_matches_heap() {
        let mut w = TimerWheel::new();
        let mut r = HeapRef::new();
        let mut now = 0u64;
        // A deterministic but irregular schedule: pops advance `now`, and
        // pushes land between 0 and ~5 ms ahead (crossing the window
        // boundary both ways).
        let mut x = 0x2545f4914f6cdd1du64;
        for step in 0..20_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if step % 3 == 0 || w.is_empty() {
                let ahead = x % 5_000;
                let t = Time::from_micros(now + ahead);
                w.push(t, step);
                r.push(t, step);
            } else {
                let (a, b) = (w.pop(), r.pop());
                assert_eq!(a, b);
                if let Some((t, _)) = a {
                    now = t.as_micros();
                }
            }
        }
        loop {
            let (a, b) = (w.pop(), r.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn shrink_releases_buckets_and_keeps_events() {
        let mut w = TimerWheel::new();
        for i in 0..(ENGAGE_THRESHOLD as u64 * 4) {
            w.push(Time::from_micros(i), i);
        }
        assert!(w.capacity_bytes() > 100 * 1024, "soak should engage the wheel");
        w.shrink();
        let order: Vec<u64> = std::iter::from_fn(|| w.pop().map(|(_, i)| i)).collect();
        assert_eq!(order.len(), ENGAGE_THRESHOLD * 4);
        assert!(order.windows(2).all(|p| p[0] < p[1]));
        w.shrink();
        assert!(
            w.capacity_bytes() < 64 * 1024,
            "post-drain shrink retained {} bytes",
            w.capacity_bytes()
        );
    }

    #[test]
    fn occupancy_tracks_buckets_not_events() {
        let mut w = TimerWheel::new();
        // Disengaged: everything in the heap, no buckets occupied.
        for i in 0..10u64 {
            w.push(Time::from_micros(i % 3), i);
        }
        assert_eq!(w.occupied_slots(), 0);
        assert_eq!(w.overflow_len(), 10);
        // Engage: colliding timestamps share buckets, so occupancy counts
        // distinct instants, not pending events.
        for i in 0..(ENGAGE_THRESHOLD as u64 + 64) {
            w.push(Time::from_micros(i % 7), i);
        }
        assert!(w.occupied_slots() <= 7);
        assert!(w.occupied_slots() > 0);
        assert!(w.occupied_slots() + w.overflow_len() <= w.len());
        while w.pop().is_some() {}
        assert_eq!(w.occupied_slots(), 0);
        assert_eq!(w.overflow_len(), 0);
    }

    #[test]
    fn peek_time_agrees_with_pop() {
        let mut w = TimerWheel::new();
        w.push(Time::from_micros(3000), 'c');
        w.push(Time::from_micros(1), 'a');
        w.push(Time::from_micros(1), 'b');
        let mut order = Vec::new();
        while let Some(t) = w.peek_time() {
            let (popped_at, item) = w.pop().unwrap();
            assert_eq!(t, popped_at);
            order.push(item);
        }
        assert_eq!(order, ['a', 'b', 'c']);
    }
}
