//! The span tracer — the one recording type that sits on the packet path:
//! a bounded ring of [`SpanRecord`]s behind a runtime sampling switch; a
//! disabled tracer costs a branch.

use crate::snapshot::{Snapshot, SpanRecord};

/// Default ring capacity per tracer: enough for a full scenario's
/// hops at per-packet granularity without unbounded growth.
const DEFAULT_RING: usize = 16 * 1024;

/// Virtual-time span recorder. Disabled (sampling off) by default:
/// `span()` on a disabled tracer is a branch and nothing else, and
/// the ring buffer is only allocated on first enabled record.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    seq: u32,
    ring: Vec<SpanRecord>,
    cap: usize,
    /// The slot a full ring overwrites next — its oldest span.
    next: usize,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer::with_capacity(DEFAULT_RING)
    }

    /// A tracer with a custom ring capacity (oldest spans overwrite).
    pub fn with_capacity(cap: usize) -> Tracer {
        Tracer { enabled: false, seq: 0, ring: Vec::new(), cap: cap.max(1), next: 0 }
    }

    /// Runtime sampling switch; recording is a no-op while disabled.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records a completed span `[begin_us, end_us]` in virtual time.
    #[inline]
    pub fn span(&mut self, name: &'static str, cat: &'static str, begin_us: u64, end_us: u64) {
        if !self.enabled {
            return;
        }
        let rec = SpanRecord {
            ts_us: begin_us,
            dur_us: end_us.saturating_sub(begin_us),
            name,
            cat,
            scenario: 0,
            seq: self.seq,
        };
        self.seq = self.seq.wrapping_add(1);
        if self.ring.len() < self.cap {
            if self.ring.capacity() == 0 {
                self.ring.reserve(self.cap.min(256));
            }
            self.ring.push(rec);
        } else {
            // Ring wrap: overwrite oldest. `seq` keeps global order.
            self.ring[self.next] = rec;
            self.next = (self.next + 1) % self.cap;
        }
    }

    /// Spans recorded so far (unsorted; [`Snapshot`] sorts on ingest).
    pub fn spans(&self) -> &[SpanRecord] {
        &self.ring
    }

    /// Drains recorded spans into `snap` and clears the ring.
    pub fn drain_into(&mut self, snap: &mut Snapshot) {
        snap.push_spans(self.ring.drain(..));
        self.next = 0;
    }

    /// A fresh tracer for a forked lab cell: empty ring, `seq` 0,
    /// same capacity and sampling switch as `self`.
    pub fn fork_reset(&self) -> Tracer {
        Tracer { enabled: self.enabled, ..Tracer::with_capacity(self.cap) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracer_disabled_by_default_and_drains() {
        let mut t = Tracer::new();
        t.span("ignored", "test", 0, 1);
        let mut snap = Snapshot::new();
        t.drain_into(&mut snap);
        assert!(snap.spans().is_empty());

        t.set_enabled(true);
        t.span("hop", "netsim", 10, 12);
        t.span("hop", "netsim", 5, 6);
        t.drain_into(&mut snap);
        assert_eq!(snap.spans().len(), 2);
        // Sorted by virtual time on ingest.
        assert_eq!(snap.spans()[0].ts_us, 5);
    }

    #[test]
    fn ring_wraps_without_growing() {
        let mut t = Tracer::with_capacity(4);
        t.set_enabled(true);
        for i in 0..10u64 {
            t.span("s", "c", i, i);
        }
        let mut snap = Snapshot::new();
        t.drain_into(&mut snap);
        assert_eq!(snap.spans().len(), 4);
    }

    #[test]
    fn a_ring_refilled_after_a_drain_overwrites_its_oldest_span() {
        let mut t = Tracer::with_capacity(4);
        t.set_enabled(true);
        for i in 0..10u64 {
            t.span("s", "c", i, i);
        }
        t.drain_into(&mut Snapshot::new());
        for i in 10..15u64 {
            t.span("s", "c", i, i);
        }
        let mut seqs: Vec<u32> = t.spans().iter().map(|span| span.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, vec![11, 12, 13, 14]);
    }
}
