//! A sharded flow table: the [`ConnTracker`] scaled to a million tracked
//! flows per device.
//!
//! ## Why shard
//!
//! Each of the power-of-two shards is a complete, independent
//! [`ConnTracker`] — its own index, its own slab, its own
//! [`GC_PROBE_BUDGET`](crate::conntrack::GC_PROBE_BUDGET)-bounded hand —
//! sized to `capacity / shards` and addressed by flow-key hash, with no
//! semantic change (below). What that buys:
//!
//! * **Provisioned capacity in pieces the allocator can recycle**
//!   (measured: EXPERIMENTS.md "Conntrack costs what it tracks", what
//!   sharding buys). A million-flow tracker is a 10.5 MB index (2²¹
//!   five-byte buckets, or 16 × 2¹⁷) and a 176 MB slab reservation of
//!   which only the slots in use are ever touched; as one allocation each
//!   they are their own mappings, returned to the kernel when their lab
//!   drops and faulted in again page by page by the next lab, while
//!   sixteen shards' worth come back from malloc's free lists already
//!   resident. On `soak_steady`, which builds a lab per repetition, one
//!   shard cost +9.6 % per flow (45× the page faults, a tenth of the time
//!   in the kernel) when the index was a 40 MB std map; on a single
//!   long-lived lab, and on the tracker's own ns/op, one shard and sixteen
//!   read the same.
//! * **Reclamation that scales with the shard** (by construction; not
//!   measured on its own). The hand is one cursor per tracker: an expired
//!   entry waits for a revolution of its own shard's slab, so short flows
//!   in one shard are not starved by a long-lived population in another.
//!
//! It does *not* spread a rehash: every tracker with more than one shard
//! is built by [`ShardedConnTracker::with_capacity`] or
//! [`ShardedConnTracker::with_capacity_and_shards`], which reserve each
//! shard's slice up front, so no index rehashes and no slab moves on the
//! packet path at any shard count ([`ShardedConnTracker::with_shards`],
//! unreserved, is the differential tests' constructor).
//!
//! ## Equivalence with the unsharded tracker
//!
//! Expiry in [`ConnTracker`] is *semantically lazy*: every access checks
//! [`FlowEntry::expired`] against `now`, and the GC hand only decides
//! when memory is reclaimed, never what an access observes. A flow key
//! always maps to the same shard, so the sequence of observe/get/remove
//! calls a given flow experiences is identical whether there is one shard
//! or sixty-four; only `gc_probes()` (how much sweeping happened) and the
//! timing of physical removal differ. The tracker differential in
//! `crates/spec/tests/tracker.rs` pins this: arbitrary op sequences run
//! on the spec's naive conntrack model, a bare [`ConnTracker`] and 1-, 4-
//! and 16-shard trackers, and every entry is compared.

use tspu_netsim::Time;
use tspu_wire::tcp::TcpFlags;

use crate::conntrack::{flow_hash, ConnTracker, FlowEntry, FlowKey, Side};

/// Hard cap on shard count: beyond this the per-shard tables are small
/// enough that more shards only add fixed overhead.
pub const MAX_SHARDS: usize = 64;

/// Target live flows per shard when a capacity is auto-sharded — chosen so
/// a shard's table stays within a few MiB and a worst-case shard rehash
/// stays under the tail-latency floors.
pub const FLOWS_PER_SHARD: usize = 65_536;

/// A power-of-two array of independent [`ConnTracker`]s, addressed by flow
/// -key hash. See the module docs for the equivalence argument.
pub struct ShardedConnTracker {
    shards: Vec<ConnTracker>,
    /// `shards.len() - 1`; shard index is `hash & mask`.
    mask: u64,
}

impl Default for ShardedConnTracker {
    fn default() -> Self {
        ShardedConnTracker::new()
    }
}

impl ShardedConnTracker {
    /// A single-shard tracker — byte-for-byte the plain [`ConnTracker`],
    /// including its `gc_probes` accounting.
    pub fn new() -> ShardedConnTracker {
        ShardedConnTracker::with_shards(1)
    }

    /// A tracker with `shards` shards (rounded up to a power of two and
    /// clamped to `[1, MAX_SHARDS]`), no capacity pre-reserved.
    pub fn with_shards(shards: usize) -> ShardedConnTracker {
        let n = shards.clamp(1, MAX_SHARDS).next_power_of_two();
        ShardedConnTracker {
            shards: (0..n).map(|_| ConnTracker::new()).collect(),
            mask: (n - 1) as u64,
        }
    }

    /// A tracker provisioned for `capacity` total live flows, auto-sharded
    /// at [`FLOWS_PER_SHARD`]: each shard pre-reserves its slice, so the
    /// whole population inserts without a single rehash anywhere.
    pub fn with_capacity(capacity: usize) -> ShardedConnTracker {
        let shards = capacity.div_ceil(FLOWS_PER_SHARD).max(1);
        ShardedConnTracker::with_capacity_and_shards(capacity, shards)
    }

    /// A tracker with both knobs explicit.
    pub fn with_capacity_and_shards(capacity: usize, shards: usize) -> ShardedConnTracker {
        let n = shards.clamp(1, MAX_SHARDS).next_power_of_two();
        let per_shard = capacity.div_ceil(n);
        ShardedConnTracker {
            shards: (0..n).map(|_| ConnTracker::with_capacity(per_shard)).collect(),
            mask: (n - 1) as u64,
        }
    }

    /// Number of shards (always a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    #[inline]
    fn shard_index(&self, key: &FlowKey) -> usize {
        // Single-shard trackers (every device that never opted into a
        // million-flow capacity) must not pay a per-packet key hash just
        // to select shard 0 — the device hot-path budget is ~50 ns total.
        if self.mask == 0 {
            return 0;
        }
        (flow_hash(key) & self.mask) as usize
    }

    #[inline]
    fn shard_for(&self, key: &FlowKey) -> &ConnTracker {
        &self.shards[self.shard_index(key)]
    }

    #[inline]
    fn shard_for_mut(&mut self, key: &FlowKey) -> &mut ConnTracker {
        let idx = self.shard_index(key);
        &mut self.shards[idx]
    }

    /// Total live entries (including expired-but-unswept) across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(ConnTracker::len).sum()
    }

    /// True when no flows are tracked anywhere.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(ConnTracker::is_empty)
    }

    /// Read-only view of a flow, expiry-checked.
    #[inline]
    pub fn get(&self, now: Time, key: &FlowKey) -> Option<&FlowEntry> {
        self.shard_for(key).get(now, key)
    }

    /// Mutable view of a flow, expiry-checked.
    #[inline]
    pub fn get_mut(&mut self, now: Time, key: &FlowKey) -> Option<&mut FlowEntry> {
        self.shard_for_mut(key).get_mut(now, key)
    }

    /// Removes a flow.
    pub fn remove(&mut self, key: &FlowKey) {
        self.shard_for_mut(key).remove(key);
    }

    /// Live flows still enforcing a verdict installed under a policy epoch
    /// older than `epoch`, summed across shards.
    pub fn blocks_pinned_before(&self, now: Time, epoch: u64) -> usize {
        self.shards.iter().map(|s| s.blocks_pinned_before(now, epoch)).sum()
    }

    /// Drops every tracked flow in every shard, keeping provisioned
    /// capacity — the device-restart semantics of [`ConnTracker::clear`].
    pub fn clear(&mut self) {
        for shard in &mut self.shards {
            shard.clear();
        }
    }

    /// Observes a TCP packet; the owning shard runs its bounded GC step,
    /// so per-packet reclamation work is ≤ [`crate::conntrack::GC_PROBE_BUDGET`]
    /// probes regardless of total population.
    #[inline]
    pub fn observe_tcp(
        &mut self,
        now: Time,
        key: FlowKey,
        side: Side,
        flags: TcpFlags,
        payload_len: usize,
    ) -> &mut FlowEntry {
        let idx = self.shard_index(&key);
        self.shards[idx].observe_tcp(now, key, side, flags, payload_len)
    }

    /// Observes a UDP packet (QUIC verdict state).
    #[inline]
    pub fn observe_udp(&mut self, now: Time, key: FlowKey, side: Side) -> &mut FlowEntry {
        let idx = self.shard_index(&key);
        self.shards[idx].observe_udp(now, key, side)
    }

    /// Total slab slots inspected by GC across shards (telemetry).
    pub fn gc_probes(&self) -> u64 {
        self.shards.iter().map(ConnTracker::gc_probes).sum()
    }

    /// Total expired entries reclaimed by GC across shards (telemetry;
    /// mirrored into the flight-recorder ledger as `gc_sweep` events).
    pub fn gc_evictions(&self) -> u64 {
        self.shards.iter().map(ConnTracker::gc_evictions).sum()
    }

    /// Per-shard live-entry counts — the occupancy histogram the load
    /// report emits to show the hash is spreading the population.
    pub fn shard_lens(&self) -> Vec<usize> {
        self.shards.iter().map(ConnTracker::len).collect()
    }

    /// Allocated index capacity summed across shards.
    pub fn table_capacity(&self) -> usize {
        self.shards.iter().map(ConnTracker::table_capacity).sum()
    }

    /// Estimated resident bytes summed across shards: each index at its
    /// capacity, each slab's slots in use and what their entries hold on
    /// the heap (see [`ConnTracker::memory_bytes_estimate`]).
    pub fn memory_bytes_estimate(&self) -> usize {
        self.shards.iter().map(ConnTracker::memory_bytes_estimate).sum()
    }

    /// [`ConnTracker::check_invariants`] on every shard.
    #[cfg(any(test, debug_assertions))]
    pub fn check_invariants(&self) {
        self.shards.iter().for_each(ConnTracker::check_invariants);
    }

    /// Maximum per-shard GC probe count — the figure the load soak holds
    /// against [`crate::conntrack::GC_PROBE_BUDGET`] × observations.
    pub fn max_shard_gc_probes(&self) -> u64 {
        self.shards.iter().map(ConnTracker::gc_probes).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn key(port: u16) -> FlowKey {
        FlowKey {
            local_addr: Ipv4Addr::new(10, 0, 0, 5),
            local_port: port,
            remote_addr: Ipv4Addr::new(203, 0, 113, 5),
            remote_port: 443,
            protocol: 6,
        }
    }

    #[test]
    fn shard_count_rounds_and_clamps() {
        assert_eq!(ShardedConnTracker::with_shards(0).shard_count(), 1);
        assert_eq!(ShardedConnTracker::with_shards(3).shard_count(), 4);
        assert_eq!(ShardedConnTracker::with_shards(16).shard_count(), 16);
        assert_eq!(ShardedConnTracker::with_shards(1000).shard_count(), MAX_SHARDS);
    }

    #[test]
    fn auto_sharding_scales_with_capacity() {
        assert_eq!(ShardedConnTracker::with_capacity(1_000).shard_count(), 1);
        assert_eq!(ShardedConnTracker::with_capacity(200_000).shard_count(), 4);
        assert_eq!(ShardedConnTracker::with_capacity(1_000_000).shard_count(), 16);
    }

    #[test]
    fn provisioned_shards_never_rehash_under_full_population() {
        let mut t = ShardedConnTracker::with_capacity(10_000);
        let caps_before = t.table_capacity();
        for i in 0..10_000u32 {
            let k = FlowKey {
                local_port: (i % 60_000) as u16,
                local_addr: Ipv4Addr::new(10, 0, (i >> 16) as u8, 1),
                ..key(0)
            };
            t.observe_tcp(Time::ZERO, k, Side::Local, TcpFlags::SYN, 0);
        }
        assert_eq!(t.len(), 10_000);
        assert_eq!(t.table_capacity(), caps_before);
    }

    #[test]
    fn population_spreads_across_shards() {
        let mut t = ShardedConnTracker::with_shards(16);
        for port in 0..16_000u16 {
            t.observe_tcp(Time::ZERO, key(port), Side::Local, TcpFlags::SYN, 0);
        }
        let lens = t.shard_lens();
        assert_eq!(lens.iter().sum::<usize>(), 16_000);
        // FxHash over distinct ports should land every shard within 2× of
        // the mean; a dead shard means the mask is broken.
        assert!(lens.iter().all(|&l| l > 0 && l < 2_000), "skewed shards: {lens:?}");
    }

    #[test]
    fn same_key_always_same_shard() {
        let mut t = ShardedConnTracker::with_shards(8);
        t.observe_tcp(Time::ZERO, key(1234), Side::Local, TcpFlags::SYN, 0);
        assert_eq!(t.len(), 1);
        // Second observation of the same key transitions, not duplicates.
        t.observe_tcp(Time::ZERO, key(1234), Side::Remote, TcpFlags::SYN_ACK, 0);
        assert_eq!(t.len(), 1);
        assert!(t.get(Time::ZERO, &key(1234)).is_some());
        t.remove(&key(1234));
        assert!(t.is_empty());
    }
}
