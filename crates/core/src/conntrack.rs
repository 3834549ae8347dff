//! TSPU connection tracking: flow table, client/server role inference, and
//! the idle-timeout state machine of paper §5.3.2–§5.3.3.
//!
//! ## The state machine
//!
//! The paper probes the TSPU with every TCP flag sequence up to length 3
//! (Fig. 4) and estimates per-state timeouts (Tables 2 and 8). This module
//! encodes the *minimal automaton consistent with those observations*:
//!
//! * The sender of a flow's **first packet** becomes the inferred client —
//!   whatever the packet is. A bare SYN/ACK is "unusual but a valid
//!   prefix" (§7.1.1); a bare data packet or ACK also creates a flow.
//! * A **pure SYN from the side opposite the client** (simultaneous open
//!   or split handshake) makes roles *ambiguous*: SNI-I no longer applies,
//!   but the SNI-IV backup filter still does — Fig. 4's green nodes.
//! * A **bare ACK from the client while roles are ambiguous** completes a
//!   role reversal: the tracker decides the other side was the client all
//!   along (the client is ACKing the remote's SYN the way a server would).
//!   This reconciles Table 2's SYN-RECEIVED measurement with Table 8's
//!   `Ls;Rs;Lt → DROP` row.
//! * A **bare ACK answering a SYN** (no SYN/ACK ever seen) is a protocol
//!   violation; the tracker marks the flow [`ConnState::Invalid`] and
//!   exempts it from SNI blocking (Table 8's `Ls;Ra;Lt → PASS` row).
//! * A **SYN answered by a SYN/ACK** is already `ESTABLISHED` — the TSPU
//!   does not wait for the final ACK (Table 2's 480 s row sleeps *before*
//!   the final ACK).
//!
//! Timeouts are idle timeouts, refreshed by any packet of the flow, with
//! the per-state values from [`crate::constants`].

use std::hash::{Hash, Hasher};
use std::net::Ipv4Addr;
use std::time::Duration;

use tspu_wire::tcp::TcpFlags;

use tspu_netsim::Time;

use crate::behaviors::BlockState;
use crate::constants;
use crate::fasthash::FxHasher;

/// Which side of the device a packet came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// The Russian / client-network side.
    Local,
    /// The rest of the internet.
    Remote,
}

impl Side {
    /// The other side.
    pub fn flip(self) -> Side {
        match self {
            Side::Local => Side::Remote,
            Side::Remote => Side::Local,
        }
    }
}

/// A direction-normalized flow key: the local endpoint always comes first,
/// so both directions of a connection hit the same entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowKey {
    pub local_addr: Ipv4Addr,
    pub local_port: u16,
    pub remote_addr: Ipv4Addr,
    pub remote_port: u16,
    /// IP protocol number (6 = TCP, 17 = UDP).
    pub protocol: u8,
}

impl FlowKey {
    /// Builds a key from packet fields plus the side the packet came from.
    pub fn from_packet(
        from: Side,
        src_addr: Ipv4Addr,
        src_port: u16,
        dst_addr: Ipv4Addr,
        dst_port: u16,
        protocol: u8,
    ) -> FlowKey {
        match from {
            Side::Local => FlowKey {
                local_addr: src_addr,
                local_port: src_port,
                remote_addr: dst_addr,
                remote_port: dst_port,
                protocol,
            },
            Side::Remote => FlowKey {
                local_addr: dst_addr,
                local_port: dst_port,
                remote_addr: src_addr,
                remote_port: src_port,
                protocol,
            },
        }
    }
}

/// The finished FxHash of a flow key (the state rotated left by 26, see
/// [`FxHasher::finish`]). Of the finished hash,
/// [`ShardedConnTracker`](crate::ShardedConnTracker) picks a shard from
/// the low bits (0–5 at 64 shards), a tracker's index its home bucket from
/// the top `log2(buckets)` bits and its tag from bits 24–30, so the three
/// never share a bit. The rotate only permutes bits, so they stay
/// disjoint; it moves the multiply's well-mixed middle bits to the low end.
#[inline]
pub(crate) fn flow_hash(key: &FlowKey) -> u64 {
    let mut hasher = FxHasher::default();
    key.hash(&mut hasher);
    hasher.finish()
}

/// Connection-tracking states. Each carries the idle timeout measured for
/// it in the paper (see [`crate::constants`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConnState {
    /// A pure SYN seen, nothing back yet.
    SynSent,
    /// A SYN from the side opposite the inferred client: simultaneous
    /// open / split handshake — roles ambiguous.
    SynRecv,
    /// SYN answered by SYN/ACK (or an ambiguous handshake completed).
    Established,
    /// Flow created by a data-bearing packet with no handshake.
    Loose,
    /// Flow created by a bare ACK (a connection whose start the tracker
    /// missed).
    AckFirst,
    /// Flow created by a bare SYN/ACK — §7.1.1's "unusual but valid
    /// prefix", the state upstream-only devices typically hold.
    SynAckFirst,
    /// The tracker saw a protocol-violating packet and gave up; SNI
    /// blocking is exempted while this entry lives.
    Invalid,
    /// A UDP flow (tracked for QUIC verdicts).
    Udp,
}

impl ConnState {
    /// The idle timeout of this state.
    pub fn timeout(self) -> Duration {
        match self {
            ConnState::SynSent => constants::TIMEOUT_SYN_SENT,
            ConnState::SynRecv => constants::TIMEOUT_SYN_RECV,
            ConnState::Established => constants::TIMEOUT_ESTABLISHED,
            ConnState::Loose => constants::TIMEOUT_LOOSE,
            ConnState::AckFirst => constants::TIMEOUT_ACK_FIRST,
            ConnState::SynAckFirst => constants::TIMEOUT_SYNACK_FIRST,
            ConnState::Invalid => constants::TIMEOUT_INVALID,
            ConnState::Udp => constants::TIMEOUT_UDP,
        }
    }
}

/// One tracked flow.
#[derive(Debug, Clone)]
pub struct FlowEntry {
    pub state: ConnState,
    /// The currently inferred client.
    pub client: Side,
    /// Who sent the first packet of the flow.
    pub first_sender: Side,
    /// A SYN arrived from the side opposite the client (green sequences).
    pub ambiguous: bool,
    /// Roles were reversed after an ambiguous handshake resolved toward
    /// the other side; the SNI-IV backup remains armed if the original
    /// first sender was local.
    pub reversed: bool,
    pub last_seen: Time,
    /// Active blocking verdict, if this flow tripped a trigger. Boxed: only
    /// the flows that trip one pay for its bytes, and a slot stays 64 B.
    pub block: Option<Box<BlockState>>,
    /// This device failed to act on this flow (Table 1's failure rates);
    /// triggers are ignored for the entry's lifetime.
    pub exempt: bool,
    /// Whether the exemption dice have been rolled for this flow yet.
    pub exemption_decided: bool,
    /// Accumulated local→remote stream bytes, kept only when the device
    /// runs with TCP-reassembly hardening (see `crate::hardening`); the
    /// first buffered segment allocates it.
    pub rx_stream: Option<Box<Vec<u8>>>,
    /// Cached IP-blocklist verdict for the flow's remote endpoint, tagged
    /// with the policy epoch it was looked up under. A registry delta
    /// bumps the epoch and thereby invalidates every flow's cache, so a
    /// hit is exactly equivalent to re-probing the blocklist.
    pub remote_ip_blocked: Option<(u64, bool)>,
}

impl FlowEntry {
    fn new(now: Time, first_sender: Side, state: ConnState) -> FlowEntry {
        FlowEntry {
            state,
            client: first_sender,
            first_sender,
            ambiguous: false,
            reversed: false,
            last_seen: now,
            block: None,
            exempt: false,
            exemption_decided: false,
            rx_stream: None,
            remote_ip_blocked: None,
        }
    }

    /// True once the entry has outlived its idle timeout. While a verdict
    /// is in force, packets do NOT refresh `last_seen` (the state is
    /// frozen at trigger time), so residual censorship ends at
    /// min(block-kind duration, state idle timeout) — the reconciliation
    /// of Table 2's residuals with Table 8's `Lt → 180 s` row.
    pub fn expired(&self, now: Time) -> bool {
        now.since(self.last_seen) > self.state.timeout()
    }

    /// SNI-I applies to flows whose client is unambiguously local.
    pub fn sni1_applies(&self) -> bool {
        self.client == Side::Local && !self.ambiguous && self.state != ConnState::Invalid
    }

    /// SNI-II applies whenever the inferred client is local, ambiguous or
    /// not (Table 8's `Ls;Rs;Lt → DROP` with an SNI-II trigger).
    pub fn sni2_applies(&self) -> bool {
        self.client == Side::Local && self.state != ConnState::Invalid
    }

    /// SNI-IV is the backup filter: it arms exactly when SNI-I has been
    /// evaded by role games but the flow's origin was local (§5.3.2).
    pub fn sni4_applies(&self) -> bool {
        if self.state == ConnState::Invalid || self.sni1_applies() {
            return false;
        }
        self.client == Side::Local || (self.reversed && self.first_sender == Side::Local)
    }
}

/// One slab slot: a tracked flow, or a link in the free list.
#[derive(Debug)]
enum Slot {
    Live { key: FlowKey, entry: FlowEntry },
    Free { next: Option<u32> },
}

impl Slot {
    fn key(&self) -> &FlowKey {
        match self {
            Slot::Live { key, .. } => key,
            Slot::Free { .. } => unreachable!("the index holds live slots only"),
        }
    }

    fn entry(&self) -> &FlowEntry {
        match self {
            Slot::Live { entry, .. } => entry,
            Slot::Free { .. } => unreachable!("the index holds live slots only"),
        }
    }

    fn entry_mut(&mut self) -> &mut FlowEntry {
        match self {
            Slot::Live { entry, .. } => entry,
            Slot::Free { .. } => unreachable!("the index holds live slots only"),
        }
    }
}

/// The flow index: an open-addressed table of slab slot numbers, five
/// bytes a bucket. Keys live only in the slab; a bucket holds the slot
/// number and a one-byte tag of the key's hash, and a key is compared in
/// the slab only when its tag matches. Linear probing from the home bucket
/// (the hash's high bits); a deletion shifts the rest of its cluster back,
/// so there are no tombstones and a lookup stops at the first empty bucket.
/// At most three quarters of the buckets are full.
///
/// The two arrays are allocated, zeroed, by the first insert: a provisioned
/// index that never sees a flow touches no memory, where a zeroed
/// allocation made up front would be written in full whenever the
/// allocator hands back recycled pages.
#[derive(Default)]
struct FlowIndex {
    /// The slab slot each full bucket names; read only where `tags` is full.
    slots: Vec<u32>,
    /// 0 for an empty bucket, else the key's [`tag`] (high bit set).
    tags: Vec<u8>,
    /// Buckets, a power of two or 0; the arrays' length once allocated.
    buckets: usize,
    /// Full buckets.
    len: usize,
    /// `64 − log2(buckets)`: a hash's home bucket is `hash >> shift`.
    shift: u32,
}

/// A full bucket's tag: hash bits 24–30, which neither the home bucket nor
/// a shard index (at most 64 shards) uses, with the high bit set.
#[inline]
fn tag(hash: u64) -> u8 {
    (hash >> 24) as u8 | 0x80
}

impl FlowIndex {
    /// An index that holds `flows` keys without growing: the smallest
    /// power of two of buckets with `flows` at most three quarters of it.
    fn with_capacity(flows: usize) -> FlowIndex {
        if flows == 0 {
            return FlowIndex::default();
        }
        FlowIndex::with_buckets((flows * 4).div_ceil(3).next_power_of_two())
    }

    fn with_buckets(buckets: usize) -> FlowIndex {
        debug_assert!(buckets.is_power_of_two());
        FlowIndex { buckets, shift: 64 - buckets.trailing_zeros(), ..FlowIndex::default() }
    }

    fn allocate(&mut self) {
        self.slots = vec![0; self.buckets];
        self.tags = vec![0; self.buckets];
    }

    /// Keys held before the next insert doubles the table.
    fn capacity(&self) -> usize {
        self.buckets * 3 / 4
    }

    #[inline]
    fn home(&self, hash: u64) -> usize {
        (hash >> self.shift) as usize
    }

    /// The bucket holding `key`, whose hash is `hash`.
    #[inline]
    fn find(&self, hash: u64, key: &FlowKey, slab: &[Slot]) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let (mask, tag) = (self.buckets - 1, tag(hash));
        let mut pos = self.home(hash);
        loop {
            match self.tags[pos] {
                0 => return None,
                t if t == tag && slab[self.slots[pos] as usize].key() == key => return Some(pos),
                _ => pos = (pos + 1) & mask,
            }
        }
    }

    /// The slab slot holding `key`.
    #[inline]
    fn get(&self, hash: u64, key: &FlowKey, slab: &[Slot]) -> Option<u32> {
        self.find(hash, key, slab).map(|pos| self.slots[pos])
    }

    /// Indexes `slot`, whose key (hashing to `hash`) is not indexed yet.
    fn insert(&mut self, hash: u64, slot: u32, slab: &[Slot]) {
        if self.len == self.capacity() {
            self.grow(slab);
        } else if self.tags.is_empty() {
            self.allocate();
        }
        self.place(hash, slot);
        self.len += 1;
    }

    /// Writes `slot` into the first empty bucket from its home.
    fn place(&mut self, hash: u64, slot: u32) {
        let mask = self.buckets - 1;
        let mut pos = self.home(hash);
        while self.tags[pos] != 0 {
            pos = (pos + 1) & mask;
        }
        self.tags[pos] = tag(hash);
        self.slots[pos] = slot;
    }

    /// Doubles the buckets (four at first), re-hashing each key read from
    /// the slab.
    fn grow(&mut self, slab: &[Slot]) {
        let old = std::mem::replace(self, FlowIndex::with_buckets((self.buckets * 2).max(4)));
        self.allocate();
        self.len = old.len;
        for (&slot, &tag) in old.slots.iter().zip(&old.tags) {
            if tag != 0 {
                self.place(flow_hash(slab[slot as usize].key()), slot);
            }
        }
    }

    /// Unindexes `key` and returns its slot; the key must still be in the
    /// slab. Every later bucket of the cluster whose home allows it moves
    /// back into the hole, so no lookup ever stops short of its key.
    fn remove(&mut self, key: &FlowKey, slab: &[Slot]) -> Option<u32> {
        let mut hole = self.find(flow_hash(key), key, slab)?;
        let slot = self.slots[hole];
        let mask = self.buckets - 1;
        let mut next = (hole + 1) & mask;
        while self.tags[next] != 0 {
            let home = self.home(flow_hash(slab[self.slots[next] as usize].key()));
            // The key at `next` may fill the hole unless its home lies
            // cyclically in (hole, next].
            if next.wrapping_sub(home) & mask >= next.wrapping_sub(hole) & mask {
                self.slots[hole] = self.slots[next];
                self.tags[hole] = self.tags[next];
                hole = next;
            }
            next = (next + 1) & mask;
        }
        self.tags[hole] = 0;
        self.len -= 1;
        Some(slot)
    }

    /// Empties every bucket, keeping the allocation.
    fn clear(&mut self) {
        self.tags.fill(0);
        self.len = 0;
    }
}

/// How many slab slots each observation probes. Reclamation keeps pace
/// with creation as long as this is > 1 (each packet fills at most one
/// slot). Public so load drivers can assert the per-packet GC bound they
/// were promised.
pub const GC_PROBE_BUDGET: usize = 4;

/// The flow table: a five-byte-a-bucket index (`FlowIndex`) over one
/// dense slab of keys and entries. Slots fill from 0 up and a freed slot is
/// reused before the slab grows, so resident memory follows the flows
/// tracked — the index costs its buckets, the slab only the slots ever in
/// use at once.
///
/// ## Garbage collection
///
/// Expiry is *semantically* lazy — [`ConnTracker::get`]/[`ConnTracker::get_mut`] and the
/// observe paths check [`FlowEntry::expired`] at access time — so GC exists
/// purely to reclaim memory for flows that are never touched again. It is
/// a hand over the slab: every observation inspects the next
/// [`GC_PROBE_BUDGET`] consecutive slots and frees the expired ones (the
/// only time GC touches the index). Worst-case work per packet is
/// O([`GC_PROBE_BUDGET`]) regardless of table size — there is no full-table
/// scan anywhere on the packet path — and every expired entry is reclaimed
/// within one revolution of the hand after its expiry.
#[derive(Default)]
pub struct ConnTracker {
    index: FlowIndex,
    slab: Vec<Slot>,
    /// Head of the free list threaded through [`Slot::Free`].
    free: Option<u32>,
    /// The next slab slot GC inspects.
    hand: usize,
    /// Slab slots inspected by GC so far — the direct measure of
    /// reclamation work on the packet path, surfaced as
    /// `conntrack.gc_probes`.
    gc_probes: u64,
    /// Expired entries reclaimed by GC so far, surfaced as
    /// `conntrack.gc_evictions` and mirrored into the enforcement flight
    /// recorder's ledger.
    gc_evictions: u64,
}

impl ConnTracker {
    /// Creates an empty tracker.
    pub fn new() -> ConnTracker {
        ConnTracker::default()
    }

    /// Creates a tracker with index and slab space for `capacity` live
    /// flows pre-reserved — the `nf_conntrack` hashsize analogue. A
    /// provisioned table never rehashes or copies on the packet path, so
    /// flow insertion latency stays flat (growth is the one remaining
    /// O(table) event; see the `conntrack/gc_churn_*` tail-latency
    /// benches). The slab's reservation is address space only: no slot is
    /// touched before a flow fills it; the index is allocated at its full
    /// size by the first flow.
    pub fn with_capacity(capacity: usize) -> ConnTracker {
        ConnTracker {
            index: FlowIndex::with_capacity(capacity),
            slab: Vec::with_capacity(capacity),
            ..ConnTracker::default()
        }
    }

    /// Flows the index holds before it grows (provisioning telemetry; the
    /// capacity-stability regression test watches this across churn).
    pub fn table_capacity(&self) -> usize {
        self.index.capacity()
    }

    /// Estimated bytes the tracker keeps resident: the index's allocated
    /// buckets × five bytes (a hash spreads flows over every page), the
    /// slab slots *in use* × slot size (the reserved remainder is untouched
    /// address space), and what live entries hold on the heap — each boxed
    /// verdict, and each `rx_stream` buffer's box and capacity. One pass
    /// over the slab. An estimate: allocation rounding is not modeled. Load
    /// soaks divide this by the tracked-flow count for bytes per flow.
    pub fn memory_bytes_estimate(&self) -> usize {
        use std::mem::size_of;
        let heap: usize = self
            .slab
            .iter()
            .map(|slot| match slot {
                Slot::Live { entry, .. } => {
                    entry.block.as_ref().map_or(0, |_| size_of::<BlockState>())
                        + entry.rx_stream.as_ref().map_or(0, |s| size_of::<Vec<u8>>() + s.capacity())
                }
                Slot::Free { .. } => 0,
            })
            .sum();
        self.index.tags.len() * (size_of::<u32>() + size_of::<u8>())
            + self.slab.len() * size_of::<Slot>()
            + heap
    }

    /// Number of live entries (including expired-but-unswept).
    pub fn len(&self) -> usize {
        self.index.len
    }

    /// True when no flows are tracked.
    pub fn is_empty(&self) -> bool {
        self.index.len == 0
    }

    /// Read-only view of a flow, expiry-checked.
    pub fn get(&self, now: Time, key: &FlowKey) -> Option<&FlowEntry> {
        let slot = self.index.get(flow_hash(key), key, &self.slab)?;
        Some(self.slab[slot as usize].entry()).filter(|e| !e.expired(now))
    }

    /// Mutable view of a flow, expiry-checked.
    pub fn get_mut(&mut self, now: Time, key: &FlowKey) -> Option<&mut FlowEntry> {
        let slot = self.index.get(flow_hash(key), key, &self.slab)?;
        Some(self.slab[slot as usize].entry_mut()).filter(|e| !e.expired(now))
    }

    /// Removes a flow.
    pub fn remove(&mut self, key: &FlowKey) {
        if let Some(slot) = self.index.remove(key, &self.slab) {
            self.release(slot);
        }
    }

    /// Puts `slot` on the free list, dropping the entry it held (and that
    /// entry's boxed verdict and reassembly buffer) now rather than when the
    /// slot is reused.
    fn release(&mut self, slot: u32) {
        self.slab[slot as usize] = Slot::Free { next: self.free };
        self.free = Some(slot);
    }

    /// Audits epoch pinning: how many live flows still enforce a verdict
    /// installed under a policy epoch older than `epoch`. These are the
    /// residually blocked connections a registry delta does *not* touch —
    /// Table 2's windows outliving the rule that opened them.
    pub fn blocks_pinned_before(&self, now: Time, epoch: u64) -> usize {
        self.slab
            .iter()
            .filter_map(|slot| match slot {
                Slot::Live { entry, .. } if !entry.expired(now) => entry.block.as_ref(),
                _ => None,
            })
            .filter(|b| b.active(now) && b.epoch < epoch)
            .count()
    }

    /// Drops every tracked flow — what a device restart does to its state
    /// table. Allocated index and slab capacity is kept, so a restarted
    /// provisioned device still never grows on the packet path.
    pub fn clear(&mut self) {
        self.index.clear();
        self.slab.clear();
        self.free = None;
        self.hand = 0;
    }

    /// Observes a TCP packet of flow `key` from `side`, creating or
    /// transitioning the entry, and returns it.
    pub fn observe_tcp(
        &mut self,
        now: Time,
        key: FlowKey,
        side: Side,
        flags: TcpFlags,
        payload_len: usize,
    ) -> &mut FlowEntry {
        self.gc_step(now);
        let (entry, is_new) = self
            .lookup_or_insert(now, key, || FlowEntry::new(now, side, initial_state(flags, payload_len)));
        // Clear a lapsed block so residual censorship genuinely ends.
        if entry.block.as_ref().is_some_and(|b| !b.active(now)) {
            entry.block = None;
        }
        if entry.block.is_some() {
            // Verdict in force: the flow's state is frozen at trigger
            // time; blocked traffic neither transitions nor refreshes it.
            return entry;
        }
        if !is_new {
            transition(entry, side, flags, payload_len);
        }
        entry.last_seen = now;
        entry
    }

    /// Observes a UDP packet; UDP flows exist mainly to carry QUIC block
    /// state and use the loose timeout.
    pub fn observe_udp(&mut self, now: Time, key: FlowKey, side: Side) -> &mut FlowEntry {
        self.gc_step(now);
        let (entry, _is_new) =
            self.lookup_or_insert(now, key, || FlowEntry::new(now, side, ConnState::Udp));
        if entry.block.as_ref().is_some_and(|b| !b.active(now)) {
            entry.block = None;
        }
        if entry.block.is_none() {
            entry.last_seen = now;
        }
        entry
    }

    /// Finds the live entry for `key`, replacing an expired incarnation in
    /// its slot or filling a slot with `make()` when none exists; returns
    /// the entry and whether it is brand new. One hash and one probe
    /// sequence cover the expiry check, the existence check and the access
    /// — this runs on every packet; a new flow reuses the hash to insert.
    fn lookup_or_insert(
        &mut self,
        now: Time,
        key: FlowKey,
        make: impl FnOnce() -> FlowEntry,
    ) -> (&mut FlowEntry, bool) {
        let hash = flow_hash(&key);
        if let Some(slot) = self.index.get(hash, &key, &self.slab) {
            let entry = self.slab[slot as usize].entry_mut();
            let stale = entry.expired(now);
            if stale {
                *entry = make();
            }
            return (entry, stale);
        }
        let live = Slot::Live { key, entry: make() };
        let slot = match self.free {
            Some(slot) => {
                let Slot::Free { next } = std::mem::replace(&mut self.slab[slot as usize], live) else {
                    unreachable!("the free list holds free slots only")
                };
                self.free = next;
                slot
            }
            None => {
                self.slab.push(live);
                u32::try_from(self.slab.len() - 1).expect("flow table beyond 2^32 slots")
            }
        };
        self.index.insert(hash, slot, &self.slab);
        (self.slab[slot as usize].entry_mut(), true)
    }

    /// One bounded GC step: the hand inspects the next [`GC_PROBE_BUDGET`]
    /// slab slots, wrapping at the end, and frees the expired ones. The
    /// budget is capped at the slab length — a one-flow tracker pays for
    /// one probe, not four looks at the same slot.
    fn gc_step(&mut self, now: Time) {
        let budget = GC_PROBE_BUDGET.min(self.slab.len());
        for _ in 0..budget {
            if self.hand >= self.slab.len() {
                self.hand = 0;
            }
            if let Slot::Live { key, entry } = &self.slab[self.hand] {
                if entry.expired(now) {
                    let key = *key;
                    self.remove(&key);
                    self.gc_evictions += 1;
                }
            }
            self.hand += 1;
        }
        self.gc_probes += budget as u64;
    }

    /// Slab slots inspected by GC since construction (telemetry).
    pub fn gc_probes(&self) -> u64 {
        self.gc_probes
    }

    /// Expired entries reclaimed by GC since construction (telemetry).
    pub fn gc_evictions(&self) -> u64 {
        self.gc_evictions
    }

    /// Structural invariants of index, slab and free list; panics on the
    /// first one broken. For the model differential and the unit tests.
    #[cfg(any(test, debug_assertions))]
    pub fn check_invariants(&self) {
        let index = &self.index;
        let mask = index.buckets.wrapping_sub(1);
        let mut full = 0;
        for (pos, (&slot, &held)) in index.slots.iter().zip(&index.tags).enumerate() {
            if held == 0 {
                continue;
            }
            full += 1;
            let key = match self.slab.get(slot as usize) {
                Some(Slot::Live { key, .. }) => key,
                other => panic!("bucket {pos} names slot {slot}: {other:?}"),
            };
            let hash = flow_hash(key);
            assert_eq!(held, tag(hash), "bucket {pos} carries another key's tag");
            let home = index.home(hash);
            let mut probe = home;
            while probe != pos {
                assert_ne!(index.tags[probe], 0, "{key:?} sits past an empty bucket from its home {home}");
                probe = (probe + 1) & mask;
            }
            assert_eq!(index.find(hash, key, &self.slab), Some(pos), "{key:?} is indexed twice");
        }
        assert_eq!(full, index.len, "the index miscounts its full buckets");
        assert!(index.len <= index.capacity(), "index past three quarters full");
        let live = self.slab.iter().filter(|s| matches!(s, Slot::Live { .. })).count();
        assert_eq!(live, index.len, "a live slot is not indexed");
        let mut free = 0;
        let mut next = self.free;
        while let Some(slot) = next {
            let Slot::Free { next: link } = &self.slab[slot as usize] else {
                panic!("free list runs through live slot {slot}")
            };
            free += 1;
            assert!(free <= self.slab.len(), "free list cycles");
            next = *link;
        }
        assert_eq!(live + free, self.slab.len(), "a free slot is off the free list");
    }
}

/// The state a brand-new flow starts in, from its first packet.
fn initial_state(flags: TcpFlags, payload_len: usize) -> ConnState {
    if flags.is_pure_syn() {
        ConnState::SynSent
    } else if flags.is_syn_ack() {
        ConnState::SynAckFirst
    } else if payload_len > 0 {
        ConnState::Loose
    } else if flags.ack() && !flags.rst() && !flags.fin() {
        ConnState::AckFirst
    } else {
        ConnState::Loose
    }
}

/// Applies one packet's worth of state transition to an existing entry.
fn transition(entry: &mut FlowEntry, side: Side, flags: TcpFlags, payload_len: usize) {
    if flags.is_pure_syn() {
        if side != entry.client {
            // Simultaneous open / split handshake: roles become ambiguous.
            if entry.state != ConnState::Invalid {
                entry.state = ConnState::SynRecv;
                entry.ambiguous = true;
            }
        }
        // A SYN retransmission from the client refreshes only.
        return;
    }
    if flags.is_syn_ack() {
        match entry.state {
            ConnState::SynSent if side != entry.client => {
                // Normal handshake step 2: established right away.
                entry.state = ConnState::Established;
            }
            ConnState::SynRecv => {
                // Either side completing an ambiguous handshake.
                entry.state = ConnState::Established;
            }
            _ => {}
        }
        return;
    }
    let bare_ack = flags.ack() && payload_len == 0 && !flags.rst() && !flags.fin();
    if bare_ack {
        match entry.state {
            ConnState::SynSent if side != entry.client => {
                // An ACK answering a SYN with no SYN/ACK in between:
                // protocol violation, tracker gives up (Ls;Ra → PASS).
                entry.state = ConnState::Invalid;
                entry.ambiguous = false;
            }
            ConnState::SynRecv if entry.ambiguous && side == entry.client => {
                // The nominal client ACKs the opposite SYN like a server
                // would: the tracker reverses roles (Table 2, SYN-RECEIVED
                // row measured through exactly this sequence).
                entry.client = entry.client.flip();
                entry.ambiguous = false;
                entry.reversed = true;
            }
            ConnState::SynRecv => {
                entry.state = ConnState::Established;
            }
            _ => {}
        }
    }
    // A data-bearing packet on a half-open handshake degrades the entry to
    // the loose-data state (Table 8: `Ls;Rs;Lt` measures 180 s, the Loose
    // timeout, not SYN-RECEIVED's 105 s). Role flags are preserved.
    if payload_len > 0 && matches!(entry.state, ConnState::SynSent | ConnState::SynRecv) {
        entry.state = ConnState::Loose;
    }
    // RST / FIN packets refresh the entry without changing state: the TSPU
    // keeps residual state even across RSTs (fresh source ports are needed
    // to escape residual censorship, §3).
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOCAL: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 5);
    const REMOTE: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 5);

    fn key() -> FlowKey {
        FlowKey {
            local_addr: LOCAL,
            local_port: 40000,
            remote_addr: REMOTE,
            remote_port: 443,
            protocol: 6,
        }
    }

    /// Plays a sequence of (side, flags, payload) and returns the entry.
    fn play(tracker: &mut ConnTracker, seq: &[(Side, TcpFlags, usize)]) -> FlowEntry {
        let mut now = Time::ZERO;
        for &(side, flags, len) in seq {
            tracker.observe_tcp(now, key(), side, flags, len);
            now += Duration::from_millis(10);
        }
        tracker.get(now, &key()).unwrap().clone()
    }

    use Side::{Local as L, Remote as R};
    const S: TcpFlags = TcpFlags::SYN;
    const SA: TcpFlags = TcpFlags::SYN_ACK;
    const A: TcpFlags = TcpFlags::ACK;

    #[test]
    fn key_normalization() {
        let from_local = FlowKey::from_packet(L, LOCAL, 40000, REMOTE, 443, 6);
        let from_remote = FlowKey::from_packet(R, REMOTE, 443, LOCAL, 40000, 6);
        assert_eq!(from_local, from_remote);
    }

    #[test]
    fn normal_handshake_client_local() {
        let mut t = ConnTracker::new();
        let e = play(&mut t, &[(L, S, 0), (R, SA, 0), (L, A, 0)]);
        assert_eq!(e.state, ConnState::Established);
        assert_eq!(e.client, L);
        assert!(!e.ambiguous);
        assert!(e.sni1_applies());
        assert!(e.sni2_applies());
        assert!(!e.sni4_applies()); // SNI-I takes precedence
    }

    #[test]
    fn syn_plus_synack_is_already_established() {
        // Table 2: the 480 s state is reached before the final ACK.
        let mut t = ConnTracker::new();
        let e = play(&mut t, &[(L, S, 0), (R, SA, 0)]);
        assert_eq!(e.state, ConnState::Established);
    }

    #[test]
    fn remote_initiated_flow_never_sni_blockable() {
        // Fig. 4: "any sequence starting with a packet sent by the remote
        // peer is NOT a valid prefix".
        let mut t = ConnTracker::new();
        for seq in [
            vec![(R, S, 0)],
            vec![(R, S, 0), (L, SA, 0)],
            vec![(R, S, 0), (L, SA, 0), (R, A, 0)],
            vec![(R, A, 0)],
            vec![(R, SA, 0)],
            vec![(R, TcpFlags::PSH_ACK, 0), (L, TcpFlags::PSH_ACK, 100)],
        ] {
            let e = play(&mut t, &seq);
            assert!(!e.sni1_applies(), "{seq:?}");
            assert!(!e.sni2_applies(), "{seq:?}");
            assert!(!e.sni4_applies(), "{seq:?}");
            t.remove(&key());
        }
    }

    #[test]
    fn simultaneous_open_is_green() {
        // Ls;Rs: evades SNI-I, still trips SNI-II and SNI-IV.
        let mut t = ConnTracker::new();
        let e = play(&mut t, &[(L, S, 0), (R, S, 0)]);
        assert_eq!(e.state, ConnState::SynRecv);
        assert!(e.ambiguous);
        assert!(!e.sni1_applies());
        assert!(e.sni2_applies());
        assert!(e.sni4_applies());
    }

    #[test]
    fn split_handshake_is_green() {
        // §8 server-side strategy: client SYN, server answers with bare
        // SYN, client SYN/ACKs, server ACKs.
        let mut t = ConnTracker::new();
        let e = play(&mut t, &[(L, S, 0), (R, S, 0), (L, SA, 0), (R, A, 0)]);
        assert_eq!(e.state, ConnState::Established);
        assert!(e.ambiguous);
        assert!(!e.sni1_applies());
        assert!(e.sni4_applies());
    }

    #[test]
    fn ambiguous_handshake_ack_reverses_roles() {
        // Ls;Rs;La — Table 2's SYN-RECEIVED sequence: after the local bare
        // ACK the tracker decides the remote is the client.
        let mut t = ConnTracker::new();
        let e = play(&mut t, &[(L, S, 0), (R, S, 0), (L, A, 0)]);
        assert_eq!(e.state, ConnState::SynRecv);
        assert_eq!(e.client, R);
        assert!(!e.ambiguous);
        assert!(e.reversed);
        assert!(!e.sni1_applies());
        assert!(!e.sni2_applies()); // PASS while alive — the Table 2 flip
        assert!(e.sni4_applies()); // backup still armed
    }

    #[test]
    fn ack_answering_syn_invalidates_flow() {
        // Ls;Ra → Invalid → exempt (Table 8 row `Ls;Ra;Lt` = PASS, 180 s).
        let mut t = ConnTracker::new();
        let e = play(&mut t, &[(L, S, 0), (R, A, 0)]);
        assert_eq!(e.state, ConnState::Invalid);
        assert!(!e.sni1_applies());
        assert!(!e.sni2_applies());
        assert!(!e.sni4_applies());
        assert_eq!(e.state.timeout(), Duration::from_secs(180));
    }

    #[test]
    fn synack_first_is_valid_blockable_prefix() {
        // §7.1.1: upstream-only devices see the RU SYN/ACK first and treat
        // its sender as the client.
        let mut t = ConnTracker::new();
        let e = play(&mut t, &[(L, SA, 0)]);
        assert_eq!(e.state, ConnState::SynAckFirst);
        assert_eq!(e.client, L);
        assert!(e.sni1_applies());
        assert!(e.sni2_applies());
        assert_eq!(e.state.timeout(), Duration::from_secs(480));
    }

    #[test]
    fn loose_data_first_flow_is_blockable() {
        // Table 8 `Lt` row: a bare triggering data packet DROPs (180 s).
        let mut t = ConnTracker::new();
        let e = play(&mut t, &[(L, TcpFlags::PSH_ACK, 500)]);
        assert_eq!(e.state, ConnState::Loose);
        assert!(e.sni1_applies());
        assert_eq!(e.state.timeout(), Duration::from_secs(180));
    }

    #[test]
    fn ack_first_flow_is_blockable_with_long_timeout() {
        // Table 8 `La;Lt` row: DROP, 480 s.
        let mut t = ConnTracker::new();
        let e = play(&mut t, &[(L, A, 0)]);
        assert_eq!(e.state, ConnState::AckFirst);
        assert!(e.sni1_applies());
        assert_eq!(e.state.timeout(), Duration::from_secs(480));
    }

    #[test]
    fn idle_expiry_replaces_entry() {
        let mut t = ConnTracker::new();
        t.observe_tcp(Time::ZERO, key(), R, S, 0);
        // Still alive within 60 s.
        let now = Time::from_secs(59);
        assert!(t.get(now, &key()).is_some());
        // Expired beyond 60 s: a local trigger now creates a *fresh* flow
        // with client = local.
        let now = Time::from_secs(61);
        assert!(t.get(now, &key()).is_none());
        let e = t.observe_tcp(now, key(), L, TcpFlags::PSH_ACK, 300);
        assert_eq!(e.client, L);
        assert_eq!(e.state, ConnState::Loose);
    }

    #[test]
    fn activity_refreshes_idle_timeout() {
        let mut t = ConnTracker::new();
        t.observe_tcp(Time::ZERO, key(), L, S, 0);
        t.observe_tcp(Time::from_secs(50), key(), L, S, 0); // retransmit
        assert!(t.get(Time::from_secs(100), &key()).is_some());
        assert!(t.get(Time::from_secs(111), &key()).is_none());
    }

    #[test]
    fn established_timeout_is_480() {
        let mut t = ConnTracker::new();
        t.observe_tcp(Time::ZERO, key(), L, S, 0);
        t.observe_tcp(Time::from_secs(1), key(), R, SA, 0);
        assert!(t.get(Time::from_secs(480), &key()).is_some());
        assert!(t.get(Time::from_secs(482), &key()).is_none());
    }

    #[test]
    fn late_remote_syn_on_established_goes_ambiguous() {
        // A remote SYN arriving mid-connection still creates ambiguity.
        let mut t = ConnTracker::new();
        let e = play(&mut t, &[(L, S, 0), (R, SA, 0), (L, A, 0), (R, S, 0)]);
        assert!(e.ambiguous);
        assert!(!e.sni1_applies());
        assert!(e.sni4_applies());
    }

    #[test]
    fn gc_sweeps_expired_flows() {
        let mut t = ConnTracker::new();
        for port in 0..32u16 {
            let k = FlowKey { local_port: 1000 + port, ..key() };
            t.observe_tcp(Time::ZERO, k, L, TcpFlags::PSH_ACK, 10);
        }
        assert_eq!(t.len(), 32);
        // All 32 Loose flows expire by t = 300 s (timeout 180 s). Each
        // observation probes a bounded number of slab slots, so one
        // revolution of the hand — eight packets on an unrelated flow,
        // which takes the first slot freed — reclaims the whole table
        // without any single packet paying for a full-table scan.
        for i in 0..t.slab.len().div_ceil(GC_PROBE_BUDGET) as u64 {
            t.observe_tcp(Time::from_secs(300 + i), key(), L, S, 0);
        }
        assert_eq!(t.len(), 1); // only the probing flow survives
        t.check_invariants();
    }

    #[test]
    fn slab_does_not_grow_under_same_key_churn() {
        let mut t = ConnTracker::new();
        // The same key through repeated expiry + re-creation is replaced
        // in its slot (or evicted by the hand and refilled): one slot.
        for i in 0..1000u64 {
            let now = Time::from_secs(i * 200); // Loose timeout is 180 s
            t.observe_tcp(now, key(), L, TcpFlags::PSH_ACK, 10);
            t.check_invariants();
        }
        assert_eq!(t.len(), 1);
        assert_eq!(t.slab.len(), 1);
    }

    /// N distinct flows, a different population each `round`.
    fn churn_key(round: u64, i: usize) -> FlowKey {
        FlowKey {
            local_port: (i % 60000) as u16,
            local_addr: Ipv4Addr::new(10, round as u8, (i / 60000) as u8, 1),
            ..key()
        }
    }

    #[test]
    fn provisioned_capacity_stable_across_churn() {
        // A tracker provisioned for N flows must never rehash its index or
        // move its slab before N live inserts — including under expiry
        // churn, where the hand frees slots just ahead of the inserts that
        // refill them.
        const N: usize = 4096;
        let mut t = ConnTracker::with_capacity(N);
        let index_cap = t.table_capacity();
        let slab_at = t.slab.as_ptr();
        assert!(index_cap >= N);
        assert!(t.slab.capacity() >= N);
        // Three generations of the full population: each round expires the
        // last (Loose timeout 180 s), so live count tops out at N while
        // total inserts run to 3N.
        for round in 0..3u64 {
            let now = Time::from_secs(round * 300);
            for i in 0..N {
                t.observe_tcp(now, churn_key(round, i), L, TcpFlags::PSH_ACK, 10);
            }
            assert!(t.len() <= N);
            t.check_invariants();
        }
        assert_eq!(t.table_capacity(), index_cap, "index grew during churn");
        assert_eq!(t.slab.as_ptr(), slab_at, "slab moved during churn");
        assert!(t.slab.len() <= N, "slab grew past the population: {}", t.slab.len());
        // A restart keeps both allocations and resets the hand.
        t.clear();
        t.check_invariants();
        assert_eq!((t.len(), t.slab.len(), t.hand), (0, 0, 0));
        assert_eq!(t.table_capacity(), index_cap, "index reallocated during churn");
        assert_eq!(t.slab.as_ptr(), slab_at);
    }

    /// A key whose home bucket in `t`'s index is `home`, from a different
    /// local port on each call.
    fn key_homed_at(t: &ConnTracker, home: usize, port: &mut u16) -> FlowKey {
        loop {
            *port += 1;
            let k = FlowKey { local_port: *port, ..key() };
            if t.index.home(flow_hash(&k)) == home {
                return k;
            }
        }
    }

    #[test]
    fn delete_inside_a_wrapping_cluster_keeps_every_key_findable() {
        let mut t = ConnTracker::with_capacity(6);
        assert_eq!(t.index.buckets, 8);
        // Three keys homed at the last bucket fill 7, 0 and 1; one homed at
        // 0 lands in 2 and one homed at 1 in 3: a cluster 7..=3 that wraps.
        let mut port = 0;
        let keys: Vec<FlowKey> = [7, 7, 7, 0, 1]
            .iter()
            .map(|&home| key_homed_at(&t, home, &mut port))
            .collect();
        for &k in &keys {
            t.observe_tcp(Time::ZERO, k, L, S, 0);
        }
        let bucket_of = |t: &ConnTracker, k: &FlowKey| t.index.find(flow_hash(k), k, &t.slab);
        let at: Vec<_> = keys.iter().map(|k| bucket_of(&t, k)).collect();
        assert_eq!(at, [7, 0, 1, 2, 3].map(Some));
        t.check_invariants();
        // Delete from the middle, past the wrap: the rest shift back.
        t.remove(&keys[1]);
        t.check_invariants();
        assert!(t.get(Time::ZERO, &keys[1]).is_none());
        for k in keys.iter().filter(|&k| *k != keys[1]) {
            assert!(t.get(Time::ZERO, k).is_some(), "{k:?} lost");
        }
        let at: Vec<_> = keys.iter().map(|k| bucket_of(&t, k)).collect();
        assert_eq!(at, [Some(7), None, Some(0), Some(1), Some(2)]);
        assert_eq!(t.index.tags[3], 0);
    }

    #[test]
    fn unprovisioned_index_grows_by_doubling() {
        let mut t = ConnTracker::new();
        let mut capacities = vec![t.table_capacity()];
        for i in 0..1000 {
            t.observe_tcp(Time::ZERO, churn_key(0, i), L, S, 0);
            t.check_invariants();
            if capacities.last() != Some(&t.table_capacity()) {
                capacities.push(t.table_capacity());
            }
        }
        assert_eq!(capacities, [0, 3, 6, 12, 24, 48, 96, 192, 384, 768, 1536]);
        assert_eq!(t.index.buckets, 2048);
        for i in (0..1000).step_by(3) {
            t.remove(&churn_key(0, i));
            t.check_invariants();
        }
        assert_eq!(t.len(), 666);
        assert!((0..1000).all(|i| t.get(Time::ZERO, &churn_key(0, i)).is_some() == (i % 3 != 0)));
    }

    #[test]
    fn fresh_tracker_owns_no_memory() {
        let t = ConnTracker::new();
        assert_eq!((t.table_capacity(), t.slab.capacity()), (0, 0));
        assert_eq!(t.memory_bytes_estimate(), 0);
    }

    #[test]
    fn memory_estimate_follows_slots_in_use() {
        use std::mem::size_of;
        let mut t = ConnTracker::with_capacity(4096);
        assert_eq!(t.table_capacity(), 6144);
        // Provisioned, but nothing is allocated before the first flow …
        assert_eq!(t.memory_bytes_estimate(), 0);
        for i in 0..100 {
            t.observe_tcp(Time::ZERO, churn_key(0, i), L, S, 0);
        }
        // … which allocates all ⌈4 · 4096 / 3⌉ = 5462 → 8192 buckets of a
        // slot number and a tag at once.
        let unarmed = 8192 * 5 + 100 * size_of::<Slot>();
        assert_eq!(t.memory_bytes_estimate(), unarmed);
        assert_eq!(t.table_capacity(), 6144);
        // An armed flow adds its boxed verdict, a buffered stream its box
        // and capacity; neither moves the slab.
        let throttle = crate::ThrottleConfig::hard_2022();
        let block = BlockState::new(crate::BlockKind::RstRewrite, Time::ZERO, 0, throttle);
        t.get_mut(Time::ZERO, &churn_key(0, 7)).unwrap().block = Some(Box::new(block));
        assert_eq!(t.memory_bytes_estimate(), unarmed + size_of::<BlockState>());
        t.get_mut(Time::ZERO, &churn_key(0, 8)).unwrap().rx_stream = Some(Box::new(Vec::with_capacity(64)));
        assert_eq!(
            t.memory_bytes_estimate(),
            unarmed + size_of::<BlockState>() + size_of::<Vec<u8>>() + 64
        );
        // A slot is a key and an entry: the free-list link hides in the
        // entry's spare bit patterns.
        assert_eq!(size_of::<Slot>(), size_of::<(FlowKey, FlowEntry)>());
    }

    #[test]
    fn a_tracked_flow_fits_one_cache_line() {
        // The cold verdict and stream buffer are boxed, so an entry is
        // 48 B and a slot (with its 14-byte key) 64 B. A test, not a const
        // assertion, so that a layout regression fails rather than breaks
        // the build.
        use std::mem::size_of;
        assert!(size_of::<FlowEntry>() <= 48, "FlowEntry is {} B", size_of::<FlowEntry>());
        assert!(size_of::<Slot>() <= 64, "a slab slot is {} B", size_of::<Slot>());
    }

    #[test]
    fn a_reclaimed_slot_frees_its_reassembly_buffer_at_once() {
        // A hardened device accumulates stream bytes on the entry. Every
        // way a slot is reclaimed must drop that allocation then — a freed
        // slot that is never refilled would otherwise pin it for good.
        let hardened = |t: &mut ConnTracker, i: usize| {
            t.observe_tcp(Time::ZERO, churn_key(0, i), L, TcpFlags::PSH_ACK, 10).rx_stream =
                Some(Box::new(Vec::with_capacity(16 << 10)));
        };
        let held = |t: &ConnTracker| -> usize {
            t.slab
                .iter()
                .map(|slot| match slot {
                    Slot::Live { entry, .. } => entry.rx_stream.as_ref().map_or(0, |s| s.capacity()),
                    Slot::Free { .. } => 0,
                })
                .sum()
        };
        let mut t = ConnTracker::new();
        for i in 0..3 {
            hardened(&mut t, i);
        }
        assert_eq!(held(&t), 3 * (16 << 10));
        t.remove(&churn_key(0, 0));
        assert_eq!(held(&t), 2 * (16 << 10));
        // The hand evicts the other two; the probing flow takes one of the
        // three free slots and the rest stay free.
        t.observe_tcp(Time::from_secs(300), key(), L, S, 0);
        assert_eq!((t.len(), t.slab.len(), t.gc_evictions()), (1, 3, 2));
        assert_eq!(held(&t), 0);
        t.check_invariants();
        hardened(&mut t, 7);
        t.clear();
        assert_eq!(held(&t), 0);
    }

    #[test]
    fn gc_never_drops_live_entries() {
        let mut t = ConnTracker::new();
        for port in 0..64u16 {
            let k = FlowKey { local_port: 1000 + port, ..key() };
            t.observe_tcp(Time::ZERO, k, L, S, 0);
        }
        // Many observations well within the SynSent timeout: the hand
        // passes every slot several times but must reclaim nothing.
        for i in 0..256u64 {
            t.observe_tcp(Time::from_micros(i * 1000), key(), L, S, 0);
        }
        assert_eq!(t.len(), 65);
    }
}
