//! The TSPU fragment cache (paper §5.3.1, Fig. 3).
//!
//! Observed behavior, encoded here as ground truth:
//!
//! 1. Incomplete fragment trains are **buffered, not forwarded**.
//! 2. When the last fragment (MF = 0) arrives, **all fragments are
//!    forwarded individually, without reassembly**, in offset order.
//! 3. Forwarded fragments 2..n have their **TTL rewritten to the TTL of
//!    the first fragment** (offset 0) — the behavior the remote
//!    localization technique exploits (§7.2).
//! 4. A **duplicate or overlapping** fragment poisons the train: nothing
//!    from that packet is forwarded.
//! 5. At most **45 fragments** are accepted per packet; the 46th discards
//!    the entire queue — the TSPU fingerprint (Linux: 64, Cisco: 24,
//!    Juniper: 250).
//! 6. Trains missing fragments are discarded after **5 seconds**.

use crate::fasthash::FxHashMap;
use std::collections::hash_map::Entry;
use std::net::Ipv4Addr;

use tspu_netsim::Time;
use tspu_wire::ipv4::Ipv4Packet;

use crate::constants;

/// Key identifying one fragmented datagram in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FragKey {
    pub src: Ipv4Addr,
    pub dst: Ipv4Addr,
    pub ident: u16,
}

#[derive(Debug)]
struct Train {
    started: Time,
    /// (offset, payload_len, packet bytes), sorted by offset. A duplicate
    /// or an overlap poisons the train, so the offsets held are strictly
    /// increasing and their ranges disjoint.
    fragments: Vec<(usize, usize, Vec<u8>)>,
    /// Train was poisoned by a malformed fragment (rule 4) or by one too
    /// many (rule 5); drop everything until the state times out. A
    /// poisoned train has released its buffer: it holds its start time
    /// and this flag, no fragment slots.
    poisoned: bool,
}

impl Train {
    fn new(now: Time) -> Train {
        Train { started: now, fragments: Vec::new(), poisoned: false }
    }

    fn expired(&self, now: Time, timeout: std::time::Duration) -> bool {
        now.since(self.started) > timeout
    }

    /// Rules 1, 4 and 5 for one fragment: buffers it in offset order, or
    /// poisons the train and counts a discard. True when the fragment has
    /// MF = 0 and so ends the train (rule 2).
    fn take(&mut self, packet: &[u8], queue_limit: usize, discarded: &mut u64) -> bool {
        if self.poisoned {
            return false;
        }
        let view = Ipv4Packet::new_unchecked(packet);
        let offset = view.frag_offset();
        let len = view.payload().len();
        // Rule 4 against the neighbours only: the ranges held are sorted
        // and disjoint. A range is at least one byte long, so an empty
        // fragment still collides with one at its offset.
        let at = self.fragments.partition_point(|&(off, _, _)| off < offset);
        let overlaps = at
            .checked_sub(1)
            .and_then(|before| self.fragments.get(before))
            .is_some_and(|&(off, flen, _)| off + flen.max(1) > offset)
            || self.fragments.get(at).is_some_and(|&(off, _, _)| off < offset + len.max(1));
        // Rule 5: the 46th fragment discards the queue.
        if overlaps || self.fragments.len() >= queue_limit {
            self.fragments = Vec::new();
            self.poisoned = true;
            *discarded += 1;
            return false;
        }
        self.fragments.insert(at, (offset, len, packet.to_vec()));
        !view.more_fragments()
    }

    /// Rules 2 and 3: every fragment in offset order, fragments 2..n
    /// rewritten to the first fragment's TTL.
    fn flush(self) -> Vec<Vec<u8>> {
        let first_ttl = match self.fragments.first() {
            Some((0, _, bytes)) => Some(Ipv4Packet::new_unchecked(&bytes[..]).ttl()),
            _ => None,
        };
        self.fragments
            .into_iter()
            .map(|(offset, _, mut bytes)| {
                if offset != 0 {
                    if let Some(ttl) = first_ttl {
                        Ipv4Packet::new_unchecked(&mut bytes[..]).rewrite_ttl(ttl);
                    }
                }
                bytes
            })
            .collect()
    }
}

/// Configuration for [`FragCache`], defaulting to the TSPU's observed
/// constants. Benches ablate these against conventional-DPI settings.
#[derive(Debug, Clone, Copy)]
pub struct FragConfig {
    pub queue_limit: usize,
    pub timeout: std::time::Duration,
    /// Hard cap on concurrently buffered trains. The sweep on `offer` is
    /// lazy and only touches the offered key, so without a cap a scan
    /// spraying fresh (src, dst, ident) tuples grows the table without
    /// bound; real line cards have a fixed fragment table. When full, the
    /// oldest train (ties broken by key, deterministically) is evicted.
    pub max_trains: usize,
}

impl Default for FragConfig {
    fn default() -> FragConfig {
        FragConfig {
            queue_limit: constants::FRAG_QUEUE_LIMIT,
            timeout: constants::FRAG_TIMEOUT,
            max_trains: constants::FRAG_MAX_TRAINS,
        }
    }
}

/// The fragment cache. Feed it every IP fragment; non-fragments do not
/// belong here (the device routes them past it).
pub struct FragCache {
    config: FragConfig,
    trains: FxHashMap<FragKey, Train>,
    /// Trains discarded so far (stats).
    discarded: u64,
    /// Full trains flushed so far (stats).
    flushed: u64,
    /// Trains evicted for capacity (a subset of `discarded`), surfaced as
    /// `frag_cache.evictions` — the signal a fragment-spray attack moves.
    evictions: u64,
}

impl Default for FragCache {
    fn default() -> FragCache {
        FragCache::new(FragConfig::default())
    }
}

impl FragCache {
    /// Creates a cache with the given limits.
    pub fn new(config: FragConfig) -> FragCache {
        FragCache { config, trains: FxHashMap::default(), discarded: 0, flushed: 0, evictions: 0 }
    }

    /// Trains discarded so far.
    pub fn discarded(&self) -> u64 {
        self.discarded
    }

    /// Trains evicted for capacity so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Trains flushed so far.
    pub fn flushed(&self) -> u64 {
        self.flushed
    }

    /// Buffered trains right now.
    pub fn pending(&self) -> usize {
        self.trains.len()
    }

    /// Drops all buffered trains — a device restart losing its fragment
    /// table. Stats counters survive (they live in the management plane).
    pub fn clear(&mut self) {
        self.trains.clear();
    }

    /// Makes room for one more train when the table is at `max_trains`:
    /// first sweeps every expired train (the lazy per-key sweep in `offer`
    /// never does this), then — if still full — evicts the oldest train,
    /// ties broken by key so eviction is deterministic across runs.
    fn make_room(&mut self, now: Time) {
        if self.trains.len() < self.config.max_trains {
            return;
        }
        let timeout = self.config.timeout;
        let before = self.trains.len();
        self.trains.retain(|_, t| !t.expired(now, timeout));
        self.discarded += (before - self.trains.len()) as u64;
        while self.trains.len() >= self.config.max_trains {
            let victim = self
                .trains
                .iter()
                .map(|(k, t)| (t.started, k.src, k.dst, k.ident))
                .min()
                .map(|(_, src, dst, ident)| FragKey { src, dst, ident })
                .expect("table is non-empty");
            self.trains.remove(&victim);
            self.discarded += 1;
            self.evictions += 1;
        }
    }

    /// Offers one fragment. Returns the packets to forward now: empty
    /// while buffering (or when poisoned), or the whole train once its
    /// last fragment arrives. One table probe per fragment; a full table
    /// adds the lookup that decides whether to make room.
    pub fn offer(&mut self, now: Time, packet: &[u8]) -> Vec<Vec<u8>> {
        let Ok(view) = Ipv4Packet::new_checked(packet) else {
            return vec![packet.to_vec()]; // unparseable: not ours to manage
        };
        debug_assert!(view.is_fragment(), "FragCache::offer expects fragments");
        let key = FragKey { src: view.src_addr(), dst: view.dst_addr(), ident: view.ident() };
        if self.trains.len() >= self.config.max_trains && !self.trains.contains_key(&key) {
            self.make_room(now);
        }
        let queue_limit = self.config.queue_limit;
        match self.trains.entry(key) {
            Entry::Occupied(mut slot) => {
                // Expired state is swept lazily: the fragment starts the
                // key's next train.
                if slot.get().expired(now, self.config.timeout) {
                    slot.insert(Train::new(now));
                    self.discarded += 1;
                }
                if slot.get_mut().take(packet, queue_limit, &mut self.discarded) {
                    self.flushed += 1;
                    return slot.remove().flush();
                }
            }
            Entry::Vacant(slot) => {
                let mut train = Train::new(now);
                if train.take(packet, queue_limit, &mut self.discarded) {
                    self.flushed += 1;
                    return train.flush();
                }
                slot.insert(train);
            }
        }
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tspu_wire::frag;
    use tspu_wire::ipv4::{Ipv4Repr, Protocol};

    const SRC: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const DST: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 1);

    fn datagram(payload_len: usize, ttl: u8) -> Vec<u8> {
        let payload: Vec<u8> = (0..payload_len).map(|i| i as u8).collect();
        let mut repr = Ipv4Repr::new(SRC, DST, Protocol::Udp, payload.len());
        repr.ttl = ttl;
        repr.ident = 7;
        repr.build(&payload)
    }

    #[test]
    fn buffers_until_last_then_flushes_in_order() {
        let mut cache = FragCache::default();
        let pieces = frag::fragment(&datagram(600, 60), 128).unwrap();
        assert_eq!(pieces.len(), 5);
        let mut now = Time::ZERO;
        for piece in &pieces[..4] {
            assert!(cache.offer(now, piece).is_empty());
            now += std::time::Duration::from_millis(1);
        }
        let out = cache.offer(now, &pieces[4]);
        assert_eq!(out.len(), 5);
        // Offset order.
        let offsets: Vec<usize> = out
            .iter()
            .map(|p| Ipv4Packet::new_unchecked(&p[..]).frag_offset())
            .collect();
        assert_eq!(offsets, vec![0, 128, 256, 384, 512]);
        assert_eq!(cache.flushed(), 1);
        assert_eq!(cache.pending(), 0);
    }

    #[test]
    fn flush_works_with_out_of_order_arrival() {
        let mut cache = FragCache::default();
        let pieces = frag::fragment(&datagram(400, 60), 128).unwrap();
        // Deliver the last fragment in the middle: flush happens only when
        // the MF=0 fragment arrives, which here is out of order.
        assert!(cache.offer(Time::ZERO, &pieces[1]).is_empty());
        assert!(cache.offer(Time::ZERO, &pieces[0]).is_empty());
        let out = cache.offer(Time::ZERO, &pieces[3]); // last (MF=0)
        // Fragment 2 never arrived; the TSPU flushes what it has anyway —
        // it does not reassemble, so it cannot know the train is short.
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn ttl_rewritten_to_first_fragments_ttl() {
        let mut cache = FragCache::default();
        let pieces = frag::fragment(&datagram(300, 57), 128).unwrap();
        // Lower the trailing fragments' TTLs as if they took a longer path.
        let mut doctored: Vec<Vec<u8>> = pieces.clone();
        for piece in doctored.iter_mut().skip(1) {
            let mut view = Ipv4Packet::new_unchecked(&mut piece[..]);
            view.set_ttl(3);
            view.fill_checksum();
        }
        let mut out = Vec::new();
        for piece in &doctored {
            out = cache.offer(Time::ZERO, piece);
        }
        assert_eq!(out.len(), 3);
        for packet in &out {
            let view = Ipv4Packet::new_checked(&packet[..]).unwrap();
            assert_eq!(view.ttl(), 57, "all fragments carry the first's TTL");
            assert!(view.verify_checksum());
        }
    }

    #[test]
    fn duplicate_poisons_train() {
        let mut cache = FragCache::default();
        let pieces = frag::fragment(&datagram(400, 60), 128).unwrap();
        assert!(cache.offer(Time::ZERO, &pieces[0]).is_empty());
        assert!(cache.offer(Time::ZERO, &pieces[1]).is_empty());
        assert!(cache.offer(Time::ZERO, &pieces[1]).is_empty()); // duplicate
        // Even the final fragment now yields nothing.
        assert!(cache.offer(Time::ZERO, &pieces[3]).is_empty());
        assert!(cache.offer(Time::ZERO, &pieces[2]).is_empty());
        assert_eq!(cache.flushed(), 0);
        assert!(cache.discarded() >= 1);
    }

    #[test]
    fn overlap_poisons_train() {
        let mut cache = FragCache::default();
        let original = datagram(400, 60);
        let pieces = frag::fragment(&original, 128).unwrap();
        // Craft an overlapping fragment: offset 64 over the 0..128 piece.
        let overlap = {
            let view = Ipv4Packet::new_checked(&original[..]).unwrap();
            let mut repr = Ipv4Repr::parse(&view).unwrap();
            repr.frag_offset = 64;
            repr.more_fragments = true;
            repr.payload_len = 128;
            repr.build(&view.payload()[64..192])
        };
        assert!(cache.offer(Time::ZERO, &pieces[0]).is_empty());
        assert!(cache.offer(Time::ZERO, &overlap).is_empty());
        assert!(cache.offer(Time::ZERO, &pieces[3]).is_empty());
        assert_eq!(cache.flushed(), 0);
    }

    #[test]
    fn queue_limit_45_accepts_46th_discards() {
        // The fingerprint: a packet in 45 fragments is delivered, the same
        // packet in 46 is not.
        let payload = 1480;
        for (n, expect_delivery) in [(45usize, true), (46, false)] {
            let mut cache = FragCache::default();
            let pieces = frag::fragment_into(&datagram(payload, 60), n).unwrap();
            let mut out = Vec::new();
            for piece in &pieces {
                out = cache.offer(Time::ZERO, piece);
            }
            assert_eq!(!out.is_empty(), expect_delivery, "n={n}");
            if expect_delivery {
                assert_eq!(out.len(), 45);
            }
        }
    }

    #[test]
    fn timeout_discards_incomplete_train() {
        let mut cache = FragCache::default();
        let pieces = frag::fragment(&datagram(400, 60), 128).unwrap();
        assert!(cache.offer(Time::ZERO, &pieces[0]).is_empty());
        assert!(cache.offer(Time::ZERO, &pieces[1]).is_empty());
        // 6 s later the train is gone; the arriving last fragment starts a
        // fresh (single-fragment) train and flushes alone.
        let out = cache.offer(Time::from_secs(6), &pieces[3]);
        assert_eq!(out.len(), 1);
        assert!(cache.discarded() >= 1);
    }

    #[test]
    fn within_timeout_train_survives() {
        let mut cache = FragCache::default();
        let pieces = frag::fragment(&datagram(300, 60), 128).unwrap();
        assert!(cache.offer(Time::ZERO, &pieces[0]).is_empty());
        assert!(cache.offer(Time::from_secs(4), &pieces[1]).is_empty());
        // Note: the 5 s window runs from the train's first fragment.
        let out = cache.offer(Time::from_micros(4_900_000), &pieces[2]);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn independent_idents_do_not_interfere() {
        let mut cache = FragCache::default();
        let a = frag::fragment(&datagram(300, 60), 128).unwrap();
        let mut b_src = datagram(300, 60);
        {
            let mut view = Ipv4Packet::new_unchecked(&mut b_src[..]);
            view.set_ident(99);
            view.fill_checksum();
        }
        let b = frag::fragment(&b_src, 128).unwrap();
        assert!(cache.offer(Time::ZERO, &a[0]).is_empty());
        assert!(cache.offer(Time::ZERO, &b[0]).is_empty());
        assert!(cache.offer(Time::ZERO, &a[1]).is_empty());
        let out_b = cache.offer(Time::ZERO, &b[1]);
        assert!(out_b.is_empty());
        let out_b = cache.offer(Time::ZERO, &b[2]);
        assert_eq!(out_b.len(), 3);
        assert_eq!(cache.pending(), 1); // a still buffering
    }

    /// A datagram from `src` with the given ident, pre-fragmented.
    fn train_from(src: Ipv4Addr, ident: u16, ttl: u8) -> Vec<Vec<u8>> {
        let payload: Vec<u8> = (0..300).map(|i| i as u8).collect();
        let mut repr = Ipv4Repr::new(src, DST, Protocol::Udp, payload.len());
        repr.ttl = ttl;
        repr.ident = ident;
        frag::fragment(&repr.build(&payload), 128).unwrap()
    }

    #[test]
    fn full_cache_evicts_oldest_train_deterministically() {
        let mut cache = FragCache::new(FragConfig { max_trains: 3, ..FragConfig::default() });
        // Three incomplete trains, started in order; the table is full.
        let trains: Vec<Vec<Vec<u8>>> = (0..4)
            .map(|i| train_from(Ipv4Addr::new(10, 0, 0, 10 + i), 40 + u16::from(i), 60))
            .collect();
        for (i, train) in trains.iter().take(3).enumerate() {
            assert!(cache.offer(Time::from_micros(i as u64 * 1_000), &train[0]).is_empty());
        }
        assert_eq!(cache.pending(), 3);
        // A fourth key arrives while nothing has expired: the oldest train
        // (the first) is evicted to make room.
        assert!(cache.offer(Time::from_micros(10_000), &trains[3][0]).is_empty());
        assert_eq!(cache.pending(), 3);
        assert_eq!(cache.discarded(), 1);
        // A survivor still flushes in full (and frees its slot)…
        assert!(cache.offer(Time::from_micros(11_000), &trains[1][1]).is_empty());
        let out = cache.offer(Time::from_micros(12_000), &trains[1][2]);
        assert_eq!(out.len(), 3, "surviving train flushes whole");
        // …while the evicted train lost its first fragment: its arriving
        // last fragment starts a fresh train and flushes alone.
        let out = cache.offer(Time::from_micros(13_000), &trains[0][2]);
        assert_eq!(out.len(), 1, "evicted train lost its first fragment");
    }

    #[test]
    fn full_cache_prefers_sweeping_expired_trains() {
        let mut cache = FragCache::new(FragConfig { max_trains: 3, ..FragConfig::default() });
        let trains: Vec<Vec<Vec<u8>>> = (0..4)
            .map(|i| train_from(Ipv4Addr::new(10, 0, 0, 10 + i), 40 + u16::from(i), 60))
            .collect();
        // Two stale trains and one fresh one fill the table.
        assert!(cache.offer(Time::ZERO, &trains[0][0]).is_empty());
        assert!(cache.offer(Time::ZERO, &trains[1][0]).is_empty());
        assert!(cache.offer(Time::from_secs(10), &trains[2][0]).is_empty());
        // The new key reclaims both expired slots, so the fresh train is
        // NOT evicted even though the table was full.
        assert!(cache.offer(Time::from_secs(11), &trains[3][0]).is_empty());
        assert_eq!(cache.pending(), 2);
        assert!(cache.offer(Time::from_secs(11), &trains[2][1]).is_empty());
        let out = cache.offer(Time::from_secs(11), &trains[2][2]);
        assert_eq!(out.len(), 3, "fresh train survived the sweep");
    }

    #[test]
    fn spraying_fresh_idents_cannot_grow_table_past_cap() {
        // The regression the cap fixes: before it, a scanner spraying
        // fresh (src, dst, ident) tuples grew the table without bound
        // because the lazy sweep only ever touched the offered key.
        let mut cache = FragCache::default();
        let base = datagram(300, 60);
        for ident in 0..(constants::FRAG_MAX_TRAINS as u16 + 500) {
            let mut head = base.clone();
            {
                let mut view = Ipv4Packet::new_unchecked(&mut head[..]);
                view.set_ident(ident);
                view.fill_checksum();
            }
            let pieces = frag::fragment(&head, 128).unwrap();
            assert!(cache.offer(Time::ZERO, &pieces[0]).is_empty());
            assert!(cache.pending() <= constants::FRAG_MAX_TRAINS);
        }
        assert_eq!(cache.pending(), constants::FRAG_MAX_TRAINS);
        assert_eq!(cache.discarded(), 500);
    }

    #[test]
    fn clear_wipes_trains_but_keeps_stats() {
        let mut cache = FragCache::default();
        let pieces = frag::fragment(&datagram(400, 60), 128).unwrap();
        let mut all = Vec::new();
        for piece in &pieces {
            all = cache.offer(Time::ZERO, piece);
        }
        assert_eq!(all.len(), 4);
        assert!(cache.offer(Time::ZERO, &pieces[0]).is_empty());
        assert_eq!(cache.pending(), 1);
        cache.clear();
        assert_eq!(cache.pending(), 0);
        assert_eq!(cache.flushed(), 1, "stats survive the restart");
        // The wiped train is forgotten: its duplicate no longer poisons.
        assert!(cache.offer(Time::ZERO, &pieces[0]).is_empty());
        assert_eq!(cache.pending(), 1);
    }

    #[test]
    fn duplicate_offset_with_different_length_poisons() {
        let mut cache = FragCache::default();
        let original = datagram(400, 60);
        let pieces = frag::fragment(&original, 128).unwrap();
        // Same offset as piece 1, shorter payload: still a duplicate.
        let dup = {
            let view = Ipv4Packet::new_checked(&original[..]).unwrap();
            let mut repr = Ipv4Repr::parse(&view).unwrap();
            repr.frag_offset = 128;
            repr.more_fragments = true;
            repr.payload_len = 64;
            repr.build(&view.payload()[128..192])
        };
        assert!(cache.offer(Time::ZERO, &pieces[0]).is_empty());
        assert!(cache.offer(Time::ZERO, &pieces[1]).is_empty());
        assert!(cache.offer(Time::ZERO, &dup).is_empty());
        assert!(cache.offer(Time::ZERO, &pieces[2]).is_empty());
        assert!(cache.offer(Time::ZERO, &pieces[3]).is_empty());
        assert_eq!(cache.flushed(), 0);
    }

    #[test]
    fn ablation_conventional_dpi_limits() {
        // With Linux-like limits (64), a 46-fragment packet passes.
        let mut cache = FragCache::new(FragConfig {
            queue_limit: 64,
            timeout: std::time::Duration::from_secs(30),
            ..FragConfig::default()
        });
        let pieces = frag::fragment_into(&datagram(1480, 60), 46).unwrap();
        let mut out = Vec::new();
        for piece in &pieces {
            out = cache.offer(Time::ZERO, piece);
        }
        assert_eq!(out.len(), 46);
    }
}
