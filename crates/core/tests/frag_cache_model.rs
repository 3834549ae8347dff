//! Differential property test: [`FragCache`] against a linear-scan model
//! of Fig. 3's rules 1–6.
//!
//! The cache keeps each train sorted by offset as fragments arrive, so its
//! overlap check (rule 4) compares a new fragment with its two neighbours
//! only, and its flush (rules 2–3) needs no sort. The model is the cache as
//! it was before that: fragments in arrival order, every new one checked
//! against every one held, the train sorted when its MF = 0 fragment
//! arrives. Both get the same operations — interleaved keys, fragments
//! overlapping their predecessor or their successor, duplicates,
//! zero-length fragments, trains past the queue limit, gaps past the 5 s
//! timeout, more keys than `max_trains`, device restarts — and must
//! forward the same bytes and count the same discards, flushes and
//! evictions after every one.
//!
//! ## Seeded mutation
//!
//! `tests/mutants/frag_cache_overlap_checks_predecessor_only.patch` drops
//! the successor half of the neighbour check; this suite must fail on it.

use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::time::Duration;

use proptest::prelude::*;
use tspu_core::frag_cache::{FragCache, FragConfig, FragKey};
use tspu_netsim::Time;
use tspu_wire::ipv4::{Ipv4Packet, Ipv4Repr, Protocol};

struct ModelTrain {
    started: Time,
    /// (offset, payload_len, packet bytes), in arrival order.
    fragments: Vec<(usize, usize, Vec<u8>)>,
    poisoned: bool,
}

impl ModelTrain {
    fn expired(&self, now: Time, timeout: Duration) -> bool {
        now.since(self.started) > timeout
    }
}

/// Fig. 3 as straight-line code: linear scans, a sort at the flush.
struct Model {
    config: FragConfig,
    trains: HashMap<FragKey, ModelTrain>,
    discarded: u64,
    flushed: u64,
    evictions: u64,
}

impl Model {
    fn new(config: FragConfig) -> Model {
        Model { config, trains: HashMap::new(), discarded: 0, flushed: 0, evictions: 0 }
    }

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

    fn offer(&mut self, now: Time, packet: &[u8]) -> Vec<Vec<u8>> {
        let Ok(view) = Ipv4Packet::new_checked(packet) else {
            return vec![packet.to_vec()];
        };
        let key = FragKey { src: view.src_addr(), dst: view.dst_addr(), ident: view.ident() };
        let offset = view.frag_offset();
        let len = view.payload().len();
        let more = view.more_fragments();

        // Rule 6, swept lazily.
        let timeout = self.config.timeout;
        if self.trains.get(&key).is_some_and(|t| t.expired(now, timeout)) {
            self.trains.remove(&key);
            self.discarded += 1;
        }
        if !self.trains.contains_key(&key) {
            self.make_room(now);
        }
        let train = self.trains.entry(key).or_insert(ModelTrain {
            started: now,
            fragments: Vec::new(),
            poisoned: false,
        });
        if train.poisoned {
            return Vec::new();
        }

        // Rule 4, against every fragment held; rule 5.
        let new_range = offset..offset + len.max(1);
        let overlaps = train.fragments.iter().any(|(off, flen, _)| {
            let existing = *off..*off + (*flen).max(1);
            new_range.start < existing.end && existing.start < new_range.end
        });
        if overlaps || train.fragments.len() >= self.config.queue_limit {
            train.fragments.clear();
            train.poisoned = true;
            self.discarded += 1;
            return Vec::new();
        }
        train.fragments.push((offset, len, packet.to_vec()));
        if more {
            return Vec::new(); // Rule 1.
        }

        // Rules 2 and 3.
        let mut train = self.trains.remove(&key).expect("train exists");
        train.fragments.sort_by_key(|(off, _, _)| *off);
        let first_ttl = train
            .fragments
            .iter()
            .find(|(off, _, _)| *off == 0)
            .map(|(_, _, bytes)| Ipv4Packet::new_unchecked(&bytes[..]).ttl());
        self.flushed += 1;
        train
            .fragments
            .into_iter()
            .map(|(offset, _, mut bytes)| {
                if offset != 0 {
                    if let Some(ttl) = first_ttl {
                        let mut view = Ipv4Packet::new_unchecked(&mut bytes[..]);
                        view.set_ttl(ttl);
                        view.fill_checksum();
                    }
                }
                bytes
            })
            .collect()
    }
}

/// Fragments per datagram, by key: short trains that complete often, and
/// two longer than the TSPU's 45-fragment queue.
const PIECES: [usize; 5] = [3, 6, 12, 50, 50];
const DST: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 9);

#[derive(Debug, Clone)]
enum Op {
    /// Fragment `index` of datagram `key`, altered as `how` says.
    Offer { key: usize, index: usize, how: u8 },
    /// Fragments `from..from + count` of datagram `key`, in order.
    Burst { key: usize, from: usize, count: usize },
    /// Let virtual time pass (rule 6's 5 s within a few steps).
    Advance { ms: u64 },
    /// Device restart.
    Clear,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..PIECES.len(), 0usize..50, 0u8..6).prop_map(|(key, index, how)| Op::Offer { key, index, how }),
        (0usize..PIECES.len(), 0usize..50, 1usize..52)
            .prop_map(|(key, from, count)| Op::Burst { key, from, count }),
        (0u64..3_000).prop_map(|ms| Op::Advance { ms }),
        Just(Op::Clear),
    ]
}

fn arb_config() -> impl Strategy<Value = FragConfig> {
    let default = FragConfig::default();
    (
        prop_oneof![Just(default.queue_limit), 0usize..8],
        prop_oneof![Just(default.max_trains), 1usize..4],
    )
        .prop_map(move |(queue_limit, max_trains)| FragConfig { queue_limit, max_trains, ..default })
}

/// Fragment `index` of datagram `key`: 8 payload bytes at offset
/// `8 × index` (the last one 12 bytes, MF = 0), altered by `how`: 1 starts
/// it 8 bytes early, over its predecessor; 2 makes it 8 bytes longer, over
/// its successor; 3 gives it a TTL of its own (rule 3 must overwrite it);
/// 4 flips MF; 5 empties its payload.
fn fragment(key: usize, index: usize, how: u8) -> Vec<u8> {
    let count = PIECES[key];
    let index = index % count;
    let last = index + 1 == count;
    let mut offset = 8 * index;
    let mut len = if last { 12 } else { 8 };
    let mut more = !last;
    let mut ttl = 60;
    match how {
        1 => offset = offset.saturating_sub(8),
        2 => len += 8,
        3 => ttl = 7 + index as u8,
        4 => more = !more,
        5 => len = 0,
        _ => {}
    }
    let payload: Vec<u8> = (offset..offset + len).map(|i| (i * 31 + key) as u8).collect();
    let mut repr = Ipv4Repr::new(Ipv4Addr::new(10, 0, 0, 1 + key as u8 % 3), DST, Protocol::Udp, len);
    repr.ident = 0x4000 + key as u16;
    repr.ttl = ttl;
    repr.frag_offset = offset;
    repr.more_fragments = more;
    repr.build(&payload)
}

proptest! {
    #[test]
    fn frag_cache_matches_the_linear_scan_model(
        config in arb_config(),
        ops in proptest::collection::vec(arb_op(), 1..120),
    ) {
        let mut cache = FragCache::new(config);
        let mut model = Model::new(config);
        let mut now = Time::ZERO;
        for (step, op) in ops.iter().enumerate() {
            let packets: Vec<Vec<u8>> = match *op {
                Op::Offer { key, index, how } => vec![fragment(key, index, how)],
                Op::Burst { key, from, count } => {
                    (from..from + count).take(PIECES[key]).map(|i| fragment(key, i, 0)).collect()
                }
                Op::Advance { ms } => {
                    now += Duration::from_millis(ms);
                    Vec::new()
                }
                Op::Clear => {
                    cache.clear();
                    model.trains.clear();
                    Vec::new()
                }
            };
            for packet in &packets {
                // Flipping MF on a first piece makes a whole datagram, and
                // the device hands the cache fragments only.
                if !Ipv4Packet::new_unchecked(&packet[..]).is_fragment() {
                    continue;
                }
                let got = cache.offer(now, packet);
                let want = model.offer(now, packet);
                prop_assert_eq!(got, want, "forwarded bytes diverged at op {} ({:?})", step, op);
            }
            prop_assert_eq!(
                (cache.pending(), cache.discarded(), cache.flushed(), cache.evictions()),
                (model.trains.len(), model.discarded, model.flushed, model.evictions),
                "pending / discarded / flushed / evictions diverged at op {} ({:?})", step, op
            );
        }
    }
}
