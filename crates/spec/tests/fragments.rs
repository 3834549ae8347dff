//! The fragment cache against `spec::frag`'s linear-scan model of Fig. 3.
//!
//! The cache keeps each train sorted by offset as fragments arrive, so its
//! overlap check (rule 4) compares a new fragment with its two neighbours
//! only, and its flush (rules 2–3) needs no sort. Both get the same
//! operations — interleaved keys, fragments overlapping their predecessor
//! or their successor, duplicates, zero-length fragments, trains past the
//! queue limit, gaps past the 5 s timeout, more keys than `max_trains`,
//! device restarts — and must forward the same bytes and count the same
//! discards, flushes and evictions after every one.
//!
//! ## Seeded mutation
//!
//! `tests/mutants/frag_cache_overlap_checks_predecessor_only.patch` drops
//! the successor half of the neighbour check; this suite must fail on it.

use std::net::Ipv4Addr;
use std::time::Duration;

use proptest::prelude::*;
use tspu_core::frag_cache::{FragCache, FragConfig};
use tspu_netsim::Time;
use tspu_spec::frag::{tspu_config, Fragments};
use tspu_wire::ipv4::{Ipv4Packet, Ipv4Repr, Protocol};

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
    let default = tspu_config();
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
        let mut model = Fragments::new(config);
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
                    model.clear();
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
                (model.pending(), model.discarded, model.flushed, model.evictions),
                "pending / discarded / flushed / evictions diverged at op {} ({:?})", step, op
            );
        }
    }
}
