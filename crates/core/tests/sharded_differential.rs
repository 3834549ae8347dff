//! Differential property test: [`ShardedConnTracker`] must be
//! observation-for-observation identical to the unsharded [`ConnTracker`]
//! at every shard count.
//!
//! The comparison deliberately excludes `len()` and `gc_probes()`: expiry
//! in both trackers is checked lazily at access time, so the GC hand
//! only decides *when memory is reclaimed*, never what an access observes.
//! Shard count changes sweep scheduling (each shard sweeps its own slab),
//! so physical table size during churn legitimately differs — what must
//! not differ is any entry field any caller can see.

use proptest::prelude::*;
use std::net::Ipv4Addr;
use std::time::Duration;

use tspu_core::conntrack::{ConnTracker, FlowEntry};
use tspu_core::{FlowKey, ShardedConnTracker, Side};
use tspu_netsim::Time;
use tspu_wire::tcp::TcpFlags;

#[derive(Debug, Clone)]
enum Op {
    /// Observe a TCP packet on flow `port` from `side`.
    Tcp { port: u16, side: Side, flags: TcpFlags, payload: usize },
    /// Observe a UDP packet on flow `port`.
    Udp { port: u16, side: Side },
    /// Expiry-checked read.
    Get { port: u16 },
    /// Remove the flow outright.
    Remove { port: u16 },
    /// Device restart: drop everything.
    Clear,
    /// Let time pass (drives expiry).
    Advance { secs: u64 },
}

fn arb_side() -> impl Strategy<Value = Side> {
    prop_oneof![Just(Side::Local), Just(Side::Remote)]
}

fn arb_flags() -> impl Strategy<Value = TcpFlags> {
    prop_oneof![
        Just(TcpFlags::SYN),
        Just(TcpFlags::SYN_ACK),
        Just(TcpFlags::ACK),
        Just(TcpFlags::PSH_ACK),
        Just(TcpFlags::FIN),
        Just(TcpFlags::RST),
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    // Ports drawn from a small pool so flows collide, expire, and get
    // recreated under the same key — the paths where sharding could skew.
    let port = 0u16..24;
    prop_oneof![
        (port.clone(), arb_side(), arb_flags(), 0usize..600)
            .prop_map(|(port, side, flags, payload)| Op::Tcp { port, side, flags, payload }),
        (port.clone(), arb_side()).prop_map(|(port, side)| Op::Udp { port, side }),
        port.clone().prop_map(|port| Op::Get { port }),
        port.prop_map(|port| Op::Remove { port }),
        Just(Op::Clear),
        // Steps past the Loose (180 s), SynSent (60 s), and Established
        // (480 s) timeouts all reachable within a few ops.
        (1u64..200).prop_map(|secs| Op::Advance { secs }),
    ]
}

fn key(port: u16) -> FlowKey {
    FlowKey {
        local_addr: Ipv4Addr::new(10, 0, 0, 5),
        local_port: 40_000 + port,
        remote_addr: Ipv4Addr::new(203, 0, 113, 5),
        remote_port: 443,
        protocol: 6,
    }
}

/// The caller-visible face of an entry — every public field.
fn observe(e: &FlowEntry) -> impl PartialEq + std::fmt::Debug {
    (
        e.state,
        e.client,
        e.first_sender,
        e.ambiguous,
        e.reversed,
        e.created,
        e.last_seen,
        e.block.is_some(),
        e.exempt,
        e.exemption_decided,
        e.rx_stream.clone(),
        e.remote_ip_blocked,
    )
}

proptest! {
    #[test]
    fn sharded_matches_unsharded_at_every_shard_count(
        ops in proptest::collection::vec(arb_op(), 1..120),
    ) {
        let mut reference = ConnTracker::new();
        let mut sharded: Vec<ShardedConnTracker> =
            [1, 4, 16].iter().map(|&n| ShardedConnTracker::with_shards(n)).collect();
        prop_assert_eq!(sharded[0].shard_count(), 1);
        prop_assert_eq!(sharded[1].shard_count(), 4);
        prop_assert_eq!(sharded[2].shard_count(), 16);

        let mut now = Time::ZERO;
        for op in &ops {
            match *op {
                Op::Tcp { port, side, flags, payload } => {
                    let want = observe(reference.observe_tcp(now, key(port), side, flags, payload));
                    for s in &mut sharded {
                        let got = observe(s.observe_tcp(now, key(port), side, flags, payload));
                        prop_assert_eq!(&got, &want, "observe_tcp diverged at {} shards", s.shard_count());
                    }
                }
                Op::Udp { port, side } => {
                    let want = observe(reference.observe_udp(now, key(port), side));
                    for s in &mut sharded {
                        let got = observe(s.observe_udp(now, key(port), side));
                        prop_assert_eq!(&got, &want, "observe_udp diverged at {} shards", s.shard_count());
                    }
                }
                Op::Get { port } => {
                    let want = reference.get(now, &key(port)).map(observe);
                    for s in &sharded {
                        let got = s.get(now, &key(port)).map(observe);
                        prop_assert_eq!(&got, &want, "get diverged at {} shards", s.shard_count());
                    }
                }
                Op::Remove { port } => {
                    reference.remove(&key(port));
                    for s in &mut sharded {
                        s.remove(&key(port));
                    }
                }
                Op::Clear => {
                    reference.clear();
                    for s in &mut sharded {
                        s.clear();
                        prop_assert!(s.is_empty());
                    }
                }
                Op::Advance { secs } => {
                    now += Duration::from_secs(secs);
                }
            }
        }
    }
}
