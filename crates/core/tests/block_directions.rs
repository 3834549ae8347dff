//! Direction semantics of blocking verdicts (PR 8's latent-asymmetry fix).
//!
//! The conntrack used to hard-code forward-direction (remote→local)
//! enforcement; [`BlockState`] now carries [`EnforceDirections`] and a
//! per-verdict residual window so bidirectional profiles (Turkmenistan)
//! share the tracker unchanged. Two things are pinned here:
//!
//! 1. Device-level direction contracts: the `tspu` profile rewrites only
//!    remote→local packets (§5.2 SNI-I), while the `turkmenistan` profile
//!    RSTs both directions and expires on its own `BLOCK_TKM` window.
//! 2. Sharded/unsharded observational identity with the *full* block
//!    state visible — kind, since, allowance, epoch, window, directions.
//!    The older sharded differential only compared `block.is_some()`,
//!    which is exactly the blind spot where a direction/window asymmetry
//!    between the trackers could have hidden.

use std::net::Ipv4Addr;
use std::time::Duration;

use proptest::prelude::*;
use tspu_core::conntrack::{ConnTracker, FlowEntry};
use tspu_core::{
    BlockKind, BlockState, CensorProfile, EnforceDirections, FlowKey, Policy, PolicyHandle,
    ShardedConnTracker, Side, ThrottleConfig, TspuDevice,
};
use tspu_netsim::{Direction, Middlebox, Time};
use tspu_wire::ipv4::{Ipv4Packet, Ipv4Repr, Protocol};
use tspu_wire::tcp::{TcpFlags, TcpRepr, TcpSegment};
use tspu_wire::tls::ClientHelloBuilder;

const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 8, 0, 2);
const SERVER: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 10);

fn tcp_packet(src: Ipv4Addr, sp: u16, dst: Ipv4Addr, dp: u16, flags: TcpFlags, payload: &[u8]) -> Vec<u8> {
    let mut tcp = TcpRepr::new(sp, dp, flags);
    tcp.payload = payload.to_vec();
    let seg = tcp.build(src, dst);
    Ipv4Repr::new(src, dst, Protocol::Tcp, seg.len()).build(&seg)
}

fn flags_of(packet: &[u8]) -> TcpFlags {
    let ip = Ipv4Packet::new_unchecked(packet);
    TcpSegment::new_unchecked(ip.payload()).flags()
}

/// Handshake + triggering ClientHello for `host` on `sport`.
fn trigger(dev: &mut TspuDevice, now: Time, sport: u16, host: &str) {
    for (dir, pkt) in [
        (Direction::LocalToRemote, tcp_packet(CLIENT, sport, SERVER, 443, TcpFlags::SYN, b"")),
        (Direction::RemoteToLocal, tcp_packet(SERVER, 443, CLIENT, sport, TcpFlags::SYN_ACK, b"")),
        (Direction::LocalToRemote, tcp_packet(CLIENT, sport, SERVER, 443, TcpFlags::ACK, b"")),
        (
            Direction::LocalToRemote,
            tcp_packet(CLIENT, sport, SERVER, 443, TcpFlags::PSH_ACK, &ClientHelloBuilder::new(host).build()),
        ),
    ] {
        assert_eq!(dev.process_owned(now, dir, pkt).len(), 1, "trigger sequence must pass");
    }
}

#[test]
fn tspu_rst_rewrite_touches_only_remote_to_local() {
    let mut dev = TspuDevice::reliable("ru", PolicyHandle::new(Policy::example()));
    trigger(&mut dev, Time::ZERO, 40000, "twitter.com");

    // Local→remote data keeps flowing untouched: the TSPU's asymmetry.
    let up = tcp_packet(CLIENT, 40000, SERVER, 443, TcpFlags::PSH_ACK, b"upstream");
    let out = dev.process_owned(Time::ZERO, Direction::LocalToRemote, up.clone());
    assert_eq!(out, vec![up]);

    // Remote→local data is rewritten to RST/ACK.
    let down = tcp_packet(SERVER, 443, CLIENT, 40000, TcpFlags::PSH_ACK, b"downstream");
    let out = dev.process_owned(Time::ZERO, Direction::RemoteToLocal, down);
    assert_eq!(flags_of(&out[0]), TcpFlags::RST_ACK);
}

#[test]
fn turkmenistan_rst_rewrite_touches_both_directions() {
    let mut dev = TspuDevice::reliable("tm", PolicyHandle::new(Policy::example()))
        .with_censor_profile(CensorProfile::turkmenistan());
    trigger(&mut dev, Time::ZERO, 40001, "twitter.com");

    // Both directions now come back as RST/ACK: the chokepoint tears the
    // connection down toward client *and* server.
    let up = tcp_packet(CLIENT, 40001, SERVER, 443, TcpFlags::PSH_ACK, b"upstream");
    let out = dev.process_owned(Time::ZERO, Direction::LocalToRemote, up);
    assert_eq!(flags_of(&out[0]), TcpFlags::RST_ACK);

    let down = tcp_packet(SERVER, 443, CLIENT, 40001, TcpFlags::PSH_ACK, b"downstream");
    let out = dev.process_owned(Time::ZERO, Direction::RemoteToLocal, down);
    assert_eq!(flags_of(&out[0]), TcpFlags::RST_ACK);

    assert_eq!(dev.stats().packets_rewritten, 2);
}

#[test]
fn turkmenistan_residual_uses_profile_window_not_table_2() {
    let mut dev = TspuDevice::reliable("tm", PolicyHandle::new(Policy::example()))
        .with_censor_profile(CensorProfile::turkmenistan());
    trigger(&mut dev, Time::ZERO, 40002, "meduza.io");

    let reply = tcp_packet(SERVER, 443, CLIENT, 40002, TcpFlags::PSH_ACK, b"data");
    // Inside the 60 s residual window: still rewritten.
    let out = dev.process_owned(Time::from_secs(59), Direction::RemoteToLocal, reply.clone());
    assert_eq!(flags_of(&out[0]), TcpFlags::RST_ACK);
    // Past it (but still inside the TSPU's 75 s SNI-I window — the
    // profile's override, not Table 2, must decide): passes untouched.
    let out = dev.process_owned(Time::from_secs(61), Direction::RemoteToLocal, reply.clone());
    assert_eq!(out, vec![reply]);
}

// ---------------------------------------------------------------------------
// Sharded/unsharded identity with direction-carrying blocks.
// ---------------------------------------------------------------------------

const KINDS: &[BlockKind] = &[
    BlockKind::RstRewrite,
    BlockKind::DelayedDrop,
    BlockKind::FullDrop,
    BlockKind::QuicDrop,
    BlockKind::BlockPage,
];

#[derive(Debug, Clone)]
enum Op {
    /// Observe a TCP packet on flow `port` from `side`.
    Tcp { port: u16, side: Side, flags: TcpFlags, payload: usize },
    /// Install a verdict with explicit window/directions on flow `port`.
    Block { port: u16, kind: usize, both: bool, window_secs: u64, epoch: u64 },
    /// Expiry-checked read.
    Get { port: u16 },
    /// Device restart: drop everything.
    Clear,
    /// Let time pass (drives entry expiry and residual windows).
    Advance { secs: u64 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    let port = 0u16..16;
    let flags = prop_oneof![
        Just(TcpFlags::SYN),
        Just(TcpFlags::SYN_ACK),
        Just(TcpFlags::ACK),
        Just(TcpFlags::PSH_ACK),
        Just(TcpFlags::RST),
    ];
    let side = prop_oneof![Just(Side::Local), Just(Side::Remote)];
    prop_oneof![
        (port.clone(), side, flags, 0usize..400)
            .prop_map(|(port, side, flags, payload)| Op::Tcp { port, side, flags, payload }),
        (port.clone(), 0..KINDS.len(), any::<bool>(), 1u64..200, 0u64..5)
            .prop_map(|(port, kind, both, window_secs, epoch)| Op::Block {
                port, kind, both, window_secs, epoch
            }),
        port.clone().prop_map(|port| Op::Get { port }),
        Just(Op::Clear),
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

/// The full caller-visible verdict — every field a profile can set.
/// (`bucket` is excluded: none of the kinds armed here attach one.)
fn observe_block(b: &BlockState) -> impl PartialEq + std::fmt::Debug {
    (b.kind, b.since, b.allowance, b.epoch, b.window, b.directions)
}

fn observe(e: &FlowEntry) -> impl PartialEq + std::fmt::Debug {
    (
        e.state,
        e.client,
        e.last_seen,
        e.block.as_deref().map(observe_block),
        e.exempt,
        e.remote_ip_blocked,
    )
}

fn install(e: &mut FlowEntry, now: Time, op: &Op) {
    let Op::Block { kind, both, window_secs, epoch, .. } = *op else { unreachable!() };
    let directions = if both { EnforceDirections::Both } else { EnforceDirections::ToLocal };
    e.block = Some(Box::new(
        BlockState::new(KINDS[kind], now, 6, ThrottleConfig::hard_2022())
            .with_window(Duration::from_secs(window_secs))
            .with_directions(directions)
            .pinned_to(epoch),
    ));
}

proptest! {
    #[test]
    fn sharded_blocks_carry_identical_windows_and_directions(
        ops in proptest::collection::vec(arb_op(), 1..120),
    ) {
        let mut reference = ConnTracker::new();
        let mut sharded: Vec<ShardedConnTracker> =
            [1, 4, 16].iter().map(|&n| ShardedConnTracker::with_shards(n)).collect();

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
                Op::Block { port, .. } => {
                    install(reference.observe_tcp(now, key(port), Side::Local, TcpFlags::PSH_ACK, 10), now, op);
                    for s in &mut sharded {
                        install(s.observe_tcp(now, key(port), Side::Local, TcpFlags::PSH_ACK, 10), now, op);
                    }
                }
                Op::Get { port } => {
                    let want = reference.get(now, &key(port)).map(observe);
                    for s in &sharded {
                        let got = s.get(now, &key(port)).map(observe);
                        prop_assert_eq!(&got, &want, "get diverged at {} shards", s.shard_count());
                    }
                }
                Op::Clear => {
                    reference.clear();
                    for s in &mut sharded {
                        s.clear();
                    }
                }
                Op::Advance { secs } => {
                    now += Duration::from_secs(secs);
                }
            }
        }
    }
}
