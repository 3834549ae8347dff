//! The device differential: one device-level op list played into
//! [`Device`](crate::Device) and into two builds of the engine — the
//! default `TspuDevice::new` and its `config().instantiate()` rebuild,
//! sharing one registry — comparing every packet each emits after every
//! op, and the whole `DeviceStats` at the end. The dice are a `SmallRng`
//! seeded as the engine's is, drawn in the order the spec writes down.
//!
//! Random op lists mix the transcript's vocabulary with what it cannot
//! reach at random: handshakes and role games per flow slot, ClientHellos
//! for every list, volleys that outlast SNI-II's allowance and SNI-III's
//! bucket, probes on the very edge of every residual window and idle
//! timeout, QUIC Initials on either side of the 1001-byte floor, HTTP and
//! DNS (inert under the TSPU), traffic to and from the blocked address
//! over TCP, UDP and ICMP, fragment trains of 45 ± 1 pieces, registry
//! deltas and restarts.

use std::net::Ipv4Addr;
use std::time::Duration;

use proptest::prelude::*;
use tspu_core::{FailureProfile, Policy, PolicyDelta};
use tspu_netsim::{Direction, Middlebox, Time};
use tspu_wire::dns::{DnsQuery, QTYPE_A};
use tspu_wire::frag;
use tspu_wire::http::HttpRequest;
use tspu_wire::ipv4::{Ipv4Packet, Protocol};
use tspu_wire::quic::{initial_payload, QuicVersion};
use tspu_wire::tcp::{TcpFlags, TcpSegment};
use tspu_wire::tls::ClientHelloBuilder;

use crate::ops::{icmp, tcp, udp, Op, Packet, Setup};

use Direction::{LocalToRemote as Up, RemoteToLocal as Down};

const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 8, 0, 2);
const SERVER: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 10);
/// `Policy::example`'s blocked address.
const TOR: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 7);

/// Names on every list of `Policy::example`, alone and together, clean
/// names, and one that only a delta lists.
const HOSTS: [&str; 9] = [
    "twitter.com",      // SNI-I, SNI-III, SNI-IV
    "meduza.io",        // SNI-I
    "nordvpn.com",      // SNI-II
    "fbcdn.net",        // SNI-III
    "web.facebook.com", // SNI-IV (and SNI-I through facebook.com)
    "wikipedia.org",    // clean
    "Play.Google.com.", // SNI-II, spelled oddly
    "rutracker.org",    // unlisted until a delta lists it
    "example.org",      // clean
];

/// Flow slots per protocol: small, so flows are reused, re-triggered and
/// outlived.
const SLOTS: u16 = 4;

/// Table 2's windows and Tables 2 / 8's timeouts, and Fig. 3's 5 s, in
/// seconds: waits land exactly on them, a microsecond either side.
const EDGES: [u64; 8] = [5, 40, 60, 75, 105, 180, 420, 480];

/// A packet at the start of its step.
fn send(direction: Direction, flow: String, what: &str, packet: Vec<u8>) -> Op {
    Op::Send(Packet { at: Time::ZERO, direction, flow, what: what.into(), packet })
}

/// A TLS flow slot's client port.
fn tls_port(slot: u16) -> u16 {
    41_000 + slot
}

fn up(slot: u16, flags: TcpFlags, payload: &[u8], what: &str) -> Op {
    let packet = tcp(CLIENT, tls_port(slot), SERVER, 443, flags, payload);
    send(Up, format!("tcp:{}", tls_port(slot)), what, packet)
}

fn down(slot: u16, flags: TcpFlags, payload: &[u8], what: &str) -> Op {
    let packet = tcp(SERVER, 443, CLIENT, tls_port(slot), flags, payload);
    send(Down, format!("tcp:{}", tls_port(slot)), what, packet)
}

fn hello(slot: u16, host: usize) -> Op {
    up(slot, TcpFlags::PSH_ACK, &ClientHelloBuilder::new(HOSTS[host]).build(), HOSTS[host])
}

/// Remote data with its own TTL, `offset` into its step: a rewrite must
/// keep the TTL (§5.2).
fn data_down(slot: u16, len: usize, ttl: u8, offset: Duration) -> Op {
    let mut op = down(slot, TcpFlags::PSH_ACK, &vec![0x5a; len], "data");
    if let Op::Send(send) = &mut op {
        let mut ip = Ipv4Packet::new_unchecked(&mut send.packet[..]);
        ip.set_ttl(ttl);
        ip.fill_checksum();
        send.at = Time::ZERO + offset;
    }
    op
}

/// Moves every op after the previous one by `wait`, then by its own
/// offset; a step's ops keep their order.
fn timeline(steps: Vec<(Duration, Vec<Op>)>) -> Vec<Op> {
    let mut clock = Time::ZERO;
    let mut ops = Vec::new();
    for (wait, step) in steps {
        clock += wait;
        let start = clock;
        for mut op in step {
            match &mut op {
                Op::Send(send) => {
                    send.at = start + send.at.since(Time::ZERO);
                    clock = clock.max(send.at);
                }
                Op::Restart(at) => *at = start,
                Op::Note(_) | Op::Delta(_) => {}
            }
            ops.push(op);
        }
    }
    ops
}

fn wait() -> impl Strategy<Value = Duration> {
    prop_oneof![
        Just(Duration::ZERO),
        (0u64..90_000).prop_map(Duration::from_millis),
        (0..EDGES.len(), 0u64..3).prop_map(|(edge, side)| {
            Duration::from_secs(EDGES[edge]) + Duration::from_micros(side) - Duration::from_micros(1)
        }),
    ]
}

fn delta() -> impl Strategy<Value = PolicyDelta> {
    (0u8..8, 0..HOSTS.len(), 0usize..4).prop_map(|(what, host, list)| {
        let mut delta = PolicyDelta::new();
        let name = HOSTS[host].to_string();
        let (adds, removes) = match list {
            0 => (&mut delta.add_rst, &mut delta.remove_rst),
            1 => (&mut delta.add_slow, &mut delta.remove_slow),
            2 => (&mut delta.add_throttle, &mut delta.remove_throttle),
            _ => (&mut delta.add_backup, &mut delta.remove_backup),
        };
        let ip = if host % 2 == 0 { TOR } else { SERVER };
        match what {
            0 | 1 => adds.push(name),
            2 | 3 => removes.push(name),
            4 => delta.block_ips.push(ip),
            5 => delta.unblock_ips.push(ip),
            6 => delta.quic_filter = Some(host % 2 == 0),
            _ => delta.throttle_active = Some(host % 2 == 0),
        }
        delta
    })
}

/// A fragment train of `pieces` to `dst`: in order, with a piece sent
/// twice, last piece first, or with TTLs of their own (rule 3 overwrites
/// them).
fn fragments(ident: u16, pieces: usize, dst: Ipv4Addr, how: u8) -> Vec<Op> {
    let mut datagram = udp(CLIENT, 46_000 + ident, dst, 443, &[9; 600]);
    Ipv4Packet::new_unchecked(&mut datagram[..]).set_ident(0x4600 + ident);
    let mut train = frag::fragment_into(&datagram, pieces).expect("600 bytes cut into ≤ 47 pieces");
    match how {
        1 => train.insert(pieces / 2, train[pieces / 2].clone()),
        2 => train.rotate_right(1),
        3 => {
            for (i, piece) in train.iter_mut().enumerate() {
                let mut ip = Ipv4Packet::new_unchecked(&mut piece[..]);
                ip.set_ttl(64 - i as u8);
                ip.fill_checksum();
            }
        }
        _ => {}
    }
    let flow = format!("frag:{ident}");
    train.into_iter().map(|piece| send(Up, flow.clone(), "fragment", piece)).collect()
}

/// How a flow on `slot` opens (Fig. 4): not at all, a handshake, a split
/// handshake, a split handshake the local ACK turns around, or from the
/// remote side.
fn opening(slot: u16, how: u8) -> Vec<Op> {
    let (syn, synack, ack) = (TcpFlags::SYN, TcpFlags::SYN_ACK, TcpFlags::ACK);
    match how {
        1 => vec![up(slot, syn, b"", "syn"), down(slot, synack, b"", "syn/ack"), up(slot, ack, b"", "ack")],
        2 => vec![up(slot, syn, b"", "syn"), down(slot, syn, b"", "syn")],
        3 => vec![up(slot, syn, b"", "syn"), down(slot, syn, b"", "syn"), up(slot, ack, b"", "ack")],
        4 => vec![down(slot, syn, b"", "syn"), up(slot, synack, b"", "syn/ack"), down(slot, ack, b"", "ack")],
        _ => Vec::new(),
    }
}

/// `n` server segments of `len` bytes and TTL `ttl`, 250 ms apart: past
/// SNI-II's five to eight, past SNI-III's 1600-byte bucket.
fn volley(slot: u16, n: usize, len: usize, ttl: u8) -> Vec<Op> {
    (0..n).map(|i| data_down(slot, len, ttl, Duration::from_millis(1 + 250 * i as u64))).collect()
}

/// A plaintext HTTP request on port 80: inert under the TSPU.
fn http(slot: u16, host: usize) -> Vec<Op> {
    let port = 42_000 + slot;
    let request = HttpRequest::get(HOSTS[host], "/").build();
    vec![send(Up, format!("tcp:{port}"), HOSTS[host], tcp(CLIENT, port, SERVER, 80, TcpFlags::PSH_ACK, &request))]
}

/// A DNS query on port 53: inert under the TSPU.
fn dns(host: usize) -> Vec<Op> {
    let query = DnsQuery { id: 0x8a00 + host as u16, qname: HOSTS[host].into(), qtype: QTYPE_A };
    vec![send(Up, "udp:43000".into(), HOSTS[host], udp(CLIENT, 43_000, SERVER, 53, &query.build()))]
}

/// A QUIC Initial of `len` payload bytes, version 1 or not.
fn quic(slot: u16, len: usize, v1: bool) -> Vec<Op> {
    let port = 44_000 + slot;
    let version = if v1 { QuicVersion::V1 } else { QuicVersion::Draft29 };
    let packet = udp(CLIENT, port, SERVER, 443, &initial_payload(version, len));
    vec![send(Up, format!("udp:{port}"), "initial", packet)]
}

/// A later, short packet of a QUIC flow, either way.
fn quic_later(slot: u16, local: bool) -> Vec<Op> {
    let port = 44_000 + slot;
    let flow = format!("udp:{port}");
    if local {
        vec![send(Up, flow, "short", udp(CLIENT, port, SERVER, 443, &[0x40; 40]))]
    } else {
        vec![send(Down, flow, "short", udp(SERVER, 443, CLIENT, port, &[0x40; 64]))]
    }
}

/// Traffic with the blocked address: a local SYN or data, a remotely
/// opened connection answered, a UDP exchange, remote data.
fn blocked_address(slot: u16, what: u8) -> Vec<Op> {
    let port = 45_000 + slot;
    let (flow, udp_flow) = (format!("tcp:{port}"), format!("udp:{port}"));
    let (syn, synack, psh) = (TcpFlags::SYN, TcpFlags::SYN_ACK, TcpFlags::PSH_ACK);
    match what {
        0 => vec![send(Up, flow, "syn", tcp(CLIENT, port, TOR, 443, syn, b""))],
        1 => vec![send(Up, flow, "data", tcp(CLIENT, port, TOR, 443, psh, b"relay"))],
        2 => vec![
            send(Down, flow.clone(), "syn", tcp(TOR, 443, CLIENT, port, syn, b"")),
            send(Up, flow, "syn/ack", tcp(CLIENT, port, TOR, 443, synack, b"")),
        ],
        3 => vec![
            send(Up, udp_flow.clone(), "data", udp(CLIENT, port, TOR, 53, &[1; 32])),
            send(Down, udp_flow, "data", udp(TOR, 53, CLIENT, port, &[2; 32])),
        ],
        _ => vec![send(Down, flow, "data", tcp(TOR, 443, CLIENT, port, psh, b"relay"))],
    }
}

/// An echo request to or from the blocked address or a clean one.
fn ping(local: bool, tor: bool) -> Vec<Op> {
    let far = if tor { TOR } else { SERVER };
    if local {
        vec![send(Up, "icmp".into(), "echo", icmp(CLIENT, far))]
    } else {
        vec![send(Down, "icmp".into(), "echo", icmp(far, CLIENT))]
    }
}

fn step() -> impl Strategy<Value = Vec<Op>> {
    let slot = || 0..SLOTS;
    let host = || 0..HOSTS.len();
    let ttl = || prop_oneof![Just(64u8), Just(52u8)];
    let flags = prop_oneof![
        Just(TcpFlags::SYN),
        Just(TcpFlags::SYN_ACK),
        Just(TcpFlags::ACK),
        Just(TcpFlags::PSH_ACK),
        Just(TcpFlags::RST),
        Just(TcpFlags::FIN | TcpFlags::ACK),
        any::<u8>().prop_map(|bits| TcpFlags(bits & 0x3f)),
    ];
    let quic_len = prop_oneof![Just(999usize), Just(1000), Just(1001), Just(1200)];
    let pieces = prop_oneof![Just(2usize), Just(3), Just(45), Just(46), Just(47)];
    prop_oneof![
        (slot(), 0u8..5).prop_map(|(s, how)| opening(s, how)),
        // A whole session: an opening, a ClientHello, the server's answer.
        (slot(), 0u8..5, host(), 1usize..11, 1usize..1400, ttl()).prop_map(|(s, how, h, n, len, ttl)| {
            let mut ops = opening(s, how);
            ops.push(hello(s, h));
            ops.extend(volley(s, n, len, ttl));
            ops
        }),
        (slot(), any::<bool>(), flags, 0usize..2).prop_map(|(s, local, flags, len)| {
            let payload = vec![0x11; len * 100];
            vec![if local { up(s, flags, &payload, "flags") } else { down(s, flags, &payload, "flags") }]
        }),
        (slot(), host()).prop_map(|(s, h)| vec![hello(s, h)]),
        (slot(), 1usize..300).prop_map(|(s, len)| vec![up(s, TcpFlags::PSH_ACK, &vec![0xa5; len], "data")]),
        (slot(), 1usize..11, 1usize..1400, ttl()).prop_map(|(s, n, len, ttl)| volley(s, n, len, ttl)),
        // Arm, then probe on the edge of a window.
        (slot(), host(), 0..EDGES.len(), 0u64..3).prop_map(|(s, h, edge, side)| {
            let offset = Duration::from_secs(EDGES[edge]) + Duration::from_micros(side) - Duration::from_micros(1);
            vec![hello(s, h), data_down(s, 100, 57, offset)]
        }),
        (slot(), host()).prop_map(|(s, h)| http(s, h)),
        host().prop_map(dns),
        (slot(), quic_len, any::<bool>()).prop_map(|(s, len, v1)| quic(s, len, v1)),
        (slot(), any::<bool>()).prop_map(|(s, local)| quic_later(s, local)),
        (slot(), 0u8..5).prop_map(|(s, what)| blocked_address(s, what)),
        (any::<bool>(), any::<bool>()).prop_map(|(local, tor)| ping(local, tor)),
        (0u16..3, pieces, any::<bool>(), 0u8..4)
            .prop_map(|(ident, pieces, tor, how)| fragments(ident, pieces, if tor { TOR } else { SERVER }, how)),
        delta().prop_map(|delta| vec![Op::Delta(delta)]),
        (0u8..4).prop_map(|roll| if roll == 0 { vec![Op::Restart(Time::ZERO)] } else { Vec::new() }),
    ]
}

/// Random device-level op lists of 1–120 steps.
pub fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((wait(), step()), 1..120).prop_map(timeline)
}

/// `Policy::example` with throttling on or off, failure dice at 0, 18 %
/// or 55 % on every mechanism, and a seed.
pub fn setups() -> impl Strategy<Value = Setup> {
    (any::<bool>(), prop_oneof![Just(0.0), Just(0.18), Just(0.55)], 0u64..1_000_000).prop_map(
        |(throttle_active, p, seed)| {
            let policy = Policy { throttle_active, ..Policy::example() };
            Setup { policy, failure: FailureProfile::uniform(p), seed }
        },
    )
}

/// What a test failure prints for emitted packets: length, TCP flags,
/// TTL.
fn describe(packets: &[Vec<u8>]) -> Vec<String> {
    let one = |packet: &Vec<u8>| {
        let Ok(ip) = Ipv4Packet::new_checked(&packet[..]) else {
            return format!("{} B, not IPv4", packet.len());
        };
        let flags = match ip.protocol() {
            Protocol::Tcp if !ip.is_fragment() => {
                TcpSegment::new_checked(ip.payload()).map(|s| format!(" {:?}", s.flags())).unwrap_or_default()
            }
            _ => String::new(),
        };
        format!("{} B{flags} ttl {}", packet.len(), ip.ttl())
    };
    packets.iter().map(one).collect()
}

/// Plays `ops` into the spec and the two engine builds; see the module
/// documentation.
pub fn play(setup: &Setup, ops: &[Op]) {
    let mut spec = setup.spec(ops);
    let mut default = setup.engine("default", ops);
    let mut rebuilt = default.config().instantiate();
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Send(s) => {
                let want = spec.process_owned(s.at, s.direction, s.packet.clone());
                for (name, engine) in [("default", &mut default), ("rebuilt", &mut rebuilt)] {
                    let got = engine.process_owned(s.at, s.direction, s.packet.clone());
                    assert!(
                        got == want,
                        "op {i} ({op:?}): the {name} engine emits {:?}, the spec {:?}",
                        describe(&got),
                        describe(&want)
                    );
                }
            }
            // The two builds share one registry.
            Op::Delta(delta) => {
                spec.apply_delta(delta);
                default.policy().apply_delta(delta);
            }
            Op::Note(_) | Op::Restart(_) => {}
        }
    }
    assert_eq!(default.stats(), spec.stats(), "the default engine's counters");
    assert_eq!(rebuilt.stats(), spec.stats(), "the rebuilt engine's counters");
    assert_eq!(default.obs_snapshot(), rebuilt.obs_snapshot(), "the two builds' exports");
}
