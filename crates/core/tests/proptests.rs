//! Property-based tests over the TSPU device's data structures: the
//! conntrack state machine, the fragment cache, the policer, and the
//! device's packet interface under arbitrary (including malformed) input.

use proptest::prelude::*;
use std::net::Ipv4Addr;
use std::time::Duration;

use tspu_core::conntrack::{ConnTracker, FlowKey, Side};
use tspu_core::frag_cache::{FragCache, FragConfig};
use tspu_core::{CensorProfile, Hardening, Policy, PolicyHandle, TokenBucket, TspuDevice};
use tspu_netsim::{Direction, Middlebox, Time};
use tspu_wire::dns::{DnsQuery, QTYPE_A};
use tspu_wire::frag;
use tspu_wire::http::HttpRequest;
use tspu_wire::ipv4::{Ipv4Packet, Ipv4Repr, Protocol};
use tspu_wire::quic::{initial_payload, QuicVersion};
use tspu_wire::tcp::{TcpFlags, TcpRepr};
use tspu_wire::tls::ClientHelloBuilder;
use tspu_wire::udp::UdpRepr;

const LOCAL: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 7);
const REMOTE: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 7);
/// `Policy::example`'s blocked address.
const BLOCKED: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 7);

fn key() -> FlowKey {
    FlowKey { local_addr: LOCAL, local_port: 5555, remote_addr: REMOTE, remote_port: 443, protocol: 6 }
}

fn arb_flags() -> impl Strategy<Value = TcpFlags> {
    prop_oneof![
        Just(TcpFlags::SYN),
        Just(TcpFlags::SYN_ACK),
        Just(TcpFlags::ACK),
        Just(TcpFlags::PSH_ACK),
        Just(TcpFlags::RST),
        Just(TcpFlags::FIN),
        any::<u8>().prop_map(|b| TcpFlags(b & 0x3f)),
    ]
}

fn arb_side() -> impl Strategy<Value = Side> {
    prop_oneof![Just(Side::Local), Just(Side::Remote)]
}

fn arb_profile() -> impl Strategy<Value = CensorProfile> {
    prop_oneof![
        Just(CensorProfile::tspu()),
        Just(CensorProfile::turkmenistan()),
        Just(CensorProfile::india()),
        Just(CensorProfile::legacy_isp()),
    ]
}

fn arb_hardening() -> impl Strategy<Value = Hardening> {
    prop_oneof![Just(Hardening::none()), Just(Hardening::full())]
}

/// Up to 1,500 application bytes: random, or what one of the engine's
/// triggers looks for (a ClientHello, an HTTP request, a DNS query, a
/// QUIC Initial) naming a listed host.
fn arb_app_payload() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..=1500),
        Just(ClientHelloBuilder::new("twitter.com").build()),
        Just(HttpRequest::get("meduza.io", "/").build()),
        Just(DnsQuery { id: 7, qname: "meduza.io".to_string(), qtype: QTYPE_A }.build()),
        Just(initial_payload(QuicVersion::V1, 1_200)),
    ]
}

/// A packet with a valid IPv4 header between `LOCAL` and a listed or an
/// unlisted remote, in either direction: TCP, UDP or ICMP; the remote
/// port (an outbound packet's destination) 53, 80, 443 or any; arbitrary
/// fragment bits. The `bool` is whether it travels local→remote.
fn arb_structured_packet() -> impl Strategy<Value = (bool, Vec<u8>)> {
    let protocol = prop_oneof![Just(Protocol::Tcp), Just(Protocol::Udp), Just(Protocol::Icmp)];
    let remote_port = prop_oneof![Just(53u16), Just(80), Just(443), any::<u16>()];
    let local_port = prop_oneof![Just(40_000u16), any::<u16>()];
    let remote = prop_oneof![Just(REMOTE), Just(BLOCKED)];
    // (more fragments, don't fragment, offset in 8-byte units): half the
    // packets are unfragmented.
    let frag_bits = prop_oneof![Just((false, false, 0u16)), (any::<bool>(), any::<bool>(), 0u16..8192)];
    ((protocol, remote_port, local_port, remote), (arb_flags(), arb_app_payload(), frag_bits, any::<bool>()))
        .prop_map(|((protocol, remote_port, local_port, remote), (flags, payload, frag_bits, up))| {
            let (src, dst) = if up { (LOCAL, remote) } else { (remote, LOCAL) };
            let (sport, dport) = if up { (local_port, remote_port) } else { (remote_port, local_port) };
            let body = match protocol {
                Protocol::Tcp => TcpRepr { payload, ..TcpRepr::new(sport, dport, flags) }.build(src, dst),
                Protocol::Udp => UdpRepr::new(sport, dport, payload).build(src, dst),
                _ => payload,
            };
            let (more_fragments, dont_fragment, offset) = frag_bits;
            let mut repr = Ipv4Repr::new(src, dst, protocol, body.len());
            repr.more_fragments = more_fragments;
            repr.dont_fragment = dont_fragment;
            repr.frag_offset = usize::from(offset) * 8;
            (up, repr.build(&body))
        })
}

fn direction(up: bool) -> Direction {
    if up { Direction::LocalToRemote } else { Direction::RemoteToLocal }
}

proptest! {
    /// Any packet sequence leaves the tracker in a consistent state:
    /// first_sender never changes, timestamps never go backwards, and
    /// no sequence panics.
    #[test]
    fn conntrack_invariants(seq in proptest::collection::vec((arb_side(), arb_flags(), 0usize..600), 1..40)) {
        let mut tracker = ConnTracker::new();
        let mut now = Time::ZERO;
        let mut first_sender = None;
        for (side, flags, len) in seq {
            now += Duration::from_millis(250);
            let entry = tracker.observe_tcp(now, key(), side, flags, len);
            match first_sender {
                None => first_sender = Some(entry.first_sender),
                Some(first) => {
                    // first_sender is immutable for the entry's lifetime;
                    // it may change only if the entry expired and was
                    // recreated — impossible at 250 ms spacing.
                    prop_assert_eq!(entry.first_sender, first);
                }
            }
            prop_assert!(entry.last_seen <= now);
            prop_assert!(entry.created <= entry.last_seen);
        }
        prop_assert!(tracker.len() <= 1);
    }

    /// Expiry is monotone: once a flow is expired at t, it stays expired
    /// at any later t (absent new packets).
    #[test]
    fn conntrack_expiry_monotone(flags in arb_flags(), len in 0usize..600, probe in 0u64..2_000, probe2 in 0u64..2_000) {
        let mut tracker = ConnTracker::new();
        tracker.observe_tcp(Time::ZERO, key(), Side::Local, flags, len);
        let (a, b) = (probe.min(probe2), probe.max(probe2));
        let expired_a = tracker.get(Time::from_secs(a), &key()).is_none();
        let expired_b = tracker.get(Time::from_secs(b), &key()).is_none();
        prop_assert!(!expired_a || expired_b, "expired at {a}s but alive at {b}s");
    }

    /// The fragment cache never forwards before the last fragment
    /// arrives, never duplicates, and never exceeds what was offered.
    #[test]
    fn frag_cache_conservation(payload_len in 256usize..2000, mtu in 16usize..256,
                               order in proptest::collection::vec(any::<usize>(), 0..8)) {
        let payload: Vec<u8> = (0..payload_len).map(|i| i as u8).collect();
        let mut repr = Ipv4Repr::new(LOCAL, REMOTE, Protocol::Udp, payload.len());
        repr.ident = 0x2222;
        let datagram = repr.build(&payload);
        let mut fragments = frag::fragment(&datagram, mtu).unwrap();
        // Shuffle deterministically from the order seed, keeping the
        // MF=0 fragment last so the flush condition is reached at the end.
        let last = fragments.pop().unwrap();
        for (i, &swap) in order.iter().enumerate() {
            if !fragments.is_empty() {
                let len = fragments.len();
                fragments.swap(i % len, swap % len);
            }
        }
        fragments.push(last);

        let mut cache = FragCache::new(FragConfig::default());
        let mut forwarded = 0usize;
        for (i, piece) in fragments.iter().enumerate() {
            let out = cache.offer(Time::ZERO, piece);
            if i + 1 < fragments.len() {
                prop_assert!(out.is_empty(), "forwarded before the last fragment");
            }
            forwarded += out.len();
        }
        prop_assert!(forwarded <= fragments.len());
        if fragments.len() <= 45 {
            prop_assert_eq!(forwarded, fragments.len());
        }
    }

    /// Token bucket never exceeds rate × elapsed + burst.
    #[test]
    fn policer_rate_bound(rate in 100u64..20_000, burst in 500u64..20_000,
                          offers in proptest::collection::vec((1u64..500, 1usize..2000), 1..200)) {
        let mut bucket = TokenBucket::new(rate, burst, Time::ZERO);
        let mut now = Time::ZERO;
        let mut admitted_bytes = 0u64;
        for (gap_ms, len) in offers {
            now += Duration::from_millis(gap_ms);
            if bucket.admit(now, len) {
                admitted_bytes += len as u64;
            }
        }
        let elapsed_secs = now.as_secs_f64();
        let bound = rate as f64 * elapsed_secs + burst as f64;
        prop_assert!(admitted_bytes as f64 <= bound + 1.0,
            "admitted {admitted_bytes} > bound {bound}");
    }

    /// The device never panics on arbitrary byte blobs, and passes
    /// through non-IP traffic untouched, under every profile, hardened or
    /// not; nor on the structured packets that follow the blob.
    #[test]
    fn device_handles_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..200),
                              dir_local in any::<bool>(), profile in arb_profile(),
                              hardening in arb_hardening(),
                              packets in proptest::collection::vec(arb_structured_packet(), 0..8)) {
        let mut dev = TspuDevice::reliable("fuzz", PolicyHandle::new(Policy::example()))
            .with_censor_profile(profile)
            .with_hardening(hardening);
        let out = dev.process_owned(Time::ZERO, direction(dir_local), bytes.clone());
        prop_assert!(out.len() <= 1);
        for (i, (up, packet)) in packets.into_iter().enumerate() {
            let now = Time::from_micros(i as u64 * 250_000);
            // A flush forwards no more fragments than were offered.
            prop_assert!(dev.process_owned(now, direction(up), packet).len() <= i + 2);
        }
    }

    /// Mutated-but-valid IPv4/TCP packets, and the structured packets
    /// (triggers, verdicts, fragments) that follow them, never panic the
    /// device under any profile, hardened or not, and output packets are
    /// well-formed IPv4 whenever input was.
    #[test]
    fn device_output_well_formed(sport in 1024u16..65000, payload in proptest::collection::vec(any::<u8>(), 0..600),
                                 flags in arb_flags(), dir_local in any::<bool>(), profile in arb_profile(),
                                 hardening in arb_hardening(),
                                 packets in proptest::collection::vec(arb_structured_packet(), 0..8)) {
        let mut tcp = tspu_wire::tcp::TcpRepr::new(sport, 443, flags);
        tcp.payload = payload;
        let (src, dst) = if dir_local { (LOCAL, REMOTE) } else { (REMOTE, LOCAL) };
        let seg = tcp.build(src, dst);
        let packet = Ipv4Repr::new(src, dst, Protocol::Tcp, seg.len()).build(&seg);
        let mut dev = TspuDevice::reliable("fuzz2", PolicyHandle::new(Policy::example()))
            .with_censor_profile(profile)
            .with_hardening(hardening);
        let inputs = std::iter::once((dir_local, packet)).chain(packets);
        for (i, (up, packet)) in inputs.enumerate() {
            let now = Time::from_micros(i as u64 * 250_000);
            for forwarded in dev.process_owned(now, direction(up), packet) {
                let view = Ipv4Packet::new_checked(&forwarded[..]).unwrap();
                prop_assert!(view.verify_checksum());
            }
        }
    }
}

proptest! {
    /// Interleaved fragment trains from many packets through the full
    /// device: no panics, and no train is forwarded twice.
    #[test]
    fn device_fragment_interleavings(trains in proptest::collection::vec((1u16..2000, 300usize..900), 1..6),
                                     interleave in proptest::collection::vec(any::<u8>(), 0..24)) {
        let mut dev = TspuDevice::reliable("frag-fuzz", PolicyHandle::new(Policy::example()));
        let mut pending: Vec<Vec<Vec<u8>>> = trains
            .iter()
            .enumerate()
            .map(|(i, &(ident, payload_len))| {
                let payload = vec![0x3c; payload_len];
                let mut repr = Ipv4Repr::new(LOCAL, REMOTE, Protocol::Udp, payload.len());
                // Idents distinct by construction: a collision would merge
                // two trains into one poisoned queue.
                repr.ident = (ident % 2000).wrapping_add(i as u16 * 2003);
                frag::fragment(&repr.build(&payload), 128).unwrap()
            })
            .collect();
        let mut forwarded_per_train = vec![0usize; pending.len()];
        let expected: Vec<usize> = pending.iter().map(Vec::len).collect();
        // Interleave deterministically from the seed, then drain leftovers.
        let mut seeds = interleave.into_iter().cycle();
        let mut remaining: usize = pending.iter().map(Vec::len).sum();
        while remaining > 0 {
            let pick = usize::from(seeds.next().unwrap_or(0)) % pending.len();
            let pick = (0..pending.len())
                .map(|i| (pick + i) % pending.len())
                .find(|&i| !pending[i].is_empty())
                .unwrap();
            let fragment = pending[pick].remove(0);
            let out = dev.process_owned(Time::ZERO, Direction::LocalToRemote, fragment.clone());
            forwarded_per_train[pick] += out.len();
            remaining -= 1;
        }
        for (i, (&got, &want)) in forwarded_per_train.iter().zip(expected.iter()).enumerate() {
            // Every complete, well-formed train is forwarded exactly once
            // (all fragments at the last arrival), never duplicated.
            prop_assert_eq!(got, want, "train {}", i);
        }
    }
}
