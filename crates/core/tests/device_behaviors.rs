//! Device-level tests: each of the paper's six blocking behaviors (§5.2,
//! Fig. 2) exercised against a [`TspuDevice`] at the packet boundary.

use std::net::Ipv4Addr;
use std::time::Duration;

use tspu_core::device::rst_ack_rewrite;
use tspu_core::{CensorProfile, FailureProfile, Policy, PolicyHandle, TspuDevice};
use tspu_netsim::{Direction, Middlebox, Time};
use tspu_wire::http::HttpRequest;
use tspu_wire::ipv4::{Ipv4Packet, Ipv4Repr, Protocol};
use tspu_wire::quic::{initial_payload, QuicVersion};
use tspu_wire::tcp::{TcpFlags, TcpRepr, TcpSegment};
use tspu_wire::tls::ClientHelloBuilder;
use tspu_wire::udp::UdpRepr;

const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 8, 0, 2);
const SERVER: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 10);
const TOR: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 7);

fn tcp_packet(src: Ipv4Addr, sp: u16, dst: Ipv4Addr, dp: u16, flags: TcpFlags, payload: &[u8]) -> Vec<u8> {
    let mut tcp = TcpRepr::new(sp, dp, flags);
    tcp.payload = payload.to_vec();
    let seg = tcp.build(src, dst);
    Ipv4Repr::new(src, dst, Protocol::Tcp, seg.len()).build(&seg)
}

fn udp_packet(src: Ipv4Addr, sp: u16, dst: Ipv4Addr, dp: u16, payload: &[u8]) -> Vec<u8> {
    let datagram = UdpRepr::new(sp, dp, payload.to_vec()).build(src, dst);
    Ipv4Repr::new(src, dst, Protocol::Udp, datagram.len()).build(&datagram)
}

fn device() -> TspuDevice {
    TspuDevice::reliable("tspu-test", PolicyHandle::new(Policy::example()))
}

fn clienthello(host: &str) -> Vec<u8> {
    ClientHelloBuilder::new(host).build()
}

/// Runs a full client handshake through the device from the local side.
fn handshake(dev: &mut TspuDevice, now: Time, sport: u16) {
    let syn = tcp_packet(CLIENT, sport, SERVER, 443, TcpFlags::SYN, b"");
    assert_eq!(dev.process_owned(now, Direction::LocalToRemote, syn.clone()).len(), 1);
    let synack = tcp_packet(SERVER, 443, CLIENT, sport, TcpFlags::SYN_ACK, b"");
    assert_eq!(dev.process_owned(now, Direction::RemoteToLocal, synack.clone()).len(), 1);
    let ack = tcp_packet(CLIENT, sport, SERVER, 443, TcpFlags::ACK, b"");
    assert_eq!(dev.process_owned(now, Direction::LocalToRemote, ack.clone()).len(), 1);
}

#[test]
fn sni1_rewrites_downstream_to_rst_ack() {
    let mut dev = device();
    let now = Time::ZERO;
    handshake(&mut dev, now, 40000);

    // The triggering ClientHello itself passes upstream (Fig. 2 SNI-I).
    let ch = tcp_packet(CLIENT, 40000, SERVER, 443, TcpFlags::PSH_ACK, &clienthello("twitter.com"));
    assert_eq!(dev.process_owned(now, Direction::LocalToRemote, ch.clone()).len(), 1);
    assert_eq!(dev.stats().triggers_sni1, 1);

    // The ServerHello coming back is rewritten: RST/ACK, payload gone,
    // TTL/seq/ack preserved.
    let server_hello = tcp_packet(SERVER, 443, CLIENT, 40000, TcpFlags::PSH_ACK, &tspu_wire::tls::server_hello_record());
    let out = dev.process_owned(now, Direction::RemoteToLocal, server_hello.clone());
    assert_eq!(out.len(), 1);
    let ip = Ipv4Packet::new_checked(&out[0][..]).unwrap();
    assert!(ip.verify_checksum());
    let seg = TcpSegment::new_checked(ip.payload()).unwrap();
    assert_eq!(seg.flags(), TcpFlags::RST_ACK);
    assert!(seg.payload().is_empty());
    let orig_ip = Ipv4Packet::new_unchecked(&server_hello[..]);
    let orig_seg = TcpSegment::new_unchecked(orig_ip.payload());
    assert_eq!(seg.seq_number(), orig_seg.seq_number());
    assert_eq!(seg.ack_number(), orig_seg.ack_number());
    assert_eq!(ip.ttl(), orig_ip.ttl());
    assert!(seg.verify_checksum(SERVER, CLIENT));

    // Upstream packets keep passing unmodified (SNI-I acts downstream only).
    let data = tcp_packet(CLIENT, 40000, SERVER, 443, TcpFlags::PSH_ACK, b"more");
    let out = dev.process_owned(now, Direction::LocalToRemote, data.clone());
    assert_eq!(out, vec![data]);
}

#[test]
fn sni1_residual_expires_after_75s() {
    let mut dev = device();
    handshake(&mut dev, Time::ZERO, 40000);
    let ch = tcp_packet(CLIENT, 40000, SERVER, 443, TcpFlags::PSH_ACK, &clienthello("twitter.com"));
    dev.process_owned(Time::ZERO, Direction::LocalToRemote, ch.clone());

    let reply = tcp_packet(SERVER, 443, CLIENT, 40000, TcpFlags::PSH_ACK, b"data");
    // At 74 s: still rewritten.
    let out = dev.process_owned(Time::from_secs(74), Direction::RemoteToLocal, reply.clone());
    let seg = TcpSegment::new_unchecked(Ipv4Packet::new_unchecked(&out[0][..]).payload().to_vec());
    assert_eq!(seg.flags(), TcpFlags::RST_ACK);
    // At 76 s: residual lapsed; packet passes untouched.
    let out = dev.process_owned(Time::from_secs(76), Direction::RemoteToLocal, reply.clone());
    assert_eq!(out, vec![reply]);
}

#[test]
fn non_blocked_sni_passes_untouched() {
    let mut dev = device();
    handshake(&mut dev, Time::ZERO, 40001);
    let ch = tcp_packet(CLIENT, 40001, SERVER, 443, TcpFlags::PSH_ACK, &clienthello("wikipedia.org"));
    assert_eq!(dev.process_owned(Time::ZERO, Direction::LocalToRemote, ch.clone()).len(), 1);
    let reply = tcp_packet(SERVER, 443, CLIENT, 40001, TcpFlags::PSH_ACK, b"content");
    let out = dev.process_owned(Time::ZERO, Direction::RemoteToLocal, reply.clone());
    assert_eq!(out, vec![reply]);
    assert_eq!(dev.stats().triggers_sni1, 0);
}

#[test]
fn sni_trigger_requires_port_443() {
    let mut dev = device();
    let ch = tcp_packet(CLIENT, 40002, SERVER, 8443, TcpFlags::PSH_ACK, &clienthello("twitter.com"));
    dev.process_owned(Time::ZERO, Direction::LocalToRemote, ch.clone());
    assert_eq!(dev.stats().triggers_sni1, 0);
}

#[test]
fn sni_trigger_ignores_remote_clienthellos() {
    // Censorship is asymmetric: a CH arriving from outside Russia never
    // triggers (§5.3.2).
    let mut dev = device();
    let ch = tcp_packet(SERVER, 50000, CLIENT, 443, TcpFlags::PSH_ACK, &clienthello("twitter.com"));
    let out = dev.process_owned(Time::ZERO, Direction::RemoteToLocal, ch.clone());
    assert_eq!(out.len(), 1);
    assert_eq!(dev.stats().triggers_sni1, 0);
}

#[test]
fn sni2_allows_handful_then_drops_symmetrically() {
    let mut dev = device();
    handshake(&mut dev, Time::ZERO, 40100);
    let ch = tcp_packet(CLIENT, 40100, SERVER, 443, TcpFlags::PSH_ACK, &clienthello("play.google.com"));
    assert_eq!(dev.process_owned(Time::ZERO, Direction::LocalToRemote, ch.clone()).len(), 1);
    assert_eq!(dev.stats().triggers_sni2, 1);

    // 5–8 more packets (from either side) pass, after which both
    // directions drop.
    let up = tcp_packet(CLIENT, 40100, SERVER, 443, TcpFlags::PSH_ACK, b"up");
    let down = tcp_packet(SERVER, 443, CLIENT, 40100, TcpFlags::PSH_ACK, b"down");
    let mut passed = 0;
    for i in 0..20 {
        let (dir, pkt) = if i % 2 == 0 {
            (Direction::RemoteToLocal, &down)
        } else {
            (Direction::LocalToRemote, &up)
        };
        passed += dev.process_owned(Time::ZERO, dir, pkt.clone()).len();
    }
    assert!((5..=8).contains(&passed), "allowance was {passed}");

    // Much later (but within the 420 s residual) still dropping.
    let out = dev.process_owned(Time::from_secs(400), Direction::LocalToRemote, up.clone());
    assert!(out.is_empty());
    // After 420 s the verdict lapses.
    let out = dev.process_owned(Time::from_secs(421), Direction::LocalToRemote, up.clone());
    assert_eq!(out.len(), 1);
}

#[test]
fn sni3_throttles_when_policy_active() {
    let policy = PolicyHandle::new(Policy { throttle_active: true, ..Policy::example() });
    let mut dev = TspuDevice::reliable("tspu", policy);
    handshake(&mut dev, Time::ZERO, 40200);
    let ch = tcp_packet(CLIENT, 40200, SERVER, 443, TcpFlags::PSH_ACK, &clienthello("fbcdn.net"));
    assert_eq!(dev.process_owned(Time::ZERO, Direction::LocalToRemote, ch.clone()).len(), 1);
    assert_eq!(dev.stats().triggers_sni3, 1);

    // Stream 1460-byte segments downstream every 100 ms for 60 s; goodput
    // must approximate the 600–700 B/s policer.
    let data = tcp_packet(SERVER, 443, CLIENT, 40200, TcpFlags::PSH_ACK, &[0xab; 1460]);
    let mut delivered = 0u64;
    let mut now = Time::ZERO;
    for _ in 0..600 {
        delivered += 1460 * dev.process_owned(now, Direction::RemoteToLocal, data.clone()).len() as u64;
        now += Duration::from_millis(100);
    }
    let rate = delivered as f64 / 60.0;
    assert!((550.0..=800.0).contains(&rate), "goodput {rate} B/s");
}

#[test]
fn march4_switches_throttle_to_rst_centrally() {
    let policy = PolicyHandle::new(Policy { throttle_active: true, ..Policy::example() });
    let mut dev_a = TspuDevice::reliable("tspu-a", policy.clone());
    let mut dev_b = TspuDevice::reliable("tspu-b", policy.clone());

    policy.march_4_2022_transition();

    // Both devices now RST instead of throttling fbcdn.net.
    for dev in [&mut dev_a, &mut dev_b] {
        handshake(dev, Time::ZERO, 40300);
        let ch = tcp_packet(CLIENT, 40300, SERVER, 443, TcpFlags::PSH_ACK, &clienthello("fbcdn.net"));
        dev.process_owned(Time::ZERO, Direction::LocalToRemote, ch.clone());
        assert_eq!(dev.stats().triggers_sni3, 0);
        assert_eq!(dev.stats().triggers_sni1, 1);
    }
}

#[test]
fn sni4_backup_fires_when_sni1_evaded() {
    let mut dev = device();
    let now = Time::ZERO;
    // Split handshake: local SYN, remote answers with bare SYN.
    let syn = tcp_packet(CLIENT, 40400, SERVER, 443, TcpFlags::SYN, b"");
    dev.process_owned(now, Direction::LocalToRemote, syn.clone());
    let syn_back = tcp_packet(SERVER, 443, CLIENT, 40400, TcpFlags::SYN, b"");
    dev.process_owned(now, Direction::RemoteToLocal, syn_back.clone());

    // twitter.com is both SNI-I and SNI-IV listed; SNI-I is evaded by the
    // ambiguous roles, so the backup filter eats everything, including
    // the ClientHello itself.
    let ch = tcp_packet(CLIENT, 40400, SERVER, 443, TcpFlags::PSH_ACK, &clienthello("twitter.com"));
    let out = dev.process_owned(now, Direction::LocalToRemote, ch.clone());
    assert!(out.is_empty());
    assert_eq!(dev.stats().triggers_sni4, 1);
    assert_eq!(dev.stats().triggers_sni1, 0);

    // Both directions now drop.
    let up = tcp_packet(CLIENT, 40400, SERVER, 443, TcpFlags::PSH_ACK, b"u");
    let down = tcp_packet(SERVER, 443, CLIENT, 40400, TcpFlags::PSH_ACK, b"d");
    assert!(dev.process_owned(now, Direction::LocalToRemote, up.clone()).is_empty());
    assert!(dev.process_owned(now, Direction::RemoteToLocal, down.clone()).is_empty());
}

#[test]
fn sni1_only_domain_fully_evaded_by_split_handshake() {
    // dw.com is SNI-I listed but not SNI-IV listed: the split handshake
    // defeats blocking entirely (§8 server-side strategy).
    let mut dev = device();
    let now = Time::ZERO;
    let syn = tcp_packet(CLIENT, 40500, SERVER, 443, TcpFlags::SYN, b"");
    dev.process_owned(now, Direction::LocalToRemote, syn.clone());
    let syn_back = tcp_packet(SERVER, 443, CLIENT, 40500, TcpFlags::SYN, b"");
    dev.process_owned(now, Direction::RemoteToLocal, syn_back.clone());

    let ch = tcp_packet(CLIENT, 40500, SERVER, 443, TcpFlags::PSH_ACK, &clienthello("dw.com"));
    assert_eq!(dev.process_owned(now, Direction::LocalToRemote, ch.clone()).len(), 1);
    let reply = tcp_packet(SERVER, 443, CLIENT, 40500, TcpFlags::PSH_ACK, b"page");
    let out = dev.process_owned(now, Direction::RemoteToLocal, reply.clone());
    assert_eq!(out, vec![reply]);
    assert_eq!(dev.stats().triggers_sni1, 0);
    assert_eq!(dev.stats().triggers_sni4, 0);
}

#[test]
fn quic_v1_blocked_other_versions_pass() {
    let mut dev = device();
    let now = Time::ZERO;

    // Version 1, 1200 bytes, port 443: blocked including the trigger.
    let v1 = udp_packet(CLIENT, 50000, SERVER, 443, &initial_payload(QuicVersion::V1, 1200));
    assert!(dev.process_owned(now, Direction::LocalToRemote, v1.clone()).is_empty());
    assert_eq!(dev.stats().triggers_quic, 1);
    // All subsequent flow packets drop, both directions, any size.
    let small_up = udp_packet(CLIENT, 50000, SERVER, 443, &[1, 2, 3]);
    assert!(dev.process_owned(now, Direction::LocalToRemote, small_up.clone()).is_empty());
    let down = udp_packet(SERVER, 443, CLIENT, 50000, &[9; 64]);
    assert!(dev.process_owned(now, Direction::RemoteToLocal, down.clone()).is_empty());

    // draft-29 and quicping evade (fresh flows).
    for version in [QuicVersion::Draft29, QuicVersion::QuicPing] {
        let pkt = udp_packet(CLIENT, 50001, SERVER, 443, &initial_payload(version, 1200));
        assert_eq!(dev.process_owned(now, Direction::LocalToRemote, pkt.clone()).len(), 1, "{version:?}");
    }
}

#[test]
fn quic_needs_1001_bytes_and_port_443_and_local_origin() {
    let mut dev = device();
    let now = Time::ZERO;
    // 1000 bytes: passes (fingerprint needs ≥ 1001).
    let short = udp_packet(CLIENT, 50002, SERVER, 443, &initial_payload(QuicVersion::V1, 1000));
    assert_eq!(dev.process_owned(now, Direction::LocalToRemote, short.clone()).len(), 1);
    // Wrong port: passes.
    let wrong_port = udp_packet(CLIENT, 50003, SERVER, 8443, &initial_payload(QuicVersion::V1, 1200));
    assert_eq!(dev.process_owned(now, Direction::LocalToRemote, wrong_port.clone()).len(), 1);
    // Remote-origin: passes.
    let inbound = udp_packet(SERVER, 443, CLIENT, 50004, &initial_payload(QuicVersion::V1, 1200));
    assert_eq!(dev.process_owned(now, Direction::RemoteToLocal, inbound.clone()).len(), 1);
    assert_eq!(dev.stats().triggers_quic, 0);

    // Exactly 1001 bytes triggers.
    let exact = udp_packet(CLIENT, 50005, SERVER, 443, &initial_payload(QuicVersion::V1, 1001));
    assert!(dev.process_owned(now, Direction::LocalToRemote, exact.clone()).is_empty());
}

#[test]
fn quic_block_expires_after_420s() {
    let mut dev = device();
    let v1 = udp_packet(CLIENT, 50006, SERVER, 443, &initial_payload(QuicVersion::V1, 1200));
    assert!(dev.process_owned(Time::ZERO, Direction::LocalToRemote, v1.clone()).is_empty());
    let probe = udp_packet(CLIENT, 50006, SERVER, 443, &[7; 100]);
    assert!(dev.process_owned(Time::from_secs(419), Direction::LocalToRemote, probe.clone()).is_empty());
    assert_eq!(dev.process_owned(Time::from_secs(421), Direction::LocalToRemote, probe.clone()).len(), 1);
}

#[test]
fn ip_blocking_drops_outbound_rewrites_response() {
    let mut dev = device();
    let now = Time::ZERO;

    // Locally initiated connection to the blocked IP: SYN dropped.
    let syn = tcp_packet(CLIENT, 40600, TOR, 9001, TcpFlags::SYN, b"");
    assert!(dev.process_owned(now, Direction::LocalToRemote, syn.clone()).is_empty());

    // Remotely initiated from the blocked IP: the inbound SYN passes…
    let syn_in = tcp_packet(TOR, 33000, CLIENT, 7, TcpFlags::SYN, b"");
    assert_eq!(dev.process_owned(now, Direction::RemoteToLocal, syn_in.clone()).len(), 1);
    // …but the local SYN/ACK response is rewritten to RST/ACK.
    let synack_out = tcp_packet(CLIENT, 7, TOR, 33000, TcpFlags::SYN_ACK, b"");
    let out = dev.process_owned(now, Direction::LocalToRemote, synack_out.clone());
    assert_eq!(out.len(), 1);
    let seg = TcpSegment::new_unchecked(Ipv4Packet::new_unchecked(&out[0][..]).payload().to_vec());
    assert_eq!(seg.flags(), TcpFlags::RST_ACK);

    // Censorship applies regardless of port or payload.
    let data = tcp_packet(CLIENT, 12345, TOR, 80, TcpFlags::PSH_ACK, b"GET /");
    assert!(dev.process_owned(now, Direction::LocalToRemote, data.clone()).is_empty());
}

#[test]
fn ip_blocking_drops_icmp_both_ways() {
    let mut dev = device();
    let icmp = tspu_wire::icmpv4::Icmpv4Repr::EchoRequest { ident: 1, seq_no: 1 }.build();
    let ping_out = Ipv4Repr::new(CLIENT, TOR, Protocol::Icmp, icmp.len()).build(&icmp);
    assert!(dev.process_owned(Time::ZERO, Direction::LocalToRemote, ping_out.clone()).is_empty());
    let ping_in = Ipv4Repr::new(TOR, CLIENT, Protocol::Icmp, icmp.len()).build(&icmp);
    assert!(dev.process_owned(Time::ZERO, Direction::RemoteToLocal, ping_in.clone()).is_empty());
    // Pings between unblocked endpoints pass.
    let ok_ping = Ipv4Repr::new(CLIENT, SERVER, Protocol::Icmp, icmp.len()).build(&icmp);
    assert_eq!(dev.process_owned(Time::ZERO, Direction::LocalToRemote, ok_ping.clone()).len(), 1);
}

#[test]
fn fragmented_clienthello_evades_sni() {
    // §8: "IP fragmentation … still helps bypass the TSPU".
    let mut dev = device();
    let now = Time::ZERO;
    handshake(&mut dev, now, 40700);
    let ch = tcp_packet(CLIENT, 40700, SERVER, 443, TcpFlags::PSH_ACK, &clienthello("facebook.com"));
    let fragments = tspu_wire::frag::fragment(&ch, 96).unwrap();
    assert!(fragments.len() > 1);
    let mut forwarded = Vec::new();
    for frag in &fragments {
        forwarded = dev.process_owned(now, Direction::LocalToRemote, frag.clone());
    }
    // All fragments forwarded once the last arrives; no trigger fired.
    assert_eq!(forwarded.len(), fragments.len());
    assert_eq!(dev.stats().triggers_sni1, 0);
    // And the server-side reply passes untouched.
    let reply = tcp_packet(SERVER, 443, CLIENT, 40700, TcpFlags::PSH_ACK, b"hello");
    assert_eq!(dev.process_owned(now, Direction::RemoteToLocal, reply.clone()), vec![reply]);
}

#[test]
fn segmented_clienthello_evades_sni() {
    // §8: TCP segmentation works because the TSPU does not reassemble
    // streams.
    let mut dev = device();
    let now = Time::ZERO;
    handshake(&mut dev, now, 40800);
    let ch = clienthello("facebook.com");
    let (a, b) = ch.split_at(ch.len() / 2);
    for part in [a, b] {
        let pkt = tcp_packet(CLIENT, 40800, SERVER, 443, TcpFlags::PSH_ACK, part);
        assert_eq!(dev.process_owned(now, Direction::LocalToRemote, pkt.clone()).len(), 1);
    }
    assert_eq!(dev.stats().triggers_sni1, 0);
}

#[test]
fn fragment_to_blocked_ip_still_dropped() {
    let mut dev = device();
    let big = tcp_packet(CLIENT, 40900, TOR, 80, TcpFlags::PSH_ACK, &[0; 600]);
    let fragments = tspu_wire::frag::fragment(&big, 256).unwrap();
    for frag in &fragments {
        assert!(dev.process_owned(Time::ZERO, Direction::LocalToRemote, frag.clone()).is_empty());
    }
}

#[test]
fn failure_profile_lets_some_flows_through() {
    let policy = PolicyHandle::new(Policy::example());
    let mut dev = TspuDevice::new("flaky", policy, FailureProfile { sni1: 0.3, ..FailureProfile::none() }, 42);
    let mut evaded = 0;
    for i in 0..1000u16 {
        let sport = 41000 + i;
        let ch = tcp_packet(CLIENT, sport, SERVER, 443, TcpFlags::PSH_ACK, &clienthello("twitter.com"));
        dev.process_owned(Time::ZERO, Direction::LocalToRemote, ch.clone());
        let reply = tcp_packet(SERVER, 443, CLIENT, sport, TcpFlags::PSH_ACK, b"x");
        let out = dev.process_owned(Time::ZERO, Direction::RemoteToLocal, reply.clone());
        let rewritten = out.len() == 1
            && TcpSegment::new_unchecked(Ipv4Packet::new_unchecked(&out[0][..]).payload()).flags()
                == TcpFlags::RST_ACK;
        if !rewritten {
            evaded += 1;
        }
    }
    assert!((250..=350).contains(&evaded), "evaded {evaded}/1000");
}

#[test]
fn fresh_source_port_escapes_residual_censorship() {
    // §3: "each test used a fresh source port … to prevent residual
    // censorship affecting results".
    let mut dev = device();
    handshake(&mut dev, Time::ZERO, 42000);
    let ch = tcp_packet(CLIENT, 42000, SERVER, 443, TcpFlags::PSH_ACK, &clienthello("twitter.com"));
    dev.process_owned(Time::ZERO, Direction::LocalToRemote, ch.clone());
    // Same 5-tuple: reply rewritten.
    let reply = tcp_packet(SERVER, 443, CLIENT, 42000, TcpFlags::PSH_ACK, b"x");
    let out = dev.process_owned(Time::ZERO, Direction::RemoteToLocal, reply.clone());
    let seg = TcpSegment::new_unchecked(Ipv4Packet::new_unchecked(&out[0][..]).payload().to_vec());
    assert_eq!(seg.flags(), TcpFlags::RST_ACK);
    // Different source port, innocuous SNI: untouched.
    handshake(&mut dev, Time::ZERO, 42001);
    let ch2 = tcp_packet(CLIENT, 42001, SERVER, 443, TcpFlags::PSH_ACK, &clienthello("kernel.org"));
    dev.process_owned(Time::ZERO, Direction::LocalToRemote, ch2.clone());
    let reply2 = tcp_packet(SERVER, 443, CLIENT, 42001, TcpFlags::PSH_ACK, b"y");
    let out = dev.process_owned(Time::ZERO, Direction::RemoteToLocal, reply2.clone());
    assert_eq!(out, vec![reply2]);
}

#[test]
fn rst_ack_rewrite_preserves_metadata() {
    let pkt = tcp_packet(SERVER, 443, CLIENT, 40000, TcpFlags::PSH_ACK, b"payload-bytes");
    let out = rst_ack_rewrite(&pkt);
    let ip = Ipv4Packet::new_checked(&out[..]).unwrap();
    assert!(ip.verify_checksum());
    assert_eq!(ip.src_addr(), SERVER);
    assert_eq!(ip.dst_addr(), CLIENT);
    let seg = TcpSegment::new_checked(ip.payload()).unwrap();
    assert!(seg.verify_checksum(SERVER, CLIENT));
    assert_eq!(seg.flags(), TcpFlags::RST_ACK);
    assert!(seg.payload().is_empty());
}

#[test]
fn non_ip_and_other_protocols_pass() {
    let mut dev = device();
    assert_eq!(dev.process_owned(Time::ZERO, Direction::LocalToRemote, b"junk".to_vec()).len(), 1);
    let other = Ipv4Repr::new(CLIENT, SERVER, Protocol::Other(47), 4).build(&[1, 2, 3, 4]);
    assert_eq!(dev.process_owned(Time::ZERO, Direction::LocalToRemote, other.clone()), vec![other]);
}

#[test]
fn interleaved_flows_behave_like_sequential_ones() {
    // §5.2.1: "We also tried different levels of concurrency but found no
    // observable differences from sequential testing results." Flow state
    // is keyed by 5-tuple, so interleaving connections must not change
    // any verdict.
    let run = |interleaved: bool| -> Vec<bool> {
        let mut dev = device();
        let flows: Vec<(u16, &str)> =
            vec![(45_001, "twitter.com"), (45_002, "wikipedia.org"), (45_003, "meduza.io")];
        type Phase<'a> = &'a dyn Fn(&mut TspuDevice, u16, &str);
        let phases: [Phase; 3] = [
            &|dev, sport, _| {
                let syn = tcp_packet(CLIENT, sport, SERVER, 443, TcpFlags::SYN, b"");
                dev.process_owned(Time::ZERO, Direction::LocalToRemote, syn.clone());
            },
            &|dev, sport, _| {
                let synack = tcp_packet(SERVER, 443, CLIENT, sport, TcpFlags::SYN_ACK, b"");
                dev.process_owned(Time::ZERO, Direction::RemoteToLocal, synack.clone());
            },
            &|dev, sport, domain| {
                let ch = tcp_packet(CLIENT, sport, SERVER, 443, TcpFlags::PSH_ACK, &clienthello(domain));
                dev.process_owned(Time::ZERO, Direction::LocalToRemote, ch.clone());
            },
        ];
        if interleaved {
            for phase in &phases {
                for (sport, domain) in &flows {
                    phase(&mut dev, *sport, domain);
                }
            }
        } else {
            for (sport, domain) in &flows {
                for phase in &phases {
                    phase(&mut dev, *sport, domain);
                }
            }
        }
        flows
            .iter()
            .map(|(sport, _)| {
                let reply = tcp_packet(SERVER, 443, CLIENT, *sport, TcpFlags::PSH_ACK, b"r");
                let out = dev.process_owned(Time::ZERO, Direction::RemoteToLocal, reply.clone());
                out.len() == 1 && {
                    let ip = Ipv4Packet::new_unchecked(&out[0][..]);
                    TcpSegment::new_unchecked(ip.payload()).flags() == TcpFlags::RST_ACK
                }
            })
            .collect()
    };
    let sequential = run(false);
    let interleaved = run(true);
    assert_eq!(sequential, interleaved);
    assert_eq!(sequential, vec![true, false, true]);
}

// --- The legacy ISP keyword DPI: `CensorProfile::legacy_isp` ---
//
// The pre-TSPU box some ISPs ran in path (§2): plaintext HTTP only, the
// ISP's own list, and a matching request silently swallowed.

fn legacy_box() -> TspuDevice {
    let mut policy = Policy::default();
    policy.sni_rst.insert("blocked.ru");
    TspuDevice::reliable("legacy-isp", PolicyHandle::new(policy))
        .with_censor_profile(CensorProfile::legacy_isp())
}

fn http_get(host: &str, port: u16) -> Vec<u8> {
    tcp_packet(CLIENT, 40_000, SERVER, port, TcpFlags::PSH_ACK, &HttpRequest::get(host, "/").build())
}

#[test]
fn legacy_isp_swallows_a_listed_hosts_request() {
    let mut dev = legacy_box();
    let out = dev.process_owned(Time::ZERO, Direction::LocalToRemote, http_get("blocked.ru", 80));
    assert!(out.is_empty());
    assert_eq!(dev.stats().triggers_http, 1);
}

#[test]
fn legacy_isp_swallows_a_subdomain_too() {
    let mut dev = legacy_box();
    let out = dev.process_owned(Time::ZERO, Direction::LocalToRemote, http_get("www.blocked.ru", 80));
    assert!(out.is_empty());
}

#[test]
fn legacy_isp_passes_a_clean_host() {
    let mut dev = legacy_box();
    let packet = http_get("open.ru", 80);
    assert_eq!(dev.process_owned(Time::ZERO, Direction::LocalToRemote, packet.clone()), vec![packet]);
    assert_eq!(dev.stats().triggers_http, 0);
}

#[test]
fn legacy_isp_is_blind_to_port_443() {
    // The same "request" on port 443 sails through: this box predates
    // SNI filtering — which is why the TSPU was needed at all.
    let mut dev = legacy_box();
    let https = http_get("blocked.ru", 443);
    assert_eq!(dev.process_owned(Time::ZERO, Direction::LocalToRemote, https).len(), 1);
}

#[test]
fn legacy_isp_leaves_inbound_traffic_untouched() {
    let mut dev = legacy_box();
    let inbound = http_get("blocked.ru", 80);
    assert_eq!(dev.process_owned(Time::ZERO, Direction::RemoteToLocal, inbound).len(), 1);
}

#[test]
fn legacy_isp_swallows_the_request_only() {
    // The zero residual window lapses at the next instant: a later clean
    // segment on the same flow passes.
    let mut dev = legacy_box();
    let out = dev.process_owned(Time::ZERO, Direction::LocalToRemote, http_get("blocked.ru", 80));
    assert!(out.is_empty());
    let later = tcp_packet(CLIENT, 40_000, SERVER, 80, TcpFlags::PSH_ACK, b"more");
    let out = dev.process_owned(Time::from_micros(1), Direction::LocalToRemote, later.clone());
    assert_eq!(out, vec![later]);
}
