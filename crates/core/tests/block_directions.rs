//! Direction semantics of blocking verdicts. A verdict carries its
//! `EnforceDirections` and residual window, so bidirectional profiles
//! (Turkmenistan) share the tracker unchanged: the `tspu` profile rewrites
//! only remote→local packets (§5.2 SNI-I), while the `turkmenistan` profile
//! RSTs both directions and expires on its own `BLOCK_TKM` window. That
//! every tracker carries the full verdict — kind, window, directions,
//! epoch — identically is the tracker differential's
//! (`crates/spec/tests/tracker.rs`).

use std::net::Ipv4Addr;

use tspu_core::{CensorProfile, Policy, PolicyHandle, TspuDevice};
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
