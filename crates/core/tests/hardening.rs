//! The §8 arms race at the device boundary: each predicted patch defeats
//! exactly the evasion it targets, and the unhardened device stays
//! evadable — the ablation pair for every hardening knob.

use std::net::Ipv4Addr;

use tspu_core::{Hardening, Policy, PolicyHandle, TspuDevice};
use tspu_netsim::{Direction, Middlebox, Time};
use tspu_wire::ipv4::{Ipv4Packet, Ipv4Repr, Protocol};
use tspu_wire::tcp::{TcpFlags, TcpRepr, TcpSegment};
use tspu_wire::tls::{change_cipher_spec_record, ClientHelloBuilder};

const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 8, 0, 2);
const SERVER: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 10);

fn tcp_packet(src: Ipv4Addr, sp: u16, dst: Ipv4Addr, dp: u16, flags: TcpFlags, payload: &[u8]) -> Vec<u8> {
    let mut tcp = TcpRepr::new(sp, dp, flags);
    tcp.payload = payload.to_vec();
    let seg = tcp.build(src, dst);
    Ipv4Repr::new(src, dst, Protocol::Tcp, seg.len()).build(&seg)
}

fn device(hardening: Hardening) -> TspuDevice {
    TspuDevice::reliable("hardened", PolicyHandle::new(Policy::example())).with_hardening(hardening)
}

fn handshake(dev: &mut TspuDevice, sport: u16) {
    for (dir, pkt) in [
        (Direction::LocalToRemote, tcp_packet(CLIENT, sport, SERVER, 443, TcpFlags::SYN, b"")),
        (Direction::RemoteToLocal, tcp_packet(SERVER, 443, CLIENT, sport, TcpFlags::SYN_ACK, b"")),
        (Direction::LocalToRemote, tcp_packet(CLIENT, sport, SERVER, 443, TcpFlags::ACK, b"")),
    ] {
        dev.process_owned(Time::ZERO, dir, pkt.clone());
    }
}

/// Whether a downstream data packet is RST-rewritten (SNI-I engaged).
fn response_rewritten(dev: &mut TspuDevice, sport: u16) -> bool {
    let reply = tcp_packet(SERVER, 443, CLIENT, sport, TcpFlags::PSH_ACK, b"resp");
    let out = dev.process_owned(Time::ZERO, Direction::RemoteToLocal, reply.clone());
    out.len() == 1 && {
        let ip = Ipv4Packet::new_unchecked(&out[0][..]);
        TcpSegment::new_unchecked(ip.payload()).flags() == TcpFlags::RST_ACK
    }
}

#[test]
fn tcp_reassembly_defeats_segmentation() {
    let ch = ClientHelloBuilder::new("meduza.io").build();
    for (hardening, expect_blocked) in [
        (Hardening::none(), false),
        (Hardening { tcp_reassembly: true, ..Hardening::none() }, true),
    ] {
        let mut dev = device(hardening);
        handshake(&mut dev, 41000);
        for chunk in ch.chunks(24) {
            let pkt = tcp_packet(CLIENT, 41000, SERVER, 443, TcpFlags::PSH_ACK, chunk);
            dev.process_owned(Time::ZERO, Direction::LocalToRemote, pkt.clone());
        }
        assert_eq!(
            response_rewritten(&mut dev, 41000),
            expect_blocked,
            "hardening {hardening:?}"
        );
        if expect_blocked {
            assert!(dev.stats().reassembly_bytes_buffered as usize >= ch.len());
        }
    }
}

#[test]
fn ip_reassembly_defeats_fragmentation() {
    let ch = tcp_packet(
        CLIENT,
        41001,
        SERVER,
        443,
        TcpFlags::PSH_ACK,
        &ClientHelloBuilder::new("meduza.io").build(),
    );
    for (hardening, expect_blocked) in [
        (Hardening::none(), false),
        (Hardening { ip_reassembly: true, ..Hardening::none() }, true),
    ] {
        let mut dev = device(hardening);
        handshake(&mut dev, 41001);
        for fragment in tspu_wire::frag::fragment(&ch, 64).unwrap() {
            dev.process_owned(Time::ZERO, Direction::LocalToRemote, fragment.clone());
        }
        assert_eq!(response_rewritten(&mut dev, 41001), expect_blocked, "{hardening:?}");
    }
}

#[test]
fn window_filter_defeats_small_window_servers() {
    let mut dev = device(Hardening { min_synack_window: Some(256), ..Hardening::none() });
    let syn = tcp_packet(CLIENT, 41002, SERVER, 443, TcpFlags::SYN, b"");
    assert_eq!(dev.process_owned(Time::ZERO, Direction::LocalToRemote, syn.clone()).len(), 1);
    // The evasive SYN/ACK (window 64) is filtered…
    let mut tiny = TcpRepr::new(443, 41002, TcpFlags::SYN_ACK);
    tiny.window = 64;
    let seg = tiny.build(SERVER, CLIENT);
    let synack = Ipv4Repr::new(SERVER, CLIENT, Protocol::Tcp, seg.len()).build(&seg);
    assert!(dev.process_owned(Time::ZERO, Direction::RemoteToLocal, synack.clone()).is_empty());
    assert_eq!(dev.stats().synacks_filtered, 1);
    // …while an honest one passes.
    let honest = tcp_packet(SERVER, 443, CLIENT, 41002, TcpFlags::SYN_ACK, b"");
    assert_eq!(dev.process_owned(Time::ZERO, Direction::RemoteToLocal, honest.clone()).len(), 1);
}

#[test]
fn strict_roles_defeat_split_handshake() {
    let ch = ClientHelloBuilder::new("meduza.io").build();
    for (hardening, expect_blocked) in [
        (Hardening::none(), false),
        (Hardening { strict_roles: true, ..Hardening::none() }, true),
    ] {
        let mut dev = device(hardening);
        // Split handshake: local SYN, remote bare SYN.
        let syn = tcp_packet(CLIENT, 41003, SERVER, 443, TcpFlags::SYN, b"");
        dev.process_owned(Time::ZERO, Direction::LocalToRemote, syn.clone());
        let syn_back = tcp_packet(SERVER, 443, CLIENT, 41003, TcpFlags::SYN, b"");
        dev.process_owned(Time::ZERO, Direction::RemoteToLocal, syn_back.clone());
        let pkt = tcp_packet(CLIENT, 41003, SERVER, 443, TcpFlags::PSH_ACK, &ch);
        dev.process_owned(Time::ZERO, Direction::LocalToRemote, pkt.clone());
        assert_eq!(response_rewritten(&mut dev, 41003), expect_blocked, "{hardening:?}");
    }
}

#[test]
fn record_scanning_defeats_prepend() {
    let mut evasive = change_cipher_spec_record();
    evasive.extend_from_slice(&ClientHelloBuilder::new("meduza.io").build());
    for (hardening, expect_blocked) in [
        (Hardening::none(), false),
        (Hardening { scan_multiple_records: true, ..Hardening::none() }, true),
    ] {
        let mut dev = device(hardening);
        handshake(&mut dev, 41004);
        let pkt = tcp_packet(CLIENT, 41004, SERVER, 443, TcpFlags::PSH_ACK, &evasive);
        dev.process_owned(Time::ZERO, Direction::LocalToRemote, pkt.clone());
        assert_eq!(response_rewritten(&mut dev, 41004), expect_blocked, "{hardening:?}");
    }
}

#[test]
fn full_hardening_closes_every_tcp_evasion_at_once() {
    let ch = ClientHelloBuilder::new("meduza.io").build();
    let mut dev = device(Hardening::full());
    // Split handshake + segmentation + record prepend, stacked.
    let syn = tcp_packet(CLIENT, 41005, SERVER, 443, TcpFlags::SYN, b"");
    dev.process_owned(Time::ZERO, Direction::LocalToRemote, syn.clone());
    let syn_back = tcp_packet(SERVER, 443, CLIENT, 41005, TcpFlags::SYN, b"");
    dev.process_owned(Time::ZERO, Direction::RemoteToLocal, syn_back.clone());
    let mut evasive = change_cipher_spec_record();
    evasive.extend_from_slice(&ch);
    for chunk in evasive.chunks(32) {
        let pkt = tcp_packet(CLIENT, 41005, SERVER, 443, TcpFlags::PSH_ACK, chunk);
        dev.process_owned(Time::ZERO, Direction::LocalToRemote, pkt.clone());
    }
    assert!(response_rewritten(&mut dev, 41005));
}

#[test]
fn strict_roles_overblock_remote_initiated_flows() {
    // The cost side of the trade-off: a genuinely remote-initiated flow
    // carrying an outbound ClientHello (the echo-server pattern) gets
    // blocked under strict roles — overblocking, as §7.1.1 warns.
    let ch = ClientHelloBuilder::new("meduza.io").build();
    let mut dev = device(Hardening { strict_roles: true, ..Hardening::none() });
    let syn = tcp_packet(SERVER, 50_000, CLIENT, 443, TcpFlags::SYN, b"");
    dev.process_owned(Time::ZERO, Direction::RemoteToLocal, syn.clone());
    let synack = tcp_packet(CLIENT, 443, SERVER, 50_000, TcpFlags::SYN_ACK, b"");
    dev.process_owned(Time::ZERO, Direction::LocalToRemote, synack.clone());
    // The local side sends the CH toward remote port 50_000 — not 443, so
    // no trigger there; instead model the reversed-role case where the
    // remote's port IS 443.
    let mut dev = device(Hardening { strict_roles: true, ..Hardening::none() });
    let syn = tcp_packet(SERVER, 443, CLIENT, 7, TcpFlags::SYN, b"");
    dev.process_owned(Time::ZERO, Direction::RemoteToLocal, syn.clone());
    let pkt = tcp_packet(CLIENT, 7, SERVER, 443, TcpFlags::PSH_ACK, &ch);
    dev.process_owned(Time::ZERO, Direction::LocalToRemote, pkt.clone());
    assert_eq!(dev.stats().triggers_sni1, 1, "strict roles trigger on a remote-initiated flow");
}

#[test]
fn reassembly_buffer_is_bounded() {
    let mut dev = device(Hardening { tcp_reassembly: true, ..Hardening::none() });
    handshake(&mut dev, 41006);
    for _ in 0..64 {
        let pkt = tcp_packet(CLIENT, 41006, SERVER, 443, TcpFlags::PSH_ACK, &[0x41; 1024]);
        dev.process_owned(Time::ZERO, Direction::LocalToRemote, pkt.clone());
    }
    assert!(
        dev.stats().reassembly_bytes_buffered <= tspu_core::hardening::REASSEMBLY_CAP as u64,
        "{}",
        dev.stats().reassembly_bytes_buffered
    );
}
