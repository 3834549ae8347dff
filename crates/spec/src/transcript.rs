//! The transcript's op list: one fixed run that reaches every trigger of
//! every shipped profile, every verdict kind, a policy delta under live
//! verdicts, a restart and the lapse of every residual window.

use std::net::Ipv4Addr;
use std::time::Duration;

use tspu_core::{FailureProfile, Policy, PolicyDelta};
use tspu_netsim::{Direction, Time};
use tspu_wire::dns::{DnsQuery, DnsResponse, QTYPE_A};
use tspu_wire::frag;
use tspu_wire::http::{HttpRequest, HttpResponse};
use tspu_wire::ipv4::Ipv4Packet;
use tspu_wire::quic::{initial_payload, QuicVersion};
use tspu_wire::tcp::TcpFlags;
use tspu_wire::tls::ClientHelloBuilder;

use crate::ops::{icmp, tcp, udp, Op, Packet, Setup};

const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 8, 0, 2);
const SERVER: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 10);
/// `Policy::example`'s blocked address.
const TOR: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 7);
const RESTART_AT: u64 = 30;

use Direction::{LocalToRemote as Up, RemoteToLocal as Down};

/// The transcript's device: `Policy::example` with throttling on, 30 %
/// failure dice on every mechanism, a fixed seed.
pub fn transcript_setup() -> Setup {
    let mut policy = Policy::example();
    policy.throttle_active = true;
    Setup { policy, failure: FailureProfile::uniform(0.3), seed: 0x7590_2022 }
}

/// The transcript's ops, in order.
pub fn transcript_ops() -> Vec<Op> {
    let mut script = Script(Vec::new());
    script.drive();
    script.0
}

struct Script(Vec<Op>);

impl Script {
    fn send(&mut self, at_ms: u64, direction: Direction, flow: &str, what: &str, packet: Vec<u8>) {
        let at = Time::from_micros(at_ms * 1_000);
        self.0.push(Op::Send(Packet { at, direction, flow: flow.into(), what: what.into(), packet }));
    }

    fn note(&mut self, line: &'static str) {
        self.0.push(Op::Note(line));
    }

    /// SYN, SYN/ACK, ACK of a locally initiated connection.
    fn handshake(&mut self, at_ms: u64, flow: &str, sport: u16, dport: u16) {
        self.send(at_ms, Up, flow, "syn", tcp(CLIENT, sport, SERVER, dport, TcpFlags::SYN, b""));
        self.send(at_ms, Down, flow, "syn/ack", tcp(SERVER, dport, CLIENT, sport, TcpFlags::SYN_ACK, b""));
        self.send(at_ms, Up, flow, "ack", tcp(CLIENT, sport, SERVER, dport, TcpFlags::ACK, b""));
    }

    fn hello(&mut self, at_ms: u64, flow: &str, sport: u16, host: &str) {
        let hello = ClientHelloBuilder::new(host).build();
        self.send(at_ms, Up, flow, host, tcp(CLIENT, sport, SERVER, 443, TcpFlags::PSH_ACK, &hello));
    }

    /// `n` server segments of `len` bytes, each answered by a client ACK.
    fn exchange(&mut self, at_ms: u64, flow: &str, sport: u16, dport: u16, n: usize, len: usize) {
        for i in 0..n {
            let at = at_ms + 10 * i as u64;
            let data = vec![0x5a; len];
            self.send(at, Down, flow, "data", tcp(SERVER, dport, CLIENT, sport, TcpFlags::PSH_ACK, &data));
            self.send(at, Up, flow, "ack", tcp(CLIENT, sport, SERVER, dport, TcpFlags::ACK, b""));
        }
    }

    fn tls_flow(&mut self, at_ms: u64, flow: &str, sport: u16, host: &str) {
        self.handshake(at_ms, flow, sport, 443);
        self.hello(at_ms + 1, flow, sport, host);
        self.exchange(at_ms + 2, flow, sport, 443, 6, 700);
    }

    fn dns(&mut self, at_ms: u64, flow: &str, sport: u16, host: &str) {
        let query = DnsQuery { id: sport, qname: host.to_string(), qtype: QTYPE_A };
        self.send(at_ms, Up, flow, host, udp(CLIENT, sport, SERVER, 53, &query.build()));
        let answer = DnsResponse::answer(&query, &[SERVER]).build();
        self.send(at_ms + 1, Down, flow, "answer", udp(SERVER, 53, CLIENT, sport, &answer));
    }

    fn quic(&mut self, at_ms: u64, flow: &str, sport: u16) {
        let initial = initial_payload(QuicVersion::V1, 1_200);
        self.send(at_ms, Up, flow, "initial", udp(CLIENT, sport, SERVER, 443, &initial));
        self.send(at_ms + 1, Up, flow, "short", udp(CLIENT, sport, SERVER, 443, &[0x40; 40]));
        self.send(at_ms + 1, Down, flow, "short", udp(SERVER, 443, CLIENT, sport, &[0x40; 64]));
    }

    fn http(&mut self, at_ms: u64, flow: &str, sport: u16, host: &str) {
        self.handshake(at_ms, flow, sport, 80);
        let request = HttpRequest::get(host, "/").build();
        self.send(at_ms + 1, Up, flow, host, tcp(CLIENT, sport, SERVER, 80, TcpFlags::PSH_ACK, &request));
        let page = HttpResponse::ok(b"<html>origin</html>").build();
        self.send(at_ms + 2, Down, flow, "response", tcp(SERVER, 80, CLIENT, sport, TcpFlags::PSH_ACK, &page));
        self.exchange(at_ms + 3, flow, sport, 80, 2, 300);
    }

    /// One packet each way on every armed flow of the op list.
    fn poke(&mut self, at_ms: u64) {
        for (sport, dport) in [(41_000, 443), (41_001, 443), (41_002, 443), (41_004, 443), (42_000, 80)] {
            let flow = format!("tcp:{sport}");
            self.send(at_ms, Down, &flow, "data", tcp(SERVER, dport, CLIENT, sport, TcpFlags::PSH_ACK, &[7; 200]));
            self.send(at_ms, Up, &flow, "ack", tcp(CLIENT, sport, SERVER, dport, TcpFlags::ACK, b""));
        }
        for (sport, dport) in [(43_000, 53), (44_000, 443)] {
            let flow = format!("udp:{sport}");
            self.send(at_ms, Up, &flow, "data", udp(CLIENT, sport, SERVER, dport, &[3; 48]));
            self.send(at_ms, Down, &flow, "data", udp(SERVER, dport, CLIENT, sport, &[4; 48]));
        }
    }

    fn drive(&mut self) {
        self.note("TLS hellos for every example list, throttling on");
        let hosts = ["meduza.io", "nordvpn.com", "fbcdn.net", "web.facebook.com", "twitter.com", "example.org"];
        for (i, host) in hosts.iter().enumerate() {
            let sport = 41_000 + i as u16;
            self.tls_flow(200 * i as u64, &format!("tcp:{sport}"), sport, host);
        }
        self.note("split handshake: SNI-I evaded, SNI-IV backs it up");
        self.send(1_300, Up, "tcp:41010", "syn", tcp(CLIENT, 41_010, SERVER, 443, TcpFlags::SYN, b""));
        self.send(1_300, Down, "tcp:41010", "syn", tcp(SERVER, 443, CLIENT, 41_010, TcpFlags::SYN, b""));
        self.hello(1_301, "tcp:41010", 41_010, "twitter.com");
        self.exchange(1_302, "tcp:41010", 41_010, 443, 3, 200);

        self.note("remote-initiated flow");
        self.send(1_400, Down, "tcp:41020", "syn", tcp(SERVER, 443, CLIENT, 41_020, TcpFlags::SYN, b""));
        self.send(1_400, Up, "tcp:41020", "syn/ack", tcp(CLIENT, 41_020, SERVER, 443, TcpFlags::SYN_ACK, b""));
        self.send(1_400, Down, "tcp:41020", "ack", tcp(SERVER, 443, CLIENT, 41_020, TcpFlags::ACK, b""));
        self.hello(1_401, "tcp:41020", 41_020, "twitter.com");
        self.exchange(1_402, "tcp:41020", 41_020, 443, 3, 200);

        self.note("HTTP/80");
        self.http(1_500, "tcp:42000", 42_000, "meduza.io");
        self.http(1_600, "tcp:42001", 42_001, "example.org");

        self.note("DNS/53 and QUIC/443, each arm followed by fresh dice draws");
        for (i, host) in ["meduza.io", "example.org", "twitter.com", "bbc.com"].iter().enumerate() {
            let sport = 43_000 + i as u16;
            self.dns(2_000 + 100 * i as u64, &format!("udp:{sport}"), sport, host);
            let dice = 41_100 + i as u16;
            self.tls_flow(2_050 + 100 * i as u64, &format!("tcp:{dice}"), dice, "nordvpn.com");
        }
        for i in 0..4u16 {
            let sport = 44_000 + i;
            self.quic(2_500 + 100 * u64::from(i), &format!("udp:{sport}"), sport);
            let dice = 41_200 + i;
            self.tls_flow(2_550 + 100 * u64::from(i), &format!("tcp:{dice}"), dice, "t.co");
        }

        self.note("blocked IP: TCP both ways, UDP, ICMP");
        self.send(3_000, Up, "tcp:45000", "syn", tcp(CLIENT, 45_000, TOR, 443, TcpFlags::SYN, b""));
        self.send(3_001, Up, "tcp:45000", "syn", tcp(CLIENT, 45_000, TOR, 443, TcpFlags::SYN, b""));
        self.send(3_010, Down, "tcp:45001", "syn", tcp(TOR, 9_001, CLIENT, 45_001, TcpFlags::SYN, b""));
        self.send(3_010, Up, "tcp:45001", "syn/ack", tcp(CLIENT, 45_001, TOR, 9_001, TcpFlags::SYN_ACK, b""));
        self.send(3_010, Down, "tcp:45001", "ack", tcp(TOR, 9_001, CLIENT, 45_001, TcpFlags::ACK, b""));
        self.send(3_020, Up, "udp:45002", "data", udp(CLIENT, 45_002, TOR, 53, &[1; 32]));
        self.send(3_020, Down, "udp:45002", "data", udp(TOR, 53, CLIENT, 45_002, &[2; 32]));
        self.send(3_030, Up, "icmp", "echo", icmp(CLIENT, TOR));
        self.send(3_030, Down, "icmp", "echo", icmp(TOR, CLIENT));
        self.send(3_031, Up, "icmp", "echo", icmp(CLIENT, SERVER));

        self.note("fragment trains: clean, to the blocked IP, a fragmented hello");
        let datagram = udp(CLIENT, 46_000, SERVER, 443, &initial_payload(QuicVersion::V1, 1_200));
        for piece in frag::fragment(&datagram, 256).expect("fragmentable") {
            self.send(3_100, Up, "frag:46000", "fragment", piece);
        }
        let datagram = udp(CLIENT, 46_001, TOR, 443, &[9; 600]);
        for piece in frag::fragment(&datagram, 256).expect("fragmentable") {
            self.send(3_110, Up, "frag:46001", "fragment", piece);
        }
        self.handshake(3_120, "tcp:46002", 46_002, 443);
        let hello = ClientHelloBuilder::new("twitter.com").build();
        let mut segment = tcp(CLIENT, 46_002, SERVER, 443, TcpFlags::PSH_ACK, &hello);
        Ipv4Packet::new_unchecked(&mut segment[..]).set_ident(0x4646);
        for piece in frag::fragment(&segment, 64).expect("fragmentable") {
            self.send(3_121, Up, "tcp:46002", "fragment", piece);
        }
        self.exchange(3_122, "tcp:46002", 46_002, 443, 2, 200);

        self.note("policy delta under live verdicts");
        self.poke(9_000);
        self.0.push(Op::Delta(PolicyDelta {
            remove_rst: vec!["meduza.io".into()],
            add_rst: vec!["example.org".into()],
            remove_slow: vec!["nordvpn.com".into()],
            throttle_active: Some(false),
            unblock_ips: vec![TOR],
            ..PolicyDelta::new()
        }));
        self.poke(10_000);
        self.hello(10_100, "tcp:41005", 41_005, "example.org");
        self.exchange(10_101, "tcp:41005", 41_005, 443, 2, 200);
        self.dns(10_200, "udp:43001", 43_001, "example.org");
        self.send(10_300, Up, "tcp:45000", "syn", tcp(CLIENT, 45_000, TOR, 443, TcpFlags::SYN, b""));

        self.note("restart");
        self.0.push(Op::Restart(Time::ZERO + Duration::from_secs(RESTART_AT)));
        self.poke(RESTART_AT * 1_000 + 500);
        for (i, host) in hosts.iter().enumerate() {
            let sport = 41_000 + i as u16;
            let at = RESTART_AT * 1_000 + 1_000 + 100 * i as u64;
            self.tls_flow(at, &format!("tcp:{sport}"), sport, host);
        }
        self.http(RESTART_AT * 1_000 + 2_000, "tcp:42000", 42_000, "example.org");
        self.dns(RESTART_AT * 1_000 + 2_100, "udp:43000", 43_000, "example.org");
        self.quic(RESTART_AT * 1_000 + 2_200, "udp:44000", 44_000);

        self.note("waits past every residual window");
        for step in 1..=9u64 {
            self.poke(RESTART_AT * 1_000 + 2_300 + 50_000 * step);
        }
    }
}
