//! A byte-level transcript of the censor engine: one device per shipped
//! profile, unreliable dice (`FailureProfile::uniform(0.3)`) and a fixed
//! seed, driven through one fixed op list that reaches every trigger, every
//! verdict kind, a policy delta under live verdicts, a restart and the lapse
//! of every residual window. Every emitted packet, the final `DeviceStats`
//! and each flow's ledger are rendered and pinned byte for byte in
//! `tests/golden/device_transcript.txt`; `TSPU_BLESS=1 cargo test -p
//! tspu-core --test device_transcript` rewrites it after an intended change.

use std::fmt::Write as _;
use std::net::Ipv4Addr;
use std::time::Duration;

use tspu_core::{
    CensorProfile, FailureProfile, Policy, PolicyDelta, PolicyHandle, TspuDevice, DEFAULT_LEDGER_CAP,
};
use tspu_netsim::fault::DeviceFaults;
use tspu_netsim::{Direction, Middlebox, Time};
use tspu_wire::dns::{DnsQuery, DnsResponse, QTYPE_A};
use tspu_wire::frag;
use tspu_wire::http::{HttpRequest, HttpResponse};
use tspu_wire::ipv4::{Ipv4Packet, Ipv4Repr, Protocol};
use tspu_wire::quic::{initial_payload, QuicVersion};
use tspu_wire::tcp::{TcpFlags, TcpRepr, TcpSegment};
use tspu_wire::tls::ClientHelloBuilder;
use tspu_wire::udp::UdpRepr;

const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 8, 0, 2);
const SERVER: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 10);
/// `Policy::example`'s blocked address.
const TOR: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 7);
const SEED: u64 = 0x7590_2022;
const RESTART_AT: u64 = 30;

use Direction::{LocalToRemote as Up, RemoteToLocal as Down};

fn tcp(src: Ipv4Addr, sp: u16, dst: Ipv4Addr, dp: u16, flags: TcpFlags, payload: &[u8]) -> Vec<u8> {
    let mut tcp = TcpRepr::new(sp, dp, flags);
    tcp.payload = payload.to_vec();
    let seg = tcp.build(src, dst);
    Ipv4Repr::new(src, dst, Protocol::Tcp, seg.len()).build(&seg)
}

fn udp(src: Ipv4Addr, sp: u16, dst: Ipv4Addr, dp: u16, payload: &[u8]) -> Vec<u8> {
    let datagram = UdpRepr::new(sp, dp, payload.to_vec()).build(src, dst);
    Ipv4Repr::new(src, dst, Protocol::Udp, datagram.len()).build(&datagram)
}

fn icmp(src: Ipv4Addr, dst: Ipv4Addr) -> Vec<u8> {
    let echo = [8, 0, 0xf7, 0xfe, 0, 1, 0, 0];
    Ipv4Repr::new(src, dst, Protocol::Icmp, echo.len()).build(&echo)
}

fn dns_query(id: u16, name: &str) -> DnsQuery {
    DnsQuery { id, qname: name.to_string(), qtype: QTYPE_A }
}

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// One emitted packet: length, TCP flags when it is an unfragmented
/// segment, and a digest of its bytes.
fn describe(packet: &[u8]) -> String {
    let flags = Ipv4Packet::new_checked(packet)
        .ok()
        .filter(|ip| ip.protocol() == Protocol::Tcp && !ip.is_fragment())
        .and_then(|ip| TcpSegment::new_checked(ip.payload()).ok().map(|s| format!(" {:?}", s.flags())))
        .unwrap_or_default();
    format!("{}B{flags} {:016x}", packet.len(), fnv(packet))
}

/// A device and the transcript it is writing.
struct Run {
    dev: TspuDevice,
    out: String,
    /// One packet per flow touched, in first-touch order, for the ledger.
    flows: Vec<(String, Vec<u8>)>,
}

impl Run {
    fn new(profile: CensorProfile) -> Run {
        let mut policy = Policy::example();
        policy.throttle_active = true;
        let faults = DeviceFaults { restarts: vec![Duration::from_secs(RESTART_AT)], ..DeviceFaults::default() };
        let dev = TspuDevice::new(profile.name, PolicyHandle::new(policy), FailureProfile::uniform(0.3), SEED)
            .with_censor_profile(profile)
            .with_device_faults(faults);
        Run { dev, out: String::new(), flows: Vec::new() }
    }

    fn send(&mut self, at_ms: u64, direction: Direction, flow: &str, what: &str, packet: Vec<u8>) {
        if !self.flows.iter().any(|(name, _)| name == flow) {
            self.flows.push((flow.to_string(), packet.clone()));
        }
        let arrow = if direction == Up { '>' } else { '<' };
        let now = Time::from_micros(at_ms * 1_000);
        let emitted = self.dev.process_owned(now, direction, packet.clone());
        let verdict = match emitted.as_slice() {
            [] => "drop".to_string(),
            [only] if *only == packet => "pass".to_string(),
            many => many.iter().map(|p| describe(p)).collect::<Vec<_>>().join(", "),
        };
        let _ = writeln!(self.out, "{at_ms:>8} {arrow} {flow:<14} {what:<12} {verdict}");
    }

    fn note(&mut self, line: &str) {
        let _ = writeln!(self.out, "         -- {line}");
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
        let query = dns_query(sport, host);
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
        let delta = PolicyDelta {
            remove_rst: vec!["meduza.io".into()],
            add_rst: vec!["example.org".into()],
            remove_slow: vec!["nordvpn.com".into()],
            throttle_active: Some(false),
            unblock_ips: vec![TOR],
            ..PolicyDelta::new()
        };
        self.dev.policy().apply_delta(&delta);
        self.poke(10_000);
        self.hello(10_100, "tcp:41005", 41_005, "example.org");
        self.exchange(10_101, "tcp:41005", 41_005, 443, 2, 200);
        self.dns(10_200, "udp:43001", 43_001, "example.org");
        self.send(10_300, Up, "tcp:45000", "syn", tcp(CLIENT, 45_000, TOR, 443, TcpFlags::SYN, b""));

        self.note("restart");
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

    fn finish(mut self) -> String {
        self.drive();
        let _ = writeln!(self.out, "stats {:?}", self.dev.stats());
        // A flow's ledger interleaves the device-wide events (epochs,
        // restarts, GC sweeps); those are rendered once, after the flows.
        let mut device_wide = Vec::new();
        for (flow, packet) in &self.flows {
            let _ = writeln!(self.out, "ledger {flow}");
            for line in self.dev.ledger_for_packet(packet, DEFAULT_LEDGER_CAP) {
                if line.contains(" flow=") {
                    let _ = writeln!(self.out, "  {line}");
                } else if !device_wide.contains(&line) {
                    device_wide.push(line);
                }
            }
        }
        let _ = writeln!(self.out, "ledger device");
        for line in device_wide {
            let _ = writeln!(self.out, "  {line}");
        }
        self.out
    }
}

#[test]
fn every_profile_replays_its_pinned_transcript() {
    let mut rendered = String::new();
    for profile in [
        CensorProfile::tspu(),
        CensorProfile::turkmenistan(),
        CensorProfile::india(),
        CensorProfile::legacy_isp(),
    ] {
        let _ = writeln!(rendered, "== {}", profile.name);
        rendered.push_str(&Run::new(profile).finish());
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/device_transcript.txt");
    if std::env::var_os("TSPU_BLESS").is_some() {
        std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden")).expect("golden dir");
        std::fs::write(path, &rendered).expect("write golden");
    }
    let expected = std::fs::read_to_string(path).expect("golden file");
    assert!(rendered == expected, "{path} differs from this run's transcript:\n{rendered}");
}
