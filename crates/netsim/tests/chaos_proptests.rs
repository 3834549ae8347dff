//! Property-based tests for the chaos subsystem:
//!
//! 1. the same seed replays to a byte-identical capture over arbitrary
//!    fault plans (determinism is total, not just loss-only);
//! 2. a zero-rate plan is an *exact* no-op — same deliveries at the same
//!    virtual times as a fault-free network;
//! 3. the trace-invariant oracle accepts every fault-free trace the
//!    tier-1-style TLS volleys produce through the real vantage labs.

use proptest::prelude::*;
use std::net::Ipv4Addr;
use std::time::Duration;

use tspu_netsim::fault::{ChaosLink, FlapSpec, LinkFaults};
use tspu_netsim::{Direction, Network, Route, RouteStep};
use tspu_wire::ipv4::{Ipv4Repr, Protocol};
use tspu_wire::tcp::{TcpFlags, TcpRepr};
use tspu_wire::tls::ClientHelloBuilder;

const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const B: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 1);

fn datagram(tag: u8, len: usize) -> Vec<u8> {
    let payload = vec![tag; len.max(1)];
    let repr = Ipv4Repr::new(A, B, Protocol::Other(0xfd), payload.len());
    repr.build(&payload)
}

/// An arbitrary fault plan, covering every dimension including flaps.
fn link_faults() -> impl Strategy<Value = LinkFaults> {
    (
        (0.0f64..0.5, 0.0f64..0.4, 0.0f64..0.5, 0usize..5),
        0u64..4_000,
        prop_oneof![Just(None::<usize>), (600usize..1200).prop_map(Some)],
        prop_oneof![Just(None::<(u64, u64)>), (1u64..50, 1u64..50).prop_map(Some)],
    )
        .prop_map(|((loss, duplicate, reorder, max_displacement), jitter_us, mtu, flap)| {
            LinkFaults {
                loss,
                duplicate,
                reorder,
                max_displacement,
                jitter: Duration::from_micros(jitter_us),
                mtu,
                flap: flap.map(|(up, down)| FlapSpec {
                    up: Duration::from_millis(up),
                    down: Duration::from_millis(down),
                }),
            }
        })
}

/// Builds a two-host network with one router hop and a `ChaosLink` in each
/// direction hanging off that hop (appended to the existing step, the same
/// placement `VantageLab::apply_fault_plan` uses).
fn chaos_net(faults: &LinkFaults, seed: u64) -> (Network, tspu_netsim::HostId, tspu_netsim::HostId) {
    let mut net = Network::new(Duration::from_millis(1));
    let a = net.add_host(A);
    let b = net.add_host(B);
    let fwd = net.install_middlebox(ChaosLink::new(faults.clone(), seed));
    let rev = net.install_middlebox(ChaosLink::new(faults.clone(), seed.wrapping_add(1)));
    let hop = Ipv4Addr::new(10, 255, 0, 1);
    let mut forward = RouteStep::router(hop);
    forward.devices.push((fwd.id(), Direction::LocalToRemote));
    let mut reverse = RouteStep::router(hop);
    reverse.devices.push((rev.id(), Direction::RemoteToLocal));
    net.set_route(a, b, Route { steps: vec![forward] });
    net.set_route(b, a, Route { steps: vec![reverse] });
    (net, a, b)
}

proptest! {
    /// Same plan + same seed + same sends ⇒ byte-identical capture, at
    /// any loss/duplicate/reorder/jitter/MTU/flap mix.
    #[test]
    fn same_seed_replays_byte_identical(
        faults in link_faults(),
        seed in any::<u64>(),
        sends in proptest::collection::vec((0u8..255, 20usize..1400), 1..40),
    ) {
        let run = || {
            let (mut net, a, b) = chaos_net(&faults, seed);
            net.set_capture(true);
            for &(tag, len) in &sends {
                net.send_from(a, datagram(tag, len));
            }
            net.run_until_idle();
            let mut out = tspu_netsim::pcap::to_pcap_bytes(net.captures());
            for (time, bytes) in net.take_inbox(b) {
                out.extend_from_slice(&time.as_micros().to_le_bytes());
                out.extend_from_slice(&bytes);
            }
            out
        };
        prop_assert_eq!(run(), run());
    }

    /// A zero-rate plan is an exact no-op: every delivery arrives with the
    /// same bytes at the same virtual time as in a fault-free network, and
    /// the link counts zero interference.
    #[test]
    fn zero_rate_plan_is_exact_noop(
        seed in any::<u64>(),
        sends in proptest::collection::vec((0u8..255, 20usize..1400), 1..40),
    ) {
        let quiet = LinkFaults::default();
        prop_assert!(quiet.is_noop());

        let (mut chaos, ca, cb) = chaos_net(&quiet, seed);
        let mut plain = Network::new(Duration::from_millis(1));
        let pa = plain.add_host(A);
        let pb = plain.add_host(B);
        plain.set_route_symmetric(pa, pb, Route::through(&[Ipv4Addr::new(10, 255, 0, 1)]));

        for &(tag, len) in &sends {
            chaos.send_from(ca, datagram(tag, len));
            plain.send_from(pa, datagram(tag, len));
        }
        chaos.run_until_idle();
        plain.run_until_idle();

        prop_assert_eq!(chaos.take_inbox(cb), plain.take_inbox(pb));
        prop_assert_eq!(chaos.take_inbox(ca), plain.take_inbox(pa));
    }
}

/// A full IPv4/TCP packet.
#[allow(clippy::too_many_arguments)]
fn tcp_ip(
    src: Ipv4Addr,
    sport: u16,
    dst: Ipv4Addr,
    dport: u16,
    flags: TcpFlags,
    seq: u32,
    ack: u32,
    payload: Vec<u8>,
) -> Vec<u8> {
    let mut tcp = TcpRepr::new(sport, dport, flags);
    tcp.seq_number = seq;
    tcp.ack_number = ack;
    tcp.payload = payload;
    let segment = tcp.build(src, dst);
    Ipv4Repr::new(src, dst, Protocol::Tcp, segment.len()).build(&segment)
}

/// Drives one TLS-style volley (handshake, ClientHello, server response)
/// from a vantage to the US main host, stepping the simulator between
/// packets so each side reacts to what actually arrived.
fn tls_volley(lab: &mut tspu_topology::VantageLab, vantage_index: usize, domain: &str, sport: u16) {
    let v = &lab.vantages[vantage_index];
    let (v_host, v_addr) = (v.host, v.addr);
    let (us_host, us_addr) = (lab.us_main, lab.us_main_addr);

    let syn = tcp_ip(v_addr, sport, us_addr, 443, TcpFlags::SYN, 1, 0, Vec::new());
    lab.net.send_from(v_host, syn);
    lab.net.run_until_idle();

    if lab.net.take_inbox(us_host).is_empty() {
        return; // SYN consumed (residual block from an earlier volley).
    }
    let syn_ack = tcp_ip(us_addr, 443, v_addr, sport, TcpFlags::SYN_ACK, 1000, 2, Vec::new());
    lab.net.send_from(us_host, syn_ack);
    lab.net.run_until_idle();
    lab.net.take_inbox(v_host);

    let ack = tcp_ip(v_addr, sport, us_addr, 443, TcpFlags::ACK, 2, 1001, Vec::new());
    lab.net.send_from(v_host, ack);
    lab.net.run_until_idle();

    let hello = ClientHelloBuilder::new(domain).build();
    let hello_len = hello.len() as u32;
    let ch = tcp_ip(v_addr, sport, us_addr, 443, TcpFlags::PSH_ACK, 2, 1001, hello);
    lab.net.send_from(v_host, ch);
    lab.net.run_until_idle();

    if !lab.net.take_inbox(us_host).is_empty() {
        let resp = tcp_ip(
            us_addr,
            443,
            v_addr,
            sport,
            TcpFlags::PSH_ACK,
            1001,
            2 + hello_len,
            vec![0x17; 200],
        );
        lab.net.send_from(us_host, resp);
        lab.net.run_until_idle();
    }
    lab.net.take_inbox(v_host);
    lab.net.take_inbox(us_host);
}

proptest! {
    /// The oracle accepts every fault-free trace: arbitrary mixes of
    /// blocked (SNI-I/II/IV) and open domains from arbitrary vantages
    /// produce captures with zero violations — including the device's own
    /// legitimate RST injections and residual drops.
    #[test]
    fn oracle_accepts_fault_free_traces(
        volleys in proptest::collection::vec((0usize..3, 0usize..6), 1..8),
    ) {
        const DOMAINS: [&str; 6] = [
            "twitter.com",      // SNI-I + SNI-IV lists
            "meduza.io",        // SNI-I
            "play.google.com",  // SNI-II
            "nordvpn.com",      // SNI-II
            "wikipedia.org",    // open
            "example.com",      // open
        ];
        let policy = tspu_core::PolicyHandle::new(tspu_core::Policy::example());
        let mut lab = tspu_topology::VantageLab::builder().policy(policy).build();
        lab.net.set_capture(true);
        for (i, &(vantage, domain)) in volleys.iter().enumerate() {
            let sport = 2048 + (i as u16) * 7;
            tls_volley(&mut lab, vantage, DOMAINS[domain], sport);
        }
        let report = lab.oracle_audit();
        prop_assert!(report.is_clean(), "oracle violations on fault-free trace:\n{report}");
        prop_assert!(report.calls_audited > 0, "trace never crossed a device");
    }
}
