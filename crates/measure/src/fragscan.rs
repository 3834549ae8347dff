//! Fragmentation measurements (§7.2): the TSPU's 45-fragment queue limit
//! as a remotely observable fingerprint, the TTL-rewrite localization
//! trick, and the correlations of Table 5.
//!
//! Fingerprint: a SYN (with payload) split into 45 fragments is buffered,
//! flushed, reassembled by the endpoint, and answered; the same SYN in 46
//! fragments dies in the TSPU's queue. Endpoints *not* behind a TSPU
//! answer both (Linux reassembles up to 64). Only innocuous traffic is
//! sent — no censorship triggers (§4's ethics posture, preserved here for
//! fidelity).

use std::net::Ipv4Addr;
use std::time::Duration;

use tspu_topology::Runet;
use tspu_wire::frag;
use tspu_wire::ipv4::Ipv4Packet;
use tspu_wire::tcp::{TcpFlags, TcpSegment};

use tspu_stack::craft::TcpPacketSpec;

/// One endpoint's fingerprint result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FragVerdict {
    pub responded_plain: bool,
    pub responded_45: bool,
    pub responded_46: bool,
}

impl FragVerdict {
    /// TSPU-like: answers 45 fragments but not 46.
    pub fn tspu_positive(&self) -> bool {
        self.responded_45 && !self.responded_46
    }

    /// Usable test target (the paper's control pre-filter: must respond to
    /// SYNs and fragmented SYNs at all).
    pub fn responsive(&self) -> bool {
        self.responded_plain && self.responded_45
    }
}

/// Sends one SYN(+payload) to the endpoint, fragmented into `pieces`
/// (1 = unfragmented), and reports whether a SYN/ACK came back.
fn syn_probe(runet: &mut Runet, addr: Ipv4Addr, port: u16, src_port: u16, pieces: usize) -> bool {
    let scanner = runet.scanner;
    let _ = runet.net.take_inbox(scanner);
    let syn = TcpPacketSpec::new(runet.scanner_addr, src_port, addr, port, TcpFlags::SYN)
        .ident(src_port ^ 0x0f0f)
        .build_with(&[0x5c; 512]);
    if pieces <= 1 {
        runet.net.send_from(scanner, syn);
    } else {
        let Ok(fragments) = frag::fragment_into(&syn, pieces) else {
            return false;
        };
        for packet in fragments {
            runet.net.send_from(scanner, packet);
        }
    }
    runet.net.run_for(Duration::from_millis(400));
    runet.net.take_inbox(scanner).iter().any(|(_, bytes)| {
        let Ok(ip) = Ipv4Packet::new_checked(&bytes[..]) else {
            return false;
        };
        ip.src_addr() == addr
            && TcpSegment::new_checked(ip.payload())
                .map(|seg| seg.flags().is_syn_ack())
                .unwrap_or(false)
    })
}

/// Runs the 45/46 fingerprint against one endpoint.
pub fn fingerprint(runet: &mut Runet, addr: Ipv4Addr, port: u16, src_port: u16) -> FragVerdict {
    FragVerdict {
        responded_plain: syn_probe(runet, addr, port, src_port, 1),
        responded_45: syn_probe(runet, addr, port, src_port.wrapping_add(1), 45),
        responded_46: syn_probe(runet, addr, port, src_port.wrapping_add(2), 46),
    }
}

/// The Table 5 IP-blocking probe: a SYN from the (blocked) Tor node; the
/// endpoint's SYN/ACK response is rewritten to RST/ACK by any TSPU with
/// visibility into the endpoint's outbound traffic.
pub fn ip_block_probe(runet: &mut Runet, addr: Ipv4Addr, port: u16, src_port: u16) -> bool {
    let tor = runet.tor;
    let _ = runet.net.take_inbox(tor);
    let syn = TcpPacketSpec::new(runet.tor_addr, src_port, addr, port, TcpFlags::SYN).build();
    runet.net.send_from(tor, syn);
    runet.net.run_for(Duration::from_millis(400));
    runet.net.take_inbox(tor).iter().any(|(_, bytes)| {
        let Ok(ip) = Ipv4Packet::new_checked(&bytes[..]) else {
            return false;
        };
        ip.src_addr() == addr
            && TcpSegment::new_checked(ip.payload())
                .map(|seg| seg.flags() == TcpFlags::RST_ACK)
                .unwrap_or(false)
    })
}

/// TTL-limited fragment localization (§7.2, Fig. 12): the first fragment
/// carries a full TTL and waits in the TSPU's queue; the second fragment's
/// TTL is swept upward. Once it *reaches the device* before expiring, the
/// device forwards both with the first fragment's TTL and the endpoint
/// answers. The flip TTL localizes the device; combined with a traceroute
/// path length it yields hops-from-destination.
pub fn localize_device_ttl(runet: &mut Runet, addr: Ipv4Addr, port: u16, src_port: u16, max_ttl: u8) -> Option<u8> {
    for ttl in 1..=max_ttl {
        let scanner = runet.scanner;
        let _ = runet.net.take_inbox(scanner);
        let syn = TcpPacketSpec::new(
            runet.scanner_addr,
            src_port.wrapping_add(u16::from(ttl)),
            addr,
            port,
            TcpFlags::SYN,
        )
        .payload(vec![0x6d; 64])
        .ident(0x7000 + u16::from(ttl))
        .build();
        let fragments = frag::fragment(&syn, 48).ok()?;
        if fragments.len() < 2 {
            return None;
        }
        // First fragment: full TTL. Second: limited.
        let mut limited = fragments[1].clone();
        {
            let mut view = Ipv4Packet::new_unchecked(&mut limited[..]);
            view.set_ttl(ttl);
            view.fill_checksum();
        }
        runet.net.send_from(scanner, fragments[0].clone());
        runet.net.send_from(scanner, limited);
        for rest in &fragments[2..] {
            runet.net.send_from(scanner, rest.clone());
        }
        runet.net.run_for(Duration::from_millis(400));
        let answered = runet.net.take_inbox(scanner).iter().any(|(_, bytes)| {
            Ipv4Packet::new_checked(&bytes[..])
                .map(|ip| {
                    ip.src_addr() == addr
                        && TcpSegment::new_checked(ip.payload())
                            .map(|seg| seg.flags().is_syn_ack())
                            .unwrap_or(false)
                })
                .unwrap_or(false)
        });
        if answered {
            return Some(ttl);
        }
    }
    None
}

/// Scan summary per port (Fig. 9's series).
#[derive(Debug, Clone, Default)]
pub struct PortScanRow {
    pub port: u16,
    pub endpoints: usize,
    pub positive: usize,
}

impl PortScanRow {
    /// Positivity percentage.
    pub fn percent(&self) -> f64 {
        100.0 * self.positive as f64 / self.endpoints.max(1) as f64
    }
}

/// Runs the country scan (Fig. 9): fingerprints every endpoint (optionally
/// a sampled subset) and tallies by port. Returns (rows, AS counts).
pub fn run_port_scan(runet: &mut Runet, sample_every: usize) -> (Vec<PortScanRow>, usize, usize) {
    use std::collections::{HashMap, HashSet};
    let targets: Vec<(Ipv4Addr, u16, u32)> = runet
        .endpoints
        .iter()
        .enumerate()
        .filter(|(i, _)| i % sample_every.max(1) == 0)
        .map(|(_, e)| (e.addr, e.port, e.asn))
        .collect();

    let mut rows: HashMap<u16, PortScanRow> = HashMap::new();
    let mut ases_seen: HashSet<u32> = HashSet::new();
    let mut ases_positive: HashSet<u32> = HashSet::new();
    let mut src_port = 1024u16;
    for (addr, port, asn) in targets {
        src_port = src_port.wrapping_add(7) | 1024;
        let verdict = fingerprint(runet, addr, port, src_port);
        if !verdict.responsive() && !verdict.responded_plain {
            continue; // unresponsive endpoints are excluded, as in §7.2
        }
        let row = rows.entry(port).or_insert(PortScanRow { port, ..Default::default() });
        row.endpoints += 1;
        ases_seen.insert(asn);
        if verdict.tspu_positive() {
            row.positive += 1;
            ases_positive.insert(asn);
        }
    }
    let mut rows: Vec<PortScanRow> = rows.into_values().collect();
    rows.sort_by_key(|r| r.port);
    (rows, ases_seen.len(), ases_positive.len())
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
    fn fingerprint_separates_covered_from_uncovered() {
        let mut r = runet();
        // The tiny country has covered and uncovered public endpoints.
        let covered = r.endpoints.iter().find(|e| e.behind_symmetric && !e.behind_nat).cloned().unwrap();
        let uncovered = r
            .endpoints
            .iter()
            .find(|e| !e.behind_symmetric && !e.behind_upstream_only)
            .cloned()
            // (As above.)
            .unwrap();

        let v = fingerprint(&mut r, covered.addr, covered.port, 2000);
        assert!(v.responsive(), "{v:?}");
        assert!(v.tspu_positive(), "covered endpoint must fingerprint positive: {v:?}");

        let v = fingerprint(&mut r, uncovered.addr, uncovered.port, 2100);
        assert!(v.responded_46, "{v:?}");
        assert!(!v.tspu_positive(), "{v:?}");
    }

    #[test]
    fn upstream_only_coverage_invisible_to_fragments() {
        // §7.3 limitations: the fragments travel inbound, which
        // upstream-only devices never see.
        let mut r = runet();
        let Some(e) = r
            .endpoints
            .iter()
            .find(|e| e.behind_upstream_only && !e.behind_symmetric)
            .cloned()
        else {
            return;
        };
        let v = fingerprint(&mut r, e.addr, e.port, 2200);
        assert!(!v.tspu_positive(), "{v:?}");
    }

    #[test]
    fn ip_probe_positive_behind_any_upstream_visibility() {
        let mut r = runet();
        // The tiny country has covered and uncovered public endpoints.
        let sym = r.endpoints.iter().find(|e| e.behind_symmetric && !e.behind_nat).cloned().unwrap();
        assert!(ip_block_probe(&mut r, sym.addr, sym.port, 4000));

        if let Some(up) = r
            .endpoints
            .iter()
            .find(|e| e.behind_upstream_only && !e.behind_symmetric)
            .cloned()
        {
            assert!(ip_block_probe(&mut r, up.addr, up.port, 4001), "upstream-only still rewrites");
        }

        let none = r
            .endpoints
            .iter()
            .find(|e| !e.behind_symmetric && !e.behind_upstream_only)
            .cloned()
            // (As above.)
            .unwrap();
        assert!(!ip_block_probe(&mut r, none.addr, none.port, 4002));
    }

    #[test]
    fn a_port_scan_leaves_no_packet_in_an_endpoint_inbox() {
        // Every endpoint answers through its reassembling application, and a
        // packet delivered to an application is not also kept in an inbox:
        // the 45/46-fragment trains the scan sends are freed as they land.
        let mut r = runet();
        let (rows, ases_seen, ases_positive) = run_port_scan(&mut r, 1);
        let rows: Vec<_> = rows.iter().map(|row| (row.port, row.endpoints, row.positive)).collect();
        // (port, endpoints, positive) as the scan read when inboxes still
        // kept a copy of every delivery: the sink changes no answer.
        assert_eq!(
            rows,
            [
                (21, 62, 6),
                (22, 115, 3),
                (80, 138, 10),
                (443, 162, 8),
                (445, 35, 11),
                (1723, 40, 11),
                (3389, 59, 7),
                (7547, 257, 80),
                (8080, 116, 32),
                (58000, 84, 25),
            ]
        );
        assert_eq!((ases_seen, ases_positive), (158, 22));
        let endpoints: Vec<_> = r.endpoints.iter().map(|e| e.host).collect();
        for host in endpoints {
            assert!(r.net.take_inbox(host).is_empty(), "endpoint {host:?} kept its packets");
        }
    }

    #[test]
    fn ttl_localization_matches_ground_truth() {
        let mut r = runet();
        let covered: Vec<_> = r
            .endpoints
            .iter()
            .filter(|e| e.behind_symmetric && !e.behind_nat)
            .take(5)
            .cloned()
            .collect();
        for e in covered {
            let flip = localize_device_ttl(&mut r, e.addr, e.port, 6000, 24)
                .unwrap_or_else(|| panic!("no flip for {e:?}"));
            // Path: 4 core + 2 ingress + leaf_len routers; device after
            // leaf index (leaf_len - hops). The flip TTL equals the number
            // of routers strictly before the device plus one.
            // The generator routes the scanner to every endpoint.
            let path_len = r.net.route(r.scanner, e.host).unwrap().steps.len();
            let hops_from_dst = path_len + 2 - flip as usize;
            assert_eq!(Some(hops_from_dst), e.device_hops, "flip {flip} path {path_len}");
        }
    }
}
