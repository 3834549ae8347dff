//! TCP SYN traceroute and TSPU-link identification (§7.2, Figs. 10–11):
//! every fragmentation-positive endpoint gets a traceroute; combining the
//! hop list with the TTL-flip localization names the "TSPU link" — the
//! pair of router addresses the device sits between.

use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::time::Duration;

use tspu_topology::Runet;
use tspu_wire::ipv4::{Ipv4Packet, Protocol};
use tspu_wire::tcp::{TcpFlags, TcpSegment};

use tspu_stack::craft::TcpPacketSpec;

/// A traceroute result: hop addresses in order, and whether the
/// destination answered.
#[derive(Debug, Clone)]
pub struct TraceResult {
    pub hops: Vec<Option<Ipv4Addr>>,
    pub reached: bool,
}

impl TraceResult {
    /// Path length in router hops (when the destination was reached).
    pub fn path_len(&self) -> Option<usize> {
        self.reached.then_some(self.hops.len())
    }
}

/// Runs a TCP SYN traceroute from the scanner to `addr:port`.
pub fn traceroute(runet: &mut Runet, addr: Ipv4Addr, port: u16, src_port: u16, max_ttl: u8) -> TraceResult {
    let scanner = runet.scanner;
    let scanner_addr = runet.scanner_addr;
    let mut hops = Vec::new();
    for ttl in 1..=max_ttl {
        let _ = runet.net.take_inbox(scanner);
        let syn = TcpPacketSpec::new(scanner_addr, src_port.wrapping_add(u16::from(ttl)), addr, port, TcpFlags::SYN)
            .ttl(ttl)
            .build();
        runet.net.send_from(scanner, syn);
        runet.net.run_for(Duration::from_millis(300));
        let inbox = runet.net.take_inbox(scanner);
        let mut hop = None;
        let mut reached = false;
        for (_, bytes) in &inbox {
            let Ok(ip) = Ipv4Packet::new_checked(&bytes[..]) else {
                continue;
            };
            match ip.protocol() {
                Protocol::Icmp => hop = Some(ip.src_addr()),
                Protocol::Tcp if ip.src_addr() == addr
                    && TcpSegment::new_checked(ip.payload())
                        .map(|seg| seg.flags().is_syn_ack())
                        .unwrap_or(false)
                    => {
                        reached = true;
                    }
                _ => {}
            }
        }
        if reached {
            return TraceResult { hops, reached: true };
        }
        hops.push(hop);
    }
    TraceResult { hops, reached: false }
}

/// One identified TSPU link: the router before the device (and after,
/// when visible). Fig. 10/11's red edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TspuLink {
    pub before: Ipv4Addr,
    pub after: Option<Ipv4Addr>,
}

/// Combines a traceroute with the fragmentation TTL flip to name the
/// TSPU link for one endpoint (§7.2: "the last hop where we do not
/// observe TSPU behaviors and the first hop that we do").
pub fn identify_link(trace: &TraceResult, flip_ttl: u8) -> Option<TspuLink> {
    // The device sits after router index (flip_ttl - 2), 0-based: a
    // fragment needs TTL ≥ k+1 to pass k routers.
    let before_idx = flip_ttl.checked_sub(2)? as usize;
    let before = trace.hops.get(before_idx).copied().flatten()?;
    let after = trace.hops.get(before_idx + 1).copied().flatten();
    Some(TspuLink { before, after })
}

/// Clusters links over many endpoints (Fig. 10's statistic: "6,871 unique
/// TSPU links"). Leaf links (no hop after) cluster by the hop before.
pub fn cluster_links(links: &[TspuLink]) -> usize {
    let mut unique: HashMap<(Ipv4Addr, Option<Ipv4Addr>), usize> = HashMap::new();
    for link in links {
        *unique.entry((link.before, link.after)).or_default() += 1;
    }
    unique.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragscan::localize_device_ttl;
    use tspu_registry::Universe;
    use tspu_topology::{Runet, RunetConfig};

    fn runet() -> Runet {
        let universe = Universe::generate(5);
        Runet::generate(&universe, RunetConfig::tiny(9))
    }

    #[test]
    fn traceroute_reaches_and_lists_hops() {
        let mut r = runet();
        // The tiny country has public endpoints.
        let e = r.endpoints.iter().find(|e| !e.behind_nat).cloned().unwrap();
        let trace = traceroute(&mut r, e.addr, e.port, 9000, 30);
        assert!(trace.reached);
        // The generator routes the scanner to every endpoint.
        let expected = r.net.route(r.scanner, e.host).unwrap().steps.len();
        assert_eq!(trace.hops.len(), expected);
        // First four hops are the shared core.
        assert_eq!(trace.hops[0], Some(Ipv4Addr::new(198, 51, 100, 1)));
        assert_eq!(trace.hops[2], Some(Ipv4Addr::new(188, 128, 0, 1)));
    }

    #[test]
    fn identified_link_matches_ground_truth() {
        let mut r = runet();
        let covered: Vec<_> = r
            .endpoints
            .iter()
            .filter(|e| e.behind_symmetric && !e.behind_nat)
            .take(4)
            .cloned()
            .collect();
        for e in covered {
            let trace = traceroute(&mut r, e.addr, e.port, 9100, 30);
            assert!(trace.reached);
            let flip = localize_device_ttl(&mut r, e.addr, e.port, 9200, 30);
            let link = flip.and_then(|flip| identify_link(&trace, flip));
            assert_eq!(link.map(|link| link.before), e.tspu_link.map(|truth| truth.0), "endpoint {e:?}");
            assert!(link.is_some(), "endpoint {e:?}");
        }
    }

    #[test]
    fn clustering_counts_unique_links() {
        let a = Ipv4Addr::new(1, 1, 1, 1);
        let b = Ipv4Addr::new(2, 2, 2, 2);
        let links = vec![
            TspuLink { before: a, after: Some(b) },
            TspuLink { before: a, after: Some(b) },
            TspuLink { before: b, after: None },
        ];
        assert_eq!(cluster_links(&links), 2);
    }
}
