//! The bridge that turns a device's policy into the classification
//! closures a [`DeviceAudit`] needs.
//!
//! The oracle (`tspu_netsim::oracle`) is policy-agnostic by design — the
//! simulator crate cannot depend on this one. This module closes the loop
//! from the core side: given the same [`PolicyHandle`] a device enforces,
//! [`audit_for_profile`] builds the audit entry whose `classify` closure
//! mirrors the device's own trigger evaluation, list for list. The engine
//! carries no deliberate bugs for the oracle to find: the oracle's negative
//! tests edit a captured trace.

use std::net::Ipv4Addr;

use tspu_netsim::oracle::{ArmCandidate, ArmKind, DeviceAudit};
use tspu_netsim::{MiddleboxId, Time};
use tspu_wire::dns::DnsQuery;
use tspu_wire::http::HttpRequest;
use tspu_wire::ipv4::{Ipv4Packet, Protocol};
use tspu_wire::tcp::TcpSegment;
use tspu_wire::tls::{extract_sni, SniOutcome};
use tspu_wire::udp::UdpDatagram;

use crate::behaviors::{BlockKind, EnforceDirections};
use crate::constants;
use crate::policy::{NormalizedHost, PolicyHandle};
use crate::profile::{CensorProfile, SniMode};

/// Builds the oracle audit for one device enforcing `profile`: the
/// classify closure mirrors exactly the triggers the profile enables (SNI
/// mode, QUIC fingerprint, DNS qname, HTTP Host), candidate windows come
/// from the profile's residual semantics, injection candidates carry the
/// profile's direction setting, and the audit knows the profile's block
/// page so it can tell an injected page from a forwarded one.
///
/// The closures read the policy at *check* time, not build time. Under a
/// mid-run policy update that only adds rules (the March 4 transition),
/// that can classify early packets against the later, larger lists — which
/// is sound: a phantom candidate only opens an audit window that never sees
/// enforcement, and multi-candidate flows get the relaxed checks.
///
/// Assumes an unhardened device: the classifier reads the SNI the way the
/// baseline TSPU does (single in-order ClientHello, no reassembly).
pub fn audit_for_profile(
    device: MiddleboxId,
    label: String,
    policy: PolicyHandle,
    restarts: Vec<Time>,
    profile: CensorProfile,
) -> DeviceAudit {
    let classify_policy = policy.clone();
    let ip_policy = policy;
    let ip_blocking = profile.ip_blocking;
    DeviceAudit {
        device,
        label,
        profile: profile.name,
        block_page: profile.block_page.clone(),
        classify: Box::new(move |packet| classify(&classify_policy, &profile, packet)),
        ip_blocked: Box::new(move |addr: Ipv4Addr| {
            ip_blocking && ip_policy.read().blocked_ips.contains(&addr)
        }),
        restarts,
    }
}

/// Every blocking mechanism this local→remote packet could arm under the
/// current policy. The device picks one by conntrack role and precedence;
/// the oracle cannot see roles, so it gets the full candidate set and
/// applies the strict single-candidate checks only when the set is a
/// singleton.
fn classify(policy: &PolicyHandle, profile: &CensorProfile, packet: &[u8]) -> Vec<ArmCandidate> {
    let Ok(ip) = Ipv4Packet::new_checked(packet) else {
        return Vec::new();
    };
    if ip.is_fragment() {
        return Vec::new();
    }
    match ip.protocol() {
        Protocol::Tcp => classify_tcp(policy, profile, &ip),
        Protocol::Udp => classify_udp(policy, profile, &ip),
        _ => Vec::new(),
    }
}

/// The [`ArmKind`] a device verdict shows up as in the audit.
fn arm_kind(kind: BlockKind) -> ArmKind {
    match kind {
        BlockKind::RstRewrite => ArmKind::RstRewrite,
        BlockKind::DelayedDrop => ArmKind::DelayedDrop,
        BlockKind::Throttle => ArmKind::Throttle,
        BlockKind::FullDrop => ArmKind::FullDrop,
        BlockKind::QuicDrop => ArmKind::QuicDrop,
        BlockKind::BlockPage => ArmKind::BlockPage,
    }
}

fn classify_tcp(
    policy: &PolicyHandle,
    profile: &CensorProfile,
    ip: &Ipv4Packet<&[u8]>,
) -> Vec<ArmCandidate> {
    let Ok(tcp) = TcpSegment::new_checked(ip.payload()) else {
        return Vec::new();
    };
    if tcp.payload().is_empty() {
        return Vec::new();
    }
    let bidirectional = profile.rst_directions == EnforceDirections::Both;

    // HTTP Host-header trigger (Turkmenistan, India).
    if let Some(filter) = profile.http_host {
        if tcp.dst_port() == constants::HTTP_PORT {
            if let Ok(request) = HttpRequest::parse(tcp.payload()) {
                if let Some(host) = request.host {
                    let host = NormalizedHost::new(&host);
                    if policy.read().sni_rst.matches_normalized(&host) {
                        let kind = arm_kind(filter.kind);
                        return vec![ArmCandidate {
                            kind,
                            window: filter.window,
                            bidirectional: kind == ArmKind::RstRewrite && bidirectional,
                        }];
                    }
                }
            }
            return Vec::new();
        }
    }

    if tcp.dst_port() != constants::SNI_PORT {
        return Vec::new();
    }
    let SniOutcome::Sni(hostname) = extract_sni(tcp.payload()) else {
        return Vec::new();
    };
    let host = NormalizedHost::new(&hostname);
    match profile.sni {
        SniMode::Disabled => Vec::new(),
        SniMode::SingleList { kind, window } => {
            if policy.read().sni_rst.matches_normalized(&host) {
                let kind = arm_kind(kind);
                vec![ArmCandidate {
                    kind,
                    window,
                    bidirectional: kind == ArmKind::RstRewrite && bidirectional,
                }]
            } else {
                Vec::new()
            }
        }
        SniMode::TspuLists => {
            let policy = policy.read();
            let mut candidates = Vec::new();
            if policy.throttle_active && policy.sni_throttle.matches_normalized(&host) {
                candidates.push(ArmCandidate {
                    kind: ArmKind::Throttle,
                    window: BlockKind::Throttle.duration(),
                    bidirectional: false,
                });
            }
            if policy.sni_rst.matches_normalized(&host) {
                candidates.push(ArmCandidate {
                    kind: ArmKind::RstRewrite,
                    window: constants::BLOCK_SNI1,
                    bidirectional,
                });
            }
            if policy.sni_backup.matches_normalized(&host) {
                candidates.push(ArmCandidate {
                    kind: ArmKind::FullDrop,
                    window: constants::BLOCK_SNI4,
                    bidirectional: false,
                });
            }
            if policy.sni_slow.matches_normalized(&host) {
                candidates.push(ArmCandidate {
                    kind: ArmKind::DelayedDrop,
                    window: constants::BLOCK_SNI2,
                    bidirectional: false,
                });
            }
            candidates
        }
    }
}

fn classify_udp(
    policy: &PolicyHandle,
    profile: &CensorProfile,
    ip: &Ipv4Packet<&[u8]>,
) -> Vec<ArmCandidate> {
    let Ok(udp) = UdpDatagram::new_checked(ip.payload()) else {
        return Vec::new();
    };
    let payload = udp.payload();

    // DNS qname trigger (Turkmenistan): a blocked query arms a residual
    // full drop on the flow and eats the query itself.
    if let Some(filter) = profile.dns {
        if udp.dst_port() == constants::DNS_PORT && !payload.is_empty() {
            if let Ok(query) = DnsQuery::parse(payload) {
                let host = NormalizedHost::new(&query.qname);
                if policy.read().sni_rst.matches_normalized(&host) {
                    return vec![ArmCandidate {
                        kind: ArmKind::FullDrop,
                        window: filter.window,
                        bidirectional: false,
                    }];
                }
            }
            return Vec::new();
        }
    }

    if profile.quic_filter
        && policy.read().quic_filter
        && udp.dst_port() == constants::QUIC_PORT
        && payload.len() >= constants::QUIC_MIN_PAYLOAD
        && payload[1..5] == [0x00, 0x00, 0x00, 0x01]
    {
        return vec![ArmCandidate {
            kind: ArmKind::QuicDrop,
            window: constants::BLOCK_QUIC,
            bidirectional: false,
        }];
    }
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Policy;
    use tspu_wire::tcp::{TcpFlags, TcpRepr};
    use tspu_wire::tls::ClientHelloBuilder;

    fn hello_packet(host: &str) -> Vec<u8> {
        let hello = ClientHelloBuilder::new(host).build();
        let mut tcp = TcpRepr::new(40000, 443, TcpFlags::PSH_ACK);
        tcp.payload = hello;
        let src = Ipv4Addr::new(10, 0, 0, 1);
        let dst = Ipv4Addr::new(203, 0, 113, 1);
        let segment = tcp.build(src, dst);
        Ipv4Repr::new(src, dst, Protocol::Tcp, segment.len()).build(&segment)
    }

    use tspu_wire::ipv4::Ipv4Repr;

    #[test]
    fn classify_mirrors_policy_lists() {
        let policy = PolicyHandle::new(Policy::example());
        let tspu = CensorProfile::tspu();
        // twitter.com is on sni_rst AND sni_backup: two candidates.
        let kinds: Vec<ArmKind> =
            classify(&policy, &tspu, &hello_packet("twitter.com")).iter().map(|c| c.kind).collect();
        assert_eq!(kinds, vec![ArmKind::RstRewrite, ArmKind::FullDrop]);
        // nordvpn.com is slow-path only.
        let kinds: Vec<ArmKind> =
            classify(&policy, &tspu, &hello_packet("nordvpn.com")).iter().map(|c| c.kind).collect();
        assert_eq!(kinds, vec![ArmKind::DelayedDrop]);
        // Unlisted hosts arm nothing.
        assert!(classify(&policy, &tspu, &hello_packet("example.org")).is_empty());
    }

    #[test]
    fn turkmenistan_classifies_sni_as_bidirectional_single_list() {
        let policy = PolicyHandle::new(Policy::example());
        let tkm = CensorProfile::turkmenistan();
        let candidates = classify(&policy, &tkm, &hello_packet("twitter.com"));
        assert_eq!(candidates.len(), 1, "single list, single candidate");
        assert_eq!(candidates[0].kind, ArmKind::RstRewrite);
        assert!(candidates[0].bidirectional);
        assert_eq!(candidates[0].window, constants::BLOCK_TKM);
        // sni_backup-only hosts are invisible to the single-list engine.
        assert!(classify(&policy, &tkm, &hello_packet("nordvpn.com")).is_empty());
    }

    #[test]
    fn india_classifies_http_host_not_sni() {
        let policy = PolicyHandle::new(Policy::example());
        let india = CensorProfile::india();
        assert!(classify(&policy, &india, &hello_packet("twitter.com")).is_empty(), "SNI disabled");
        let request = b"GET / HTTP/1.1\r\nHost: twitter.com\r\n\r\n";
        let mut tcp = TcpRepr::new(40000, 80, TcpFlags::PSH_ACK);
        tcp.payload = request.to_vec();
        let src = Ipv4Addr::new(10, 0, 0, 1);
        let dst = Ipv4Addr::new(203, 0, 113, 1);
        let segment = tcp.build(src, dst);
        let packet = Ipv4Repr::new(src, dst, Protocol::Tcp, segment.len()).build(&segment);
        let candidates = classify(&policy, &india, &packet);
        assert_eq!(candidates.len(), 1);
        assert_eq!(candidates[0].kind, ArmKind::BlockPage);
        assert!(!candidates[0].bidirectional);
    }

    #[test]
    fn classify_tracks_hot_reload() {
        let policy = PolicyHandle::new(Policy::example());
        let tspu = CensorProfile::tspu();
        let audit = audit_for_profile(MiddleboxId(0), "dev".into(), policy.clone(), Vec::new(), tspu);
        policy.update(|p| p.sni_rst.insert("example.org"));
        let candidates = (audit.classify)(&hello_packet("example.org"));
        assert_eq!(candidates.len(), 1, "audit sees the reloaded list");
    }
}
