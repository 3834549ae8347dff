//! The TSPU of §5.2 as straight-line code: what one device does to one
//! packet, with the registry held as plain lists, every lookup a scan, no
//! cache and nothing validated by an epoch. The failure dice (Table 1) are
//! an input: [`Dice`] is asked for exactly the draws written down below,
//! in the order they are written.
//!
//! | trigger | armed | counter | failure slot | residual window (Table 2) |
//! |---|---|---|---|---|
//! | SNI, SNI-I list, SNI-I roles | `RstRewrite` | `triggers_sni1` | `sni1` | 75 s |
//! | SNI, SNI-II list, SNI-II roles | `DelayedDrop` | `triggers_sni2` | `sni2` | 420 s |
//! | SNI, SNI-III list while throttling, SNI-I roles | `Throttle` | `triggers_sni3` | `sni3` | the flow's life |
//! | SNI, SNI-IV list, SNI-IV roles | `FullDrop` | `triggers_sni4` | `sni4` | 40 s |
//! | QUIC v1 Initial | `QuicDrop` | `triggers_quic` | `quic` | 420 s |
//!
//! HTTP and DNS carry no trigger under the TSPU: they are ordinary TCP and
//! UDP packets here.

use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::Rng;
use tspu_core::behaviors::{BlockKind, BlockState, EnforceDirections};
use tspu_core::conntrack::ConnState;
use tspu_core::{DeviceStats, FailureProfile, FlowKey, Policy, PolicyDelta, Side, ThrottleConfig};
use tspu_netsim::{Direction, Middlebox, Time, Verdict};
use tspu_wire::ipv4::{Ipv4Packet, Protocol};
use tspu_wire::tcp::{TcpFlags, TcpSegment};
use tspu_wire::tls::{extract_sni, SniOutcome};
use tspu_wire::udp::UdpDatagram;

use crate::conntrack::{lapsed, Tracker};
use crate::frag::{tspu_config, Fragments};
use crate::names::RefDomainSet;

/// §5.2: after an SNI-II trigger "an additional five to eight packets can
/// be delivered from either side".
const SNI2_ALLOWANCE: (u8, u8) = (5, 8);

/// Fig. 14: the QUIC filter matches UDP to port 443 with at least this
/// many payload bytes and version 1 at offset 1.
const QUIC_MIN_PAYLOAD: usize = 1001;

/// TLS ClientHellos are inspected on TCP port 443, QUIC on UDP port 443.
const PORT_443: u16 = 443;

/// Where the device's failures come from.
pub trait Dice {
    /// True with probability `p`, for `0 < p ≤ 1`.
    fn chance(&mut self, p: f64) -> bool;
    /// Uniform in `lo..=hi`.
    fn between(&mut self, lo: u8, hi: u8) -> u8;
}

impl Dice for SmallRng {
    fn chance(&mut self, p: f64) -> bool {
        self.gen_bool(p)
    }

    fn between(&mut self, lo: u8, hi: u8) -> u8 {
        self.gen_range(lo..=hi)
    }
}

/// SNI-III's policer (§5.2: a policer, packets over the rate are dropped):
/// `rate` bytes a second into a bucket `depth` bytes deep, full when armed.
/// The fill is kept in millionths of a byte, so a microsecond's refill is
/// exact.
struct Bucket {
    rate: u64,
    depth: u64,
    fill: u64,
    last: Time,
}

impl Bucket {
    fn admit(&mut self, now: Time, len: usize) -> bool {
        let refill = (now.since(self.last).as_micros() as u64).saturating_mul(self.rate);
        self.fill = self.fill.saturating_add(refill).min(self.depth * 1_000_000);
        self.last = now;
        let need = len as u64 * 1_000_000;
        if self.fill < need {
            return false;
        }
        self.fill -= need;
        true
    }
}

/// The registry as the device reads it.
struct Registry {
    rst: RefDomainSet,
    slow: RefDomainSet,
    throttle: RefDomainSet,
    backup: RefDomainSet,
    blocked_ips: Vec<Ipv4Addr>,
    quic_filter: bool,
    throttle_active: bool,
    policer: ThrottleConfig,
    /// Deltas applied so far, counted from the policy's own epoch.
    version: u64,
}

/// One TSPU. Build it with [`Device::new`]; drive it through
/// [`Middlebox::process`].
pub struct Device<D> {
    dice: D,
    failure: FailureProfile,
    registry: Registry,
    flows: Tracker,
    buckets: HashMap<FlowKey, Bucket>,
    fragments: Fragments,
    /// Restarts not yet noticed, earliest first.
    restarts: Vec<Time>,
    stats: DeviceStats,
}

impl<D: Dice> Device<D> {
    /// A device enforcing `policy`, failing as `failure` says with draws
    /// from `dice`, and restarting at each of `restarts`.
    pub fn new(policy: &Policy, failure: FailureProfile, dice: D, mut restarts: Vec<Time>) -> Device<D> {
        restarts.sort();
        let list = |set: &tspu_core::DomainSet| RefDomainSet::from_names(set.iter());
        Device {
            dice,
            failure,
            registry: Registry {
                rst: list(&policy.sni_rst),
                slow: list(&policy.sni_slow),
                throttle: list(&policy.sni_throttle),
                backup: list(&policy.sni_backup),
                blocked_ips: policy.blocked_ips.iter().copied().collect(),
                quic_filter: policy.quic_filter,
                throttle_active: policy.throttle_active,
                policer: policy.throttle,
                version: policy.epoch,
            },
            flows: Tracker::default(),
            buckets: HashMap::new(),
            fragments: Fragments::new(tspu_config()),
            restarts,
            stats: DeviceStats::default(),
        }
    }

    pub fn stats(&self) -> DeviceStats {
        self.stats
    }

    /// A registry update: every addition, then every removal, then the
    /// addresses and the switches; one version.
    pub fn apply_delta(&mut self, delta: &PolicyDelta) {
        let r = &mut self.registry;
        for (list, adds) in [
            (&mut r.rst, &delta.add_rst),
            (&mut r.slow, &delta.add_slow),
            (&mut r.throttle, &delta.add_throttle),
            (&mut r.backup, &delta.add_backup),
        ] {
            adds.iter().for_each(|name| list.insert(name));
        }
        for (list, removes) in [
            (&mut r.rst, &delta.remove_rst),
            (&mut r.slow, &delta.remove_slow),
            (&mut r.throttle, &delta.remove_throttle),
            (&mut r.backup, &delta.remove_backup),
        ] {
            removes.iter().for_each(|name| list.remove(name));
        }
        for ip in &delta.block_ips {
            if !r.blocked_ips.contains(ip) {
                r.blocked_ips.push(*ip);
            }
        }
        r.blocked_ips.retain(|ip| !delta.unblock_ips.contains(ip));
        r.quic_filter = delta.quic_filter.unwrap_or(r.quic_filter);
        r.throttle_active = delta.throttle_active.unwrap_or(r.throttle_active);
        r.version = r.version.wrapping_add(1);
    }

    fn blocked(&self, ip: Ipv4Addr) -> bool {
        self.registry.blocked_ips.contains(&ip)
    }

    fn drop_packet(&mut self) -> Verdict {
        self.stats.packets_dropped += 1;
        Verdict::Drop
    }

    fn process_fragment(&mut self, now: Time, up: bool, packet: &[u8]) -> Verdict {
        let ip = Ipv4Packet::new_unchecked(packet);
        // A fragment carries no flow: it meets the address list (no dice)
        // and the Fig. 3 cache, never the SNI engine (§8's evasion).
        self.stats.fragments_processed += 1;
        if up && self.blocked(ip.dst_addr()) {
            self.stats.ip_blocked_packets += 1;
            return self.drop_packet();
        }
        let released = self.fragments.offer(now, packet);
        if released.is_empty() {
            Verdict::Drop
        } else {
            Verdict::Fanout(released)
        }
    }

    fn process_tcp(&mut self, now: Time, up: bool, packet: &[u8]) -> Verdict {
        let ip = Ipv4Packet::new_unchecked(packet);
        let Ok(segment) = TcpSegment::new_checked(ip.payload()) else {
            return Verdict::Pass;
        };
        let side = if up { Side::Local } else { Side::Remote };
        let (src, dst) = ((ip.src_addr(), segment.src_port()), (ip.dst_addr(), segment.dst_port()));
        let key = FlowKey::from_packet(side, src.0, src.1, dst.0, dst.1, 6);
        let (flags, payload) = (segment.flags(), segment.payload());
        let entry = self.flows.observe(now, key, side, Some((flags, payload.len())));
        let blocked_before = entry.block.is_some();

        // IP blocking (§5.2): traffic to a blocked address is dropped, a
        // response to a connection it opened becomes an RST/ACK, and what
        // it sends passes.
        if self.blocked(key.remote_addr) {
            if !up {
                return Verdict::Pass;
            }
            if !exempt(&mut self.flows, &mut self.dice, now, &key, self.failure.ip) {
                self.stats.ip_blocked_packets += 1;
                let opened_remotely =
                    self.flows.get(now, &key).is_some_and(|e| e.first_sender == Side::Remote);
                if flags.is_syn_ack() || (!flags.is_pure_syn() && opened_remotely) {
                    self.stats.packets_rewritten += 1;
                    return Verdict::Replace(rst_ack(packet));
                }
                return self.drop_packet();
            }
        }

        // SNI-I…IV on a local ClientHello to port 443.
        if up && segment.dst_port() == PORT_443 && !payload.is_empty() {
            if let SniOutcome::Sni(host) = extract_sni(payload) {
                if let Some(kind) = self.sni_verdict(now, &key, &host) {
                    if let Some(verdict) = self.arm(now, &key, kind) {
                        return verdict;
                    }
                }
            }
        }
        if !blocked_before {
            return Verdict::Pass;
        }
        self.enforce(now, up, &key, packet, payload.len())
    }

    /// Which of SNI-I…IV `host` earns on this flow (§5.2), given the
    /// roles the tracker inferred (§5.3.2).
    fn sni_verdict(&self, now: Time, key: &FlowKey, host: &str) -> Option<BlockKind> {
        let r = &self.registry;
        let (rst, slow, backup) = (r.rst.matches(host), r.slow.matches(host), r.backup.matches(host));
        let throttle = r.throttle.matches(host) && r.throttle_active;
        let e = self.flows.get(now, key).expect("the flow was just observed");
        let valid = e.state != ConnState::Invalid;
        // SNI-I needs an unambiguous local client; SNI-II any local
        // client; SNI-IV backs SNI-I up on flows a local host opened whose
        // roles were turned around.
        let sni1 = valid && e.client == Side::Local && !e.ambiguous;
        let sni2 = valid && e.client == Side::Local;
        let opened_locally = e.reversed && e.first_sender == Side::Local;
        let sni4 = valid && !sni1 && (e.client == Side::Local || opened_locally);
        // Throttling replaces SNI-I for throttled names while it is on.
        if throttle && sni1 {
            Some(BlockKind::Throttle)
        } else if rst && sni1 {
            Some(BlockKind::RstRewrite)
        } else if backup && sni4 {
            Some(BlockKind::FullDrop)
        } else if slow && sni2 {
            Some(BlockKind::DelayedDrop)
        } else {
            None
        }
    }

    /// Arms `kind` on the flow: the table at the top of this file, row by
    /// row. `None` when the flow is exempt; otherwise the trigger packet's
    /// own fate — dropped under SNI-IV and QUIC, passed under the rest.
    fn arm(&mut self, now: Time, key: &FlowKey, kind: BlockKind) -> Option<Verdict> {
        let Device { dice, failure: f, flows, stats: s, .. } = self;
        let (counter, p, window) = match kind {
            BlockKind::RstRewrite => (&mut s.triggers_sni1, f.sni1, Duration::from_secs(75)),
            BlockKind::DelayedDrop => (&mut s.triggers_sni2, f.sni2, Duration::from_secs(420)),
            BlockKind::Throttle => (&mut s.triggers_sni3, f.sni3, Duration::MAX),
            BlockKind::FullDrop => (&mut s.triggers_sni4, f.sni4, Duration::from_secs(40)),
            BlockKind::QuicDrop => (&mut s.triggers_quic, f.quic, Duration::from_secs(420)),
            BlockKind::BlockPage => unreachable!("the TSPU injects no block page"),
        };
        if exempt(flows, dice, now, key, p) {
            return None;
        }
        *counter += 1;
        // Every TCP arm draws SNI-II's allowance, used or not.
        let (lo, hi) = SNI2_ALLOWANCE;
        let allowance = if key.protocol == 6 { self.dice.between(lo, hi) } else { 0 };
        let version = self.registry.version;
        let entry = self.flows.get_mut(now, key).expect("the flow was just observed");
        entry.block = Some(Box::new(BlockState {
            kind,
            since: now,
            allowance,
            bucket: None,
            epoch: version,
            window,
            directions: EnforceDirections::ToLocal,
        }));
        if kind == BlockKind::Throttle {
            let ThrottleConfig { rate_bytes_per_sec, burst_bytes } = self.registry.policer;
            let fill = burst_bytes * 1_000_000;
            self.buckets.insert(*key, Bucket { rate: rate_bytes_per_sec, depth: burst_bytes, fill, last: now });
        }
        Some(match kind {
            BlockKind::FullDrop | BlockKind::QuicDrop => self.drop_packet(),
            _ => Verdict::Pass,
        })
    }

    /// A verdict in force acting on a packet of its flow; one armed under
    /// an older registry version is counted stale, whatever it does.
    fn enforce(&mut self, now: Time, up: bool, key: &FlowKey, packet: &[u8], len: usize) -> Verdict {
        let version = self.registry.version;
        let entry = self.flows.get_mut(now, key).expect("the flow was just observed");
        let block = entry.block.as_deref_mut().expect("a verdict in force");
        if block.epoch < version {
            self.stats.stale_epoch_verdicts += 1;
        }
        match block.kind {
            // SNI-I rewrites what the remote side sends; the local side's
            // packets pass.
            BlockKind::RstRewrite if up => Verdict::Pass,
            BlockKind::RstRewrite => {
                self.stats.packets_rewritten += 1;
                Verdict::Replace(rst_ack(packet))
            }
            BlockKind::DelayedDrop if block.allowance > 0 => {
                block.allowance -= 1;
                Verdict::Pass
            }
            BlockKind::Throttle => {
                if self.buckets.get_mut(key).expect("armed with a bucket").admit(now, len) {
                    Verdict::Pass
                } else {
                    self.stats.policer_rejects += 1;
                    self.drop_packet()
                }
            }
            BlockKind::DelayedDrop | BlockKind::FullDrop | BlockKind::QuicDrop => self.drop_packet(),
            BlockKind::BlockPage => unreachable!("the TSPU injects no block page"),
        }
    }

    fn process_udp(&mut self, now: Time, up: bool, packet: &[u8]) -> Verdict {
        let ip = Ipv4Packet::new_unchecked(packet);
        let Ok(datagram) = UdpDatagram::new_checked(ip.payload()) else {
            return Verdict::Pass;
        };
        let side = if up { Side::Local } else { Side::Remote };
        let (src, dst) = ((ip.src_addr(), datagram.src_port()), (ip.dst_addr(), datagram.dst_port()));
        let key = FlowKey::from_packet(side, src.0, src.1, dst.0, dst.1, 17);
        let payload = datagram.payload();

        // IP blocking, without the RST: a datagram to a blocked address
        // is dropped.
        if up && self.blocked(ip.dst_addr()) {
            self.flows.observe(now, key, side, None);
            if !exempt(&mut self.flows, &mut self.dice, now, &key, self.failure.ip) {
                self.stats.ip_blocked_packets += 1;
                return self.drop_packet();
            }
        }

        // A QUIC verdict drops the flow both ways, whatever the packet.
        // A UDP flow is tracked only once something above observed it.
        let verdict = self.flows.get(now, &key).and_then(|e| e.block.as_deref());
        if verdict.is_some_and(|b| !lapsed(b, now)) {
            return self.enforce(now, up, &key, packet, payload.len());
        }

        if self.registry.quic_filter
            && up
            && datagram.dst_port() == PORT_443
            && payload.len() >= QUIC_MIN_PAYLOAD
            && payload[1..5] == [0, 0, 0, 1]
        {
            self.flows.observe(now, key, side, None);
            if let Some(verdict) = self.arm(now, &key, BlockKind::QuicDrop) {
                return verdict;
            }
        }
        Verdict::Pass
    }

    fn process_icmp(&mut self, ip: &Ipv4Packet<&[u8]>) -> Verdict {
        // "ICMP Pings to/from blocked IPs are also dropped" (§5.2), each
        // packet on its own roll.
        if !self.blocked(ip.src_addr()) && !self.blocked(ip.dst_addr()) {
            return Verdict::Pass;
        }
        if self.failure.ip > 0.0 && self.dice.chance(self.failure.ip) {
            return Verdict::Pass;
        }
        self.stats.ip_blocked_packets += 1;
        self.drop_packet()
    }
}

/// Whether the device fails to act on the flow (Table 1): decided once, at
/// the flow's first mechanism, with that mechanism's odds.
fn exempt(flows: &mut Tracker, dice: &mut impl Dice, now: Time, key: &FlowKey, p: f64) -> bool {
    let entry = flows.get_mut(now, key).expect("the flow was just observed");
    if !entry.exemption_decided {
        entry.exemption_decided = true;
        entry.exempt = p > 0.0 && dice.chance(p);
    }
    entry.exempt
}

/// §5.2's SNI-I and IP-blocking rewrite: the packet's own IP and TCP
/// headers, flags RST/ACK, no payload — "other packet metadata, such as
/// TTL, sequence and acknowledgement numbers, are not altered".
fn rst_ack(packet: &[u8]) -> Vec<u8> {
    let ip = Ipv4Packet::new_unchecked(packet);
    let tcp_at = ip.header_len();
    let headers = tcp_at + TcpSegment::new_unchecked(ip.payload()).header_len();
    let (src, dst) = (ip.src_addr(), ip.dst_addr());
    let mut out = packet[..headers].to_vec();
    let mut ip = Ipv4Packet::new_unchecked(&mut out[..]);
    ip.set_total_len(headers as u16);
    ip.fill_checksum();
    let mut tcp = TcpSegment::new_unchecked(&mut out[tcp_at..]);
    tcp.set_flags(TcpFlags::RST_ACK);
    tcp.fill_checksum(src, dst);
    out
}

impl<D: Dice + Send + 'static> Middlebox for Device<D> {
    fn process(&mut self, now: Time, direction: Direction, packet: &mut Vec<u8>) -> Verdict {
        // A restart loses every flow and fragment; the device notices it
        // at the first packet at or after its instant.
        while self.restarts.first().is_some_and(|&at| at <= now) {
            self.restarts.remove(0);
            self.flows = Tracker::default();
            self.buckets.clear();
            self.fragments.clear();
            self.stats.restarts += 1;
        }
        self.stats.packets_seen += 1;
        let Ok(ip) = Ipv4Packet::new_checked(&packet[..]) else {
            return Verdict::Pass;
        };
        let up = direction == Direction::LocalToRemote;
        if ip.is_fragment() {
            return self.process_fragment(now, up, packet);
        }
        match ip.protocol() {
            Protocol::Tcp => self.process_tcp(now, up, packet),
            Protocol::Udp => self.process_udp(now, up, packet),
            Protocol::Icmp => self.process_icmp(&ip),
            Protocol::Other(_) => Verdict::Pass,
        }
    }

    fn label(&self) -> String {
        "spec".to_string()
    }
}
