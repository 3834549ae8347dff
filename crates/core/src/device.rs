//! The TSPU device: an in-path middlebox composing conntrack, the SNI
//! engine, the QUIC filter, IP-based blocking, the fragment cache, and the
//! policer, behind the [`tspu_netsim::Middlebox`] trait.
//!
//! Processing pipeline per packet (§5.2's six behaviors):
//!
//! 1. IP fragments go only through the fragment cache (the TSPU does not
//!    reassemble — which is precisely why IP fragmentation of a
//!    ClientHello evades SNI inspection, §8) and the IP address blocklist.
//! 2. ICMP to/from blocked IPs is dropped.
//! 3. TCP packets update the connection tracker; IP-based blocking, then
//!    the SNI and HTTP Host triggers, then any active flow verdict apply.
//! 4. UDP packets go through IP-based blocking, the DNS trigger, any
//!    active flow verdict, then the QUIC fingerprint.
//!
//! Every trigger arms its verdict through `TspuDevice::arm`, and every
//! verdict acts, lapses or is counted stale in `TspuDevice::enforce`.


use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use tspu_netsim::fault::DeviceFaults;
use tspu_netsim::{Direction, Middlebox, MiddleboxImage, Time, Verdict};
use tspu_obs::{MetricNames, Snapshot, Tracer};
use tspu_wire::dns::DnsQuery;
use tspu_wire::http::HttpRequest;
use tspu_wire::ipv4::{Ipv4Packet, Protocol};
use tspu_wire::tcp::{TcpFlags, TcpSegment};
use tspu_wire::tls::{extract_sni, SniOutcome};
use tspu_wire::udp::UdpDatagram;

use crate::behaviors::{BlockKind, BlockState};
use crate::chaos::ModelViolation;
use crate::conntrack::{FlowKey, Side};
use crate::profile::{CensorProfile, SniMode};
use crate::recorder::{FlightRecorder, LedgerKind};
use crate::sharded::ShardedConnTracker;
use crate::constants;
use crate::frag_cache::{FragCache, FragConfig};
use crate::hardening::{Hardening, REASSEMBLY_CAP};
use crate::policy::{NormalizedHost, PolicyHandle};

/// Per-mechanism probabilities that this device fails to act on a flow —
/// the quantity Table 1 measures. Real deployments showed 0 %–2.2 %
/// depending on ISP and mechanism.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureProfile {
    /// SNI-I (RST/ACK rewrite).
    pub sni1: f64,
    /// SNI-II (delayed symmetric drop).
    pub sni2: f64,
    /// SNI-III (throttling).
    pub sni3: f64,
    /// SNI-IV (backup full drop).
    pub sni4: f64,
    /// The QUIC filter.
    pub quic: f64,
    /// IP-based blocking.
    pub ip: f64,
}

impl FailureProfile {
    /// A perfectly reliable device.
    pub fn none() -> FailureProfile {
        FailureProfile::uniform(0.0)
    }

    /// A uniform failure probability across mechanisms.
    pub fn uniform(p: f64) -> FailureProfile {
        FailureProfile { sni1: p, sni2: p, sni3: p, sni4: p, quic: p, ip: p }
    }

    /// The probability for a given SNI verdict kind.
    pub fn for_kind(&self, kind: BlockKind) -> f64 {
        match kind {
            BlockKind::RstRewrite => self.sni1,
            BlockKind::DelayedDrop => self.sni2,
            BlockKind::Throttle => self.sni3,
            BlockKind::FullDrop => self.sni4,
            BlockKind::QuicDrop => self.quic,
            // Table 1 is TSPU-specific; block-page injection (India
            // profile) shares the primary-mechanism dice slot.
            BlockKind::BlockPage => self.sni1,
        }
    }
}

/// The device's counters: the storage the packet path increments,
/// returned by copy from [`TspuDevice::stats`] and exported under
/// `device.<label>.*` by [`TspuDevice::obs_snapshot`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceStats {
    pub packets_seen: u64,
    pub packets_dropped: u64,
    pub packets_rewritten: u64,
    pub triggers_sni1: u64,
    pub triggers_sni2: u64,
    pub triggers_sni3: u64,
    pub triggers_sni4: u64,
    pub triggers_quic: u64,
    /// HTTP Host-header triggers fired (profiles with an `http_host`
    /// filter — Turkmenistan, India; always 0 for the TSPU profile).
    pub triggers_http: u64,
    /// DNS qname triggers fired (profiles with a `dns` filter).
    pub triggers_dns: u64,
    pub ip_blocked_packets: u64,
    pub fragments_processed: u64,
    /// Bytes held in per-flow stream buffers (TCP-reassembly hardening):
    /// the memory bill §8 predicts for patching segmentation evasions.
    pub reassembly_bytes_buffered: u64,
    /// SYN/ACKs dropped by the small-window filter (hardening).
    pub synacks_filtered: u64,
    /// Scheduled restarts applied so far (chaos).
    pub restarts: u64,
    /// Packets the SNI-III policer refused.
    pub policer_rejects: u64,
    /// Enforcement events on flows whose verdict is pinned to a policy
    /// epoch older than the live one (residual blocking across registry
    /// deltas — the epoch audit).
    pub stale_epoch_verdicts: u64,
}

/// The device's export table: name under `device.<label>.` → count, its
/// own counters and its sub-components' alike.
fn exported(
    stats: &DeviceStats,
    conntrack: &ShardedConnTracker,
    frag_cache: &FragCache,
) -> [(&'static str, u64); 22] {
    [
        ("packets_seen", stats.packets_seen),
        ("verdicts.drop", stats.packets_dropped),
        ("verdicts.rst_rewrite", stats.packets_rewritten),
        ("verdicts.stale_epoch", stats.stale_epoch_verdicts),
        ("triggers.sni1", stats.triggers_sni1),
        ("triggers.sni2", stats.triggers_sni2),
        ("triggers.sni3", stats.triggers_sni3),
        ("triggers.sni4", stats.triggers_sni4),
        ("triggers.quic", stats.triggers_quic),
        ("triggers.http_host", stats.triggers_http),
        ("triggers.dns", stats.triggers_dns),
        ("ip_blocked", stats.ip_blocked_packets),
        ("fragments_processed", stats.fragments_processed),
        ("reassembly_bytes", stats.reassembly_bytes_buffered),
        ("synacks_filtered", stats.synacks_filtered),
        ("restarts", stats.restarts),
        ("policer.rejects", stats.policer_rejects),
        ("conntrack.gc_probes", conntrack.gc_probes()),
        ("conntrack.gc_evictions", conntrack.gc_evictions()),
        ("frag_cache.evictions", frag_cache.evictions()),
        ("frag_cache.discarded", frag_cache.discarded()),
        ("frag_cache.flushed", frag_cache.flushed()),
    ]
}

/// One TSPU box. Construct with a shared [`PolicyHandle`] (central
/// control) and attach to routes via `tspu_netsim`. Its configuration is
/// one [`DeviceConfig`]; every other field is run state that
/// [`DeviceConfig::instantiate`] builds pristine.
pub struct TspuDevice {
    config: DeviceConfig,
    conntrack: ShardedConnTracker,
    frag_cache: FragCache,
    rng: SmallRng,
    stats: DeviceStats,
    /// `verdict` / `reassembly` spans, recorded only while tracing is on.
    tracer: Tracer,
    /// Restarts from `config.faults` already applied (they are sorted).
    restarts_applied: usize,
    reload_applied: bool,
    /// The enforcement flight recorder: a bounded ring of structured
    /// enforcement events ([`crate::recorder`]); steady-state pass packets
    /// record nothing.
    recorder: FlightRecorder,
}

/// What fired on a flow. A trigger owns the counter, the ledger name and
/// the failure-dice slot of each verdict kind it arms (the table in
/// DESIGN.md §12); [`TspuDevice::arm`] is the one place that reads them.
#[derive(Debug, Clone, Copy)]
enum Trigger {
    /// A TLS ClientHello SNI (the TSPU's four lists or a single list).
    Sni,
    /// An HTTP request's Host header.
    Http,
    /// A DNS query's qname.
    Dns,
    /// The QUIC version-1 Initial fingerprint.
    Quic,
}

impl Trigger {
    /// The counter bumped when this trigger arms `kind`.
    fn counter(self, kind: BlockKind, stats: &mut DeviceStats) -> &mut u64 {
        match (self, kind) {
            (Trigger::Http, _) => &mut stats.triggers_http,
            (Trigger::Dns, _) => &mut stats.triggers_dns,
            (Trigger::Quic, _) | (Trigger::Sni, BlockKind::QuicDrop) => &mut stats.triggers_quic,
            (Trigger::Sni, BlockKind::RstRewrite | BlockKind::BlockPage) => &mut stats.triggers_sni1,
            (Trigger::Sni, BlockKind::DelayedDrop) => &mut stats.triggers_sni2,
            (Trigger::Sni, BlockKind::Throttle) => &mut stats.triggers_sni3,
            (Trigger::Sni, BlockKind::FullDrop) => &mut stats.triggers_sni4,
        }
    }

    /// The mechanism name the ledger records (Table 1's SNI-I…IV numbering
    /// for SNI; block-page arming shares SNI-I's name and dice slot).
    fn name(self, kind: BlockKind) -> &'static str {
        match (self, kind) {
            (Trigger::Http, _) => "http_host",
            (Trigger::Dns, _) => "dns",
            (Trigger::Quic, _) | (Trigger::Sni, BlockKind::QuicDrop) => "quic",
            (Trigger::Sni, BlockKind::RstRewrite | BlockKind::BlockPage) => "sni1",
            (Trigger::Sni, BlockKind::DelayedDrop) => "sni2",
            (Trigger::Sni, BlockKind::Throttle) => "sni3",
            (Trigger::Sni, BlockKind::FullDrop) => "sni4",
        }
    }

    /// The probability that the device fails to arm `kind` on a flow: DNS
    /// drops share the IP-blocking slot, everything else its verdict's.
    fn failure(self, kind: BlockKind, failure: &FailureProfile) -> f64 {
        match self {
            Trigger::Dns => failure.ip,
            _ => failure.for_kind(kind),
        }
    }
}

/// What the trigger evaluator decided about the current packet.
enum TriggerAction {
    /// No trigger applies; fall through to the active-verdict check.
    None,
    /// A trigger fired whose behavior lets this packet through.
    PassNow,
    /// A trigger fired that eats this packet too (SNI-IV, QUIC).
    DropNow,
}

impl TspuDevice {
    /// Creates a device enforcing `policy` with the given failure profile.
    /// `seed` drives the (deterministic) failure dice.
    pub fn new(label: &str, policy: PolicyHandle, failure: FailureProfile, seed: u64) -> TspuDevice {
        let names = MetricNames::scoped(
            &format!("device.{label}"),
            exported(&DeviceStats::default(), &ShardedConnTracker::new(), &FragCache::new(FragConfig::default())),
        );
        DeviceConfig {
            label: Arc::from(label),
            epoch_base: policy.epoch(),
            policy,
            profile: CensorProfile::tspu(),
            failure,
            seed,
            hardening: Hardening::none(),
            flow_capacity: None,
            flow_shards: None,
            faults: DeviceFaults::default(),
            violation: None,
            names,
            tracing: false,
        }
        .instantiate()
    }

    /// This device's configuration. [`DeviceConfig::instantiate`] then
    /// rebuilds a pristine device — empty conntrack and fragment cache, RNG
    /// reseeded from the construction seed, zeroed counters under the same
    /// export names — byte-identical in behavior to constructing this
    /// device from scratch with the same parameters.
    pub fn config(&self) -> DeviceConfig {
        self.config.clone()
    }

    /// Swaps the shared policy handle — used when forking a lab cell that
    /// enforces its own per-cell policy (churn campaigns). The conntrack,
    /// RNG, and counters are untouched, so a fork followed by `set_policy`
    /// equals a fresh build against that handle.
    pub fn set_policy(&mut self, policy: PolicyHandle) {
        // The new handle's current epoch is this device's baseline, not a
        // delta the ledger should report.
        self.config.epoch_base = policy.epoch();
        self.recorder.rebase_epoch(policy.epoch());
        self.config.policy = policy;
    }

    /// Schedules deterministic device-level faults from a chaos plan:
    /// mid-flight restarts (wiping conntrack and the fragment cache), a
    /// policy hot-reload (the March 4, 2022 transition, fired through the
    /// shared handle), and a Table-1 bypass-rate override.
    pub fn with_device_faults(mut self, faults: DeviceFaults) -> TspuDevice {
        self.set_device_faults(faults);
        self
    }

    /// In-place variant of [`TspuDevice::with_device_faults`], for devices
    /// already installed in a network.
    pub fn set_device_faults(&mut self, mut faults: DeviceFaults) {
        faults.restarts.sort();
        if let Some(p) = faults.bypass_rate {
            self.config.failure = FailureProfile::uniform(p);
        }
        self.config.faults = faults;
        self.restarts_applied = 0;
        self.reload_applied = false;
    }

    /// Reconfigures the device to enforce a different [`CensorProfile`]
    /// against the same policy lists. The default is [`CensorProfile::tspu`].
    pub fn with_censor_profile(mut self, profile: CensorProfile) -> TspuDevice {
        self.set_censor_profile(profile);
        self
    }

    /// In-place variant of [`TspuDevice::with_censor_profile`].
    pub fn set_censor_profile(&mut self, profile: CensorProfile) {
        self.config.profile = profile;
    }

    /// The censor profile this engine interprets.
    pub fn censor_profile(&self) -> &CensorProfile {
        &self.config.profile
    }

    /// Installs (or clears) a deliberate model violation — the oracle's
    /// acceptance demo. Never set outside tests.
    pub fn set_model_violation(&mut self, violation: Option<ModelViolation>) {
        self.config.violation = violation;
    }

    /// The device's scheduled faults.
    pub fn device_faults(&self) -> &DeviceFaults {
        &self.config.faults
    }

    /// Applies any scheduled faults that have come due. Faults fire
    /// lazily at the next processed packet — like the real event: nobody
    /// notices a reboot until traffic crosses the box again.
    fn poll_faults(&mut self, now: Time) {
        if self.config.faults.is_noop() {
            return;
        }
        let since_start = now.since(Time::ZERO);
        while self.config.faults.restarts.get(self.restarts_applied).is_some_and(|&at| at <= since_start) {
            self.restarts_applied += 1;
            self.stats.restarts += 1;
            self.conntrack.clear();
            self.frag_cache.clear();
            let epoch = self.config.policy.epoch();
            self.ledger(now, None, LedgerKind::Restart, epoch);
        }
        if !self.reload_applied && self.config.faults.reload_at.is_some_and(|at| at <= since_start) {
            self.reload_applied = true;
            self.config.policy.march_4_2022_transition();
        }
    }

    /// Builds the RST/ACK injection for `packet`, applying any installed
    /// model violation.
    fn inject_rst(&mut self, packet: &[u8]) -> Vec<u8> {
        let mut out = rst_ack_rewrite(packet);
        if self.config.violation == Some(ModelViolation::FreshTtlOnInjectedRst) {
            // The deliberate bug: a fresh TTL instead of the victim's. The
            // TCP checksum does not cover the TTL, so only the IP header
            // checksum needs refreshing.
            let mut view = Ipv4Packet::new_unchecked(&mut out[..]);
            view.set_ttl(64);
            view.fill_checksum();
        }
        out
    }

    /// Builds the HTTP-200 block-page injection replacing `packet` (India
    /// profile): the profile's page bytes become the TCP payload.
    fn inject_block_page(&self, packet: &[u8]) -> Vec<u8> {
        match self.config.profile.block_page.as_deref() {
            Some(page) => block_page_rewrite(packet, page),
            None => packet.to_vec(),
        }
    }

    /// Applies the §8 counter-circumvention upgrades to this device.
    pub fn with_hardening(mut self, hardening: Hardening) -> TspuDevice {
        self.set_hardening(hardening);
        self
    }

    /// Pre-provisions the flow table for `flows` concurrent connections
    /// (the `nf_conntrack` hashsize analogue). A provisioned device never
    /// grows its table on the packet path, removing the one remaining
    /// O(table) latency event (hash-table growth rehashes).
    pub fn with_flow_capacity(mut self, flows: usize) -> TspuDevice {
        self.config.flow_capacity = Some(flows);
        self.conntrack = self.config.conntrack();
        self
    }

    /// [`TspuDevice::with_flow_capacity`] with the shard count explicit
    /// instead of auto-derived — benches pin it to isolate shard-count
    /// effects from capacity effects.
    pub fn with_flow_shards(mut self, flows: usize, shards: usize) -> TspuDevice {
        self.config.flow_capacity = Some(flows);
        self.config.flow_shards = Some(shards);
        self.conntrack = self.config.conntrack();
        self
    }

    /// The active hardening configuration.
    pub fn hardening(&self) -> Hardening {
        self.config.hardening
    }

    /// Reconfigures hardening in place (a firmware upgrade on a deployed
    /// box — the shared-policy analog for capabilities).
    pub fn set_hardening(&mut self, hardening: Hardening) {
        self.config.hardening = hardening;
    }

    /// A perfectly reliable device (the common case in tests).
    pub fn reliable(label: &str, policy: PolicyHandle) -> TspuDevice {
        TspuDevice::new(label, policy, FailureProfile::none(), 0)
    }

    /// The device's counters so far.
    pub fn stats(&self) -> DeviceStats {
        self.stats
    }

    /// Enables or disables virtual-time span tracing on this device
    /// (`verdict` / `reassembly` spans). Off by default.
    pub fn set_tracing(&mut self, enabled: bool) {
        self.config.tracing = enabled;
        self.tracer.set_enabled(enabled);
    }

    /// The device's counters (plus its sub-components': `conntrack.gc_probes`,
    /// `frag_cache.evictions`, …) exported as a [`Snapshot`] under its
    /// `device.<label>.*` scope, with any recorded spans drained.
    pub fn take_obs(&mut self) -> Snapshot {
        let mut snap = self.obs_snapshot();
        self.tracer.drain_into(&mut snap);
        snap
    }

    /// Like [`TspuDevice::take_obs`] but without draining spans.
    pub fn obs_snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::new();
        let table = exported(&self.stats, &self.conntrack, &self.frag_cache);
        snap.insert_counters(&self.config.names, table);
        snap
    }

    /// The shared policy handle.
    pub fn policy(&self) -> &PolicyHandle {
        &self.config.policy
    }

    /// Read access to the connection tracker (tests, experiments).
    pub fn conntrack(&self) -> &ShardedConnTracker {
        &self.conntrack
    }

    /// Epoch audit at `now`: live flows on this device still enforcing a
    /// verdict pinned to a policy epoch older than the current one.
    pub fn stale_verdict_audit(&self, now: Time) -> usize {
        self.conntrack.blocks_pinned_before(now, self.config.policy.read().epoch)
    }

    /// Read access to the fragment cache.
    pub fn frag_cache(&self) -> &FragCache {
        &self.frag_cache
    }

    fn side_of(direction: Direction) -> Side {
        match direction {
            Direction::LocalToRemote => Side::Local,
            Direction::RemoteToLocal => Side::Remote,
        }
    }

    /// Rolls (once per flow) whether this device fails to act on it.
    fn flow_exempt(&mut self, now: Time, key: &FlowKey, probability: f64) -> bool {
        let Some(entry) = self.conntrack.get_mut(now, key) else {
            return false;
        };
        if !entry.exemption_decided {
            entry.exemption_decided = true;
            entry.exempt = probability > 0.0 && self.rng.gen_bool(probability);
        }
        entry.exempt
    }

    fn drop_packet(&mut self) -> Verdict {
        self.stats.packets_dropped += 1;
        Verdict::Drop
    }

    /// Records an enforcement ledger event, folding in any conntrack GC
    /// activity since the previous one. Called only from cold enforcement
    /// paths (arming, expiry, restart) — never on steady-state packets.
    fn ledger(&mut self, now: Time, flow: Option<FlowKey>, kind: LedgerKind, epoch: u64) {
        self.recorder.sync_gc(now.as_micros(), self.conntrack.gc_evictions(), self.config.profile.name, epoch);
        self.recorder.record(now.as_micros(), flow, kind, self.config.profile.name, epoch);
    }

    /// The last `n` ledger events concerning the flow `packet` belongs to
    /// (device-wide events included), rendered oldest-first — what an
    /// oracle violation report attaches for the offending flow. The
    /// caller does not know which side of the packet is local, so both
    /// orientations of the flow key are tried.
    pub fn ledger_for_packet(&self, packet: &[u8], n: usize) -> Vec<String> {
        let Ok(view) = Ipv4Packet::new_checked(packet) else {
            return Vec::new();
        };
        let (src, dst) = (view.src_addr(), view.dst_addr());
        let ports = match view.protocol() {
            Protocol::Tcp => TcpSegment::new_checked(view.payload())
                .ok()
                .map(|s| (s.src_port(), s.dst_port(), 6)),
            Protocol::Udp => UdpDatagram::new_checked(view.payload())
                .ok()
                .map(|d| (d.src_port(), d.dst_port(), 17)),
            _ => None,
        };
        let Some((src_port, dst_port, proto)) = ports else {
            return Vec::new();
        };
        let as_local = FlowKey::from_packet(Side::Local, src, src_port, dst, dst_port, proto);
        let as_remote = FlowKey::from_packet(Side::Remote, src, src_port, dst, dst_port, proto);
        let events = self.recorder.events();
        let hits = |k: &FlowKey| events.iter().any(|e| e.flow.as_ref() == Some(k));
        let key = if hits(&as_remote) && !hits(&as_local) { as_remote } else { as_local };
        self.recorder.for_flow(&key, n)
    }

    fn process_tcp(&mut self, now: Time, direction: Direction, packet: &[u8]) -> Verdict {
        let view = Ipv4Packet::new_unchecked(packet);
        let (src_addr, dst_addr) = (view.src_addr(), view.dst_addr());
        let Ok(segment) = TcpSegment::new_checked(view.payload()) else {
            return Verdict::Pass;
        };
        let side = Self::side_of(direction);
        let key = FlowKey::from_packet(side, src_addr, segment.src_port(), dst_addr, segment.dst_port(), 6);
        let flags = segment.flags();
        let payload_len = segment.payload().len();

        // Hardening: filter servers advertising suspiciously small flow
        // control windows (the brdgrd counter §8 predicts).
        if let Some(min_window) = self.config.hardening.min_synack_window {
            if direction == Direction::RemoteToLocal
                && flags.is_syn_ack()
                && segment.window() < min_window
            {
                self.stats.synacks_filtered += 1;
                return self.drop_packet();
            }
        }

        // One flow lookup covers the state transition plus everything the
        // common path needs afterwards: the cached blocklist verdict and
        // whether a block verdict is in force (observe has already cleared
        // lapsed ones). The data-packet steady state touches the flow
        // table exactly once.
        let (cached_ip, has_block) = {
            let entry = self.conntrack.observe_tcp(now, key, side, flags, payload_len);
            (entry.remote_ip_blocked, entry.block.is_some())
        };

        // Hardening: accumulate the local→remote stream for reassembled
        // inspection (bounded per flow).
        if self.config.hardening.tcp_reassembly
            && direction == Direction::LocalToRemote
            && segment.dst_port() == constants::SNI_PORT
            && payload_len > 0
        {
            if let Some(entry) = self.conntrack.get_mut(now, &key) {
                let stream = entry.rx_stream.get_or_insert_with(Box::default);
                let room = REASSEMBLY_CAP.saturating_sub(stream.len());
                let take = payload_len.min(room);
                stream.extend_from_slice(&segment.payload()[..take]);
                self.stats.reassembly_bytes_buffered += take as u64;
            }
        }

        // --- IP-based blocking (§5.2) ---
        // Both checks below test the flow's *remote* endpoint (outbound
        // destination, inbound source), and the flow key is
        // direction-normalized, so the verdict is a per-flow constant
        // until a policy delta changes the blocklist. Cache it on the
        // entry, validated by the lock-free epoch: steady-state packets
        // skip the policy read-lock and the blocklist probe entirely.
        let epoch = self.config.policy.epoch();
        // Ledger: a policy delta becomes visible to this box the first
        // time a packet reads the bumped epoch. One integer compare on the
        // steady state; an event only on the transition.
        self.recorder.note_epoch(now.as_micros(), epoch, self.config.profile.name);
        let remote_blocked = match cached_ip {
            Some((cached_epoch, blocked)) if cached_epoch == epoch => blocked,
            _ => {
                let blocked = self.config.policy.read().blocked_ips.contains(&key.remote_addr);
                if let Some(entry) = self.conntrack.get_mut(now, &key) {
                    entry.remote_ip_blocked = Some((epoch, blocked));
                }
                blocked
            }
        };
        let ip_enforced = remote_blocked && self.config.profile.ip_blocking;
        if ip_enforced && direction == Direction::LocalToRemote {
            let ip_failure = self.config.failure.ip;
            if !self.flow_exempt(now, &key, ip_failure) {
                self.stats.ip_blocked_packets += 1;
                // A *response* to a remotely initiated connection is
                // rewritten to RST/ACK; a locally initiated attempt is
                // silently dropped (§5.2). The device cannot always see
                // the inbound request (upstream-only visibility, §7.1.1),
                // so the response heuristic is the packet shape: SYN/ACKs
                // are responses by construction; for other packets the
                // flow history decides. This is what makes the Tor-node
                // probe of Table 5 observe RST/ACKs even through
                // upstream-only devices.
                let is_response = flags.is_syn_ack()
                    || (!flags.is_pure_syn()
                        && self
                            .conntrack
                            .get(now, &key)
                            .map(|e| e.first_sender == Side::Remote)
                            .unwrap_or(false));
                if is_response {
                    self.stats.packets_rewritten += 1;
                    return Verdict::Replace(self.inject_rst(packet));
                }
                return self.drop_packet();
            }
        }
        if ip_enforced && direction == Direction::RemoteToLocal {
            // Requests from the blocked IP pass through (§5.2).
            return Verdict::Pass;
        }

        // --- Trigger evaluation, then active-verdict application ---
        let sni = self.evaluate_sni_trigger(now, direction, &key, segment.dst_port(), segment.payload());
        if let Some(verdict) = self.settle(sni) {
            return verdict;
        }
        let http = self.evaluate_http_trigger(now, direction, &key, segment.dst_port(), segment.payload());
        if let Some(verdict) = self.settle(http) {
            return verdict;
        }
        // A trigger that installs a verdict returns PassNow/DropNow above,
        // so on the None path the flow carries a block only if it already
        // had one at observe time — no need to look it up again.
        if !has_block {
            // Seeded violation (oracle acceptance demo): inject the block
            // page on a flow no trigger ever armed.
            if self.config.violation == Some(ModelViolation::BlockPageWithoutTrigger)
                && self.config.profile.block_page.is_some()
                && direction == Direction::RemoteToLocal
                && segment.src_port() == constants::HTTP_PORT
                && payload_len > 0
            {
                self.stats.packets_rewritten += 1;
                return Verdict::Replace(self.inject_block_page(packet));
            }
            return Verdict::Pass;
        }
        self.enforce(now, direction, &key, packet, payload_len).unwrap_or(Verdict::Pass)
    }

    /// Locates a server name in this packet (and, under hardening, in the
    /// reassembled stream / past leading non-handshake records), normalized
    /// on the stack.
    fn locate_sni(&mut self, now: Time, key: &FlowKey, payload: &[u8]) -> Option<NormalizedHost> {
        let scan = self.config.hardening.scan_multiple_records;
        if let Some(host) = extract_sni_scanning(payload, scan) {
            return Some(host);
        }
        if self.config.hardening.tcp_reassembly {
            let stream = self.conntrack.get(now, key)?.rx_stream.as_deref()?;
            if !stream.is_empty() {
                return extract_sni_scanning(stream, scan);
            }
        }
        None
    }

    /// Evaluates SNI triggers on a local→remote TCP payload to port 443.
    fn evaluate_sni_trigger(
        &mut self,
        now: Time,
        direction: Direction,
        key: &FlowKey,
        dst_port: u16,
        payload: &[u8],
    ) -> TriggerAction {
        if matches!(self.config.profile.sni, SniMode::Disabled)
            || direction != Direction::LocalToRemote
            || dst_port != constants::SNI_PORT
            || payload.is_empty()
        {
            return TriggerAction::None;
        }
        let Some(host) = self.locate_sni(now, key, payload) else {
            return TriggerAction::None;
        };
        let verdict = match self.config.profile.sni {
            SniMode::SingleList { kind, window } => self.single_listed(&host).then_some((kind, window)),
            _ => self.tspu_lists_verdict(now, key, &host).map(|kind| (kind, kind.duration())),
        };
        match verdict {
            Some((kind, window)) => self.arm(now, key, Trigger::Sni, kind, window),
            None => TriggerAction::None,
        }
    }

    /// Whether `host` is on the single blocklist (the policy's `sni_rst`
    /// list) that every non-TSPU trigger consults — the
    /// centralized-chokepoint shape of the Turkmenistan SNI/HTTP/DNS
    /// triggers and India's Host-header filter.
    fn single_listed(&self, host: &NormalizedHost) -> bool {
        self.config.policy.read().sni_rst.matches_normalized(host)
    }

    /// The TSPU four-list engine (§5.2): which verdict `host` earns on
    /// this flow given its lists and the flow's inferred roles, if any.
    fn tspu_lists_verdict(&self, now: Time, key: &FlowKey, host: &NormalizedHost) -> Option<BlockKind> {
        // The hostname is normalized once and the stack-resident result is
        // shared by all four list checks.
        let (in_rst, in_slow, in_throttle, in_backup) = {
            let policy = self.config.policy.read();
            (
                policy.sni_rst.matches_normalized(host),
                policy.sni_slow.matches_normalized(host),
                policy.sni_throttle.matches_normalized(host) && policy.throttle_active,
                policy.sni_backup.matches_normalized(host),
            )
        };
        if !(in_rst || in_slow || in_throttle || in_backup) {
            return None;
        }
        let entry = self.conntrack.get(now, key)?;
        let (sni1, sni2, sni4) = if self.config.hardening.strict_roles {
            // Ad-hoc role reasoning (§8's predicted patch): an outbound
            // ClientHello *is* the local client speaking, whatever the
            // handshake looked like. Overblocks remote-initiated flows —
            // the trade-off §7.1.1 already observes in the wild.
            (true, true, false)
        } else {
            (entry.sni1_applies(), entry.sni2_applies(), entry.sni4_applies())
        };
        // Throttling replaces SNI-I for throttled domains while active.
        if in_throttle && sni1 {
            Some(BlockKind::Throttle)
        } else if in_rst && sni1 {
            Some(BlockKind::RstRewrite)
        } else if in_backup && sni4 {
            Some(BlockKind::FullDrop)
        } else if in_slow && sni2 {
            Some(BlockKind::DelayedDrop)
        } else {
            None
        }
    }

    /// Evaluates the profile's HTTP Host-header trigger on a local→remote
    /// TCP payload to port 80 (Turkmenistan RST injection, India
    /// block-page arming, the legacy ISP's swallowed request).
    fn evaluate_http_trigger(
        &mut self,
        now: Time,
        direction: Direction,
        key: &FlowKey,
        dst_port: u16,
        payload: &[u8],
    ) -> TriggerAction {
        let Some(filter) = self.config.profile.http_host else {
            return TriggerAction::None;
        };
        if direction != Direction::LocalToRemote
            || dst_port != constants::HTTP_PORT
            || payload.is_empty()
        {
            return TriggerAction::None;
        }
        let Some(hostname) = HttpRequest::parse(payload).ok().and_then(|request| request.host) else {
            return TriggerAction::None;
        };
        if !self.single_listed(&NormalizedHost::new(&hostname)) {
            return TriggerAction::None;
        }
        self.arm(now, key, Trigger::Http, filter.kind, filter.window)
    }

    /// Arms `kind` on the flow for `trigger` — the one place a verdict is
    /// installed. Unless the flow is untracked or its failure dice exempt
    /// it, this counts the trigger, installs the verdict with `window` and
    /// the profile's directions pinned to the live policy epoch (a
    /// re-trigger refreshes the window; a verdict of another kind is
    /// replaced, which is how SNI-IV backs up SNI-I), and records the
    /// TriggerFired/BlockArmed ledger pair. The trigger packet itself then
    /// passes, or drops under a full-drop verdict.
    fn arm(
        &mut self,
        now: Time,
        key: &FlowKey,
        trigger: Trigger,
        kind: BlockKind,
        window: std::time::Duration,
    ) -> TriggerAction {
        if self.conntrack.get(now, key).is_none()
            || self.flow_exempt(now, key, trigger.failure(kind, &self.config.failure))
        {
            return TriggerAction::None;
        }
        *trigger.counter(kind, &mut self.stats) += 1;
        // SNI-II's packet allowance is drawn for TCP flows only: a UDP
        // verdict consumes no dice beyond its exemption roll.
        let allowance = if key.protocol == 6 {
            self.rng.gen_range(constants::SLOW_DROP_ALLOWANCE_MIN..=constants::SLOW_DROP_ALLOWANCE_MAX)
        } else {
            0
        };
        let (throttle, epoch) = {
            let policy = self.config.policy.read();
            (policy.throttle, policy.epoch)
        };
        let directions = self.config.profile.rst_directions;
        if let Some(entry) = self.conntrack.get_mut(now, key) {
            entry.block = Some(Box::new(
                BlockState::new(kind, now, allowance, throttle)
                    .with_window(window)
                    .with_directions(directions)
                    .pinned_to(epoch),
            ));
        }
        self.ledger(now, Some(*key), LedgerKind::TriggerFired { trigger: trigger.name(kind) }, epoch);
        self.ledger(now, Some(*key), LedgerKind::BlockArmed { kind: block_kind_name(kind) }, epoch);
        match kind {
            BlockKind::FullDrop | BlockKind::QuicDrop => TriggerAction::DropNow,
            _ => TriggerAction::PassNow,
        }
    }

    /// The packet verdict a fired trigger implies, or `None` to keep
    /// evaluating.
    fn settle(&mut self, action: TriggerAction) -> Option<Verdict> {
        match action {
            TriggerAction::None => None,
            TriggerAction::PassNow => Some(Verdict::Pass),
            TriggerAction::DropNow => Some(self.drop_packet()),
        }
    }

    /// Enforces the flow's verdict on a packet that fired no trigger — the
    /// one place a verdict acts, lapses or is counted stale, for TCP and
    /// UDP alike. `None` when no verdict is live on the flow (a lapsed one
    /// is cleared and ledgered here), so the caller's own checks go on.
    ///
    /// The decision is made inside the flow-entry borrow; the counters,
    /// ledger events and packet surgery follow once it ends, so the flight
    /// recorder (a sibling field) stays reachable.
    fn enforce(
        &mut self,
        now: Time,
        direction: Direction,
        key: &FlowKey,
        packet: &[u8],
        payload_len: usize,
    ) -> Option<Verdict> {
        enum Act {
            Pass,
            Rst,
            Page,
            Drop,
            ThrottleReject,
        }
        let live_epoch = self.config.policy.epoch();
        let violation = self.config.violation;
        let entry = self.conntrack.get_mut(now, key)?;
        let block = entry.block.as_mut()?;
        let kind = block.kind;
        if !block.active(now) {
            entry.block = None;
            self.ledger(now, Some(*key), LedgerKind::BlockExpired { kind: block_kind_name(kind) }, live_epoch);
            return None;
        }
        // Epoch audit: the flow keeps its pinned verdict even if a registry
        // delta has since changed the rule that installed it (residual
        // blocking); count each enforcement under an outdated epoch.
        let stale = block.epoch < live_epoch;
        let act = match kind {
            BlockKind::RstRewrite => {
                // Enforcement direction lives on the verdict (the latent
                // asymmetry fix): the TSPU's ToLocal default rewrites only
                // remote→local, bidirectional profiles rewrite both ways.
                let toward_remote = block.rewrites_toward_remote()
                    && violation != Some(ModelViolation::UnidirectionalRstUnderBidirectional);
                if direction == Direction::RemoteToLocal || toward_remote {
                    Act::Rst
                } else {
                    Act::Pass
                }
            }
            // The censor answers in the server's place: the response's
            // payload becomes the block page. Handshake and pure-ACK
            // packets pass so the connection can carry the page.
            BlockKind::BlockPage if direction == Direction::RemoteToLocal && payload_len > 0 => Act::Page,
            BlockKind::BlockPage => Act::Pass,
            BlockKind::DelayedDrop if block.allowance > 0 => {
                block.allowance -= 1;
                Act::Pass
            }
            BlockKind::Throttle => {
                if block.bucket.as_mut().is_none_or(|b| b.admit(now, payload_len)) {
                    Act::Pass
                } else {
                    Act::ThrottleReject
                }
            }
            BlockKind::DelayedDrop | BlockKind::FullDrop | BlockKind::QuicDrop => Act::Drop,
        };
        if stale {
            self.stats.stale_epoch_verdicts += 1;
            self.ledger(now, Some(*key), LedgerKind::StaleEnforcement { kind: block_kind_name(kind) }, live_epoch);
        }
        Some(match act {
            Act::Pass => Verdict::Pass,
            Act::Rst => {
                self.stats.packets_rewritten += 1;
                Verdict::Replace(self.inject_rst(packet))
            }
            Act::Page => {
                self.stats.packets_rewritten += 1;
                Verdict::Replace(self.inject_block_page(packet))
            }
            Act::Drop => self.drop_packet(),
            Act::ThrottleReject => {
                self.stats.policer_rejects += 1;
                self.drop_packet()
            }
        })
    }

    fn process_udp(&mut self, now: Time, direction: Direction, packet: &[u8]) -> Verdict {
        let view = Ipv4Packet::new_unchecked(packet);
        let (src_addr, dst_addr) = (view.src_addr(), view.dst_addr());
        let Ok(datagram) = UdpDatagram::new_checked(view.payload()) else {
            return Verdict::Pass;
        };
        let side = Self::side_of(direction);
        let key = FlowKey::from_packet(side, src_addr, datagram.src_port(), dst_addr, datagram.dst_port(), 17);
        let payload = datagram.payload();

        // IP-based blocking applies to UDP exactly like TCP, minus the
        // RST/ACK rewrite (which is meaningless for UDP): outbound to a
        // blocked IP is dropped, inbound from it passes.
        let dst_blocked =
            self.config.profile.ip_blocking && self.config.policy.read().blocked_ips.contains(&dst_addr);
        if dst_blocked && direction == Direction::LocalToRemote {
            self.conntrack.observe_udp(now, key, side);
            let ip_failure = self.config.failure.ip;
            if !self.flow_exempt(now, &key, ip_failure) {
                self.stats.ip_blocked_packets += 1;
                return self.drop_packet();
            }
        }

        // DNS qname trigger (Turkmenistan profile): a UDP/53 query for a
        // blocked name is eaten, and the flow is residually dropped for
        // the profile's window — retries inside the window refresh it.
        if let Some(filter) = self.config.profile.dns {
            if direction == Direction::LocalToRemote
                && datagram.dst_port() == constants::DNS_PORT
                && !payload.is_empty()
            {
                if let Ok(query) = DnsQuery::parse(payload) {
                    if self.single_listed(&NormalizedHost::new(&query.qname)) {
                        self.conntrack.observe_udp(now, key, side);
                        let armed = self.arm(now, &key, Trigger::Dns, BlockKind::FullDrop, filter.window);
                        if let Some(verdict) = self.settle(armed) {
                            return verdict;
                        }
                    }
                }
            }
        }

        // An active verdict (QUIC, DNS) drops everything, both directions,
        // regardless of length or fingerprint (§5.2).
        if let Some(verdict) = self.enforce(now, direction, &key, packet, payload.len()) {
            return verdict;
        }

        // The QUIC fingerprint (Fig. 14): local→remote, UDP dst 443,
        // ≥ 1001 payload bytes, version-1 bytes at offset 1.
        let quic_on = self.config.profile.quic_filter && self.config.policy.read().quic_filter;
        if quic_on
            && direction == Direction::LocalToRemote
            && datagram.dst_port() == constants::QUIC_PORT
            && payload.len() >= constants::QUIC_MIN_PAYLOAD
            && payload[1..5] == [0x00, 0x00, 0x00, 0x01]
        {
            self.conntrack.observe_udp(now, key, side);
            let armed = self.arm(now, &key, Trigger::Quic, BlockKind::QuicDrop, BlockKind::QuicDrop.duration());
            if let Some(verdict) = self.settle(armed) {
                return verdict;
            }
        }
        Verdict::Pass
    }

    fn process_icmp(&mut self, _now: Time, _direction: Direction, packet: &[u8]) -> Verdict {
        let view = Ipv4Packet::new_unchecked(packet);
        let blocked = self.config.profile.ip_blocking && {
            let policy = self.config.policy.read();
            policy.blocked_ips.contains(&view.src_addr()) || policy.blocked_ips.contains(&view.dst_addr())
        };
        if blocked {
            // "ICMP Pings to/from blocked IPs are also dropped" (§5.2).
            if self.config.failure.ip > 0.0 && self.rng.gen_bool(self.config.failure.ip) {
                return Verdict::Pass;
            }
            self.stats.ip_blocked_packets += 1;
            return self.drop_packet();
        }
        Verdict::Pass
    }
}

/// Ledger name for a block-verdict kind.
fn block_kind_name(kind: BlockKind) -> &'static str {
    match kind {
        BlockKind::RstRewrite => "rst_rewrite",
        BlockKind::DelayedDrop => "delayed_drop",
        BlockKind::Throttle => "throttle",
        BlockKind::FullDrop => "full_drop",
        BlockKind::QuicDrop => "quic_drop",
        BlockKind::BlockPage => "block_page",
    }
}

/// Rewrites a TCP/IPv4 packet the way SNI-I and IP-based blocking do:
/// payload truncated, flags set to RST/ACK, TTL and sequence numbers
/// preserved, checksums fixed up (§5.2: "other packet metadata, such as
/// TTL, sequence and acknowledgement numbers, are not altered").
pub fn rst_ack_rewrite(packet: &[u8]) -> Vec<u8> {
    rewrite_segment(packet, TcpFlags::RST_ACK, &[])
}

/// Rewrites a TCP/IPv4 packet into an HTTP-200 block-page injection the
/// way the India-profile middleboxes answer in the server's place: the
/// payload is replaced wholesale with the censor's response bytes;
/// addresses, ports, sequence and acknowledgement numbers, and TTL are
/// preserved; flags become PSH/ACK; checksums are fixed up.
pub fn block_page_rewrite(packet: &[u8], page: &[u8]) -> Vec<u8> {
    rewrite_segment(packet, TcpFlags::PSH_ACK, page)
}

/// `packet`'s IP and TCP headers with `flags` and `payload` in place of its
/// own, lengths and checksums fixed up. A packet too short to carry a TCP
/// header is returned unchanged.
fn rewrite_segment(packet: &[u8], flags: TcpFlags, payload: &[u8]) -> Vec<u8> {
    let view = Ipv4Packet::new_unchecked(packet);
    let ip_header_len = view.header_len();
    let segment = view.payload();
    if segment.len() < tspu_wire::tcp::HEADER_LEN {
        return packet.to_vec();
    }
    let headers_len = ip_header_len + TcpSegment::new_unchecked(segment).header_len().min(segment.len());
    let mut out = Vec::with_capacity(headers_len + payload.len());
    out.extend_from_slice(&packet[..headers_len]);
    out.extend_from_slice(payload);

    let (src, dst) = (view.src_addr(), view.dst_addr());
    let mut ip = Ipv4Packet::new_unchecked(&mut out[..]);
    ip.set_total_len((headers_len + payload.len()) as u16);
    ip.fill_checksum();
    let mut tcp = TcpSegment::new_unchecked(&mut out[ip_header_len..]);
    tcp.set_flags(flags);
    tcp.fill_checksum(src, dst);
    out
}

/// Extracts an SNI, optionally walking past leading non-handshake TLS
/// records (the hardening counter to the record-prepend evasion).
fn extract_sni_scanning(payload: &[u8], scan: bool) -> Option<NormalizedHost> {
    if let SniOutcome::Sni(name) = extract_sni(payload) {
        return Some(NormalizedHost::new(&name));
    }
    if !scan {
        return None;
    }
    let mut offset = 0usize;
    // Walk complete records; stop at the first handshake record or when
    // the framing runs out.
    while payload.len() >= offset + 5 {
        if payload[offset] == 0x16 {
            if let SniOutcome::Sni(name) = extract_sni(&payload[offset..]) {
                return Some(NormalizedHost::new(&name));
            }
            return None;
        }
        let len = u16::from_be_bytes([payload[offset + 3], payload[offset + 4]]) as usize;
        offset += 5 + len;
    }
    None
}

impl Middlebox for TspuDevice {
    fn process(&mut self, now: Time, direction: Direction, packet: &mut Vec<u8>) -> Verdict {
        self.poll_faults(now);
        self.stats.packets_seen += 1;
        let Ok(view) = Ipv4Packet::new_checked(&packet[..]) else {
            return Verdict::Pass; // not IPv4: pass
        };

        // Fragments interact only with the fragment cache and the IP
        // blocklist — the TSPU neither reassembles nor inspects them.
        if view.is_fragment() {
            self.stats.fragments_processed += 1;
            // Outbound to a blocked IP drops; inbound from one passes (§5.2).
            if self.config.profile.ip_blocking
                && direction == Direction::LocalToRemote
                && self.config.policy.read().blocked_ips.contains(&view.dst_addr())
            {
                self.stats.ip_blocked_packets += 1;
                return self.drop_packet();
            }
            let flushed = self.frag_cache.offer(now, packet);
            // Hardening: reassemble the flushed train for inspection (the
            // forwarding itself stays fragment-by-fragment, like the real
            // device). A verdict installed here acts on later packets;
            // a FullDrop/QUIC verdict eats this train too.
            if self.config.hardening.ip_reassembly && flushed.len() > 1 {
                self.tracer.span("reassembly", "device", now.as_micros(), now.as_micros());
                if let Ok(mut whole) = tspu_wire::frag::reassemble(&flushed) {
                    let inspected = self.process(now, direction, &mut whole);
                    if inspected == Verdict::Drop {
                        self.stats.packets_dropped += 1;
                        return Verdict::Drop;
                    }
                    // If inspection rewrote/verdicted the packet, the
                    // fragments still go out unmodified — SNI-I acts on
                    // the *response* direction anyway.
                }
            }
            // An empty flush means the fragment was absorbed into the
            // cache; otherwise the (possibly multi-packet) train goes out.
            return if flushed.is_empty() { Verdict::Drop } else { Verdict::Fanout(flushed) };
        }

        // Verdict-evaluation span: virtual time does not advance inside
        // the device, so this is an instant marking *when* the decision
        // happened — identical across thread counts.
        self.tracer.span("verdict", "device", now.as_micros(), now.as_micros());
        match view.protocol() {
            Protocol::Tcp => self.process_tcp(now, direction, packet),
            Protocol::Udp => self.process_udp(now, direction, packet),
            Protocol::Icmp => self.process_icmp(now, direction, packet),
            Protocol::Other(_) => Verdict::Pass,
        }
    }

    fn label(&self) -> String {
        self.config.label.to_string()
    }

    fn image(&self) -> Option<Box<dyn MiddleboxImage>> {
        Some(Box::new(self.config()))
    }
}

/// The configuration of a [`TspuDevice`], and all that a fork of it keeps:
/// lab images share it across forked scenario cells. Everything else —
/// conntrack, fragment cache, RNG position, policer buckets, counter
/// values, spans, ledger events — is run state, rebuilt pristine by
/// [`DeviceConfig::instantiate`].
#[derive(Clone)]
pub struct DeviceConfig {
    /// Refcounted: forking a lab cell re-instantiates every device.
    label: Arc<str>,
    policy: PolicyHandle,
    /// The policy epoch the ledger takes as its baseline: the handle's
    /// epoch at construction or at the last [`TspuDevice::set_policy`].
    epoch_base: u64,
    /// The declarative censor spec this engine interprets: trigger set,
    /// action set, enforcement directions, residual windows, block page.
    profile: CensorProfile,
    failure: FailureProfile,
    /// Seeds the failure dice, so a rebuilt device replays them from the
    /// start.
    seed: u64,
    hardening: Hardening,
    /// Pre-provisioned flow-table capacity ([`TspuDevice::with_flow_capacity`]).
    flow_capacity: Option<usize>,
    /// Explicit shard count ([`TspuDevice::with_flow_shards`]); `None`
    /// auto-derives from capacity.
    flow_shards: Option<usize>,
    faults: DeviceFaults,
    violation: Option<ModelViolation>,
    /// Export names, `device.<label>.*`, shared with the device's forks.
    names: MetricNames,
    /// Whether the device records spans ([`TspuDevice::set_tracing`]).
    tracing: bool,
}

impl DeviceConfig {
    /// Builds a pristine device from this configuration. The result is
    /// byte-identical in behavior to `TspuDevice::new` with the same
    /// parameters followed by the same builder calls.
    pub fn instantiate(&self) -> TspuDevice {
        let mut tracer = Tracer::new();
        tracer.set_enabled(self.tracing);
        TspuDevice {
            conntrack: self.conntrack(),
            frag_cache: FragCache::new(FragConfig::default()),
            rng: SmallRng::seed_from_u64(self.seed),
            stats: DeviceStats::default(),
            tracer,
            restarts_applied: 0,
            reload_applied: false,
            recorder: FlightRecorder::new(self.epoch_base),
            config: self.clone(),
        }
    }

    /// An empty flow table of the configured capacity and shard count.
    fn conntrack(&self) -> ShardedConnTracker {
        match (self.flow_capacity, self.flow_shards) {
            (Some(flows), Some(shards)) => ShardedConnTracker::with_capacity_and_shards(flows, shards),
            (Some(flows), None) => ShardedConnTracker::with_capacity(flows),
            (None, _) => ShardedConnTracker::new(),
        }
    }
}

impl MiddleboxImage for DeviceConfig {
    fn instantiate(&self) -> Box<dyn Middlebox> {
        Box::new(DeviceConfig::instantiate(self))
    }
}
