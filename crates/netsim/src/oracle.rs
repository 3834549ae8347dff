//! The trace-invariant oracle: replays a capture and machine-checks the
//! paper's TSPU model invariants at every audited device, under *any*
//! fault schedule, so chaos runs fail loudly with the offending packet and
//! trace instead of producing quietly-wrong statistics.
//!
//! Invariants checked (each tied to its paper evidence):
//!
//! * **I1 — injection metadata (Fig. 2).** An injected RST/ACK preserves
//!   the victim packet's addresses, ports, sequence and acknowledgement
//!   numbers, and TTL, and carries no payload (§5.2: "other packet
//!   metadata, such as TTL, sequence and acknowledgement numbers, are not
//!   altered").
//! * **I2 — fragment forwarding (Fig. 3, §5.3.1).** Fragment trains are
//!   forwarded *unreassembled*, each flushed fragment byte-identical in
//!   payload to one the device ingressed, in nondecreasing offset order,
//!   with fragments 2..n carrying the offset-0 fragment's TTL.
//! * **I3 — residual bounds (Table 2).** Enforcement on a non-trigger
//!   packet (a drop or an injection) only happens while some arm of the
//!   flow's most recent trigger is within its residual window; enforcement
//!   after every window expired — or with no trigger ever — is a
//!   violation.
//! * **I4 — monotone verdicts (§5.3.3).** Once a flow is observed
//!   *enforcing* (first drop or injection — the gate that keeps the
//!   Table-1 exemption dice from producing false positives), it must not
//!   silently unblock before `min(residual window, the conservative state
//!   idle timeout)`, unless the device restarted in between.
//!
//! The oracle knows nothing about policies: a [`DeviceAudit`] carries
//! closures (built by `tspu-core` from the device's actual policy) that
//! classify trigger packets and stateless IP-blocking, plus the device's
//! restart schedule from its fault plan. That keeps the checker sound
//! under policy hot-reloads that only add rules (the March 4 transition):
//! a packet the *current* policy classifies as a trigger that the device
//! did not act on merely arms an audit window that never fires.

use std::fmt;
use std::net::Ipv4Addr;
use std::time::Duration;

use tspu_wire::fasthash::FxHashMap;
use tspu_wire::ipv4::{Ipv4Packet, Protocol};
use tspu_wire::tcp::TcpSegment;
use tspu_wire::udp::UdpDatagram;

use crate::capture::{CaptureRecord, TracePoint};
use crate::middlebox::MiddleboxId;
use crate::time::Time;

/// The blocking mechanisms a trigger can arm, as the oracle models them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArmKind {
    /// SNI-I: remote→local packets rewritten to RST/ACK.
    RstRewrite,
    /// SNI-II: an allowance of packets passes, then symmetric drops.
    DelayedDrop,
    /// SNI-III: token-bucket throttling — passes are always legitimate.
    Throttle,
    /// SNI-IV: every packet dropped, including the trigger.
    FullDrop,
    /// QUIC: every packet of the UDP flow dropped, including the trigger.
    QuicDrop,
    /// HTTP-200 block-page injection (India profile): remote→local
    /// payloads replaced with the audited device's block page.
    BlockPage,
}

impl ArmKind {
    fn paper_name(self) -> &'static str {
        match self {
            ArmKind::RstRewrite => "SNI-I",
            ArmKind::DelayedDrop => "SNI-II",
            ArmKind::Throttle => "SNI-III",
            ArmKind::FullDrop => "SNI-IV",
            ArmKind::QuicDrop => "QUIC",
            ArmKind::BlockPage => "HTTP-200",
        }
    }
}

/// One mechanism a trigger packet might arm, with its residual window
/// (Table 2 for the TSPU profile; profile-specific otherwise). A packet
/// can yield several candidates when the oracle cannot know which one the
/// device chose (role-dependent precedence); ambiguous flows get the
/// sound subset of checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArmCandidate {
    pub kind: ArmKind,
    pub window: Duration,
    /// Whether an injection verdict fires in both directions (the
    /// Turkmenistan profile) or only remote→local (TSPU SNI-I). Decides
    /// which untouched passes count as early unblocks (I4).
    pub bidirectional: bool,
}

/// Classifies a packet into the blocking mechanisms it could arm.
pub type ClassifyFn = Box<dyn Fn(&[u8]) -> Vec<ArmCandidate> + Send + Sync>;

/// Predicate over IPv4 addresses (IP-blocklist membership, locality).
pub type AddrPredicate = Box<dyn Fn(Ipv4Addr) -> bool + Send + Sync>;

/// How to audit one device: its id, policy-derived classification
/// closures, and its restart schedule.
pub struct DeviceAudit {
    /// The middlebox to audit. Other middleboxes in the capture (chaos
    /// links, NATs) are ignored.
    pub device: MiddleboxId,
    /// Label used in violation reports.
    pub label: String,
    /// The censor profile the device enforces ("tspu", "turkmenistan",
    /// "india", …) — named in violation reports so a differential
    /// campaign's failures identify the offending country model.
    pub profile: String,
    /// Classifies a local→remote packet: every blocking mechanism its
    /// payload could arm under the device's policy. Empty = not a trigger.
    pub classify: ClassifyFn,
    /// True for addresses under stateless IP-based blocking; flows
    /// touching them are exempt from the stateful checks (every packet is
    /// fair game for the device, with no arming required).
    pub ip_blocked: AddrPredicate,
    /// The exact block-page bytes this device injects, if its profile
    /// does. An egress whose TCP payload equals this (where the ingress
    /// payload did not) is a block-page injection and needs an in-window
    /// `BlockPage` arm.
    pub block_page: Option<Vec<u8>>,
    /// Virtual times at which the device restarted (from its fault plan):
    /// all flow and fragment audit state resets, exactly like the device's.
    pub restarts: Vec<Time>,
}

/// The full audit specification for one capture.
pub struct OracleSpec {
    pub devices: Vec<DeviceAudit>,
    /// Which addresses are on the local (client-network) side — decides
    /// packet direction, since trace points do not carry it.
    pub is_local_addr: AddrPredicate,
    /// Conservative lower bound on conntrack idle timeouts: enforcement is
    /// only *required* (I4) within this long of the arm, because a frozen
    /// flow entry may legitimately expire afterwards. The TSPU's shortest
    /// state timeout is 60 s.
    pub min_state_timeout: Duration,
}

impl OracleSpec {
    /// A spec with the default 60 s conservative state-timeout bound.
    pub fn new(is_local_addr: impl Fn(Ipv4Addr) -> bool + Send + Sync + 'static) -> OracleSpec {
        OracleSpec {
            devices: Vec::new(),
            is_local_addr: Box::new(is_local_addr),
            min_state_timeout: Duration::from_secs(60),
        }
    }
}

/// One detected model violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// I1: an injected RST/ACK altered metadata the model preserves.
    InjectedRstMetadata { field: &'static str, expected: u64, actual: u64 },
    /// I2: a flushed train left the device out of offset order.
    FragmentOrder { prev_offset: usize, offset: usize },
    /// I2: a flushed fragment does not match any ingressed fragment
    /// byte-for-byte (reassembled, rewritten, or fabricated).
    FragmentModified { offset: usize },
    /// I2: a non-first fragment left without the offset-0 fragment's TTL.
    FragmentTtl { offset: usize, expected: u8, actual: u8 },
    /// I3: enforcement observed after every residual window of the flow's
    /// last trigger had expired.
    ResidualExceeded { armed_at: Time, window: Duration },
    /// I3: a drop on a flow that no trigger ever armed.
    UnexplainedDrop,
    /// I3: an injection on a flow with no RST-arming trigger.
    UnexplainedInjection,
    /// I3: a block page injected on a flow no trigger armed for
    /// `BlockPage`, or outside the armed window.
    UnexplainedBlockPage,
    /// I4: a flow observed enforcing passed a packet untouched before its
    /// residual window (clipped by the state timeout) could have expired.
    EarlyUnblock { kind: ArmKind, armed_at: Time, deadline: Time },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::InjectedRstMetadata { field, expected, actual } => write!(
                f,
                "injected RST/ACK altered {field}: expected {expected}, got {actual} (Fig. 2 metadata preservation)"
            ),
            Violation::FragmentOrder { prev_offset, offset } => write!(
                f,
                "fragment flushed out of offset order: offset {offset} after {prev_offset} (Fig. 3)"
            ),
            Violation::FragmentModified { offset } => write!(
                f,
                "flushed fragment at offset {offset} matches no ingressed fragment — train was reassembled or rewritten"
            ),
            Violation::FragmentTtl { offset, expected, actual } => write!(
                f,
                "fragment at offset {offset} flushed with TTL {actual}, expected first fragment's TTL {expected} (§7.2)"
            ),
            Violation::ResidualExceeded { armed_at, window } => write!(
                f,
                "enforcement {:.0} s after the trigger at {armed_at}, beyond the {:.0} s Table-2 residual",
                window.as_secs_f64(),
                window.as_secs_f64()
            ),
            Violation::UnexplainedDrop => {
                write!(f, "packet consumed by the device with no armed verdict on its flow")
            }
            Violation::UnexplainedInjection => {
                write!(f, "RST/ACK injected on a flow no trigger armed for SNI-I")
            }
            Violation::UnexplainedBlockPage => {
                write!(f, "HTTP-200 block page injected on a flow no trigger armed")
            }
            Violation::EarlyUnblock { kind, armed_at, deadline } => write!(
                f,
                "{} verdict armed at {armed_at} stopped enforcing before {deadline} (monotonicity)",
                kind.paper_name()
            ),
        }
    }
}

/// A violation plus the minimal offending trace: the device call's capture
/// records (ingress and every egress) around the packet that broke the
/// invariant.
pub struct ViolationReport {
    pub violation: Violation,
    pub device: MiddleboxId,
    pub device_label: String,
    /// The censor profile the offending device enforces — so a
    /// differential campaign's failures name the country model at fault.
    pub profile: String,
    pub time: Time,
    /// The packet the check fired on (the offending egress for I1/I2, the
    /// ingress for I3/I4).
    pub packet: Vec<u8>,
    /// The full device call: ingress record followed by its egresses.
    pub trace: Vec<CaptureRecord>,
    /// The device's metric counters that moved over the audited run
    /// (`(name, delta)` pairs), attached via
    /// [`OracleReport::attach_device_counters`] so a violation names both
    /// the packet *and* the counter behind the decision. Empty until
    /// attached.
    pub counters_moved: Vec<(String, u64)>,
    /// The offending device's last flight-recorder ledger events for the
    /// offending flow (rendered lines, oldest first), attached via
    /// [`OracleReport::attach_device_ledger`] — the enforcement history
    /// that explains *why* the device held the verdict it did. Empty until
    /// attached.
    pub ledger: Vec<String>,
}

impl fmt::Display for ViolationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "[{}/{}] at {}: {}",
            self.device_label, self.profile, self.time, self.violation
        )?;
        writeln!(f, "  offending packet: {}", summarize_packet(&self.packet))?;
        for record in &self.trace {
            let direction = match record.point {
                TracePoint::DeviceIngress { .. } => "ingress",
                TracePoint::DeviceEgress { .. } => " egress",
                _ => "  other",
            };
            writeln!(f, "  {direction} {} {}", record.time, summarize_packet(&record.bytes))?;
        }
        if !self.counters_moved.is_empty() {
            write!(f, "  counters moved:")?;
            for (name, delta) in &self.counters_moved {
                write!(f, " {name}=+{delta}")?;
            }
            writeln!(f)?;
        }
        if !self.ledger.is_empty() {
            writeln!(f, "  enforcement ledger (oldest first):")?;
            for line in &self.ledger {
                writeln!(f, "    {line}")?;
            }
        }
        Ok(())
    }
}

/// The oracle's verdict on one capture.
pub struct OracleReport {
    pub violations: Vec<ViolationReport>,
    /// Device calls audited (ingress records of audited devices).
    pub calls_audited: u64,
    /// RST/ACK injections whose metadata was checked (I1).
    pub injections_checked: u64,
    /// Fragment flushes checked (I2).
    pub flushes_checked: u64,
    /// Flows that armed at least one audit window.
    pub flows_armed: u64,
}

impl OracleReport {
    /// True when no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Attaches per-device metric movement to every violation: `lookup`
    /// maps a device id to its `(name, delta)` counter list (typically a
    /// `tspu_obs` snapshot delta over the audited run). Violations whose
    /// device has no entry are left untouched.
    pub fn attach_device_counters<F>(&mut self, mut lookup: F)
    where
        F: FnMut(MiddleboxId) -> Option<Vec<(String, u64)>>,
    {
        for violation in &mut self.violations {
            if let Some(counters) = lookup(violation.device) {
                violation.counters_moved = counters;
            }
        }
    }

    /// Attaches each violation's flight-recorder ledger: `lookup` maps the
    /// offending device id and packet to the device's last ledger events
    /// for that packet's flow (rendered lines, oldest first — typically
    /// `TspuDevice::ledger_for_packet` through the lab). The arming event
    /// behind a residual/monotonicity violation then appears verbatim in
    /// the report.
    pub fn attach_device_ledger<F>(&mut self, mut lookup: F)
    where
        F: FnMut(MiddleboxId, &[u8]) -> Vec<String>,
    {
        for violation in &mut self.violations {
            violation.ledger = lookup(violation.device, &violation.packet);
        }
    }
}

impl fmt::Display for OracleReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "oracle: {} calls, {} injections, {} flushes, {} armed flows, {} violation(s)",
            self.calls_audited,
            self.injections_checked,
            self.flushes_checked,
            self.flows_armed,
            self.violations.len()
        )?;
        for report in &self.violations {
            write!(f, "{report}")?;
        }
        Ok(())
    }
}

/// One device call reconstructed from the capture: an ingress record and
/// the contiguous egress records that followed it.
struct Call<'a> {
    time: Time,
    ingress_idx: usize,
    input: &'a [u8],
    outputs: Vec<&'a [u8]>,
    /// Index one past the last record of this call, for trace extraction.
    end_idx: usize,
}

/// Direction-normalized 5-tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct TupleKey {
    local: (Ipv4Addr, u16),
    remote: (Ipv4Addr, u16),
    protocol: u8,
}

/// Per-flow audit state on one device.
#[derive(Debug, Default)]
struct FlowAudit {
    /// Candidates of the flow's most recent trigger (the device replaces
    /// the block on re-trigger, so only the latest arm matters).
    arms: Vec<ArmCandidate>,
    armed_at: Option<Time>,
    /// Enforcement observed since the last arm — the exemption-dice gate.
    enforcing: bool,
}

/// Ingressed fragments of one train: offset → (ttl, payload).
type FragTrain = FxHashMap<usize, (u8, Vec<u8>)>;

/// Per-device audit state.
struct DeviceState {
    flows: FxHashMap<TupleKey, FlowAudit>,
    /// Ingressed fragment trains, keyed by (src, dst, ident).
    frags: FxHashMap<(Ipv4Addr, Ipv4Addr, u16), FragTrain>,
    /// Restarts not yet applied, sorted ascending.
    pending_restarts: Vec<Time>,
}

/// The trace-invariant oracle. Build one from a spec, then [`Oracle::check`]
/// any capture the simulator produced.
pub struct Oracle {
    spec: OracleSpec,
}

impl Oracle {
    pub fn new(spec: OracleSpec) -> Oracle {
        Oracle { spec }
    }

    /// Replays `captures` and returns every invariant violation found.
    pub fn check(&self, captures: &[CaptureRecord]) -> OracleReport {
        let mut report = OracleReport {
            violations: Vec::new(),
            calls_audited: 0,
            injections_checked: 0,
            flushes_checked: 0,
            flows_armed: 0,
        };
        for audit in &self.spec.devices {
            let mut restarts = audit.restarts.clone();
            restarts.sort();
            let mut state = DeviceState {
                flows: FxHashMap::default(),
                frags: FxHashMap::default(),
                pending_restarts: restarts,
            };
            let mut idx = 0;
            while idx < captures.len() {
                let Some(call) = next_call(captures, &mut idx, audit.device) else {
                    break;
                };
                // A restart wipes conntrack and the fragment cache; the
                // device applies it lazily at its next packet, so the
                // audit state resets the same way.
                while state
                    .pending_restarts
                    .first()
                    .is_some_and(|&r| r <= call.time)
                {
                    state.pending_restarts.remove(0);
                    state.flows.clear();
                    state.frags.clear();
                }
                report.calls_audited += 1;
                self.check_call(audit, &mut state, &call, captures, &mut report);
            }
            report.flows_armed += state.flows.values().filter(|fa| fa.armed_at.is_some()).count() as u64;
        }
        report
    }

    fn check_call(
        &self,
        audit: &DeviceAudit,
        state: &mut DeviceState,
        call: &Call<'_>,
        captures: &[CaptureRecord],
        report: &mut OracleReport,
    ) {
        let Ok(ip) = Ipv4Packet::new_checked(call.input) else {
            return; // not IPv4: the device passes it untouched
        };
        if ip.is_fragment() {
            self.check_fragment_call(audit, state, call, &ip, captures, report);
            return;
        }
        let (src, dst) = (ip.src_addr(), ip.dst_addr());
        // Stateless IP-based blocking: every packet of such flows is fair
        // game (drops and RST rewrites need no arming). I1 still applies.
        let ip_block = (audit.ip_blocked)(src) || (audit.ip_blocked)(dst);

        let tuple;
        let src_is_local = (self.spec.is_local_addr)(src);
        let mut input_is_rst = false;
        let mut input_payload_len = 0;
        match ip.protocol() {
            Protocol::Tcp => {
                let Ok(tcp) = TcpSegment::new_checked(ip.payload()) else {
                    return; // device passes unparseable TCP untouched
                };
                input_is_rst = tcp.flags().rst();
                input_payload_len = tcp.payload().len();
                tuple = tuple_key(src_is_local, src, tcp.src_port(), dst, tcp.dst_port(), 6);
            }
            Protocol::Udp => {
                let Ok(udp) = UdpDatagram::new_checked(ip.payload()) else {
                    return;
                };
                tuple = tuple_key(src_is_local, src, udp.src_port(), dst, udp.dst_port(), 17);
            }
            _ => return, // ICMP and others: only stateless IP blocking applies
        }

        // I1: any output that is a TCP RST where the input was not.
        let mut injected = false;
        if !input_is_rst && ip.protocol() == Protocol::Tcp {
            for output in &call.outputs {
                if let Some(fields) = parse_tcp_fields(output) {
                    if fields.rst {
                        injected = true;
                        report.injections_checked += 1;
                        self.check_injection_metadata(audit, call, &ip, output, captures, report);
                    }
                }
            }
        }

        // I3: an egress whose TCP payload equals the device's block page,
        // where the ingress payload did not, is a block-page injection.
        // (A device forwarding a page injected *upstream* — the India
        // cross-ISP leakage topology — has page bytes on its ingress too
        // and is not charged with the injection.)
        let mut paged = false;
        if let Some(page) = &audit.block_page {
            if ip.protocol() == Protocol::Tcp && !tcp_payload_is(call.input, page) {
                paged = call.outputs.iter().any(|o| tcp_payload_is(o, page));
            }
        }

        if ip_block {
            return;
        }

        // Trigger classification (local→remote packets only — the TSPU
        // honors triggers only from the local side, §5.3.2).
        let candidates = if src_is_local { (audit.classify)(call.input) } else { Vec::new() };
        let dropped = call.outputs.is_empty();
        if !candidates.is_empty() {
            // The device replaces any existing verdict on re-trigger; the
            // allowance and enforcement evidence reset with it.
            let flow = state.flows.entry(tuple).or_default();
            flow.arms = candidates;
            flow.armed_at = Some(call.time);
            flow.enforcing = dropped; // SNI-IV / QUIC eat the trigger itself
            return;
        }

        let flow = state.flows.entry(tuple).or_default();
        if dropped {
            match flow.armed_at {
                None => self.violation(report, audit, call, captures, call.input, Violation::UnexplainedDrop),
                Some(armed_at) => {
                    let active = flow.arms.iter().any(|a| call.time <= armed_at + a.window);
                    if active {
                        flow.enforcing = true;
                    } else {
                        let window = flow.arms.iter().map(|a| a.window).max().unwrap_or_default();
                        self.violation(
                            report,
                            audit,
                            call,
                            captures,
                            call.input,
                            Violation::ResidualExceeded { armed_at, window },
                        );
                    }
                }
            }
        } else if paged {
            let page_arm = flow.arms.iter().find(|a| a.kind == ArmKind::BlockPage).copied();
            match (flow.armed_at, page_arm) {
                (Some(armed_at), Some(arm)) => {
                    if call.time <= armed_at + arm.window {
                        flow.enforcing = true;
                    } else {
                        self.violation(
                            report,
                            audit,
                            call,
                            captures,
                            call.input,
                            Violation::ResidualExceeded { armed_at, window: arm.window },
                        );
                    }
                }
                _ => self.violation(
                    report,
                    audit,
                    call,
                    captures,
                    call.input,
                    Violation::UnexplainedBlockPage,
                ),
            }
        } else if injected {
            let rst_arm = flow.arms.iter().find(|a| a.kind == ArmKind::RstRewrite).copied();
            match (flow.armed_at, rst_arm) {
                (Some(armed_at), Some(arm)) => {
                    if call.time <= armed_at + arm.window {
                        flow.enforcing = true;
                    } else {
                        self.violation(
                            report,
                            audit,
                            call,
                            captures,
                            call.input,
                            Violation::ResidualExceeded { armed_at, window: arm.window },
                        );
                    }
                }
                _ => self.violation(
                    report,
                    audit,
                    call,
                    captures,
                    call.input,
                    Violation::UnexplainedInjection,
                ),
            }
        } else {
            // The packet passed untouched. Only flag when the verdict is
            // unambiguous, enforcement was already observed, and the state
            // timeout cannot have expired the flow yet (I4).
            if let (Some(armed_at), true, [arm]) = (flow.armed_at, flow.enforcing, flow.arms.as_slice())
            {
                let deadline = armed_at + arm.window.min(self.spec.min_state_timeout);
                let kind_applies = match arm.kind {
                    ArmKind::FullDrop | ArmKind::QuicDrop | ArmKind::DelayedDrop => true,
                    // SNI-I rewrites only remote→local packets; a
                    // bidirectional arm (Turkmenistan) must also rewrite
                    // the local→remote direction.
                    ArmKind::RstRewrite => arm.bidirectional || !src_is_local,
                    // The page replaces remote→local payloads; empty
                    // segments (pure ACKs) pass untouched.
                    ArmKind::BlockPage => !src_is_local && input_payload_len > 0,
                    // A policer admits packets whenever its bucket refills.
                    ArmKind::Throttle => false,
                };
                if kind_applies && call.time <= deadline {
                    let violation =
                        Violation::EarlyUnblock { kind: arm.kind, armed_at, deadline };
                    self.violation(report, audit, call, captures, call.input, violation);
                }
            }
        }
    }

    /// I1: the injected RST/ACK must preserve addresses, ports, seq, ack,
    /// and TTL, and carry no payload.
    fn check_injection_metadata(
        &self,
        audit: &DeviceAudit,
        call: &Call<'_>,
        ingress: &Ipv4Packet<&[u8]>,
        output: &[u8],
        captures: &[CaptureRecord],
        report: &mut OracleReport,
    ) {
        let Some(out) = parse_tcp_fields(output) else { return };
        let Ok(in_tcp) = TcpSegment::new_checked(ingress.payload()) else { return };
        let checks: [(&'static str, u64, u64); 7] = [
            ("src addr", u32::from(ingress.src_addr()) as u64, u32::from(out.src) as u64),
            ("dst addr", u32::from(ingress.dst_addr()) as u64, u32::from(out.dst) as u64),
            ("src port", in_tcp.src_port() as u64, out.src_port as u64),
            ("dst port", in_tcp.dst_port() as u64, out.dst_port as u64),
            ("seq", in_tcp.seq_number() as u64, out.seq as u64),
            ("ack", in_tcp.ack_number() as u64, out.ack as u64),
            ("ttl", ingress.ttl() as u64, out.ttl as u64),
        ];
        for (field, expected, actual) in checks {
            if expected != actual {
                self.violation(
                    report,
                    audit,
                    call,
                    captures,
                    output,
                    Violation::InjectedRstMetadata { field, expected, actual },
                );
            }
        }
        if out.payload_len != 0 {
            self.violation(
                report,
                audit,
                call,
                captures,
                output,
                Violation::InjectedRstMetadata {
                    field: "payload length",
                    expected: 0,
                    actual: out.payload_len as u64,
                },
            );
        }
    }

    /// I2: fragment calls — record ingresses, check flushes.
    fn check_fragment_call(
        &self,
        audit: &DeviceAudit,
        state: &mut DeviceState,
        call: &Call<'_>,
        ip: &Ipv4Packet<&[u8]>,
        captures: &[CaptureRecord],
        report: &mut OracleReport,
    ) {
        let (src, dst) = (ip.src_addr(), ip.dst_addr());
        if (audit.ip_blocked)(src) || (audit.ip_blocked)(dst) {
            return; // dropped statelessly before the cache
        }
        let key = (src, dst, ip.ident());
        state
            .frags
            .entry(key)
            .or_default()
            .insert(ip.frag_offset(), (ip.ttl(), ip.payload().to_vec()));

        if call.outputs.is_empty() {
            return; // buffered (or poisoned) — nothing to check yet
        }
        report.flushes_checked += 1;

        let recorded = state.frags.get(&key).cloned().unwrap_or_default();
        // The expected TTL for fragments 2..n is the offset-0 fragment's
        // ingress TTL; with no offset-0 in the flush, fragments keep their
        // own TTLs (the cache found no first fragment to copy from).
        let flushed_has_first = call
            .outputs
            .iter()
            .filter_map(|o| Ipv4Packet::new_checked(*o).ok())
            .any(|v| v.is_fragment() && v.frag_offset() == 0);
        let first_ttl = recorded.get(&0).map(|(ttl, _)| *ttl);

        let mut prev_offset: Option<usize> = None;
        for output in &call.outputs {
            let Ok(out) = Ipv4Packet::new_checked(*output) else {
                self.violation(
                    report,
                    audit,
                    call,
                    captures,
                    output,
                    Violation::FragmentModified { offset: 0 },
                );
                continue;
            };
            if !out.is_fragment() {
                // A whole datagram left where fragments entered: the train
                // was reassembled — exactly what the TSPU never does.
                self.violation(
                    report,
                    audit,
                    call,
                    captures,
                    output,
                    Violation::FragmentModified { offset: out.frag_offset() },
                );
                continue;
            }
            let offset = out.frag_offset();
            if let Some(prev) = prev_offset {
                if offset < prev {
                    self.violation(
                        report,
                        audit,
                        call,
                        captures,
                        output,
                        Violation::FragmentOrder { prev_offset: prev, offset },
                    );
                }
            }
            prev_offset = Some(offset);

            match recorded.get(&offset) {
                None => self.violation(
                    report,
                    audit,
                    call,
                    captures,
                    output,
                    Violation::FragmentModified { offset },
                ),
                Some((ingress_ttl, payload)) => {
                    if out.payload() != &payload[..]
                        || out.src_addr() != src
                        || out.dst_addr() != dst
                        || out.ident() != key.2
                    {
                        self.violation(
                            report,
                            audit,
                            call,
                            captures,
                            output,
                            Violation::FragmentModified { offset },
                        );
                    }
                    let expected_ttl = if offset == 0 {
                        *ingress_ttl
                    } else if flushed_has_first {
                        first_ttl.unwrap_or(*ingress_ttl)
                    } else {
                        *ingress_ttl
                    };
                    if out.ttl() != expected_ttl {
                        self.violation(
                            report,
                            audit,
                            call,
                            captures,
                            output,
                            Violation::FragmentTtl {
                                offset,
                                expected: expected_ttl,
                                actual: out.ttl(),
                            },
                        );
                    }
                }
            }
        }
        // The train left the device; its audit record is spent.
        state.frags.remove(&key);
    }

    fn violation(
        &self,
        report: &mut OracleReport,
        audit: &DeviceAudit,
        call: &Call<'_>,
        captures: &[CaptureRecord],
        packet: &[u8],
        violation: Violation,
    ) {
        report.violations.push(ViolationReport {
            violation,
            device: audit.device,
            device_label: audit.label.clone(),
            profile: audit.profile.clone(),
            time: call.time,
            packet: packet.to_vec(),
            trace: captures[call.ingress_idx..call.end_idx].to_vec(),
            counters_moved: Vec::new(),
            ledger: Vec::new(),
        });
    }
}

/// Advances `idx` to the next call of `device` and reconstructs it: the
/// ingress record plus the contiguous egress records that follow (the
/// event loop is synchronous, so a call's records are never interleaved
/// with anything else).
fn next_call<'a>(
    captures: &'a [CaptureRecord],
    idx: &mut usize,
    device: MiddleboxId,
) -> Option<Call<'a>> {
    while *idx < captures.len() {
        let i = *idx;
        *idx += 1;
        let TracePoint::DeviceIngress { device: d, step } = captures[i].point else {
            continue;
        };
        if d != device {
            continue;
        }
        let mut outputs = Vec::new();
        let mut end = i + 1;
        while end < captures.len() {
            match captures[end].point {
                TracePoint::DeviceEgress { device: d2, step: s2 } if d2 == device && s2 == step => {
                    outputs.push(&captures[end].bytes[..]);
                    end += 1;
                }
                _ => break,
            }
        }
        *idx = end;
        return Some(Call {
            time: captures[i].time,
            ingress_idx: i,
            input: &captures[i].bytes,
            outputs,
            end_idx: end,
        });
    }
    None
}

fn tuple_key(
    src_is_local: bool,
    src: Ipv4Addr,
    src_port: u16,
    dst: Ipv4Addr,
    dst_port: u16,
    protocol: u8,
) -> TupleKey {
    if src_is_local {
        TupleKey { local: (src, src_port), remote: (dst, dst_port), protocol }
    } else {
        TupleKey { local: (dst, dst_port), remote: (src, src_port), protocol }
    }
}

struct TcpFields {
    src: Ipv4Addr,
    dst: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    seq: u32,
    ack: u32,
    ttl: u8,
    rst: bool,
    payload_len: usize,
}

fn parse_tcp_fields(packet: &[u8]) -> Option<TcpFields> {
    let ip = Ipv4Packet::new_checked(packet).ok()?;
    if ip.protocol() != Protocol::Tcp || ip.is_fragment() {
        return None;
    }
    let tcp = TcpSegment::new_checked(ip.payload()).ok()?;
    Some(TcpFields {
        src: ip.src_addr(),
        dst: ip.dst_addr(),
        src_port: tcp.src_port(),
        dst_port: tcp.dst_port(),
        seq: tcp.seq_number(),
        ack: tcp.ack_number(),
        ttl: ip.ttl(),
        rst: tcp.flags().rst(),
        payload_len: tcp.payload().len(),
    })
}

/// Whether `packet` is an unfragmented IPv4/TCP packet whose TCP payload
/// equals `page` byte-for-byte.
fn tcp_payload_is(packet: &[u8], page: &[u8]) -> bool {
    let Ok(ip) = Ipv4Packet::new_checked(packet) else { return false };
    if ip.protocol() != Protocol::Tcp || ip.is_fragment() {
        return false;
    }
    let Ok(tcp) = TcpSegment::new_checked(ip.payload()) else { return false };
    tcp.payload() == page
}

/// One line describing a packet, for violation reports.
fn summarize_packet(bytes: &[u8]) -> String {
    let Ok(ip) = Ipv4Packet::new_checked(bytes) else {
        return format!("<unparseable, {} bytes>", bytes.len());
    };
    if ip.is_fragment() {
        return format!(
            "frag {} -> {} ident={} offset={} mf={} ttl={} len={}",
            ip.src_addr(),
            ip.dst_addr(),
            ip.ident(),
            ip.frag_offset(),
            ip.more_fragments(),
            ip.ttl(),
            bytes.len()
        );
    }
    match ip.protocol() {
        Protocol::Tcp => match TcpSegment::new_checked(ip.payload()) {
            Ok(tcp) => format!(
                "tcp {}:{} -> {}:{} {:?} seq={} ack={} ttl={} payload={}",
                ip.src_addr(),
                tcp.src_port(),
                ip.dst_addr(),
                tcp.dst_port(),
                tcp.flags(),
                tcp.seq_number(),
                tcp.ack_number(),
                ip.ttl(),
                tcp.payload().len()
            ),
            Err(_) => format!("tcp {} -> {} <bad header>", ip.src_addr(), ip.dst_addr()),
        },
        Protocol::Udp => match UdpDatagram::new_checked(ip.payload()) {
            Ok(udp) => format!(
                "udp {}:{} -> {}:{} ttl={} payload={}",
                ip.src_addr(),
                udp.src_port(),
                ip.dst_addr(),
                udp.dst_port(),
                ip.ttl(),
                udp.payload().len()
            ),
            Err(_) => format!("udp {} -> {} <bad header>", ip.src_addr(), ip.dst_addr()),
        },
        proto => format!("{proto:?} {} -> {} ttl={}", ip.src_addr(), ip.dst_addr(), ip.ttl()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tspu_wire::ipv4::Ipv4Repr;
    use tspu_wire::tcp::{TcpFlags, TcpRepr};

    const LOCAL: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const REMOTE: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 9);
    const DEV: MiddleboxId = MiddleboxId(0);

    #[allow(clippy::too_many_arguments)]
    fn tcp_packet(
        src: Ipv4Addr,
        src_port: u16,
        dst: Ipv4Addr,
        dst_port: u16,
        flags: TcpFlags,
        seq: u32,
        ack: u32,
        ttl: u8,
        payload: &[u8],
    ) -> Vec<u8> {
        let mut tcp = TcpRepr::new(src_port, dst_port, flags);
        tcp.seq_number = seq;
        tcp.ack_number = ack;
        tcp.payload = payload.to_vec();
        let segment = tcp.build(src, dst);
        let mut ip = Ipv4Repr::new(src, dst, Protocol::Tcp, segment.len());
        ip.ttl = ttl;
        ip.build(&segment)
    }

    fn ingress(t: u64, bytes: Vec<u8>) -> CaptureRecord {
        CaptureRecord {
            time: Time::from_micros(t),
            point: TracePoint::DeviceIngress { device: DEV, step: 0 },
            bytes,
        }
    }

    fn egress(t: u64, bytes: Vec<u8>) -> CaptureRecord {
        CaptureRecord {
            time: Time::from_micros(t),
            point: TracePoint::DeviceEgress { device: DEV, step: 0 },
            bytes,
        }
    }

    fn spec_no_triggers() -> OracleSpec {
        let mut spec = OracleSpec::new(|addr: Ipv4Addr| addr.octets()[0] == 10);
        spec.devices.push(DeviceAudit {
            device: DEV,
            label: "dev".into(),
            profile: "tspu".into(),
            classify: Box::new(|_| Vec::new()),
            ip_blocked: Box::new(|_| false),
            block_page: None,
            restarts: Vec::new(),
        });
        spec
    }

    #[test]
    fn clean_passthrough_is_clean() {
        let pkt = tcp_packet(LOCAL, 40000, REMOTE, 443, TcpFlags::SYN, 1, 0, 63, &[]);
        let captures = vec![ingress(0, pkt.clone()), egress(0, pkt)];
        let report = Oracle::new(spec_no_triggers()).check(&captures);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.calls_audited, 1);
    }

    #[test]
    fn good_injection_metadata_accepted() {
        // A response from the remote rewritten to RST/ACK, all metadata kept.
        let response = tcp_packet(REMOTE, 443, LOCAL, 40000, TcpFlags::SYN_ACK, 500, 2, 60, &[]);
        let rewritten =
            tcp_packet(REMOTE, 443, LOCAL, 40000, TcpFlags::RST_ACK, 500, 2, 60, &[]);
        // The flow needs an RST arm: classify the *local* trigger.
        let mut spec = OracleSpec::new(|addr: Ipv4Addr| addr.octets()[0] == 10);
        spec.devices.push(DeviceAudit {
            device: DEV,
            label: "dev".into(),
            profile: "tspu".into(),
            classify: Box::new(|bytes| {
                let ip = Ipv4Packet::new_checked(bytes).unwrap();
                let tcp = TcpSegment::new_checked(ip.payload()).unwrap();
                if tcp.payload().is_empty() {
                    Vec::new()
                } else {
                    vec![ArmCandidate {
                        kind: ArmKind::RstRewrite,
                        window: Duration::from_secs(75),
                        bidirectional: false,
                    }]
                }
            }),
            ip_blocked: Box::new(|_| false),
            block_page: None,
            restarts: Vec::new(),
        });
        let hello = tcp_packet(LOCAL, 40000, REMOTE, 443, TcpFlags::PSH_ACK, 2, 500, 63, b"hello");
        let captures = vec![
            ingress(0, hello.clone()),
            egress(0, hello),
            ingress(10, response),
            egress(10, rewritten),
        ];
        let report = Oracle::new(spec).check(&captures);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.injections_checked, 1);
    }

    #[test]
    fn fresh_ttl_on_injected_rst_is_flagged() {
        let response = tcp_packet(REMOTE, 443, LOCAL, 40000, TcpFlags::SYN_ACK, 500, 2, 60, &[]);
        // The model violation: injected RST with a fresh TTL of 64.
        let rewritten =
            tcp_packet(REMOTE, 443, LOCAL, 40000, TcpFlags::RST_ACK, 500, 2, 64, &[]);
        let captures = vec![ingress(0, response), egress(0, rewritten)];
        let report = Oracle::new(spec_no_triggers()).check(&captures);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v.violation, Violation::InjectedRstMetadata { field: "ttl", .. })));
        // The report carries the offending packet and its call trace.
        let offending = &report.violations[0];
        assert_eq!(offending.trace.len(), 2);
        assert!(format!("{offending}").contains("ttl"));
    }

    #[test]
    fn unexplained_drop_is_flagged() {
        let pkt = tcp_packet(LOCAL, 40001, REMOTE, 443, TcpFlags::PSH_ACK, 9, 1, 62, b"data");
        let captures = vec![ingress(0, pkt)];
        let report = Oracle::new(spec_no_triggers()).check(&captures);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v.violation, Violation::UnexplainedDrop)));
    }

    #[test]
    fn restart_forgives_lost_state() {
        // Armed flow stops being enforced after a device restart: no
        // violation, because the restart wiped conntrack.
        let mut spec = OracleSpec::new(|addr: Ipv4Addr| addr.octets()[0] == 10);
        spec.devices.push(DeviceAudit {
            device: DEV,
            label: "dev".into(),
            profile: "tspu".into(),
            classify: Box::new(|bytes| {
                let ip = Ipv4Packet::new_checked(bytes).unwrap();
                let tcp = TcpSegment::new_checked(ip.payload()).unwrap();
                if tcp.payload().is_empty() {
                    Vec::new()
                } else {
                    vec![ArmCandidate {
                        kind: ArmKind::FullDrop,
                        window: Duration::from_secs(40),
                        bidirectional: false,
                    }]
                }
            }),
            ip_blocked: Box::new(|_| false),
            block_page: None,
            restarts: vec![Time::from_secs(5)],
        });
        let hello = tcp_packet(LOCAL, 40000, REMOTE, 443, TcpFlags::PSH_ACK, 2, 1, 63, b"x");
        let follow = tcp_packet(LOCAL, 40000, REMOTE, 443, TcpFlags::ACK, 3, 1, 63, &[]);
        let captures = vec![
            // Trigger dropped (SNI-IV eats it): flow enforcing.
            ingress(0, hello),
            // After the restart the same flow passes — legitimate.
            ingress(10_000_000, follow.clone()),
            egress(10_000_000, follow),
        ];
        let report = Oracle::new(spec).check(&captures);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn early_unblock_without_restart_is_flagged() {
        let mut spec = OracleSpec::new(|addr: Ipv4Addr| addr.octets()[0] == 10);
        spec.devices.push(DeviceAudit {
            device: DEV,
            label: "dev".into(),
            profile: "tspu".into(),
            classify: Box::new(|bytes| {
                let ip = Ipv4Packet::new_checked(bytes).unwrap();
                let tcp = TcpSegment::new_checked(ip.payload()).unwrap();
                if tcp.payload().is_empty() {
                    Vec::new()
                } else {
                    vec![ArmCandidate {
                        kind: ArmKind::FullDrop,
                        window: Duration::from_secs(40),
                        bidirectional: false,
                    }]
                }
            }),
            ip_blocked: Box::new(|_| false),
            block_page: None,
            restarts: Vec::new(),
        });
        let hello = tcp_packet(LOCAL, 40000, REMOTE, 443, TcpFlags::PSH_ACK, 2, 1, 63, b"x");
        let follow = tcp_packet(LOCAL, 40000, REMOTE, 443, TcpFlags::ACK, 3, 1, 63, &[]);
        let captures = vec![
            ingress(0, hello),
            ingress(10_000_000, follow.clone()),
            egress(10_000_000, follow),
        ];
        let report = Oracle::new(spec).check(&captures);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v.violation, Violation::EarlyUnblock { kind: ArmKind::FullDrop, .. })));
    }
}
