//! Deterministic population workload: who connects where, and when.
//!
//! A [`LoadProfile`] describes a population statistically — flow count,
//! Zipf exponent over the domain universe, diurnal rate curve, open/closed
//! loop mix — and [`build_schedule`] expands it into per-client flow
//! schedules that are a pure function of the seed. The simulator then
//! replays the schedule through [`LoadClientApp`]/[`LoadServerApp`], which
//! drive full SYN → ClientHello → response → FIN lifecycles against the
//! device under test.
//!
//! ## Arrival model
//!
//! Open-loop arrivals follow a deterministic quantile schedule of the
//! inhomogeneous rate λ(t) = r₀·(1 + A·sin(2πt/P)): flow k starts at
//! Λ⁻¹(k + ½) where Λ is the integrated rate. That reproduces the diurnal
//! swell-and-ebb the paper's vantage ISPs see (peak-hour load is what
//! sizes a TSPU's flow table) without injecting Poisson jitter that would
//! make two runs of the same seed diverge.
//!
//! Λ⁻¹ is defined by a 52-step bisection, truncated to whole
//! microseconds. Each arrival is taken by Newton's method instead,
//! started from the previous one, and the bisection is the exact
//! fallback: it runs whenever Newton's root is not pinned to within half a
//! nanosecond or lies within a nanosecond of a whole microsecond, so every
//! arrival is the bisection's.
//!
//! Closed-loop clients instead keep a bounded window of in-flight flows
//! and launch a replacement the moment one completes — the feedback
//! regime where a slow or blocking middlebox self-throttles its own
//! offered load.

use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tspu_netsim::{Application, Output, Time};
use tspu_stack::craft::TcpPacketSpec;
use tspu_wire::ipv4::{Ipv4Packet, Protocol};
use tspu_wire::tcp::{TcpFlags, TcpSegment};
use tspu_wire::tls::ClientHelloBuilder;

use crate::zipf::ZipfSampler;

/// Statistical description of a traffic population.
#[derive(Debug, Clone)]
pub struct LoadProfile {
    /// Everything below is a pure function of this seed.
    pub seed: u64,
    /// Total flows to generate (open + closed loop).
    pub flows: usize,
    /// Client hosts the flows are spread across.
    pub clients: usize,
    /// Domain universe size the Zipf sampler draws from.
    pub universe_domains: usize,
    /// Zipf exponent; ≈1 is the classic web-popularity shape.
    pub zipf_exponent: f64,
    /// Virtual time window the open-loop arrivals span.
    pub span: Duration,
    /// Relative swing of the diurnal rate curve, 0 (flat) to 1.
    pub diurnal_amplitude: f64,
    /// Period of the diurnal curve (a compressed "day").
    pub diurnal_period: Duration,
    /// Fraction of flows run closed-loop instead of scheduled.
    pub closed_loop_fraction: f64,
    /// In-flight window per closed-loop client.
    pub closed_loop_window: usize,
    /// Server response payload size (the "page").
    pub response_bytes: usize,
}

impl Default for LoadProfile {
    fn default() -> LoadProfile {
        LoadProfile {
            seed: 2022,
            flows: 50_000,
            clients: 64,
            universe_domains: 100_000,
            zipf_exponent: 1.02,
            // Under the Established idle timeout (480 s), so the device
            // tracks the whole population at once.
            span: Duration::from_secs(240),
            diurnal_amplitude: 0.6,
            diurnal_period: Duration::from_secs(120),
            closed_loop_fraction: 0.25,
            closed_loop_window: 8,
            response_bytes: 400,
        }
    }
}

/// How one flow ended, from the client's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowOutcome {
    /// Server data arrived intact.
    GotData,
    /// The flow was torn down by a RST (the device's SNI-RST arm).
    Reset,
}

/// Aggregate counters shared by every app in one soak run.
#[derive(Debug, Default, Clone)]
pub struct LoadStats {
    pub flows_started: u64,
    pub flows_completed: u64,
    pub got_data: u64,
    pub resets: u64,
    /// Completions whose outcome contradicted the policy oracle
    /// (blocked domain that fetched data, or clean domain that got RST).
    pub oracle_mismatches: u64,
    pub open_loop_flows: u64,
    pub closed_loop_flows: u64,
    pub client_tx_packets: u64,
    pub client_rx_packets: u64,
    pub server_tx_packets: u64,
    pub server_rx_packets: u64,
}

/// Shared handle to the run's counters.
pub type SharedStats = Arc<Mutex<LoadStats>>;

/// Locks the run's counters. They are plain counts that no update leaves
/// half-written, so a lock poisoned by a panicking holder is taken as is.
pub(crate) fn lock(stats: &SharedStats) -> MutexGuard<'_, LoadStats> {
    stats.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One pre-scheduled (open-loop) or queued (closed-loop) flow.
#[derive(Debug, Clone)]
pub struct FlowSpec {
    /// Arrival time; `Time::ZERO` placeholder for closed-loop flows.
    pub at: Time,
    /// SNI the ClientHello will carry.
    pub domain: Arc<str>,
    /// Policy oracle: does the device's SNI-RST set match this domain?
    pub blocked: bool,
}

/// Everything one client host replays.
#[derive(Debug, Clone, Default)]
pub struct ClientSchedule {
    /// Open-loop arrivals, ascending in time.
    pub open: Vec<FlowSpec>,
    /// Closed-loop work queue, launched window-at-a-time.
    pub closed: Vec<FlowSpec>,
}

/// Integrated diurnal rate Λ(t) for λ(t) = 1 + A·sin(2πt/P), in seconds
/// of "flat-rate equivalent" time. Monotone for A ≤ 1.
fn integrated_rate(t: f64, amplitude: f64, period: f64) -> f64 {
    let w = std::f64::consts::TAU / period;
    t + amplitude / w * (1.0 - (w * t).cos())
}

/// Inverse of [`integrated_rate`] by bisection over `[0, span]`.
fn arrival_time(target: f64, amplitude: f64, period: f64, span: f64) -> f64 {
    let (mut lo, mut hi) = (0.0f64, span);
    for _ in 0..52 {
        let mid = 0.5 * (lo + hi);
        if integrated_rate(mid, amplitude, period) < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Open-loop arrival times in whole microseconds, for quantile targets
/// taken in ascending order: each is `arrival_time(target, ..)` truncated.
///
/// Newton's method finds the root of Λ(t) = target from the previous
/// arrival in about two evaluations of Λ, where the bisection takes 52.
/// Its root stands in for the bisection's only when both must truncate to
/// the same microsecond: the root is pinned to within half a nanosecond,
/// rounding in both searches included, and lies more than a nanosecond
/// from a whole microsecond. Otherwise the bisection runs.
struct Arrivals {
    amplitude: f64,
    period: f64,
    span: f64,
    w: f64,
    /// Bound on the rounding error of [`integrated_rate`] over `[0, span]`:
    /// each rounding in it is at most an ulp of a term no larger than
    /// `span + 2A/w`, and eight such ulps cover them all.
    rate_error: f64,
    /// How far the rate can fall within a nanosecond of a point, its own
    /// rounding included.
    rate_slack: f64,
    /// The last point Λ and λ were evaluated at: `(t, Λ(t), λ(t))`.
    last: (f64, f64, f64),
}

impl Arrivals {
    const NEWTON_STEPS: usize = 32;
    /// How close Newton's root must be to the bisection's, in seconds.
    const REACH: f64 = 0.5e-9;
    /// How far from a whole microsecond Newton's root must lie, in µs.
    const MARGIN_US: f64 = 1e-3;

    fn new(amplitude: f64, period: f64, span: f64) -> Arrivals {
        let w = std::f64::consts::TAU / period;
        Arrivals {
            amplitude,
            period,
            span,
            w,
            rate_error: 8.0 * f64::EPSILON * (span + 2.0 * amplitude / w),
            rate_slack: amplitude * (w * 1e-9 + 4.0 * f64::EPSILON * (1.0 + w * span)),
            // Λ(0) = 0 and λ(0) = 1, exactly in floating point too.
            last: (0.0, 0.0, 1.0),
        }
    }

    fn eval(&self, t: f64) -> (f64, f64, f64) {
        let rate = 1.0 + self.amplitude * (self.w * t).sin();
        (t, integrated_rate(t, self.amplitude, self.period), rate)
    }

    /// The next arrival, in whole microseconds.
    fn micros(&mut self, target: f64) -> u64 {
        let root = match self.newton(target) {
            Some(root) => root,
            None => {
                let root = arrival_time(target, self.amplitude, self.period, self.span);
                self.last = self.eval(root);
                root
            }
        };
        (root * 1e6) as u64
    }

    /// Newton's root of Λ(t) = target, when it truncates as the
    /// bisection's does.
    fn newton(&mut self, target: f64) -> Option<f64> {
        for _ in 0..Self::NEWTON_STEPS {
            let (t, value, rate) = self.last;
            let residual = value - target;
            // The least rate within a nanosecond of t.
            let floor = rate - self.rate_slack;
            if floor <= 0.0 {
                return None;
            }
            // The exact root, and every point at which the rounded Λ can
            // cross the target, lie within this distance of t; so does
            // the bisection's result, which ends within span·2⁻⁵¹ of one
            // such point; and truncation rounds either by t·ε at most.
            let reach = (residual.abs() + 2.0 * self.rate_error) / floor
                + self.span * f64::EPSILON * 2.0
                + t * f64::EPSILON;
            if reach <= Self::REACH {
                let us = t * 1e6;
                let past = us - us.floor();
                return (Self::MARGIN_US < past && past < 1.0 - Self::MARGIN_US).then_some(t);
            }
            self.last = self.eval((t - residual / rate).clamp(0.0, self.span));
        }
        None
    }
}

/// Expands a profile into per-client schedules.
///
/// `domains` is the universe (index = popularity rank), `blocked(i)` the
/// policy oracle for rank `i`. Flows are dealt round-robin across clients,
/// so every client sees the same statistical mix.
pub fn build_schedule(
    profile: &LoadProfile,
    domains: &[Arc<str>],
    blocked: &[bool],
) -> Vec<ClientSchedule> {
    assert!(profile.clients > 0, "need at least one client");
    assert_eq!(domains.len(), blocked.len());
    let sampler = ZipfSampler::new(domains.len(), profile.zipf_exponent);
    let mut rng = SmallRng::seed_from_u64(profile.seed);

    let span = profile.span.as_secs_f64().max(1e-6);
    let period = profile.diurnal_period.as_secs_f64().max(1e-6);
    let amplitude = profile.diurnal_amplitude.clamp(0.0, 1.0);
    // Scale quantile targets so the last open-loop arrival lands at span.
    let total_mass = integrated_rate(span, amplitude, period);
    let mut arrivals = Arrivals::new(amplitude, period, span);

    let mut schedules = vec![ClientSchedule::default(); profile.clients];
    let mut open_emitted = 0usize;
    // Count open-loop flows first so the quantile spacing is exact.
    let closed_flags: Vec<bool> =
        (0..profile.flows).map(|_| rng.gen_bool(profile.closed_loop_fraction.clamp(0.0, 1.0))).collect();
    let open_total = closed_flags.iter().filter(|&&c| !c).count().max(1);

    for (k, &is_closed) in closed_flags.iter().enumerate() {
        let rank = sampler.sample(&mut rng);
        let spec_at = if is_closed {
            Time::ZERO
        } else {
            let target = (open_emitted as f64 + 0.5) / open_total as f64 * total_mass;
            open_emitted += 1;
            Time::from_micros(arrivals.micros(target))
        };
        let spec = FlowSpec { at: spec_at, domain: Arc::clone(&domains[rank]), blocked: blocked[rank] };
        let client = &mut schedules[k % profile.clients];
        if is_closed {
            client.closed.push(spec);
        } else {
            client.open.push(spec);
        }
    }
    // Round-robin dealing preserves global time order within each client,
    // but assert it — the apps rely on it for O(1) next-arrival peeks.
    for s in &schedules {
        debug_assert!(s.open.windows(2).all(|w| w[0].at <= w[1].at));
    }
    schedules
}

/// Client-side lifecycle phase of one in-flight flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// SYN sent, waiting for SYN/ACK.
    Connecting,
    /// ClientHello sent, waiting for data or RST.
    AwaitingResponse,
}

#[derive(Debug)]
struct InFlight {
    spec: FlowSpec,
    phase: Phase,
    closed_loop: bool,
}

/// A population slice: one host multiplexing many concurrent flows,
/// distinguished by source port. Packets are matched back to flows by the
/// destination port of the incoming segment, so per-packet dispatch is one
/// hash lookup regardless of how many flows are live.
pub struct LoadClientApp {
    addr: Ipv4Addr,
    server: Ipv4Addr,
    server_port: u16,
    schedule: ClientSchedule,
    /// Next unlaunched index into `schedule.open`.
    next_open: usize,
    /// Next unlaunched index into `schedule.closed`.
    next_closed: usize,
    window: usize,
    /// Ports are dealt sequentially from 1024; uniqueness across the whole
    /// run keeps every flow a distinct conntrack key. `None` once 65535 is
    /// dealt: the client launches no further flow.
    next_port: Option<u16>,
    flows: HashMap<u16, InFlight>,
    stats: SharedStats,
    started: bool,
}

impl LoadClientApp {
    pub fn new(
        addr: Ipv4Addr,
        server: Ipv4Addr,
        server_port: u16,
        schedule: ClientSchedule,
        window: usize,
        stats: SharedStats,
    ) -> LoadClientApp {
        LoadClientApp {
            addr,
            server,
            server_port,
            schedule,
            next_open: 0,
            next_closed: 0,
            window,
            next_port: Some(1024),
            flows: HashMap::new(),
            stats,
            started: false,
        }
    }

    fn launch(&mut self, spec: FlowSpec, closed_loop: bool, out: &mut Vec<Output>) {
        let Some(port) = self.next_port else { return };
        self.next_port = port.checked_add(1);
        let syn =
            TcpPacketSpec::new(self.addr, port, self.server, self.server_port, TcpFlags::SYN)
                .build();
        out.push(Output::send(syn));
        {
            let mut s = lock(&self.stats);
            s.flows_started += 1;
            s.client_tx_packets += 1;
            if closed_loop {
                s.closed_loop_flows += 1;
            } else {
                s.open_loop_flows += 1;
            }
        }
        self.flows.insert(port, InFlight { spec, phase: Phase::Connecting, closed_loop });
    }

    /// Launches every due open-loop arrival and re-arms the wake-up timer
    /// for the next one.
    fn pump_open(&mut self, now: Time, out: &mut Vec<Output>) {
        while self.next_open < self.schedule.open.len() && self.schedule.open[self.next_open].at <= now
        {
            let spec = self.schedule.open[self.next_open].clone();
            self.next_open += 1;
            self.launch(spec, false, out);
        }
        if self.next_open < self.schedule.open.len() {
            let at = self.schedule.open[self.next_open].at;
            out.push(Output::Timer { delay: at - now });
        }
    }

    fn pump_closed(&mut self, out: &mut Vec<Output>) {
        let in_flight = self.flows.values().filter(|f| f.closed_loop).count();
        let mut room = self.window.saturating_sub(in_flight);
        while room > 0 && self.next_closed < self.schedule.closed.len() {
            let spec = self.schedule.closed[self.next_closed].clone();
            self.next_closed += 1;
            self.launch(spec, true, out);
            room -= 1;
        }
    }

    fn finish(&mut self, port: u16, outcome: FlowOutcome, out: &mut Vec<Output>) {
        let Some(flow) = self.flows.remove(&port) else { return };
        {
            let mut s = lock(&self.stats);
            s.flows_completed += 1;
            match outcome {
                FlowOutcome::GotData => s.got_data += 1,
                FlowOutcome::Reset => s.resets += 1,
            }
            let expected = if flow.spec.blocked { FlowOutcome::Reset } else { FlowOutcome::GotData };
            if outcome != expected {
                s.oracle_mismatches += 1;
            }
        }
        if outcome == FlowOutcome::GotData {
            // Polite teardown; the RST case is already torn down for us.
            let fin = TcpPacketSpec::new(
                self.addr,
                port,
                self.server,
                self.server_port,
                TcpFlags::FIN | TcpFlags::ACK,
            )
            .seq_ack(2, 2)
            .build();
            lock(&self.stats).client_tx_packets += 1;
            out.push(Output::send(fin));
        }
        if flow.closed_loop {
            self.pump_closed(out);
        }
    }
}

impl Application for LoadClientApp {
    fn on_packet(&mut self, _now: Time, packet: &[u8]) -> Vec<Output> {
        let mut out = Vec::new();
        let Ok(ip) = Ipv4Packet::new_checked(packet) else { return out };
        if ip.protocol() != Protocol::Tcp || ip.is_fragment() {
            return out;
        }
        let Ok(seg) = TcpSegment::new_checked(ip.payload()) else { return out };
        lock(&self.stats).client_rx_packets += 1;
        let port = seg.dst_port();
        let flags = seg.flags();
        if flags.rst() {
            self.finish(port, FlowOutcome::Reset, &mut out);
            return out;
        }
        let Some(flow) = self.flows.get_mut(&port) else { return out };
        match flow.phase {
            Phase::Connecting if flags.syn() && flags.ack() => {
                flow.phase = Phase::AwaitingResponse;
                let domain = Arc::clone(&flow.spec.domain);
                let hello = ClientHelloBuilder::new(&domain).build();
                let ack = TcpPacketSpec::new(
                    self.addr,
                    port,
                    self.server,
                    self.server_port,
                    TcpFlags::ACK,
                )
                .seq_ack(1, 1)
                .build();
                let ch = TcpPacketSpec::new(
                    self.addr,
                    port,
                    self.server,
                    self.server_port,
                    TcpFlags::PSH_ACK,
                )
                .seq_ack(1, 1)
                .payload(hello)
                .build();
                lock(&self.stats).client_tx_packets += 2;
                out.push(Output::send(ack));
                out.push(Output::send(ch));
            }
            Phase::AwaitingResponse if !seg.payload().is_empty() => {
                self.finish(port, FlowOutcome::GotData, &mut out);
            }
            _ => {}
        }
        out
    }

    fn on_timer(&mut self, now: Time) -> Vec<Output> {
        let mut out = Vec::new();
        if !self.started {
            self.started = true;
            self.pump_closed(&mut out);
        }
        self.pump_open(now, &mut out);
        out
    }
}

/// The far end: a stateless responder standing in for the entire remote
/// web. SYN begets SYN/ACK; any data segment begets one response "page";
/// teardown segments are absorbed. Statelessness is what lets one host
/// terminate a million flows without bookkeeping — the device under test
/// is the only thing in the topology tracking per-flow state.
pub struct LoadServerApp {
    addr: Ipv4Addr,
    response: Arc<[u8]>,
    stats: SharedStats,
}

impl LoadServerApp {
    pub fn new(addr: Ipv4Addr, response_bytes: usize, stats: SharedStats) -> LoadServerApp {
        LoadServerApp { addr, response: vec![0x44; response_bytes].into(), stats }
    }
}

impl Application for LoadServerApp {
    fn on_packet(&mut self, _now: Time, packet: &[u8]) -> Vec<Output> {
        let mut out = Vec::new();
        let Ok(ip) = Ipv4Packet::new_checked(packet) else { return out };
        if ip.protocol() != Protocol::Tcp || ip.is_fragment() {
            return out;
        }
        let Ok(seg) = TcpSegment::new_checked(ip.payload()) else { return out };
        let mut s = lock(&self.stats);
        s.server_rx_packets += 1;
        let flags = seg.flags();
        let reply = if flags.is_pure_syn() {
            Some(
                TcpPacketSpec::new(
                    self.addr,
                    seg.dst_port(),
                    ip.src_addr(),
                    seg.src_port(),
                    TcpFlags::SYN_ACK,
                )
                .seq_ack(0, 1)
                .build(),
            )
        } else if !flags.rst() && !flags.fin() && !seg.payload().is_empty() {
            Some(
                TcpPacketSpec::new(
                    self.addr,
                    seg.dst_port(),
                    ip.src_addr(),
                    seg.src_port(),
                    TcpFlags::PSH_ACK,
                )
                .seq_ack(1, seg.payload().len() as u32 + 1)
                .build_with(&self.response),
            )
        } else {
            None
        };
        if let Some(packet) = reply {
            s.server_tx_packets += 1;
            out.push(Output::send(packet));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn tiny_universe() -> (Vec<Arc<str>>, Vec<bool>) {
        let domains: Vec<Arc<str>> =
            (0..50).map(|i| Arc::from(format!("d{i}.example.ru").as_str())).collect();
        let blocked: Vec<bool> = (0..50).map(|i| i % 7 == 0).collect();
        (domains, blocked)
    }

    proptest! {
        /// Every arrival truncates to the bisection's microsecond, for any
        /// amplitude (the flat and the fully swung curve drawn on purpose),
        /// period, whole-second span and up to 5,000 flows. A flat curve
        /// over whole seconds puts its roots on whole microseconds, where
        /// Newton's root may truncate to the one below the bisection's.
        /// Seeded mutation: `arrival_skips_boundary_check` (`tests/mutants/`).
        #[test]
        fn newton_arrivals_truncate_as_the_bisection_does(
            amplitude in prop_oneof![Just(0.0), Just(1.0), 0.0f64..1.0],
            period_ms in 1u64..=3_600_000,
            span_s in 1u64..=3_600,
            flows in prop_oneof![Just(5_000usize), 1usize..=5_000],
        ) {
            let (period, span) = (period_ms as f64 / 1e3, span_s as f64);
            let total_mass = integrated_rate(span, amplitude, period);
            let mut arrivals = Arrivals::new(amplitude, period, span);
            for k in 0..flows {
                let target = (k as f64 + 0.5) / flows as f64 * total_mass;
                let bisection = (arrival_time(target, amplitude, period, span) * 1e6) as u64;
                prop_assert_eq!(arrivals.micros(target), bisection, "flow {} of {}", k, flows);
            }
        }
    }

    #[test]
    fn schedule_is_deterministic_and_complete() {
        let (domains, blocked) = tiny_universe();
        let profile = LoadProfile { flows: 1_000, clients: 8, ..LoadProfile::default() };
        let a = build_schedule(&profile, &domains, &blocked);
        let b = build_schedule(&profile, &domains, &blocked);
        let total = |s: &[ClientSchedule]| {
            s.iter().map(|c| c.open.len() + c.closed.len()).sum::<usize>()
        };
        assert_eq!(total(&a), 1_000);
        assert_eq!(a.len(), 8);
        for (ca, cb) in a.iter().zip(&b) {
            assert_eq!(ca.open.len(), cb.open.len());
            for (fa, fb) in ca.open.iter().zip(&cb.open) {
                assert_eq!(fa.at, fb.at);
                assert_eq!(fa.domain, fb.domain);
            }
        }
    }

    #[test]
    fn open_arrivals_are_sorted_and_span_bounded() {
        let (domains, blocked) = tiny_universe();
        let profile = LoadProfile { flows: 2_000, clients: 4, ..LoadProfile::default() };
        let schedules = build_schedule(&profile, &domains, &blocked);
        for c in &schedules {
            assert!(c.open.windows(2).all(|w| w[0].at <= w[1].at));
            if let Some(last) = c.open.last() {
                assert!(last.at <= Time::ZERO + profile.span + Duration::from_secs(1));
            }
        }
    }

    #[test]
    fn diurnal_curve_concentrates_arrivals_at_peak() {
        let (domains, blocked) = tiny_universe();
        let profile = LoadProfile {
            flows: 20_000,
            clients: 1,
            closed_loop_fraction: 0.0,
            diurnal_amplitude: 0.9,
            span: Duration::from_secs(120),
            diurnal_period: Duration::from_secs(120),
            ..LoadProfile::default()
        };
        let schedules = build_schedule(&profile, &domains, &blocked);
        let open = &schedules[0].open;
        // λ peaks in the first half-period (sin > 0) and troughs in the
        // second; the first half must carry substantially more arrivals.
        let half = Time::from_micros(60_000_000);
        let first_half = open.iter().filter(|f| f.at < half).count();
        let second_half = open.len() - first_half;
        assert!(
            first_half as f64 > 1.5 * second_half as f64,
            "diurnal shape missing: {first_half} vs {second_half}"
        );
    }

    #[test]
    fn closed_loop_fraction_respected_roughly() {
        let (domains, blocked) = tiny_universe();
        let profile = LoadProfile {
            flows: 10_000,
            clients: 16,
            closed_loop_fraction: 0.25,
            ..LoadProfile::default()
        };
        let schedules = build_schedule(&profile, &domains, &blocked);
        let closed: usize = schedules.iter().map(|c| c.closed.len()).sum();
        let frac = closed as f64 / 10_000.0;
        assert!((0.2..0.3).contains(&frac), "closed fraction {frac}");
    }
}
