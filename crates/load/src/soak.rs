//! The soak driver: builds a population topology once, then runs forks of
//! it to a [`SoakReport`].
//!
//! Split into an expensive [`build_lab`] (domain universe, policy, route
//! interning, schedule expansion — all shareable) and a cheap
//! [`SoakLab::run`] that forks a pristine [`Network`] from the image,
//! attaches fresh apps, and drives the population to completion. Repeated
//! runs of the same lab are byte-identical in everything virtual-time
//! derived — [`SoakReport::obs_snapshot`] and [`SoakReport::timeline`]
//! hold only that. The wall-clock figures differ run to run and stay in
//! the report's named fields, never in a [`Snapshot`].

use std::fmt::Write;
use std::net::Ipv4Addr;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tspu_core::conntrack::GC_PROBE_BUDGET;
use tspu_core::{Policy, PolicyHandle, TspuDevice};
use tspu_netsim::{Direction, MiddleboxHandle, Network, NetworkImage, Route, RouteStep, Time};
use tspu_obs::{MetricValue, Snapshot};
use tspu_registry::Universe;

use crate::gen::{
    build_schedule, lock, ClientSchedule, LoadClientApp, LoadProfile, LoadServerApp, LoadStats,
};

/// Soak parameters beyond the traffic profile itself.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    pub profile: LoadProfile,
    /// Device flow-table provisioning ([`TspuDevice`] `with_flow_capacity`).
    pub flow_capacity: usize,
    /// Explicit conntrack shard count; `None` auto-sizes from capacity.
    pub shards: Option<usize>,
    /// Virtual-time slice per wall-latency sample.
    pub slice: Duration,
}

impl Default for SoakConfig {
    fn default() -> SoakConfig {
        SoakConfig {
            profile: LoadProfile::default(),
            flow_capacity: 65_536,
            shards: None,
            slice: Duration::from_millis(200),
        }
    }
}

/// A reusable soak topology: image + schedules, fork-and-run any number
/// of times.
pub struct SoakLab {
    config: SoakConfig,
    image: NetworkImage,
    device: MiddleboxHandle<TspuDevice>,
    clients: Vec<(tspu_netsim::HostId, Ipv4Addr)>,
    server: tspu_netsim::HostId,
    server_addr: Ipv4Addr,
    schedules: Vec<ClientSchedule>,
    /// Fraction of the domain universe the policy blocks (telemetry).
    pub blocked_universe_fraction: f64,
}

/// One virtual-time slice of a soak run. Every field is a pure function
/// of the schedule (byte-identical run to run).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SoakSlice {
    /// Virtual time at the slice end, microseconds.
    pub at_us: u64,
    /// Scheduler events popped inside the slice.
    pub events: u64,
    /// Endpoint packets (client tx + server tx) inside the slice.
    pub packets: u64,
    /// Flows launched inside the slice.
    pub flows_started: u64,
    /// Flows finished inside the slice.
    pub flows_completed: u64,
    /// RST verdicts observed inside the slice.
    pub resets: u64,
    /// Data-delivering completions inside the slice.
    pub got_data: u64,
    /// Flows tracked at the device at slice end.
    pub tracked_flows: usize,
    /// Events still scheduled at slice end. The name predates the single
    /// event queue; the frozen benchmark reads it.
    pub wheel_depth: usize,
    /// Largest per-shard conntrack occupancy at slice end.
    pub max_shard_len: usize,
}

/// Everything a soak run measured.
#[derive(Debug, Clone)]
pub struct SoakReport {
    pub stats: LoadStats,
    /// Scheduler events processed (virtual-time deterministic).
    pub events: u64,
    /// Peak simultaneously tracked flows at the device.
    pub peak_tracked_flows: usize,
    /// Final per-shard occupancy.
    pub shard_lens: Vec<usize>,
    /// Total GC slot probes across shards.
    pub gc_probes: u64,
    /// Largest per-shard GC probe count.
    pub max_shard_gc_probes: u64,
    /// Device-visible packets (each endpoint transmission crosses the
    /// device once) — the denominator for the GC budget check.
    pub device_packets: u64,
    /// The device's conntrack resident-memory estimate (index capacity +
    /// slab slots in use + the boxed verdicts and stream buffers live
    /// entries hold, `ShardedConnTracker::memory_bytes_estimate`) at the end
    /// of the run, divided by peak tracked flows.
    pub bytes_per_flow: f64,
    /// Wall-clock duration of the whole run (drain included). This and
    /// the three fields below are the host's contribution: they differ
    /// run to run and are never exported in a [`Snapshot`].
    pub wall_seconds: f64,
    /// Endpoint packets per wall second, the headline figure.
    pub sustained_pps: f64,
    /// Steady-state wall nanoseconds per scheduler event.
    pub p50_event_ns: u64,
    pub p99_event_ns: u64,
    pub p999_event_ns: u64,
    /// The run resolved in time: one entry per driver slice, in order.
    pub timeline: Vec<SoakSlice>,
}

impl SoakReport {
    /// True when GC work stayed within the advertised per-packet bound on
    /// every shard.
    pub fn gc_within_budget(&self) -> bool {
        self.gc_probes <= GC_PROBE_BUDGET as u64 * self.device_packets.max(1)
    }

    /// The report's virtual-time-deterministic counts as an obs
    /// [`Snapshot`], for merging with device/network snapshots and JSON
    /// export: identical for identical (seed, profile, topology),
    /// regardless of wall clock, thread count, or machine.
    pub fn obs_snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::new();
        let s = &self.stats;
        for (name, v) in [
            ("load.flows_started", s.flows_started),
            ("load.flows_completed", s.flows_completed),
            ("load.got_data", s.got_data),
            ("load.resets", s.resets),
            ("load.oracle_mismatches", s.oracle_mismatches),
            ("load.open_loop_flows", s.open_loop_flows),
            ("load.closed_loop_flows", s.closed_loop_flows),
            ("load.client_tx_packets", s.client_tx_packets),
            ("load.client_rx_packets", s.client_rx_packets),
            ("load.server_tx_packets", s.server_tx_packets),
            ("load.server_rx_packets", s.server_rx_packets),
            ("load.events", self.events),
            ("load.peak_tracked_flows", self.peak_tracked_flows as u64),
            ("load.gc_probes", self.gc_probes),
            ("load.bytes_per_flow", self.bytes_per_flow as u64),
        ] {
            snap.insert(name, MetricValue::Counter(v));
        }
        for (i, &len) in self.shard_lens.iter().enumerate() {
            snap.insert(format!("load.shard_occupancy.{i:02}"), MetricValue::Counter(len as u64));
        }
        snap
    }
}

/// Builds the soak topology and schedules for `config`.
///
/// The domain universe is the registry sample + Tranco head padded with
/// long-tail filler names to `profile.universe_domains`; the device policy
/// carries the universe's full SNI-RST set and nothing else, so the
/// per-flow outcome oracle is exact: a flow must be RST iff its SNI
/// matches the RST set.
pub fn build_lab(config: SoakConfig) -> SoakLab {
    let profile = &config.profile;
    let universe = Universe::generate(profile.seed);

    // Popularity rank order: the Tranco head first (popular sites, mostly
    // unblocked — the Zipf head hammers these), then the registry sample
    // (96% RST-blocked, so blocks live in the warm mid-tail), then filler
    // long tail up to the configured universe size.
    // Each name becomes its `Arc<str>` in one allocation: listed names are
    // borrowed, filler names are written into one reused buffer.
    let mut filler = String::new();
    let domains: Vec<Arc<str>> = universe
        .tranco
        .iter()
        .chain(universe.registry_sample.iter())
        .map(|d| Arc::from(d.name.as_str()))
        .chain((0..profile.universe_domains).map(|i| {
            filler.clear();
            // Writing into a `String` cannot fail.
            let _ = write!(filler, "filler-{i}.example.ru");
            Arc::from(filler.as_str())
        }))
        .take(profile.universe_domains)
        .collect();

    let mut policy = Policy::permissive();
    for d in &universe.blocks.sni_rst {
        policy.sni_rst.insert(d);
    }
    let blocked: Vec<bool> = domains.iter().map(|d| policy.sni_rst.matches(d)).collect();
    let blocked_universe_fraction =
        blocked.iter().filter(|&&b| b).count() as f64 / blocked.len().max(1) as f64;
    let handle = PolicyHandle::new(policy);

    let mut device = TspuDevice::reliable("tspu-load", handle);
    device = match config.shards {
        Some(shards) => device.with_flow_shards(config.flow_capacity, shards),
        None => device.with_flow_capacity(config.flow_capacity),
    };

    let mut net = Network::with_default_latency();
    let device = net.install_middlebox(device);

    let server_addr = Ipv4Addr::new(93, 184, 216, 34);
    let server = net.add_host(server_addr);
    let mut clients = Vec::with_capacity(profile.clients);
    // One provider path shared by the whole population: access router,
    // the TSPU at the provider edge, one transit hop. Route interning
    // collapses all (client, server) pairs onto a single arena entry.
    let route = Route {
        steps: vec![
            RouteStep::router(Ipv4Addr::new(10, 255, 0, 1)),
            RouteStep::with_device(
                Ipv4Addr::new(185, 140, 30, 77),
                device.id(),
                Direction::LocalToRemote,
            ),
            RouteStep::router(Ipv4Addr::new(192, 0, 2, 1)),
        ],
    };
    for i in 0..profile.clients {
        let addr = Ipv4Addr::new(10, 77, (i / 250) as u8, (i % 250 + 1) as u8);
        let host = net.add_host(addr);
        net.set_route_symmetric(host, server, route.clone());
        clients.push((host, addr));
    }

    let schedules = build_schedule(profile, &domains, &blocked);
    let image = net.image();

    SoakLab {
        config,
        image,
        device,
        clients,
        server,
        server_addr,
        schedules,
        blocked_universe_fraction,
    }
}

impl SoakLab {
    /// Total flows the schedules will launch.
    pub fn total_flows(&self) -> usize {
        self.schedules.iter().map(|c| c.open.len() + c.closed.len()).sum()
    }

    /// Forks a pristine network from the lab image with fresh apps
    /// attached and initial timers armed. Exposed for benches that want
    /// to time the drive loop alone.
    pub fn fork(&self) -> (Network, Arc<Mutex<LoadStats>>) {
        let mut net = self.image.fork();
        let stats: Arc<Mutex<LoadStats>> = Arc::default();
        net.set_app(
            self.server,
            Box::new(LoadServerApp::new(
                self.server_addr,
                self.config.profile.response_bytes,
                Arc::clone(&stats),
            )),
        );
        for (i, &(host, addr)) in self.clients.iter().enumerate() {
            let app = LoadClientApp::new(
                addr,
                self.server_addr,
                443,
                self.schedules[i].clone(),
                self.config.profile.closed_loop_window,
                Arc::clone(&stats),
            );
            net.set_app(host, Box::new(app));
            net.arm_timer(host, Duration::ZERO);
        }
        (net, stats)
    }

    /// Runs one soak to completion and reports.
    pub fn run(&self) -> SoakReport {
        let (mut net, stats) = self.fork();
        let total_flows = self.total_flows() as u64;
        let deadline = Time::ZERO + self.config.profile.span + Duration::from_secs(120);

        let started = Instant::now();
        let mut samples: Vec<(u64, u64)> = Vec::new(); // (ns per event, events)
        let mut peak_tracked = 0usize;
        // Latency samples accumulate over fixed event-count windows rather
        // than per virtual-time slice: a thin slice (a few hundred events,
        // ~1 ms of wall time) turns one OS scheduler tick into a 10×
        // outlier, so p999 over raw slices measures the host, not the
        // engine. A ≥16k-event window is tens of milliseconds of wall
        // time — preemption amortizes inside it, and a real engine cliff
        // (rehash, GC sweep) still dominates its window.
        const WINDOW_EVENTS: u64 = 16_384;
        let (mut acc_wall_ns, mut acc_events) = (0u64, 0u64);
        let mut timeline: Vec<SoakSlice> = Vec::new();
        // Cumulative values at the previous slice boundary, for deltas.
        let (mut prev_started, mut prev_completed) = (0u64, 0u64);
        let (mut prev_resets, mut prev_got_data, mut prev_packets) = (0u64, 0u64, 0u64);
        loop {
            let events_before = net.events_processed();
            let slice_started = Instant::now();
            net.run_for(self.config.slice);
            let slice_wall_ns = slice_started.elapsed().as_nanos() as u64;
            let slice_events = net.events_processed() - events_before;
            acc_wall_ns += slice_wall_ns;
            acc_events += slice_events;
            if acc_events >= WINDOW_EVENTS {
                samples.push((acc_wall_ns / acc_events, acc_events));
                (acc_wall_ns, acc_events) = (0, 0);
            }
            let conntrack = net.middlebox(self.device).conntrack();
            let tracked = conntrack.len();
            let max_shard_len = conntrack.shard_lens().into_iter().max().unwrap_or(0);
            peak_tracked = peak_tracked.max(tracked);
            let (started_c, completed, resets, got_data, packets) = {
                let s = lock(&stats);
                (
                    s.flows_started,
                    s.flows_completed,
                    s.resets,
                    s.got_data,
                    s.client_tx_packets + s.server_tx_packets,
                )
            };
            timeline.push(SoakSlice {
                at_us: net.now().as_micros(),
                events: slice_events,
                packets: packets - prev_packets,
                flows_started: started_c - prev_started,
                flows_completed: completed - prev_completed,
                resets: resets - prev_resets,
                got_data: got_data - prev_got_data,
                tracked_flows: tracked,
                wheel_depth: net.pending_events(),
                max_shard_len,
            });
            (prev_started, prev_completed) = (started_c, completed);
            (prev_resets, prev_got_data, prev_packets) = (resets, got_data, packets);
            if completed >= total_flows || net.now() >= deadline {
                break;
            }
        }
        // Drain stragglers (FINs in flight past the last slice).
        net.run_until_idle();
        let wall_seconds = started.elapsed().as_secs_f64();

        // Steady state: skip the ramp-up (first 10% of windows). Every
        // emitted window holds ≥ WINDOW_EVENTS events by construction, so
        // no thin-sample filtering is needed.
        let skip = samples.len() / 10;
        let mut steady: Vec<u64> = samples.iter().skip(skip).map(|&(ns, _)| ns).collect();
        steady.sort_unstable();
        let pct = |q: f64| -> u64 {
            if steady.is_empty() {
                return 0;
            }
            let idx = ((steady.len() as f64 - 1.0) * q).round() as usize;
            steady[idx]
        };

        let conntrack = net.middlebox(self.device).conntrack();
        let stats = lock(&stats).clone();
        let device_packets = stats.client_tx_packets + stats.server_tx_packets;
        SoakReport {
            events: net.events_processed(),
            peak_tracked_flows: peak_tracked,
            shard_lens: conntrack.shard_lens(),
            gc_probes: conntrack.gc_probes(),
            max_shard_gc_probes: conntrack.max_shard_gc_probes(),
            device_packets,
            bytes_per_flow: conntrack.memory_bytes_estimate() as f64
                / peak_tracked.max(1) as f64,
            wall_seconds,
            sustained_pps: device_packets as f64 / wall_seconds.max(1e-9),
            p50_event_ns: pct(0.50),
            p99_event_ns: pct(0.99),
            p999_event_ns: pct(0.999),
            timeline,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> SoakConfig {
        SoakConfig {
            profile: LoadProfile {
                flows: 2_000,
                clients: 8,
                universe_domains: 5_000,
                span: Duration::from_secs(60),
                ..LoadProfile::default()
            },
            flow_capacity: 4_096,
            shards: Some(4),
            slice: Duration::from_millis(100),
        }
    }

    #[test]
    fn soak_completes_all_flows_with_clean_oracle() {
        let lab = build_lab(small_config());
        let report = lab.run();
        assert_eq!(report.stats.flows_started, 2_000);
        assert_eq!(report.stats.flows_completed, 2_000);
        assert_eq!(report.stats.oracle_mismatches, 0, "policy oracle violated");
        // The universe's RST set must actually bite: some flows reset,
        // most fetch data.
        assert!(report.stats.resets > 0, "no blocked domains sampled");
        assert!(report.stats.got_data > report.stats.resets);
        assert!(report.gc_within_budget());
        assert_eq!(report.shard_lens.len(), 4);
    }

    #[test]
    fn soak_captures_nothing_and_keeps_its_counters() {
        let lab = build_lab(small_config());
        // A soak never reads a capture, so it must not take one: a slice
        // of traffic leaves the capture log empty.
        let (mut net, _) = lab.fork();
        net.run_for(small_config().slice);
        assert!(net.events_processed() > 0, "the slice ran no traffic");
        assert!(net.captures().is_empty(), "the soak copied packets into a capture nobody reads");

        // The traffic itself is what it was when every soak still captured
        // (values recorded at the commit before capture became opt-in);
        // only the engine's event count shrank (hop-run collapsing).
        let report = lab.run();
        let s = &report.stats;
        assert_eq!(
            [s.flows_started, s.flows_completed, s.got_data, s.resets, s.oracle_mismatches],
            [2_000, 2_000, 1_344, 656, 0]
        );
        assert_eq!([s.open_loop_flows, s.closed_loop_flows], [1_496, 504]);
        assert_eq!(
            [s.client_tx_packets, s.client_rx_packets, s.server_tx_packets, s.server_rx_packets],
            [7_344, 4_000, 4_000, 7_344]
        );
        assert!(report.events < 58_224, "events {} did not shrink", report.events);
    }

    #[test]
    fn repeated_runs_export_equal_snapshots() {
        let lab = build_lab(small_config());
        let (a, b) = (lab.run(), lab.run());
        let snapshot = a.obs_snapshot();
        assert_eq!(snapshot, b.obs_snapshot());
        // The wall-clock fence: nothing read from `Instant` is exported.
        for (name, _) in snapshot.metrics() {
            assert!(!name.contains("wall") && !name.contains("pps"), "{name} is wall-clock");
        }
        assert_eq!(a.timeline, b.timeline);
    }

    #[test]
    fn timeline_slices_sum_to_the_totals_and_replay_identically() {
        let lab = build_lab(small_config());
        let report = lab.run();
        assert!(!report.timeline.is_empty());
        // Slice deltas reassemble the cumulative totals exactly.
        let started: u64 = report.timeline.iter().map(|s| s.flows_started).sum();
        let completed: u64 = report.timeline.iter().map(|s| s.flows_completed).sum();
        let packets: u64 = report.timeline.iter().map(|s| s.packets).sum();
        assert_eq!(started, report.stats.flows_started);
        assert_eq!(completed, report.stats.flows_completed);
        assert_eq!(packets, report.device_packets);
        // Slice ends advance strictly, on the driver's slice boundaries.
        let width = small_config().slice.as_micros() as u64;
        for (i, s) in report.timeline.iter().enumerate() {
            assert_eq!(s.at_us, (i as u64 + 1) * width, "slice {i} off-grid");
        }
        // The flow population ramps: some slice must hold >1000 flows.
        assert!(report.timeline.iter().any(|s| s.tracked_flows > 1_000));
        // The timeline replays identically.
        assert_eq!(report.timeline, lab.run().timeline);
    }

    #[test]
    fn peak_population_is_tracked_concurrently() {
        let lab = build_lab(small_config());
        let report = lab.run();
        // Arrivals span 60 s < the 480 s Established timeout, so the
        // device must be holding a large share of the population at once.
        assert!(
            report.peak_tracked_flows > 1_000,
            "peak tracked {} too low",
            report.peak_tracked_flows
        );
        assert!(report.bytes_per_flow > 0.0);
    }
}
