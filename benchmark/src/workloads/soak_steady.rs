//! `soak_steady`: a long-lived flow population through one device.
//!
//! 50,000 flows from 64 clients over a 100k-domain Zipf universe, spread
//! over 240 virtual seconds, into a flow table provisioned for a million
//! flows in 16 shards. The timer wheel runs at depth, the sharded conntrack
//! holds a working set far beyond cache, `LoadClientApp`/`LoadServerApp`
//! drive every lifecycle, inboxes are drained per slice; nothing forks.
//! Memory growth from repetition to repetition is the open question here.

use std::time::{Duration, Instant};

use tspu_load::gen::{LoadProfile, LoadStats};
use tspu_load::soak::{build_lab, SoakConfig, SoakLab};
use tspu_netsim::{HostId, Time};

use super::{Counts, Digest, LedgerTerm, RepOut, RungCost, Size, Workload, WorkloadInfo};
use crate::trace;

pub struct SoakSteady {
    lab: SoakLab,
    config: SoakConfig,
}

fn digest_of(stats: &LoadStats) -> u64 {
    let mut digest = Digest::default();
    for value in [
        stats.flows_started,
        stats.flows_completed,
        stats.got_data,
        stats.resets,
        stats.oracle_mismatches,
        stats.open_loop_flows,
        stats.closed_loop_flows,
        stats.client_tx_packets,
        stats.client_rx_packets,
        stats.server_tx_packets,
        stats.server_rx_packets,
    ] {
        digest.u64(value);
    }
    digest.finish()
}

/// Flows that did not complete, plus completions the policy oracle
/// contradicts.
fn failed_flows(stats: &LoadStats, flows: u64) -> u64 {
    flows.saturating_sub(stats.flows_completed) + stats.oracle_mismatches
}

impl Workload for SoakSteady {
    const INFO: WorkloadInfo = WorkloadInfo {
        name: "soak_steady",
        why: "50k long-lived flows through one device: timer wheel at depth, sharded conntrack far beyond cache, load apps, per-slice inbox drains, no forks. Per-event cost and memory growth; fork gains do nothing.",
    };

    fn setup(seed: u64, size: Size) -> Self {
        let config = SoakConfig {
            profile: LoadProfile {
                seed,
                flows: size.cells(50_000, 500),
                clients: 64,
                universe_domains: 100_000,
                span: Duration::from_secs(240),
                ..LoadProfile::default()
            },
            flow_capacity: 1_048_576,
            shards: Some(16),
            slice: Duration::from_millis(200),
        };
        SoakSteady {
            lab: build_lab(config.clone()),
            config,
        }
    }

    fn rep(&mut self) -> RepOut {
        let flows = self.lab.total_flows() as u64;
        let start = Instant::now();
        let report = self.lab.run();
        let wall = start.elapsed();
        let counts = Counts {
            device_packets: report.device_packets,
            client_hellos: flows,
            tracked_flows_peak: report.peak_tracked_flows as u64,
            bytes_per_flow: report.bytes_per_flow,
            gc_probes: report.gc_probes,
            wheel_depth_peak: report
                .timeline
                .iter()
                .map(|s| s.wheel_depth as u64)
                .max()
                .unwrap_or(0),
            ..Counts::default()
        };
        RepOut {
            wall,
            nominal_wall_ns: None,
            cells: flows,
            failed: failed_flows(&report.stats, flows) + u64::from(!report.gc_within_budget()),
            digest: digest_of(&report.stats),
            counts,
            layer: vec![
                ("load.pps", report.sustained_pps),
                ("load.window_ns_per_event_p50", report.p50_event_ns as f64),
                ("load.window_ns_per_event_p99", report.p99_event_ns as f64),
            ],
        }
    }

    /// `SoakLab::run`'s drive loop from its public pieces: fork, then
    /// slices of `run_for` each followed by an inbox drain. A traced cell
    /// is one slice.
    fn traced(&mut self) -> RepOut {
        let flows = self.lab.total_flows() as u64;
        let deadline = Time::ZERO + self.config.profile.span + Duration::from_secs(120);
        // `build_lab` adds the server first and then the clients; those are
        // all the hosts there are.
        let hosts = 1 + self.config.profile.clients;
        let start = Instant::now();
        let root = trace::begin("workload", trace::NONE);
        let (mut net, stats) = trace::span("topology.fork", trace::NONE, || self.lab.fork());
        let mut slice = 0u32;
        loop {
            let cell = trace::begin("cell", slice);
            trace::span("netsim.run", slice, || net.run_for(self.config.slice));
            trace::span("load.drain", slice, || {
                for host in 0..hosts {
                    drop(net.take_inbox(HostId(host)));
                }
            });
            trace::end(cell);
            slice += 1;
            let completed = stats.lock().expect("apps do not panic").flows_completed;
            if completed >= flows || net.now() >= deadline {
                break;
            }
        }
        trace::span("netsim.run", trace::NONE, || net.run_until_idle());
        trace::end(root);
        let wall = start.elapsed();
        let stats = stats.lock().expect("apps do not panic").clone();
        let counts = Counts {
            events: net.events_processed(),
            device_packets: stats.client_tx_packets + stats.server_tx_packets,
            forks: 1,
            client_hellos: flows,
            ..Counts::default()
        };
        RepOut {
            wall,
            nominal_wall_ns: None,
            cells: flows,
            failed: failed_flows(&stats, flows),
            digest: digest_of(&stats),
            counts,
            layer: Vec::new(),
        }
    }

    fn ledger(counts: &Counts, cells: u64, rung: RungCost) -> Vec<LedgerTerm> {
        let events = counts.events as f64;
        let packets = counts.device_packets as f64;
        vec![
            LedgerTerm::events(counts, rung),
            LedgerTerm::new(
                "queue at depth, beyond the shallow queue a hop already pays",
                events,
                (rung("netsim.queue_wheel_ns") - rung("netsim.queue_heap_ns")).max(0.0),
            ),
            LedgerTerm::device_packets(counts, rung),
            LedgerTerm::new(
                "flow table beyond cache, over the one-flow lookup",
                packets,
                (rung("core.conntrack_observe_sharded_1m_ns")
                    - rung("core.conntrack_observe_1flow_ns"))
                .max(0.0),
            ),
            LedgerTerm::client_hellos(cells, rung),
            LedgerTerm::new("load app steps", packets, rung("load.client_step_ns")),
        ]
    }
}
