//! `profiles_audited`: the three-country differential campaign with the
//! trace oracle on.
//!
//! Same measure / netsim / core layers as the registry sweep, used
//! differently: capture on, per-profile oracle replay, observability
//! snapshot merge, TLS + HTTP + DNS volleys, profile indirection. A gain
//! for the quick path that the audited path pays for shows here.
//!
//! The campaign's cell is private to `tspu-measure`, so the traced run
//! cannot re-run cells through building blocks. It attributes time by
//! difference instead, using the campaign's own public switches: the same
//! matrix with the oracle off, with it on, and with observation on.

use std::time::{Duration, Instant};

use tspu_measure::sweep::{PoolReport, RunOpts, ScanPool};
use tspu_measure::{DifferentialCampaign, ProfileMatrix};
use tspu_registry::Universe;
use tspu_topology::policy_from_universe;

use super::{
    mixed_domains, snapshot_device_packets, Counts, Digest, LedgerTerm, RepOut, RungCost, Size,
    Workload, WorkloadInfo,
};
use crate::{alloc, host, stats, trace};

pub struct ProfilesAudited {
    campaign: DifferentialCampaign,
}

/// Span sampling period of the audited run: metrics from every cell, spans
/// from one in a thousand.
const TRACE_EVERY: usize = 1_000;
/// Rounds of the traced repetition's three campaign variants.
const DIFFERENCE_ROUNDS: usize = 3;

fn score(campaign: &DifferentialCampaign, matrix: &ProfileMatrix) -> (u64, u64) {
    let mut digest = Digest::default();
    let mut failed = campaign.len().abs_diff(matrix.cells.len()) as u64;
    for cell in &matrix.cells {
        digest.bytes(format!("{:?}/{:?}/{:?};", cell.tls, cell.http, cell.dns).as_bytes());
        failed += u64::from(!cell.oracle_violations.is_empty());
    }
    (failed, digest.finish())
}

/// One campaign run with the calibration loop before and after it: the
/// three runs of the traced repetition are subtracted from one another, so
/// each is taken to nominal speed first.
struct TimedRun {
    matrix: ProfileMatrix,
    report: PoolReport,
    wall: Duration,
    to_nominal: f64,
}

impl TimedRun {
    fn new(campaign: &DifferentialCampaign, opts: &RunOpts, span: &'static str) -> TimedRun {
        let pool = ScanPool::new(1);
        let (((matrix, report), wall), to_nominal) = host::bracketed(|| {
            let start = Instant::now();
            let run = trace::span(span, trace::NONE, || campaign.run(&pool, opts));
            (run, start.elapsed())
        });
        TimedRun {
            matrix,
            report: report.expect("every run here asks for the report"),
            wall,
            to_nominal,
        }
    }

    fn wall_ns(&self) -> f64 {
        self.wall.as_nanos() as f64 * self.to_nominal
    }

    /// Time inside the cells, as the driver's own report has it.
    fn busy_ns(&self) -> f64 {
        self.report.workers.iter().map(|w| w.busy_ns).sum::<u64>() as f64 * self.to_nominal
    }
}

impl Workload for ProfilesAudited {
    const INFO: WorkloadInfo = WorkloadInfo {
        name: "profiles_audited",
        why: "Three censor profiles x 6k domains with capture, per-profile oracle replay and snapshot merge on: the audited path. A gain for the quick sweep path paid for by capture, oracle or obs shows here.",
    };

    fn setup(seed: u64, size: Size) -> Self {
        let universe = Universe::generate(seed);
        let policy = policy_from_universe(&universe, false, true);
        let domains = mixed_domains(&universe, size.cells(6_000, 60));
        ProfilesAudited {
            campaign: DifferentialCampaign::three_country(policy, domains),
        }
    }

    fn rep(&mut self) -> RepOut {
        let pool = ScanPool::new(1);
        let start = Instant::now();
        let (matrix, _) = self.campaign.run(&pool, &RunOpts::sampled(TRACE_EVERY));
        let wall = start.elapsed();
        let (failed, digest) = score(&self.campaign, &matrix);
        RepOut {
            wall,
            cells: self.campaign.len() as u64,
            failed,
            digest,
            ..RepOut::default()
        }
    }

    fn traced(&mut self) -> RepOut {
        let mut plain = self.campaign.clone();
        plain.check_oracle = false;
        // The three variants in rounds, each figure the median over the
        // rounds: a difference of two campaigns timed once each is mostly
        // the box changing speed between them.
        let (mut probe_ns, mut captured_ns, mut captured_wall_ns) = (vec![], vec![], vec![]);
        let (mut audited_ns, mut audited_wall_ns) = (vec![], vec![]);
        let mut last = None;
        for round in 0..DIFFERENCE_ROUNDS {
            let plain_run = TimedRun::new(&plain, &RunOpts::reported(), "campaign.plain");
            let captured = TimedRun::new(&self.campaign, &RunOpts::reported(), "campaign.captured");
            if round + 1 == DIFFERENCE_ROUNDS {
                // The allocation counts are for one audited campaign, the
                // last: start them over.
                alloc::start();
            }
            let audited = TimedRun::new(
                &self.campaign,
                &RunOpts::sampled(TRACE_EVERY),
                "campaign.audited",
            );
            probe_ns.push(plain_run.busy_ns());
            captured_ns.push(captured.busy_ns());
            captured_wall_ns.push(captured.wall_ns());
            audited_ns.push(audited.busy_ns());
            audited_wall_ns.push(audited.wall_ns());
            last = Some((plain_run, audited));
        }
        let (plain_run, audited) = last.expect("at least one round");
        let matrix = &audited.matrix;

        let (mut failed, digest) = score(&self.campaign, matrix);
        // Capture and audit must not change a verdict.
        let (_, plain_digest) = score(&plain, &plain_run.matrix);
        failed += u64::from(plain_digest != digest);

        let snapshot = matrix.snapshot.as_ref().expect("the audited run observes");
        let counts = Counts {
            events: snapshot.counter("netsim.events_processed"),
            device_packets: snapshot_device_packets(snapshot),
            forks: matrix.cells.len() as u64,
            // One TLS ClientHello, one HTTP Host and one DNS qname per cell.
            client_hellos: 3 * matrix.cells.len() as u64,
            ..Counts::default()
        };

        let audited_wall = stats::median(&audited_wall_ns);
        let share = |ns: f64| (ns / audited_wall).max(0.0);
        let cell_us = |q: f64| audited.report.scenario_wall_ns.quantile_lower(q) as f64 / 1e3;
        let mut layer = vec![
            ("measure.probe_share", share(stats::median(&probe_ns))),
            (
                "netsim.oracle_share",
                share(stats::median(&captured_ns) - stats::median(&probe_ns)),
            ),
            (
                "obs.merge_share",
                share(audited_wall - stats::median(&captured_wall_ns)),
            ),
            (
                "measure.driver_share",
                share(audited_wall - stats::median(&audited_ns)),
            ),
            ("measure.cell_us_p50", cell_us(0.50)),
        ];
        if stats::supports_p99(matrix.cells.len()) {
            layer.push(("measure.cell_us_p99", cell_us(0.99)));
        }
        RepOut {
            wall: audited.wall,
            nominal_wall_ns: Some(audited_wall),
            cells: self.campaign.len() as u64,
            failed,
            digest,
            counts,
            layer,
        }
    }

    fn ledger(counts: &Counts, cells: u64, rung: RungCost) -> Vec<LedgerTerm> {
        let packets = counts.device_packets as f64;
        vec![
            LedgerTerm::new("lab forks", cells as f64, rung("topology.fork_fig1_ns")),
            LedgerTerm::events(counts, rung),
            LedgerTerm::device_packets(counts, rung),
            LedgerTerm::new(
                "captured packets",
                packets,
                rung("netsim.capture_ns_per_packet"),
            ),
            LedgerTerm::new(
                "oracle replay",
                packets,
                rung("netsim.oracle_replay_ns_per_packet"),
            ),
            LedgerTerm::new(
                "snapshot merges",
                cells as f64,
                rung("obs.snapshot_merge_ns"),
            ),
        ]
    }
}
