//! `as5000_tomography`: churn-driven censor localization on the generated
//! 5000-AS graph ("A Churn for the Better", PAPERS.md).
//!
//! Every cell forks the large image, leaves one ground-truth device active,
//! arms the route-flip schedule and probes from every client in every
//! epoch; the solver must name the device's AS. Forks of a large image,
//! route flips through the interned arena and many short probes per fork.
//!
//! The cell is private to `tspu-measure`, so the traced run times the
//! driver whole and reads per-cell wall time from its `PoolReport` and the
//! event and packet counts from its merged snapshot.

use std::time::{Duration, Instant};

use tspu_measure::sweep::{RunOpts, ScanPool};
use tspu_measure::{LocalizeRun, LocalizeSpec, TomographyConfig, TomographyRun};
use tspu_registry::Universe;
use tspu_topology::{policy_from_universe, GenParams};

use super::{
    snapshot_device_packets, Counts, Digest, LedgerTerm, RepOut, RungCost, Size, Workload,
    WorkloadInfo,
};
use crate::{alloc, host, stats, trace};

pub struct As5000Tomography {
    spec: LocalizeSpec,
    ases: usize,
    cells: usize,
}

/// Probes attempted, probes inside cells that failed to name their AS, and
/// the hash of every observation.
fn score(run: &TomographyRun, expected_cells: usize) -> (u64, u64, u64) {
    let mut digest = Digest::default();
    let (mut probes, mut failed) = (0u64, 0u64);
    for cell in &run.cells {
        probes += cell.probes.len() as u64;
        if !cell.named {
            failed += cell.probes.len() as u64;
        }
        digest.u64(cell.active_as.map_or(u64::MAX, |asn| asn as u64));
        digest.u64(cell.suspects.len() as u64);
        for &suspect in &cell.suspects {
            digest.u64(suspect as u64);
        }
        digest.bytes(&[
            u8::from(cell.named),
            cell.ttl_hop.unwrap_or(u8::MAX),
            cell.ttl_truth.unwrap_or(u8::MAX),
        ]);
        for probe in &cell.probes {
            digest.bytes(&[u8::from(probe.blocked)]);
        }
    }
    failed += expected_cells.abs_diff(run.cells.len()) as u64;
    (probes, failed, digest.finish())
}

/// One campaign run and its wall nanoseconds at nominal speed: the two
/// runs of the traced repetition are subtracted from one another.
fn timed_run(
    spec: &LocalizeSpec,
    opts: &RunOpts,
    span: &'static str,
) -> (LocalizeRun, Duration, f64) {
    let pool = ScanPool::new(1);
    let ((run, wall), to_nominal) = host::bracketed(|| {
        let start = Instant::now();
        let run = trace::span(span, trace::NONE, || spec.run(&pool, opts));
        (run, start.elapsed())
    });
    (run, wall, wall.as_nanos() as f64 * to_nominal)
}

impl Workload for As5000Tomography {
    const INFO: WorkloadInfo = WorkloadInfo {
        name: "as5000_tomography",
        why: "Churn tomography on the 5000-AS graph: 4k cells of 36 probes, each cell forking the large image and riding scheduled route flips. A cell here is one probe; many short probes per fork, arena flips.",
    };

    fn setup(seed: u64, size: Size) -> Self {
        let universe = Universe::generate(seed);
        let policy = policy_from_universe(&universe, false, true);
        let ases = size.cells(5_000, 50);
        let cells = size.cells(4_000, 40);
        let config = TomographyConfig::new(GenParams::new(seed, ases)).cells(cells);
        As5000Tomography {
            spec: LocalizeSpec::tomography(policy, config),
            ases,
            cells,
        }
    }

    fn rep(&mut self) -> RepOut {
        let pool = ScanPool::new(1);
        let start = Instant::now();
        let run = self.spec.run(&pool, &RunOpts::quick());
        let wall = start.elapsed();
        let tomography = run
            .tomography
            .expect("a tomography spec yields a tomography run");
        let (cells, failed, digest) = score(&tomography, self.cells);
        RepOut {
            wall,
            cells,
            failed,
            digest,
            ..RepOut::default()
        }
    }

    fn traced(&mut self) -> RepOut {
        // Metrics from every cell, no engine spans: the counts are wanted,
        // not a second trace.
        let observing = RunOpts {
            observe: true,
            trace_every: 0,
            report: true,
        };
        // Both variants in rounds, their difference taken between medians:
        // timed once each it is mostly the box changing speed in between.
        let (mut plain_ns, mut observed_ns) = (vec![], vec![]);
        let mut last = None;
        for round in 0..3 {
            let (observed, _, observed_nominal_ns) =
                timed_run(&self.spec, &observing, "campaign.observed");
            if round == 2 {
                // The allocation counts are for one plain campaign, the
                // last: start them over.
                alloc::start();
            }
            let (plain, wall, nominal_ns) =
                timed_run(&self.spec, &RunOpts::reported(), "campaign.reported");
            plain_ns.push(nominal_ns);
            observed_ns.push(observed_nominal_ns);
            last = Some((plain, wall, observed));
        }
        let (plain, wall, observed) = last.expect("three rounds ran");
        let (nominal_ns, observed_nominal_ns) =
            (stats::median(&plain_ns), stats::median(&observed_ns));

        let tomography = plain
            .tomography
            .expect("a tomography spec yields a tomography run");
        let (cells, mut failed, digest) = score(&tomography, self.cells);
        let (_, _, observed_digest) = score(
            observed.tomography.as_ref().expect("tomography run"),
            self.cells,
        );
        failed += u64::from(observed_digest != digest);

        let snapshot = observed
            .snapshot
            .as_ref()
            .expect("the observed run observes");
        let counts = Counts {
            events: snapshot.counter("netsim.events_processed"),
            device_packets: snapshot_device_packets(snapshot),
            forks: tomography.cells.len() as u64,
            image_ases: self.ases as u64,
            client_hellos: cells,
            ..Counts::default()
        };

        let report = plain.report.expect("the reported run reports");
        let wall_ns = wall.as_nanos() as f64;
        let busy_ns = report.workers.iter().map(|w| w.busy_ns).sum::<u64>() as f64;
        let cell_us = |q: f64| report.scenario_wall_ns.quantile_lower(q) as f64 / 1e3;
        let mut layer = vec![
            ("measure.probe_share", busy_ns / wall_ns),
            // Image build, pool, collection and the epoch series.
            (
                "measure.driver_share",
                ((wall_ns - busy_ns) / wall_ns).max(0.0),
            ),
            (
                "obs.merge_share",
                ((observed_nominal_ns - nominal_ns) / observed_nominal_ns).max(0.0),
            ),
            ("measure.cell_us_p50", cell_us(0.50)),
        ];
        if stats::supports_p99(tomography.cells.len()) {
            layer.push(("measure.cell_us_p99", cell_us(0.99)));
        }
        RepOut {
            wall,
            nominal_wall_ns: Some(nominal_ns),
            cells,
            failed,
            digest,
            counts,
            layer,
        }
    }

    fn ledger(counts: &Counts, cells: u64, rung: RungCost) -> Vec<LedgerTerm> {
        vec![
            LedgerTerm::new(
                "image build, per AS",
                counts.image_ases as f64,
                rung("topology.gen_ns_per_as"),
            ),
            LedgerTerm::new(
                "lab forks",
                counts.forks as f64,
                rung("topology.fork_as5000_ns"),
            ),
            LedgerTerm::events(counts, rung),
            LedgerTerm::device_packets(counts, rung),
            LedgerTerm::client_hellos(cells, rung),
        ]
    }
}
