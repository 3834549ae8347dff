//! The observability determinism guarantee, end to end: an observed
//! registry campaign produces a byte-identical [`Snapshot`] — metrics,
//! JSON rendering, Chrome trace, and OpenMetrics exposition — no matter
//! how many worker threads execute it. Spans carry *virtual* timestamps
//! and scenario indices, so worker assignment and wall-clock interleaving
//! cannot leak in. The same holds for the campaigns resolved over their
//! own axes: the churn campaign's per-day cells and the differential
//! campaign's per-profile cells, with their merged snapshots.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use tspu_core::{Policy, PolicyHandle};
use tspu_measure::{CellsRun, ChurnCampaign, DifferentialCampaign, RunOpts, ScanPool, SweepSpec};
use tspu_registry::Universe;
use tspu_stack::craft::TcpPacketSpec;
use tspu_topology::{policy_from_universe, LabImage, VantageLab};
use tspu_wire::tcp::TcpFlags;

mod common;
use common::assert_thread_independent;

fn campaign_spec() -> SweepSpec {
    let universe = Universe::generate(3);
    let mut domains: Vec<String> = ["twitter.com", "meduza.io", "play.google.com", "nordvpn.com", "wikipedia.org"]
        .into_iter()
        .map(String::from)
        .collect();
    // Enough unlisted scenarios that 8 workers genuinely shard the sweep.
    for i in 0..59 {
        domains.push(format!("site-{i}.example"));
    }
    SweepSpec::from_universe(&universe, domains)
}

#[test]
fn observed_snapshot_is_byte_identical_across_thread_counts() {
    let spec = campaign_spec();
    assert_thread_independent(&[8], |pool| {
        let run = spec.run(pool, &RunOpts::observed());
        let snapshot = run.snapshot.expect("observed run");
        format!("{:?}\n{}\n{}", run.verdicts, snapshot.to_json(), snapshot.chrome_trace_string())
    });
}

#[test]
fn observed_run_matches_plain_run_and_actually_observes() {
    let spec = campaign_spec();
    let observed = spec.run(&ScanPool::new(4), &RunOpts::observed());
    assert_eq!(observed.verdicts, spec.run(&ScanPool::new(4), &RunOpts::quick()).verdicts);
    assert_eq!(observed.report.expect("report requested").total_items(), spec.len());
    let snapshot = observed.snapshot.expect("observed run");

    assert_eq!(snapshot.counter("sweep.scenarios"), spec.len() as u64);
    let hist = snapshot.histogram("sweep.scenario_us").expect("scenario_us recorded");
    assert_eq!(hist.count(), spec.len() as u64);
    assert!(!snapshot.spans().is_empty(), "tracing was on; spans expected");
    // Every scenario contributed device metrics under its own scope.
    assert!(snapshot.counter("device.ertelecom-sym.packets_seen") > 0);
}

#[test]
fn openmetrics_export_is_byte_identical_across_thread_counts() {
    let spec = campaign_spec();
    let om = assert_thread_independent(&[8], |pool| {
        spec.run(pool, &RunOpts::observed()).snapshot.expect("observed run").to_openmetrics()
    });
    assert!(om.ends_with("# EOF\n"), "exposition must terminate: {om}");
    assert!(om.contains("# TYPE "), "{om}");
}

#[test]
fn churn_day_cells_and_exports_are_byte_identical_across_thread_counts() {
    let universe = Universe::generate(5);
    let mut campaign = ChurnCampaign::escalation_2022();
    campaign.churn.end_day = campaign.churn.start_day + 7;
    assert_thread_independent(&[8], |pool| {
        let report = campaign.run(&universe, pool);
        assert!(!report.convergence_curve().is_empty());
        format!(
            "{:?}\n{}\n{}",
            report.cells,
            report.snapshot.to_json(),
            report.snapshot.to_openmetrics()
        )
    });
}

#[test]
fn differential_cells_and_exports_are_byte_identical_across_thread_counts() {
    let universe = Universe::generate(3);
    let policy = policy_from_universe(&universe, false, true);
    let campaign = DifferentialCampaign::three_country(
        policy,
        vec!["meduza.io".into(), "rust-lang.org".into()],
    );
    assert_thread_independent(&[8], |pool| {
        let (matrix, _) = campaign.run(pool, &RunOpts::observed());
        let snapshot = matrix.snapshot.as_ref().expect("observed run");
        format!("{:?}\n{}\n{}", matrix.cells, snapshot.to_json(), snapshot.to_openmetrics())
    });
}

#[test]
fn the_last_value_gauge_is_the_last_cells_at_any_thread_count() {
    // 191 open cells, then the one blocked domain: its event count is no
    // other cell's, so the merged `events_popped` gauge reads it only if
    // the chunks merged in index order. Which worker claims the last chunk
    // varies run to run, so the parallel run repeats.
    let universe = Universe::generate(3);
    let mut domains: Vec<String> = (0..191).map(|i| format!("site-{i}.example")).collect();
    domains.push("meduza.io".into());
    let spec = SweepSpec::from_universe(&universe, domains);
    let opts = RunOpts { observe: true, ..RunOpts::default() };
    let events_popped = |spec: &SweepSpec, threads: usize| {
        let run = spec.run(&ScanPool::new(threads), &opts);
        run.snapshot.expect("observed run").gauge("netsim.events_popped").expect("cells ran")
    };
    let own = events_popped(&SweepSpec::from_universe(&universe, ["meduza.io"]), 1);
    let open = events_popped(&SweepSpec::from_universe(&universe, ["site-0.example"]), 1);
    assert_ne!(own, open, "the blocked cell must count differently from an open one");
    for (threads, runs) in [(1, 1), (8, 6)] {
        for _ in 0..runs {
            assert_eq!(events_popped(&spec, threads), own, "{threads} threads");
        }
    }
}

/// Three observed cells on `pool`; cell `i` sends `i + 1` SYNs, so each
/// leaves its own `netsim.events_popped`. With `interleave`, cell 0 waits
/// until cell 1 has started and cell 1 until cell 2 has (each wait
/// bounded): on two workers, one worker runs cells 0 and 2 while the
/// other holds cell 1, so worker order is not index order whichever
/// worker joins first.
fn three_cells(image: &LabImage, pool: &ScanPool, interleave: bool) -> CellsRun<usize> {
    let started: [AtomicBool; 3] = Default::default();
    let opts = RunOpts { observe: true, ..RunOpts::default() };
    pool.run_cells(&opts, &[1usize, 2, 3], |_| image, |lab, index, &syns| {
        started[index].store(true, Ordering::Release);
        if let Some(next) = started.get(index + 1).filter(|_| interleave) {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !next.load(Ordering::Acquire) && Instant::now() < deadline {
                std::thread::yield_now();
            }
        }
        let vantage = lab.vantage("Rostelecom");
        let (host, addr) = (vantage.host, vantage.addr);
        for port in 0..syns as u16 {
            let syn = TcpPacketSpec::new(addr, 10_000 + port, lab.us_main_addr, 443, TcpFlags::SYN).build();
            lab.net.send_from(host, syn);
        }
        lab.net.run_until_idle();
        index
    })
}

#[test]
fn chunks_merge_in_index_order_when_workers_interleave() {
    let image = VantageLab::builder().policy(PolicyHandle::new(Policy::permissive())).image();
    let serial = three_cells(&image, &ScanPool::single_thread(), false);
    let forced = three_cells(&image, &ScanPool::new(2), true);
    assert_eq!(forced.cells, [0, 1, 2], "cells come back in index order");
    let json = |run: &CellsRun<usize>| run.snapshot.as_ref().expect("observed run").to_json();
    assert_eq!(json(&forced), json(&serial), "the last-value gauge is cell 2's");
}

#[test]
fn quick_run_carries_no_snapshot_or_report() {
    let spec = campaign_spec();
    let quick = spec.run(&ScanPool::new(2), &RunOpts::quick());
    assert!(quick.snapshot.is_none());
    assert!(quick.report.is_none());
}
