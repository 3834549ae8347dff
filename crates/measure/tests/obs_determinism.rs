//! The observability determinism guarantee, end to end: an observed
//! registry campaign produces a byte-identical [`Snapshot`] — metrics,
//! JSON rendering, Chrome trace, and OpenMetrics exposition — no matter
//! how many worker threads execute it. Spans carry *virtual* timestamps
//! and scenario indices, so worker assignment and wall-clock interleaving
//! cannot leak in. The same holds for the campaigns resolved over their
//! own axes: the churn campaign's per-day cells and the differential
//! campaign's per-profile cells, with their merged snapshots.

use tspu_measure::{ChurnCampaign, DifferentialCampaign, RunOpts, ScanPool, SweepSpec};
use tspu_registry::Universe;
use tspu_topology::policy_from_universe;

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
fn quick_run_carries_no_snapshot_or_report() {
    let spec = campaign_spec();
    let quick = spec.run(&ScanPool::new(2), &RunOpts::quick());
    assert!(quick.snapshot.is_none());
    assert!(quick.report.is_none());
}
