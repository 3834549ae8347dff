//! The campaign kernel, tier-1: every driver runs its cells through
//! `ScanPool::run_cells`, so at small size each one must produce the same
//! bytes — cells and merged snapshot — at one and two threads, and
//! `RunOpts` must mean the same thing under every driver that takes it.
//! The CI `determinism` job checks the `tspu-measure` drivers at length and
//! at eight threads; the CI `test` job `cmp`s the §5/§6/§8 `experiments`
//! output at one and eight.
//! The churn driver's cells start from `PolicyHistory::as_of`; the replay
//! that used to build that policy is kept here as its reference.

use std::collections::BTreeSet;

use tspu::circumvent::evaluate_matrix;
use tspu::core::{Hardening, Policy, PolicyHandle, PolicyHistory};
use tspu::measure::chaos::{ChaosScenario, ChaosSweep};
use tspu::measure::domains::test_domain;
use tspu::measure::reliability::Mechanism;
use tspu::measure::sweep::scenario_port;
use tspu::measure::{sequences, timeouts};
use tspu::measure::{
    churn_delta, ChurnCampaign, DifferentialCampaign, LocalizeSpec, RunOpts, ScanPool, SweepSpec,
    TomographyConfig,
};
use tspu::registry::{ChurnConfig, ChurnSchedule, Universe};
use tspu::topology::{policy_from_universe, GenParams, VantageLab};
use tspu_obs::Snapshot;

const DOMAINS: [&str; 5] =
    ["meduza.io", "play.google.com", "twitter.com", "wikipedia.org", "rust-lang.org"];

fn domains() -> Vec<String> {
    DOMAINS.map(String::from).to_vec()
}

fn policy(universe: &Universe) -> PolicyHandle {
    policy_from_universe(universe, false, true)
}

fn tomography(policy: PolicyHandle) -> LocalizeSpec {
    LocalizeSpec::tomography(policy, TomographyConfig::new(GenParams::new(13, 140)).cells(4))
}

// The same comparison the `tspu-measure` determinism suites are written in.
#[path = "../crates/measure/tests/common/mod.rs"]
mod common;

/// Renders the campaign at one and at two threads and demands equal bytes.
fn assert_same_at_one_and_two_threads(driver: &str, render: impl Fn(&ScanPool) -> String) {
    println!("{driver}");
    common::assert_thread_independent(&[2], render);
}

#[test]
fn every_driver_is_byte_identical_at_one_and_two_threads() {
    let universe = Universe::generate(2022);
    let policy = policy(&universe);

    let sweep = SweepSpec::from_universe(&universe, domains());
    assert_same_at_one_and_two_threads("sweep", |pool| {
        let run = sweep.run(pool, &RunOpts::observed());
        format!("{:?}\n{:?}", run.verdicts, run.snapshot)
    });

    let chaos = ChaosSweep {
        scenarios: vec![
            ChaosScenario { vantage: "ER-Telecom", mechanism: Mechanism::Sni1 },
            ChaosScenario { vantage: "OBIT", mechanism: Mechanism::Sni2 },
        ],
        ..ChaosSweep::table1_grid(policy.clone(), vec![11, 22], 3)
    };
    assert_same_at_one_and_two_threads("chaos", |pool| {
        let cells = chaos.run(pool);
        assert_eq!(cells.len(), 4);
        assert!(cells.iter().all(|c| c.oracle_violations.is_empty()), "{cells:?}");
        format!("{cells:?}")
    });

    let mut churn = ChurnCampaign::escalation_2022();
    churn.churn.end_day = churn.churn.start_day + 5;
    assert_same_at_one_and_two_threads("churn", |pool| {
        let report = churn.run(&universe, pool);
        assert!(!report.cells.is_empty());
        format!("{:?}\n{}", report.cells, report.snapshot.to_json())
    });

    let differential = DifferentialCampaign::three_country(policy.clone(), domains());
    assert_same_at_one_and_two_threads("differential", |pool| {
        let (matrix, _) = differential.run(pool, &RunOpts::observed());
        assert!(matrix.oracle_clean(), "{:?}", matrix.oracle_violations());
        format!("{:?}\n{:?}", matrix.cells, matrix.snapshot)
    });

    let walk = LocalizeSpec::symmetric(policy.clone(), "Rostelecom");
    assert_same_at_one_and_two_threads("localize", |pool| {
        let run = walk.run(pool, &RunOpts::observed());
        assert_eq!(run.first().map(|d| d.after_hop), Some(2));
        format!("{:?}\n{:?}", run.devices, run.snapshot)
    });

    let tomography = tomography(policy.clone());
    assert_same_at_one_and_two_threads("tomography", |pool| {
        let run = tomography.run(pool, &RunOpts::observed());
        let cells = run.tomography.expect("tomography technique");
        assert!(cells.cells.iter().all(|c| c.named), "{:?}", cells.cells);
        format!("{cells:?}\n{:?}", run.snapshot)
    });

    assert_same_at_one_and_two_threads("explore", |pool| {
        let verdicts = sequences::explore(&policy, 1, "ER-Telecom", pool);
        assert_eq!(verdicts.len(), 7);
        format!("{verdicts:?}")
    });

    let table8 = timeouts::table8_sequences()[..3].to_vec();
    assert_same_at_one_and_two_threads("table8", |pool| {
        format!("{:?}", timeouts::sequence_timeouts(&policy, &table8, pool))
    });

    assert_same_at_one_and_two_threads("residuals", |pool| {
        format!("{:?}", timeouts::block_residuals(&policy, pool))
    });

    for (matrix, hardening) in [("circumvention", Hardening::none()), ("arms race", Hardening::full())] {
        assert_same_at_one_and_two_threads(matrix, |pool| {
            format!("{:?}", evaluate_matrix(&universe, hardening, pool))
        });
    }
}

/// Traffic guard for the single binary-heap event queue (DESIGN.md "Event
/// queue"): a sweep cell keeps one packet in flight, so the pending-event
/// high-water mark over all cells is 1. A workload that parks orders of
/// magnitude more fails here and reopens heap-vs-wheel with data.
#[test]
fn sweep_cells_keep_the_event_queue_shallow() {
    let universe = Universe::generate(2022);
    let image = VantageLab::builder().policy(policy(&universe)).image();
    let sweep_cell = |lab: &mut VantageLab, index: usize, domain: &String| {
        test_domain(lab, domain, scenario_port(index));
        lab.net.queue_depth_max()
    };
    let run = ScanPool::new(1).run_cells(&RunOpts::quick(), &domains(), |_| &image, sweep_cell);
    let peak = run.cells.iter().max();
    assert!(matches!(peak, Some(1..=64)), "queue_depth_max = {peak:?}");
}

/// What a churn cell starts from: at every batch position of the
/// seed-2022 escalation schedule, the compiled history read at `pos` is
/// `Policy::permissive()` with `batches[..pos]` replayed — the replay the
/// cell itself used to run, kept here as the reference.
#[test]
fn churn_history_equals_the_replayed_policy_at_every_batch_position() {
    let universe = Universe::generate(2022);
    let schedule = ChurnSchedule::from_universe(&universe, &ChurnConfig::escalation_2022());
    let batches = schedule.batches();
    assert!(batches.iter().any(|b| !b.remove.is_empty()), "the window delists something");
    let history = PolicyHistory::compile(batches.iter().map(churn_delta));
    assert_eq!(history.versions(), batches.len());

    let mut replayed = Policy::permissive();
    for (pos, batch) in batches.iter().enumerate() {
        let as_of = history.as_of(pos).expect("pos is a compiled version");
        assert_eq!(as_of, replayed, "position {pos} (day {})", batch.day);
        assert_eq!(as_of.sni_rst.iter().count(), replayed.sni_rst.len(), "position {pos}");
        for name in batch.add.iter().chain(&batch.remove) {
            let host = format!("WWW.{name}.");
            assert_eq!(
                as_of.sni_rst.matches(&host),
                replayed.sni_rst.matches(&host),
                "position {pos}: {host}"
            );
        }
        replayed.apply_delta(&churn_delta(batch));
    }
    assert_eq!(history.as_of(batches.len()), Some(replayed));
    assert_eq!(history.as_of(batches.len() + 1), None);
}

/// Cell indices that left spans in a campaign snapshot.
fn traced_cells(snapshot: Option<Snapshot>) -> BTreeSet<u32> {
    snapshot.expect("sampled runs observe").spans().iter().map(|span| span.scenario).collect()
}

fn even_cells(cells: usize) -> BTreeSet<u32> {
    (0..cells as u32).step_by(2).collect()
}

/// `RunOpts::sampled(2)` under every driver that takes `RunOpts`: metrics
/// from every cell, spans from exactly the even ones.
#[test]
fn sampling_traces_exactly_the_even_cells_under_every_driver() {
    let universe = Universe::generate(2022);
    let policy = policy(&universe);
    let opts = RunOpts::sampled(2);
    let pool = ScanPool::new(2);

    let sweep = SweepSpec::from_universe(&universe, domains()).run(&pool, &opts);
    assert_eq!(traced_cells(sweep.snapshot), even_cells(5), "sweep");

    let differential = DifferentialCampaign::three_country(policy.clone(), domains());
    let (matrix, _) = differential.run(&pool, &opts);
    assert_eq!(traced_cells(matrix.snapshot), even_cells(15), "differential");

    let walk = LocalizeSpec::symmetric(policy.clone(), "Rostelecom").max_ttl(5).run(&pool, &opts);
    assert_eq!(traced_cells(walk.snapshot), even_cells(5), "localize");

    let tomography = tomography(policy).run(&pool, &opts);
    assert_eq!(traced_cells(tomography.snapshot), even_cells(4), "tomography");
}
