//! Generated-topology acceptance suite: sweeps and tomography over
//! seeded AS graphs are byte-identical at every thread count, the TTL
//! walk works unchanged on generated labs, and the 5000-AS headline
//! graph builds, forks, and sweeps 1 000 registry domains oracle-clean.

use tspu_measure::domains::{test_domain, DomainVerdict};
use tspu_measure::sweep::{RunOpts, ScanPool, SweepSpec};
use tspu_measure::{LocalizeSpec, LocalizedDevice, TomographyConfig};
use tspu_registry::Universe;
use tspu_topology::{policy_from_universe, GenParams, Placement, TopologySpec, VantageLab};

mod common;
use common::assert_thread_independent;

fn policy() -> tspu_core::PolicyHandle {
    policy_from_universe(&Universe::generate(2022), false, true)
}

/// A 45-domain sweep over a generated 300-AS graph agrees byte-for-byte
/// (verdicts *and* observability snapshot) at 1, 2 and 8 threads.
#[test]
fn generated_sweep_is_byte_identical_across_thread_counts() {
    let universe = Universe::generate(2022);
    let domains: Vec<String> = ["meduza.io", "play.google.com", "wikipedia.org"]
        .map(String::from)
        .into_iter()
        .chain(universe.registry_sample.iter().take(42).map(|d| d.name.clone()))
        .collect();
    let spec = SweepSpec::from_universe(&universe, domains)
        .with_topology(TopologySpec::Generated(GenParams::new(2022, 300)));

    assert_thread_independent(&[2, 8], |pool| {
        let run = spec.run(pool, &RunOpts::observed());
        // Anchor verdicts: generated clients see the same central policy
        // the Fig. 1 vantages do.
        assert_eq!(run.verdicts[0], DomainVerdict::Sni1, "meduza.io");
        assert_eq!(run.verdicts[1], DomainVerdict::Sni2, "play.google.com");
        assert_eq!(run.verdicts[2], DomainVerdict::Open, "wikipedia.org");
        format!("{:?}\n{:?}", run.verdicts, run.snapshot)
    });
}

/// The §7.1 symmetric TTL walk runs unchanged on generated labs (vantage
/// = client index string) and finds the generator's ground-truth hops:
/// transit devices sit after hop 2, the border device after hop 3.
#[test]
fn ttl_walk_localizes_generated_devices() {
    let policy = policy();
    let pool = ScanPool::single_thread();
    let found = LocalizeSpec::symmetric(policy.clone(), "0")
        .with_topology(TopologySpec::Generated(GenParams::new(3, 120)))
        .max_ttl(4)
        .run(&pool, &RunOpts::quick())
        .first();
    assert_eq!(found, Some(LocalizedDevice { after_hop: 2 }), "all-transit placement");

    let border_only = GenParams::new(3, 120).placement(Placement::BorderOnly);
    let found = LocalizeSpec::symmetric(policy, "1")
        .with_topology(TopologySpec::Generated(border_only))
        .max_ttl(4)
        .run(&pool, &RunOpts::quick())
        .first();
    assert_eq!(found, Some(LocalizedDevice { after_hop: 3 }), "border-only placement");
}

/// Acceptance: tomography names the ground-truth device AS in ≥95% of
/// cells, and the TTL cross-check agrees with the generator's hop on
/// every cell that has a crossing path.
#[test]
fn tomography_names_the_active_device() {
    let config = TomographyConfig::new(GenParams::new(7, 160));
    let run = LocalizeSpec::tomography(policy(), config)
        .run(&ScanPool::from_env(), &RunOpts::quick())
        .tomography
        .expect("tomography technique returns a TomographyRun");

    assert_eq!(run.cells.len(), 8);
    assert!(
        run.named_fraction() >= 0.95,
        "named {}/{} cells",
        run.cells.iter().filter(|c| c.named).count(),
        run.cells.len()
    );
    for cell in &run.cells {
        let active = cell.active_as.expect("all-transit placement: every cell has a device");
        assert_eq!(cell.suspects, vec![active], "cell {}", cell.cell);
        assert_eq!(cell.ttl_hop, cell.ttl_truth, "cell {} TTL cross-check", cell.cell);
        assert!(cell.ttl_truth.is_some(), "cell {}: no final-epoch path crosses the device", cell.cell);
        // 9 epochs (8 flips) × 4 clients, in (epoch, client) order.
        assert_eq!(cell.probes.len(), 36, "cell {}", cell.cell);
    }
    let probes: usize = run.cells.iter().map(|cell| cell.probes.len()).sum();
    assert_eq!(probes, 8 * 36);
}

/// Tomography is a pure function of its config: runs at 1 and 8 threads
/// agree byte-for-byte, including the merged observability snapshot.
#[test]
fn tomography_is_byte_identical_across_thread_counts() {
    let config = TomographyConfig::new(GenParams::new(13, 140)).cells(4);
    let spec = LocalizeSpec::tomography(policy(), config);
    assert_thread_independent(&[8], |pool| {
        let run = spec.run(pool, &RunOpts::observed());
        format!("{:?}\n{:?}", run.tomography, run.snapshot)
    });
}

/// The headline scale point: a 5000-AS generated graph builds, forks via
/// `LabImage`, sweeps 1 000 registry domains with clean anchor verdicts,
/// and a captured fork of the same image passes the enforcement oracle.
#[test]
fn five_thousand_as_graph_sweeps_a_thousand_domains_oracle_clean() {
    let universe = Universe::generate(2022);
    let params = GenParams::new(5000, 5000);
    let domains: Vec<String> = ["meduza.io", "wikipedia.org"]
        .map(String::from)
        .into_iter()
        .chain(universe.registry_sample.iter().take(998).map(|d| d.name.clone()))
        .collect();
    let spec = SweepSpec::from_universe(&universe, domains)
        .with_topology(TopologySpec::Generated(params.clone()));
    let run = spec.run(&ScanPool::from_env(), &RunOpts::quick());
    assert_eq!(run.verdicts.len(), 1_000);
    assert_eq!(run.verdicts[0], DomainVerdict::Sni1, "meduza.io");
    assert_eq!(run.verdicts[1], DomainVerdict::Open, "wikipedia.org");
    let blocked = run.verdicts.iter().filter(|v| **v != DomainVerdict::Open).count();
    assert!(blocked > 0, "sweep found no blocking on the 5000-AS graph");

    // Oracle check on a captured fork: every RST/ACK and drop the capture
    // holds must be justified by the policy.
    let mut lab = VantageLab::builder()
        .policy(spec.policy.clone())
        .topology(TopologySpec::Generated(params))
        .image()
        .fork(0);
    lab.net.set_capture(true);
    let _ = test_domain(&mut lab, "meduza.io", 4_000);
    let _ = test_domain(&mut lab, "wikipedia.org", 4_002);
    let report = lab.oracle_audit();
    let violations: Vec<String> = report.violations.iter().map(|v| v.to_string()).collect();
    assert!(violations.is_empty(), "{violations:?}");
}
