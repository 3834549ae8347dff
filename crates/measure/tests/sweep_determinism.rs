//! The parallel-sweep contract: the same `SweepSpec` produces
//! byte-identical aggregated results at every thread count, and the whole
//! simulation stack is `Send` so it can be sharded at all.

use tspu_measure::domains::DomainVerdict;
use tspu_measure::sweep::{registry_campaign, RunOpts, ScanPool, SweepSpec};
use tspu_measure::LocalizeSpec;
use tspu_registry::Universe;
use tspu_topology::{policy_from_universe, VantageLab};

mod common;
use common::assert_thread_independent;

fn assert_send<T: Send>() {}

#[test]
fn simulation_stack_is_send() {
    assert_send::<tspu_netsim::Network>();
    assert_send::<VantageLab>();
    assert_send::<tspu_topology::Vantage>();
    assert_send::<tspu_core::PolicyHandle>();
    assert_send::<ScanPool>();
    assert_send::<SweepSpec>();
}

/// Acceptance: 1, 2 and 8 threads over the same spec agree byte-for-byte.
#[test]
fn sweep_is_byte_identical_across_thread_counts() {
    let universe = Universe::generate(2022);
    let domains: Vec<String> = universe
        .registry_sample
        .iter()
        .take(40)
        .map(|d| d.name.clone())
        .chain(
            ["meduza.io", "play.google.com", "twitter.com", "wikipedia.org", "nordvpn.com"]
                .map(String::from),
        )
        .collect();
    let spec = SweepSpec::from_universe(&universe, domains);

    assert_thread_independent(&[2, 8], |pool| {
        let verdicts = spec.run(pool, &RunOpts::quick()).verdicts;
        assert!(verdicts.iter().any(|v| *v != DomainVerdict::Open), "sweep found no blocking");
        format!("{verdicts:?}")
    });
}

#[test]
fn campaign_aggregation_is_thread_count_independent() {
    let universe = Universe::generate(2022);
    let names: Vec<&str> = universe
        .registry_sample
        .iter()
        .take(30)
        .map(|d| d.name.as_str())
        .collect();
    // `isp_blocked` holds `HashSet`s whose debug order is seeded per
    // instance; canonicalize to sorted lists before the byte comparison.
    let canonical = |campaign: &tspu_measure::domains::DomainCampaign| {
        let isp: std::collections::BTreeMap<&String, Vec<&String>> = campaign
            .isp_blocked
            .iter()
            .map(|(isp, set)| {
                let mut sorted: Vec<&String> = set.iter().collect();
                sorted.sort();
                (isp, sorted)
            })
            .collect();
        format!("{:?}\n{isp:?}", campaign.tspu)
    };
    assert_thread_independent(&[2, 8], |pool| {
        canonical(&registry_campaign(&universe, names.iter().copied(), pool))
    });
}

#[test]
fn pooled_localization_is_thread_count_independent() {
    let policy = policy_from_universe(&Universe::generate(2022), false, true);
    assert_thread_independent(&[2, 8], |pool| {
        let found: Vec<_> = ["Rostelecom", "ER-Telecom", "OBIT"]
            .iter()
            .map(|v| {
                LocalizeSpec::symmetric(policy.clone(), v)
                    .port_base(55_000)
                    .run(pool, &RunOpts::quick())
                    .first()
            })
            .collect();
        format!("{found:?}")
    });
}
