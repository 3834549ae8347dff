//! DifferentialCampaign determinism: the per-(domain, profile) verdict
//! matrix and its merged observability snapshot are byte-identical at
//! every worker count. Cells are pure functions of (profile, domain,
//! index) — forked per-profile lab images, index-derived ports, index-
//! ordered snapshot merge — so thread scheduling cannot leak in. The CI
//! `profiles` job runs this file at `--test-threads={1,8}` on top of the
//! pool counts exercised here.

use tspu_core::PolicyHandle;
use tspu_measure::{DifferentialCampaign, RunOpts, ScanPool, TlsVerdict};
use tspu_registry::Universe;
use tspu_topology::policy_from_universe;

mod common;
use common::assert_thread_independent;

fn campaign() -> DifferentialCampaign {
    let universe = Universe::generate(3);
    let policy: PolicyHandle = policy_from_universe(&universe, false, true);
    let mut domains: Vec<String> = ["meduza.io", "twitter.com", "nordvpn.com", "rust-lang.org"]
        .into_iter()
        .map(String::from)
        .collect();
    // Enough unlisted domains that 8 workers genuinely shard the matrix.
    for i in 0..16 {
        domains.push(format!("site-{i}.example"));
    }
    DifferentialCampaign::three_country(policy, domains)
}

#[test]
fn matrix_is_byte_identical_across_thread_counts() {
    let campaign = campaign();
    assert_thread_independent(&[8], |pool| {
        let (matrix, _) = campaign.run(pool, &RunOpts::observed());
        assert!(matrix.oracle_clean(), "{:?}", matrix.oracle_violations());
        let snapshot = matrix.snapshot.as_ref().expect("observed run");
        format!("{:?}\n{matrix}\n{}", matrix.cells, snapshot.to_json())
    });
}

#[test]
fn matrix_layout_is_profile_major_and_complete() {
    let campaign = campaign();
    let (matrix, report) = campaign.run(&ScanPool::new(4), &RunOpts::observed());

    assert_eq!(matrix.cells.len(), campaign.len());
    assert_eq!(matrix.profiles, vec!["tspu", "turkmenistan", "india"]);
    // Profile-major, domain-minor: the first |domains| cells are tspu's.
    let n = campaign.domains.len();
    assert!(matrix.cells[..n].iter().all(|c| c.profile == "tspu"));
    assert!(matrix.cells[n..2 * n].iter().all(|c| c.profile == "turkmenistan"));
    assert!(matrix.cells[2 * n..].iter().all(|c| c.profile == "india"));
    for (i, cell) in matrix.cells.iter().enumerate() {
        assert_eq!(cell.domain, campaign.domains[i % n], "cell {i} out of order");
    }
    assert_eq!(report.expect("report requested").total_items(), campaign.len());

    // The campaign axis actually differentiates: the same domain, three
    // different country verdicts.
    assert_eq!(matrix.cell("tspu", "meduza.io").tls, TlsVerdict::RstLocal);
    assert_eq!(matrix.cell("turkmenistan", "meduza.io").tls, TlsVerdict::RstBidirectional);
    assert_eq!(matrix.cell("india", "meduza.io").tls, TlsVerdict::Pass);
}

#[test]
fn quick_matrix_carries_no_snapshot() {
    let campaign = DifferentialCampaign {
        domains: vec!["meduza.io".into()],
        ..campaign()
    };
    let (matrix, report) = campaign.run(&ScanPool::new(2), &RunOpts::quick());
    assert!(matrix.snapshot.is_none());
    assert!(report.is_none());
}
