//! Cross-crate integration: a sweep over a generated AS graph rides forked
//! lab cells that build only the devices their packets cross — the tier-1
//! guard for what the CI `topology` job checks at length.

use tspu::measure::domains::DomainVerdict;
use tspu::measure::sweep::{RunOpts, ScanPool, SweepSpec};
use tspu::registry::Universe;
use tspu::topology::{GenParams, TopologySpec};

/// A 200-domain sweep over a 1000-AS graph: anchor verdicts hold, and
/// verdicts and the merged observability snapshot agree byte for byte at 1
/// and 2 threads.
#[test]
fn generated_sweep_is_byte_identical_at_one_and_two_threads() {
    let universe = Universe::generate(2022);
    let domains: Vec<String> = ["meduza.io", "play.google.com", "wikipedia.org"]
        .map(String::from)
        .into_iter()
        .chain(universe.registry_sample.iter().take(197).map(|d| d.name.clone()))
        .collect();
    let spec = SweepSpec::from_universe(&universe, domains)
        .with_topology(TopologySpec::Generated(GenParams::new(2022, 1000)));

    let serial = spec.run(&ScanPool::new(1), &RunOpts::observed());
    assert_eq!(serial.verdicts.len(), 200);
    assert_eq!(serial.verdicts[0], DomainVerdict::Sni1, "meduza.io");
    assert_eq!(serial.verdicts[1], DomainVerdict::Sni2, "play.google.com");
    assert_eq!(serial.verdicts[2], DomainVerdict::Open, "wikipedia.org");

    let parallel = spec.run(&ScanPool::new(2), &RunOpts::observed());
    assert_eq!(
        format!("{:?}\n{:?}", parallel.verdicts, parallel.snapshot),
        format!("{:?}\n{:?}", serial.verdicts, serial.snapshot),
        "2-thread generated sweep diverged from single-thread"
    );
}
