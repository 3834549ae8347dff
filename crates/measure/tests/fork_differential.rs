//! The COW-fork contract, property-tested:
//!
//! 1. **Differential**: for arbitrary scenario sequences, a lab forked
//!    from a [`LabImage`] produces byte-identical verdicts, captures, and
//!    observability snapshots to a lab freshly built from the same
//!    builder — the fork IS a fresh build, just cheaper.
//! 2. **Isolation**: traffic, conntrack/frag state, and policy-epoch
//!    mutation inside one fork never leak into sibling forks, later
//!    forks, or the warm image itself.

use proptest::prelude::*;

use tspu_core::{Policy, PolicyDelta, PolicyHandle};
use tspu_measure::domains::{test_domain, DomainVerdict};
use tspu_measure::sweep::scenario_port;
use tspu_registry::Universe;
use tspu_topology::{policy_from_universe, VantageLab};

/// Mix of listed (SNI-I/II/IV, QUIC, IP) and unlisted names from the
/// generated universes, so sequences exercise block and open paths.
const DOMAINS: &[&str] = &[
    "meduza.io",
    "play.google.com",
    "twitter.com",
    "wikipedia.org",
    "nordvpn.com",
    "kernel.org",
    "instagram.com",
    "example.org",
];

/// Everything observable a scenario sequence produces on a lab.
fn drive(mut lab: VantageLab, sequence: &[usize]) -> (Vec<DomainVerdict>, String, String) {
    lab.net.set_capture(true);
    let verdicts: Vec<DomainVerdict> = sequence
        .iter()
        .enumerate()
        .map(|(i, &d)| test_domain(&mut lab, DOMAINS[d % DOMAINS.len()], scenario_port(i)))
        .collect();
    let captures = format!("{:?}", lab.net.take_captures());
    let obs = format!("{:?}", lab.obs_snapshot());
    (verdicts, captures, obs)
}

proptest! {
    /// A fork from the warm image is byte-identical to a fresh build —
    /// for any universe seed and any scenario sequence, including
    /// back-to-back scenarios reusing flows inside one lab.
    #[test]
    fn forked_lab_is_byte_identical_to_fresh_build(
        seed in 0u64..50,
        fork_index in 0usize..1000,
        sequence in proptest::collection::vec(0usize..DOMAINS.len(), 1..6),
    ) {
        let universe = Universe::generate(seed);
        let policy = policy_from_universe(&universe, false, true);

        let fresh = VantageLab::builder().policy(policy.clone()).build();
        let image = VantageLab::builder().policy(policy.clone()).image();
        let forked = image.fork(fork_index);

        prop_assert_eq!(drive(forked, &sequence), drive(fresh, &sequence));
    }

    /// Forking is repeatable: a fork dirtied by traffic changes nothing
    /// about its siblings, about forks taken afterwards, or about the
    /// image — every fork replays the same bytes.
    #[test]
    fn dirty_fork_never_leaks_into_siblings_or_image(
        seed in 0u64..50,
        sequence in proptest::collection::vec(0usize..DOMAINS.len(), 1..5),
        probe in proptest::collection::vec(0usize..DOMAINS.len(), 1..4),
    ) {
        let universe = Universe::generate(seed);
        let policy = policy_from_universe(&universe, false, true);
        let image = VantageLab::builder().policy(policy).image();

        // Sibling forked BEFORE the dirtying traffic.
        let sibling_before = image.fork(1);

        // Dirty fork 0: traffic (conntrack + frag cache + captures +
        // instruments) plus a private policy whose epoch we then bump.
        let mut dirty = image.fork(0);
        let private = PolicyHandle::new(Policy::permissive());
        dirty.set_policy(private.clone());
        let _ = drive(dirty, &sequence);
        private.apply_delta(&PolicyDelta::new());

        // Sibling forked AFTER: must match the one forked before, and
        // both must match what the image says a pristine fork does.
        let sibling_after = image.fork(2);
        let baseline = drive(image.fork(3), &probe);
        prop_assert_eq!(drive(sibling_before, &probe), baseline.clone());
        prop_assert_eq!(drive(sibling_after, &probe), baseline);

        // The shared policy is untouched by the dirty fork's epoch bump.
        prop_assert_eq!(image.policy().epoch(), 0);
    }
}

/// Pristine-fork sanity outside proptest: a fork starts with zeroed
/// instruments, virtual time zero, and no captures, regardless of how
/// many siblings ran before it.
#[test]
fn every_fork_starts_pristine() {
    let universe = Universe::generate(3);
    let policy = policy_from_universe(&universe, false, true);
    let image = VantageLab::builder().policy(policy).image();

    let _ = drive(image.fork(0), &[0, 1, 2]);
    let mut lab = image.fork(1);
    assert_eq!(lab.net.now(), tspu_netsim::Time::ZERO);
    assert!(lab.net.take_captures().is_empty());
    assert_eq!(lab.obs_snapshot().counter("netsim.events_processed"), 0);
}
