//! Differential tests pinning the policy's fast paths to references.
//!
//! * The bucketed rolling-hash `DomainSet` must agree with
//!   `tspu_spec::names::RefDomainSet`, the seed's `HashSet<String>` suffix
//!   matcher (lowercase, strip one trailing dot, walk `split_once('.')`
//!   suffixes, never descend to a bare TLD), on every input, including
//!   trailing dots, mixed case, consecutive dots, and bare-TLD queries.
//! * `policy_delta_differential`: incremental deltas, a rebuild from
//!   scratch and `PolicyHistory` arrive at the same policy.

use proptest::prelude::*;
use std::collections::HashSet;
use std::net::Ipv4Addr;

use tspu_core::policy::DomainSet;
use tspu_spec::names::RefDomainSet;

fn arb_label() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9-]{1,8}"
}

/// Domains of 1–3 labels — includes bare TLDs ("ru") and deep names.
fn arb_domain() -> impl Strategy<Value = String> {
    proptest::collection::vec(arb_label(), 1..4).prop_map(|labels| labels.join("."))
}

/// A query derived from the inserted list: exact entries, subdomains of
/// entries, unrelated hosts, and bare labels — each optionally
/// upper-cased and/or given a trailing dot.
fn build_query(
    domains: &[String],
    pick: u8,
    prefix: &str,
    upper: bool,
    trailing_dot: bool,
    unrelated: String,
) -> String {
    let base = match pick % 4 {
        0 => domains[usize::from(pick) % domains.len()].clone(),
        1 => format!("{prefix}.{}", domains[usize::from(pick) % domains.len()]),
        2 => unrelated,
        _ => prefix.to_string(),
    };
    let mut host = if upper { base.to_ascii_uppercase() } else { base };
    if trailing_dot {
        host.push('.');
    }
    host
}

proptest! {
    /// Old and new matchers agree on every query over a random blocklist.
    #[test]
    fn domainset_agrees_with_seed_matcher(
        domains in proptest::collection::vec(arb_domain(), 1..25),
        queries in proptest::collection::vec(
            (any::<u8>(), arb_label(), any::<bool>(), any::<bool>(), arb_domain()),
            1..60,
        ),
    ) {
        let fast = DomainSet::from_names(domains.iter().cloned());
        let mut reference = RefDomainSet::default();
        for d in &domains {
            reference.insert(d);
        }
        prop_assert_eq!(fast.len(), reference.entries.len());
        for (pick, prefix, upper, dot, unrelated) in queries {
            let host = build_query(&domains, pick, &prefix, upper, dot, unrelated);
            prop_assert_eq!(
                fast.matches(&host),
                reference.matches(&host),
                "matchers disagree on {:?}", host
            );
        }
    }

    /// Agreement survives interleaved inserts and removes (removal takes
    /// the un-normalized name, exactly as the seed did).
    #[test]
    fn domainset_agrees_after_removals(
        domains in proptest::collection::vec(arb_domain(), 2..20),
        removals in proptest::collection::vec((any::<u8>(), any::<bool>()), 1..10),
        queries in proptest::collection::vec(
            (any::<u8>(), arb_label(), any::<bool>(), any::<bool>(), arb_domain()),
            1..40,
        ),
    ) {
        let mut fast = DomainSet::from_names(domains.iter().cloned());
        let mut reference = RefDomainSet::default();
        for d in &domains {
            reference.insert(d);
        }
        for (pick, upper) in removals {
            let victim = &domains[usize::from(pick) % domains.len()];
            let victim = if upper { victim.to_ascii_uppercase() } else { victim.clone() };
            fast.remove(&victim);
            reference.remove(&victim);
        }
        prop_assert_eq!(fast.len(), reference.entries.len());
        for (pick, prefix, upper, dot, unrelated) in queries {
            let host = build_query(&domains, pick, &prefix, upper, dot, unrelated);
            prop_assert_eq!(
                fast.matches(&host),
                reference.matches(&host),
                "matchers disagree on {:?} after removals", host
            );
        }
    }
}

/// Hand-picked corner cases the strategies may hit only rarely.
#[test]
fn domainset_seed_agreement_corner_cases() {
    let entries = ["Facebook.COM.", "ru", "xn--p1ai", "a..b", "v.k.com", "."];
    let hosts = [
        "facebook.com",
        "www.FACEBOOK.com.",
        "login.web.facebook.com",
        "notfacebook.com",
        "ru",
        "RU.",
        "mail.ru",
        "x.xn--p1ai",
        "a..b",
        "z.a..b",
        "k.com",
        "q.v.k.com",
        "",
        ".",
        "..",
        "com",
    ];
    let fast = DomainSet::from_names(entries);
    let mut reference = RefDomainSet::default();
    for e in entries {
        reference.insert(e);
    }
    for host in hosts {
        assert_eq!(
            fast.matches(host),
            reference.matches(host),
            "matchers disagree on {host:?}"
        );
    }
}

/// Insert-side normalization, applied to both sides of the delta
/// differential's membership model.
fn normalize(name: &str) -> String {
    let mut d = name.to_ascii_lowercase();
    if d.ends_with('.') {
        d.pop();
    }
    d
}

fn sorted(set: &DomainSet) -> Vec<&str> {
    let mut names: Vec<&str> = set.iter().collect();
    names.sort_unstable();
    names
}

/// SNI-I…IV, in `Policy` field order.
fn lists(policy: &tspu_core::Policy) -> [&DomainSet; 4] {
    [&policy.sni_rst, &policy.sni_slow, &policy.sni_throttle, &policy.sni_backup]
}

/// Two policies that must be the same policy: entry sets, `len`, matcher
/// verdicts on every spelling in `hosts`, toggles, addresses, epoch.
fn assert_same_policy(
    what: &str,
    got: &tspu_core::Policy,
    want: &tspu_core::Policy,
    hosts: &[String],
) {
    for (list, (got, want)) in lists(got).into_iter().zip(lists(want)).enumerate() {
        assert_eq!(sorted(got), sorted(want), "{what}: SNI list {list} entries");
        assert_eq!(got.len(), want.len(), "{what}: SNI list {list} len");
        assert_eq!(got.is_empty(), want.is_empty(), "{what}: SNI list {list} is_empty");
        for host in hosts {
            assert_eq!(got.matches(host), want.matches(host), "{what}: SNI list {list} on {host}");
        }
    }
    assert_eq!(got.quic_filter, want.quic_filter, "{what}: quic_filter");
    assert_eq!(got.throttle_active, want.throttle_active, "{what}: throttle_active");
    assert_eq!(got.blocked_ips, want.blocked_ips, "{what}: blocked_ips");
    assert_eq!(got.epoch, want.epoch, "{what}: epoch");
    assert_eq!(got, want, "{what}: PartialEq");
}

proptest! {
    /// Three ways to the same policy. Incremental [`Policy::apply_delta`]
    /// (plus `DomainSet::remove`) and a from-scratch rebuild of the final
    /// membership agree exactly — same entry set, same matcher verdicts
    /// on mixed-case and trailing-dot spellings — and the epoch advances
    /// once per delta. And for every prefix length `k`,
    /// `PolicyHistory::as_of(k)` *is* the policy replayed to `k`, and
    /// applying the remaining deltas onto it (its overlay and tombstones)
    /// arrives where the full replay does. Names come from a small pool,
    /// bare and as `sub.` children, so delisting, re-listing and a
    /// delisted parent over a listed child all occur.
    #[test]
    fn policy_delta_differential(
        pool in proptest::collection::vec(arb_domain(), 1..6),
        ops in proptest::collection::vec(
            (
                (any::<bool>(), any::<u8>(), any::<bool>(), any::<bool>(), any::<bool>()),
                0usize..4,
                0u8..12,
            ),
            1..50,
        ),
        chunk in 1usize..6,
    ) {
        use tspu_core::{Policy, PolicyDelta, PolicyHistory};

        let name_of = |pick: u8, sub: bool| {
            let name = &pool[usize::from(pick) % pool.len()];
            if sub { format!("sub.{name}") } else { name.clone() }
        };
        let mut deltas: Vec<PolicyDelta> = Vec::new();
        for batch in ops.chunks(chunk) {
            let mut delta = PolicyDelta::default();
            for &((add, pick, sub, upper, dot), list, extra) in batch {
                let name = name_of(pick, sub);
                let mut spelled = if upper { name.to_ascii_uppercase() } else { name };
                if dot {
                    spelled.push('.');
                }
                let (adds, removes) = match list {
                    0 => (&mut delta.add_rst, &mut delta.remove_rst),
                    1 => (&mut delta.add_slow, &mut delta.remove_slow),
                    2 => (&mut delta.add_throttle, &mut delta.remove_throttle),
                    _ => (&mut delta.add_backup, &mut delta.remove_backup),
                };
                if add { adds.push(spelled) } else { removes.push(spelled) }
                let ip = Ipv4Addr::new(198, 51, 100, pick % 4);
                match extra {
                    0 => delta.quic_filter = Some(add),
                    1 => delta.throttle_active = Some(add),
                    2 | 3 => delta.block_ips.push(ip),
                    4 => delta.unblock_ips.push(ip),
                    _ => {}
                }
            }
            deltas.push(delta);
        }

        let mut incremental = Policy::permissive();
        let mut membership: [HashSet<String>; 4] = Default::default();
        for delta in &deltas {
            // A delta applies all its additions, then all its removals —
            // mirror that order in the membership model.
            for (members, (adds, removes)) in membership.iter_mut().zip([
                (&delta.add_rst, &delta.remove_rst),
                (&delta.add_slow, &delta.remove_slow),
                (&delta.add_throttle, &delta.remove_throttle),
                (&delta.add_backup, &delta.remove_backup),
            ]) {
                for name in adds {
                    members.insert(normalize(name));
                }
                for name in removes {
                    members.remove(&normalize(name));
                }
            }
            incremental.apply_delta(delta);
        }
        prop_assert_eq!(incremental.epoch, deltas.len() as u64);

        let hosts: Vec<String> = ops
            .iter()
            .flat_map(|&((_, pick, sub, _, _), _, _)| {
                let name = name_of(pick, sub);
                [
                    name.to_ascii_uppercase(),
                    format!("{name}."),
                    format!("sub.{name}"),
                    format!("Deep.sub.{name}."),
                    name,
                ]
            })
            .collect();

        for (members, churned) in membership.iter().zip(lists(&incremental)) {
            let rebuilt = DomainSet::from_names(members.iter().cloned());
            prop_assert_eq!(churned.len(), rebuilt.len());
            prop_assert_eq!(sorted(churned), sorted(&rebuilt));
            for host in &hosts {
                prop_assert_eq!(
                    churned.matches(host),
                    rebuilt.matches(host),
                    "matchers diverge on {}",
                    host
                );
            }
        }

        let history = PolicyHistory::compile(&deltas);
        prop_assert_eq!(history.versions(), deltas.len());
        prop_assert!(history.as_of(deltas.len() + 1).is_none());
        let mut replayed = Policy::permissive();
        for k in 0..=deltas.len() {
            let as_of = history.as_of(k).expect("k is a compiled version");
            assert_same_policy(&format!("as_of({k})"), &as_of, &replayed, &hosts);
            let mut resumed = as_of;
            for delta in &deltas[k..] {
                resumed.apply_delta(delta);
            }
            assert_same_policy(&format!("as_of({k}) + the rest"), &resumed, &incremental, &hosts);
            if let Some(delta) = deltas.get(k) {
                replayed.apply_delta(delta);
            }
        }
    }
}
