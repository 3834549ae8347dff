//! The paper's headline claims, each asserted end-to-end against the
//! reproduction — the executable summary of EXPERIMENTS.md.

use tspu::core::PolicyHandle;
use tspu::measure::timeouts::{self, Action};
use tspu::measure::ScanPool;
use tspu::registry::Universe;
use tspu::topology::{policy_from_universe, VantageLab};

fn lab(seed: u64) -> VantageLab {
    VantageLab::builder().universe(&Universe::generate(seed)).table1().build()
}

fn policy(seed: u64) -> PolicyHandle {
    policy_from_universe(&Universe::generate(seed), false, true)
}

#[test]
fn claim_tspu_is_stateful_with_nonstandard_timeouts() {
    // §5.3.3 + Table 7: the TSPU's timeouts match no documented system.
    let rows = timeouts::table2_state_rows();
    let measured: Vec<u64> = timeouts::state_timeouts(&policy(90), &rows, &ScanPool::new(2))
        .into_iter()
        .map(Option::unwrap)
        .collect();
    // 60 / 105 / 480 within measurement slack.
    assert!(measured[0].abs_diff(60) <= 5, "{measured:?}");
    assert!(measured[1].abs_diff(105) <= 5, "{measured:?}");
    assert!(measured[2].abs_diff(480) <= 5, "{measured:?}");
    assert!(!tspu::measure::os_reference::any_system_matches_tspu());
}

#[test]
fn claim_table2_and_table8_recovered_black_box() {
    // EXPERIMENTS.md's measured columns at seed 2022: every Table 2 value
    // and every Table 8 row (action, and timeout within 5 s), each flip
    // search on its own forked cell of a reliable lab.
    let (policy, pool) = (policy(2022), ScanPool::new(2));
    let close = |measured: Option<u64>, expected: u64| {
        measured.is_some_and(|m| m.abs_diff(expected) <= 5)
    };

    let states = timeouts::state_timeouts(&policy, &timeouts::table2_state_rows(), &pool);
    for (measured, expected) in states.into_iter().zip([60, 105, 480]) {
        assert!(close(measured, expected), "state timeout {measured:?}, expected {expected}");
    }
    let residuals = timeouts::block_residuals(&policy, &pool);
    for ((mechanism, measured), expected) in residuals.into_iter().zip([75, 418, 40, 420]) {
        let label = mechanism.label();
        assert!(close(measured, expected), "{label} residual {measured:?}, expected {expected}");
    }

    use Action::{Drop, Pass};
    let table8 = [
        ("∅", 178, Drop), ("Rs", 60, Pass), ("Rs;Ls", 105, Pass), ("Ls;Rs", 178, Drop),
        ("Rs;Ls;Rsa", 480, Pass), ("Rs;Ls;Lsa", 480, Pass), ("Rs;Ls;Rsa;Lsa", 480, Pass),
        ("Ra", 480, Pass), ("Ra;Lsa", 480, Pass), ("Lsa", 418, Drop), ("Rs;Lsa", 480, Pass),
        ("Ra;Lsa;Ra", 480, Pass), ("Rsa", 480, Pass), ("Ls;Ra", 180, Pass), ("Rsa;Lsa", 480, Pass),
        ("Rsa;La", 480, Pass), ("La", 418, Drop),
    ];
    let rows = timeouts::sequence_timeouts(&policy, &timeouts::table8_sequences(), &pool);
    assert_eq!(rows.len(), table8.len());
    for (row, (notation, timeout, action)) in rows.iter().zip(table8) {
        assert_eq!(row.notation, notation);
        assert_eq!(row.action, action, "{row:?}");
        assert!(close(row.timeout_secs, timeout), "{row:?}, expected {timeout}");
    }
}

#[test]
fn claim_censorship_is_asymmetric() {
    // §5.3.2: only connections originating inside Russia are blocked.
    use tspu::measure::behaviors::{classify_behavior, ObservedBehavior};
    use tspu::measure::harness::{ProbeSide, ScriptEnd, ScriptStep};
    use tspu::wire::tcp::TcpFlags;

    let mut lab = lab(91);
    let vantage = lab.vantage("ER-Telecom");
    let local = ScriptEnd { host: vantage.host, addr: vantage.addr, port: 11_000 };
    let remote = ScriptEnd { host: lab.us_main, addr: lab.us_main_addr, port: 443 };
    // A remote-initiated connection carrying the same trigger is exempt.
    let remote_first = vec![
        ScriptStep::new(ProbeSide::Remote, TcpFlags::SYN),
        ScriptStep::new(ProbeSide::Local, TcpFlags::SYN_ACK),
        ScriptStep::new(ProbeSide::Remote, TcpFlags::ACK),
    ];
    let behavior = classify_behavior(
        &mut lab.net,
        local,
        remote,
        &remote_first,
        tspu::wire::tls::ClientHelloBuilder::new("twitter.com").build(),
    );
    assert_eq!(behavior, ObservedBehavior::Pass);
}

#[test]
fn claim_fragment_cache_fingerprint_is_45() {
    // §5.3.1/§7.2: 45 fragments pass, 46 die — unlike Linux (64),
    // Cisco (24), Juniper (250).
    use tspu::core::frag_cache::{FragCache, FragConfig};
    use tspu::netsim::Time;
    use tspu::wire::frag;
    use tspu::wire::ipv4::{Ipv4Repr, Protocol};

    let payload = vec![1u8; 1480];
    let mut repr = Ipv4Repr::new(
        std::net::Ipv4Addr::new(10, 0, 0, 1),
        std::net::Ipv4Addr::new(203, 0, 113, 2),
        Protocol::Tcp,
        payload.len(),
    );
    repr.ident = 3;
    let datagram = repr.build(&payload);
    for (pieces, expect) in [(24usize, true), (45, true), (46, false), (64, false)] {
        let mut cache = FragCache::new(FragConfig::default());
        let fragments = frag::fragment_into(&datagram, pieces).unwrap();
        let mut out = Vec::new();
        for f in &fragments {
            out = cache.offer(Time::ZERO, f);
        }
        assert_eq!(!out.is_empty(), expect, "{pieces} fragments");
    }
}

#[test]
fn claim_green_sequences_evade_sni1_but_not_sni4() {
    use tspu::measure::sequences;
    let verdicts = sequences::explore(&policy(92), 2, "ER-Telecom", &ScanPool::new(2));
    let find = |n: &str| verdicts.iter().find(|v| v.notation == n).unwrap();
    assert!(find("Ls;Rs").green());
    assert!(!find("Ls;Rs").sni1_valid());
    assert!(find("Ls").sni1_valid());
    assert!(!find("Rs").sni1_valid());
    assert!(!find("Rs").green());
}

#[test]
fn claim_out_registry_blocking_exists() {
    // §5.2/§6.3: the TSPU blocks resources absent from any ISP list
    // (play.google.com, the Tor node's IP).
    let universe = Universe::generate(93);
    let lab = VantageLab::builder().universe(&universe).table1().build();
    for resolver in &lab.resolvers {
        assert!(!resolver.lists("play.google.com"));
        assert!(!resolver.lists("nordvpn.com"));
    }
    let policy = lab.policy.read();
    assert!(policy.sni_slow.matches("play.google.com"));
    assert!(policy.blocked_ips.contains(&tspu::topology::TOR_ENTRY_NODE));
}

#[test]
fn claim_march4_transition_was_central_and_instant() {
    let universe = Universe::generate(94);
    let lab = VantageLab::builder()
        .universe(&universe)
        .policy(policy_from_universe(&universe, true, false))
        .table1()
        .build();
    // Before: throttling active, no QUIC filter.
    assert!(lab.policy.read().throttle_active);
    assert!(!lab.policy.read().quic_filter);
    // One central call; every device shares the handle.
    lab.policy.march_4_2022_transition();
    assert!(!lab.policy.read().throttle_active);
    assert!(lab.policy.read().quic_filter);
    for vantage in &lab.vantages {
        let device = lab.net.middlebox(vantage.sym_device);
        assert!(device.policy().read().quic_filter, "{}", vantage.name);
    }
}
