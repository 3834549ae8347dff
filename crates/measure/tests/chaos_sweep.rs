//! Integration tests for the chaos sweep:
//!
//! * the full ≥100-cell Table-1 grid under loss + bounded reorder is
//!   byte-identical at 1 and 8 threads, with the oracle passing every
//!   capture;
//! * a fresh TTL written into an injected RST of a clean capture makes
//!   the oracle report the offending packet and trace;
//! * the Table-1 reliability *shape* survives chaos: the single-device
//!   ER-Telecom path fails at least an order of magnitude more often than
//!   the two-device Rostelecom and OBIT paths, across fault seeds.

use tspu_measure::chaos::{ChaosScenario, ChaosSweep};
use tspu_measure::reliability::{run_cell, Mechanism};
use tspu_measure::sweep::ScanPool;
use tspu_netsim::fault::LinkFaults;
use tspu_netsim::oracle::Violation;
use tspu_registry::Universe;
use tspu_topology::{policy_from_universe, VantageLab};
use tspu_wire::ipv4::Ipv4Packet;
use tspu_wire::tcp::TcpSegment;

mod common;
use common::assert_thread_independent;
mod tamper;
use tamper::audit_tampered;

#[test]
fn table1_grid_is_byte_identical_across_thread_counts() {
    let universe = Universe::generate(3);
    let policy = policy_from_universe(&universe, false, true);
    let sweep = ChaosSweep::table1_grid(policy, vec![11, 22, 33, 44, 55, 66, 77], 4);
    assert!(sweep.len() >= 100, "grid too small: {}", sweep.len());

    assert_thread_independent(&[8], |pool| {
        let cells = sweep.run(pool);
        assert_eq!(cells.len(), sweep.len());
        for cell in &cells {
            assert!(
                cell.oracle_violations.is_empty(),
                "{} {:?} seed {}: {:?}",
                cell.vantage,
                cell.mechanism,
                cell.seed,
                cell.oracle_violations
            );
        }
        // The plan is not a no-op: chaos actually interfered somewhere.
        assert!(cells.iter().any(|c| c.chaos_dropped > 0), "no chaos link ever dropped a packet");
        format!("{cells:?}")
    });
}

#[test]
fn oracle_reports_seeded_wrong_ttl_on_injected_rst() {
    let universe = Universe::generate(3);
    let policy = policy_from_universe(&universe, false, true);
    let mut lab = VantageLab::builder().policy(policy).build();
    lab.net.set_capture(true);
    run_cell(&mut lab, "ER-Telecom", Mechanism::Sni1, 3);

    // Edit the capture of ER-Telecom's symmetric device: its last injected
    // RST/ACK leaves with a fresh TTL instead of the original packet's.
    // The TCP checksum does not cover the TTL; the IP checksum is refilled.
    let is_rst = |packet: &[u8]| {
        Ipv4Packet::new_checked(packet)
            .is_ok_and(|ip| TcpSegment::new_checked(ip.payload()).is_ok_and(|tcp| tcp.flags().rst()))
    };
    let device = lab.vantage("ER-Telecom").sym_device.id();
    let (report, captured) = audit_tampered(
        &mut lab,
        device,
        |ingress, egress| !is_rst(ingress) && is_rst(egress),
        |_, egress| {
            let mut out = egress.to_vec();
            let mut ip = Ipv4Packet::new_unchecked(&mut out[..]);
            ip.set_ttl(64);
            ip.fill_checksum();
            out
        },
    );

    assert!(!report.is_clean(), "oracle missed the seeded TTL violation");
    let ttl = report
        .violations
        .iter()
        .find(|v| matches!(v.violation, Violation::InjectedRstMetadata { field: "ttl", .. }))
        .expect("no TTL metadata violation reported");
    assert_eq!(ttl.device_label, "ER-Telecom-sym");
    assert!(!ttl.packet.is_empty(), "violation carries no offending packet");
    assert!(!ttl.trace.is_empty(), "violation carries no trace");
    // The report renders the minimal offending call, not the whole run.
    assert!(ttl.trace.len() < captured);
}

#[test]
fn reliability_shape_survives_chaos() {
    let universe = Universe::generate(3);
    let policy = policy_from_universe(&universe, false, true);

    // SNI-II across all three vantages: ER-Telecom's single device fails
    // at its per-device rate, while Rostelecom and OBIT need *both* of
    // their devices to miss.
    let link = LinkFaults { loss: 0.002, reorder: 0.02, max_displacement: 2, ..LinkFaults::default() };
    let sweep = ChaosSweep {
        scenarios: ["Rostelecom", "ER-Telecom", "OBIT"]
            .iter()
            .map(|&vantage| ChaosScenario { vantage, mechanism: Mechanism::Sni2 })
            .collect(),
        seeds: vec![1, 2, 3],
        forward: link.clone(),
        reverse: link,
        device: Default::default(),
        trials: 1200,
        check_oracle: false,
        policy,
    };
    let cells = sweep.run(&ScanPool::from_env());

    for &seed in &sweep.seeds {
        let failures = |vantage: &str| {
            cells
                .iter()
                .find(|c| c.vantage == vantage && c.seed == seed)
                .expect("cell present")
                .stats
                .failures
        };
        let er = failures("ER-Telecom");
        let ro = failures("Rostelecom");
        let obit = failures("OBIT");
        assert!(er > 0, "seed {seed}: ER-Telecom never failed in {} trials", sweep.trials);
        assert!(
            er >= 10 * ro.max(1) || ro == 0,
            "seed {seed}: ER-Telecom ({er}) not ≥10× Rostelecom ({ro})"
        );
        assert!(
            er >= 10 * obit.max(1) || obit == 0,
            "seed {seed}: ER-Telecom ({er}) not ≥10× OBIT ({obit})"
        );
    }
}
