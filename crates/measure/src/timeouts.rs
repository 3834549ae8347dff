//! State-timeout inference (Fig. 5, Table 2, Table 8): play a packet
//! sequence, SLEEP a variable T, then send a trigger and see whether the
//! TSPU still holds (or already dropped) the state — "we repeat the
//! experiment while iteratively adjusting T until we find a threshold that
//! consistently leads to different behaviors" (§5.3.3).
//!
//! Two observables are used, matching how each row is measurable:
//!
//! * **flip search** — the trigger outcome (blocked/bypassed) differs
//!   across the threshold (used when the pre-trigger state is exempt on
//!   one side of the threshold, e.g. remote-client flows);
//! * **residual search** — for sequences where the trigger is blocked
//!   regardless, the *duration* of the installed verdict is measured by
//!   probing the same flow after a variable delay.
//!
//! Each driver runs one flip search per cell on the campaign kernel, every
//! cell on a fork of a reliable Fig. 1 image; within a cell every trial of
//! the search gets a fresh source port, counting up from `FIRST_PORT`.

use std::time::Duration;

use tspu_core::PolicyHandle;
use tspu_topology::VantageLab;
use tspu_wire::tcp::TcpFlags;
use tspu_wire::tls::ClientHelloBuilder;

use crate::harness::{run_script, ProbeSide, ScriptEnd, ScriptStep};
use crate::reliability::Mechanism;
use crate::sequences::Symbol;
use crate::sweep::{fig1_cells, ScanPool};

/// The port below a cell's first trial port.
const FIRST_PORT: u16 = 20_000;

/// A cell's trial ports: `FIRST_PORT + 1`, `+ 2`, …
fn trial_ports() -> impl FnMut() -> u16 {
    let mut port = FIRST_PORT;
    move || {
        port += 1;
        port
    }
}

/// Whether the trigger was acted on (DROP) or ignored (PASS) — Table 8's
/// "Action" column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    Drop,
    Pass,
}

/// One measured row.
#[derive(Debug, Clone)]
pub struct TimeoutEstimate {
    pub notation: String,
    /// Seconds at which behavior flips (the state/residual timeout).
    pub timeout_secs: Option<u64>,
    /// Behavior right after the sequence (small T).
    pub action: Action,
}

/// The domain used for triggers: SNI-II, as the paper does, "to avoid
/// potentially inducing interference from ISPs' filtering devices".
fn trigger() -> Vec<u8> {
    ClientHelloBuilder::new("play.google.com").build()
}

/// Plays `prefix`, sleeps `sleep`, sends the SNI-II trigger, then probes
/// with 10 local data packets; returns true when the flow was blocked
/// (probes suppressed).
fn blocked_after(
    lab: &mut VantageLab,
    port: u16,
    prefix: &[Symbol],
    sleep: Duration,
) -> bool {
    let vantage = lab.vantage("ER-Telecom");
    let local = ScriptEnd { host: vantage.host, addr: vantage.addr, port };
    let remote = ScriptEnd { host: lab.us_main, addr: lab.us_main_addr, port: 443 };
    let mut steps: Vec<ScriptStep> =
        prefix.iter().map(|s| ScriptStep::new(s.from, s.flags)).collect();
    let mut trigger_step = ScriptStep::new(ProbeSide::Local, TcpFlags::PSH_ACK).payload(trigger());
    trigger_step.wait_before = sleep;
    steps.push(trigger_step);
    // Probe volley: SNI-II allows 5–8 through, so 10 probes always expose
    // an installed verdict.
    for _ in 0..10 {
        steps.push(ScriptStep::new(ProbeSide::Local, TcpFlags::PSH_ACK).payload(vec![0x77; 64]));
    }
    let result = run_script(&mut lab.net, local, remote, &steps);
    let probes_through = result.at_remote.iter().filter(|p| p.payload_len == 64).count();
    probes_through < 10
}

/// After `prefix` + immediate trigger (which must block), probes the same
/// flow after `delay` with plain data; returns true when still blocked —
/// the residual-censorship observable.
fn still_blocked_after(
    lab: &mut VantageLab,
    port: u16,
    prefix: &[Symbol],
    delay: Duration,
) -> bool {
    let vantage = lab.vantage("ER-Telecom");
    let local = ScriptEnd { host: vantage.host, addr: vantage.addr, port };
    let remote = ScriptEnd { host: lab.us_main, addr: lab.us_main_addr, port: 443 };
    let mut steps: Vec<ScriptStep> =
        prefix.iter().map(|s| ScriptStep::new(s.from, s.flags)).collect();
    steps.push(ScriptStep::new(ProbeSide::Local, TcpFlags::PSH_ACK).payload(trigger()));
    // Exhaust the SNI-II allowance right away so the verdict is plainly
    // observable…
    for _ in 0..10 {
        steps.push(ScriptStep::new(ProbeSide::Local, TcpFlags::PSH_ACK).payload(vec![0x77; 64]));
    }
    // …then probe after the delay.
    let mut probe = ScriptStep::new(ProbeSide::Local, TcpFlags::PSH_ACK).payload(vec![0x55; 48]);
    probe.wait_before = delay;
    steps.push(probe);
    let result = run_script(&mut lab.net, local, remote, &steps);
    !result.at_remote.iter().any(|p| p.payload_len == 48)
}

/// Binary-searches (to 1 s resolution) the smallest T in `[lo, hi]` where
/// `predicate(T)` changes value relative to `predicate(lo)`.
fn flip_search<F: FnMut(Duration) -> bool>(lo: u64, hi: u64, mut predicate: F) -> Option<u64> {
    let at_lo = predicate(Duration::from_secs(lo));
    if predicate(Duration::from_secs(hi)) == at_lo {
        return None;
    }
    let (mut lo, mut hi) = (lo, hi);
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if predicate(Duration::from_secs(mid)) == at_lo {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(hi)
}

/// Measures one sequence row (Table 8 methodology): first try the
/// trigger-outcome flip; when the trigger drops on both sides of the
/// window, fall back to the residual-duration observable.
pub fn measure_sequence(lab: &mut VantageLab, prefix: &[Symbol]) -> TimeoutEstimate {
    let notation = if prefix.is_empty() {
        "∅".to_string()
    } else {
        prefix.iter().map(Symbol::notation).collect::<Vec<_>>().join(";")
    };

    let mut next_port = trial_ports();
    let blocked_short = blocked_after(lab, next_port(), prefix, Duration::from_secs(1));
    let action = if blocked_short { Action::Drop } else { Action::Pass };

    let timeout_secs = if !blocked_short {
        // PASS rows: find where the protective state expires.
        flip_search(1, 600, |t| blocked_after(lab, next_port(), prefix, t))
    } else {
        // DROP rows: measure the verdict's residual duration.
        flip_search(1, 600, |t| still_blocked_after(lab, next_port(), prefix, t))
    };

    TimeoutEstimate { notation, timeout_secs, action }
}

/// Table 8: one [`measure_sequence`] cell per prefix, in `sequences` order.
pub fn sequence_timeouts(
    policy: &PolicyHandle,
    sequences: &[Vec<Symbol>],
    pool: &ScanPool,
) -> Vec<TimeoutEstimate> {
    fig1_cells(policy, sequences, pool, |lab, prefix| measure_sequence(lab, prefix))
}

/// The Table 8 sequence set (prefixes before the trigger).
pub fn table8_sequences() -> Vec<Vec<Symbol>> {
    use ProbeSide::{Local as L, Remote as R};
    let s = |from, flags| Symbol { from, flags };
    let ls = s(L, TcpFlags::SYN);
    let lsa = s(L, TcpFlags::SYN_ACK);
    let la = s(L, TcpFlags::ACK);
    let rs = s(R, TcpFlags::SYN);
    let rsa = s(R, TcpFlags::SYN_ACK);
    let ra = s(R, TcpFlags::ACK);
    vec![
        vec![],                     // Lt
        vec![rs],                   // Rs;Lt
        vec![rs, ls],               // Rs;Ls;Lt
        vec![ls, rs],               // Ls;Rs;Lt
        vec![rs, ls, rsa],          // Rs;Ls;Rsa;Lt
        vec![rs, ls, lsa],          // (Table 8's "Ss;Ls;Lsa" row, read as Rs)
        vec![rs, ls, rsa, lsa],     // Rs;Ls;Rsa;Lsa;Lt
        vec![ra],                   // Ra;Lt
        vec![ra, lsa],              // Ra;Lsa;Lt
        vec![lsa],                  // Lsa;Lt
        vec![rs, lsa],              // Rs;Lsa;Lt
        vec![ra, lsa, ra],          // Ra;Lsa;Ra;Lt
        vec![rsa],                  // Rsa;Lt
        vec![ls, ra],               // Ls;Ra;Lt
        vec![rsa, lsa],             // Rsa;Lsa;Lt
        vec![rsa, la],              // Rsa;La;Lt
        vec![la],                   // La;Lt
    ]
}

/// A Table 2 row: notation, sequence with sleep position, and the state
/// the paper names.
pub struct Table2Row {
    pub label: &'static str,
    pub paper_timeout: u64,
    /// Steps before the sleep.
    pub before: Vec<Symbol>,
    /// Steps after the sleep (before the trigger).
    pub after: Vec<Symbol>,
}

/// The first three rows of Table 2 (the TCP states; the block residuals
/// are measured by [`block_residuals`]).
pub fn table2_state_rows() -> Vec<Table2Row> {
    use ProbeSide::{Local as L, Remote as R};
    let s = |from, flags| Symbol { from, flags };
    let ls = s(L, TcpFlags::SYN);
    let la = s(L, TcpFlags::ACK);
    let rs = s(R, TcpFlags::SYN);
    let rsa = s(R, TcpFlags::SYN_ACK);
    let ra = s(R, TcpFlags::ACK);
    vec![
        Table2Row {
            label: "SYN_SENT",
            paper_timeout: 60,
            before: vec![rs],
            after: vec![ls, rsa],
        },
        Table2Row {
            label: "SYN_RCVD",
            paper_timeout: 105,
            before: vec![ls, rs, la],
            after: vec![],
        },
        Table2Row {
            label: "ESTABLISHED",
            paper_timeout: 480,
            before: vec![ls, rsa],
            after: vec![ra],
        },
    ]
}

/// Measures a Table 2 state row: play `before`, SLEEP T, play `after`,
/// trigger; binary-search the flip.
pub fn measure_table2_row(lab: &mut VantageLab, row: &Table2Row) -> Option<u64> {
    let mut next_port = trial_ports();
    flip_search(1, 600, |t| {
        let vantage = lab.vantage("ER-Telecom");
        let local = ScriptEnd { host: vantage.host, addr: vantage.addr, port: next_port() };
        let remote = ScriptEnd { host: lab.us_main, addr: lab.us_main_addr, port: 443 };
        let mut steps: Vec<ScriptStep> =
            row.before.iter().map(|s| ScriptStep::new(s.from, s.flags)).collect();
        for (i, sym) in row.after.iter().enumerate() {
            let mut step = ScriptStep::new(sym.from, sym.flags);
            if i == 0 {
                step.wait_before = t;
            }
            steps.push(step);
        }
        let mut trig =
            ScriptStep::new(ProbeSide::Local, TcpFlags::PSH_ACK).payload(trigger());
        if row.after.is_empty() {
            trig.wait_before = t;
        }
        steps.push(trig);
        for _ in 0..10 {
            steps.push(ScriptStep::new(ProbeSide::Local, TcpFlags::PSH_ACK).payload(vec![0x77; 64]));
        }
        let result = run_script(&mut lab.net, local, remote, &steps);
        result.at_remote.iter().filter(|p| p.payload_len == 64).count() < 10
    })
}

/// Fig. 5 and Table 2's upper half: one [`measure_table2_row`] cell per
/// row, in `rows` order.
pub fn state_timeouts(policy: &PolicyHandle, rows: &[Table2Row], pool: &ScanPool) -> Vec<Option<u64>> {
    fig1_cells(policy, rows, pool, measure_table2_row)
}

/// The verdicts whose residuals Table 2's lower half lists, in its order.
pub const RESIDUALS: [Mechanism; 4] =
    [Mechanism::Sni1, Mechanism::Sni2, Mechanism::Sni4, Mechanism::Quic];

/// Measures one verdict's residual (Table 2's lower half): trigger
/// `mechanism`, then binary-search how long a later probe on the same flow
/// stays blocked. `None` for IP-based blocking, which keys on an address
/// and installs no per-flow verdict to time.
pub fn measure_block_residual(lab: &mut VantageLab, mechanism: Mechanism) -> Option<u64> {
    let mut next_port = trial_ports();
    let vantage = lab.vantage("ER-Telecom");
    let (v_host, v_addr) = (vantage.host, vantage.addr);
    let remote = ScriptEnd { host: lab.us_main, addr: lab.us_main_addr, port: 443 };
    match mechanism {
        // SNI-I (75 s): after the trigger, remote data is rewritten to
        // RST/ACK until the verdict lapses.
        Mechanism::Sni1 => flip_search(1, 600, |t| {
            let local = ScriptEnd { host: v_host, addr: v_addr, port: next_port() };
            let mut steps = crate::harness::handshake_prefix();
            steps.push(
                ScriptStep::new(ProbeSide::Local, TcpFlags::PSH_ACK)
                    .payload(ClientHelloBuilder::new("meduza.io").build()),
            );
            steps.push(
                ScriptStep::new(ProbeSide::Remote, TcpFlags::PSH_ACK).payload(vec![0x44; 80]).after(t),
            );
            let result = run_script(&mut lab.net, local, remote, &steps);
            result.at_local.iter().any(|p| p.is_rst_ack)
        }),
        // SNI-II (420 s).
        Mechanism::Sni2 => {
            let handshake = [
                Symbol { from: ProbeSide::Local, flags: TcpFlags::SYN },
                Symbol { from: ProbeSide::Remote, flags: TcpFlags::SYN_ACK },
                Symbol { from: ProbeSide::Local, flags: TcpFlags::ACK },
            ];
            flip_search(1, 600, |t| still_blocked_after(lab, next_port(), &handshake, t))
        }
        // SNI-IV (40 s): split-handshake prefix, backup verdict, then
        // probe whether local data still drops.
        Mechanism::Sni4 => flip_search(1, 600, |t| {
            let local = ScriptEnd { host: v_host, addr: v_addr, port: next_port() };
            let steps = [
                ScriptStep::new(ProbeSide::Local, TcpFlags::SYN),
                ScriptStep::new(ProbeSide::Remote, TcpFlags::SYN),
                ScriptStep::new(ProbeSide::Local, TcpFlags::PSH_ACK)
                    .payload(ClientHelloBuilder::new("twitter.com").build()),
                ScriptStep::new(ProbeSide::Local, TcpFlags::PSH_ACK).payload(vec![0x33; 32]).after(t),
            ];
            let result = run_script(&mut lab.net, local, remote, &steps);
            !result.at_remote.iter().any(|p| p.payload_len == 32)
        }),
        // QUIC (420 s).
        Mechanism::Quic => flip_search(1, 600, |t| {
            let port = next_port();
            let _ = lab.net.take_inbox(remote.host);
            let initial = tspu_stack::craft::udp_packet(
                v_addr,
                port,
                remote.addr,
                443,
                &tspu_wire::quic::initial_payload(tspu_wire::quic::QuicVersion::V1, 1200),
            );
            lab.net.send_from(v_host, initial);
            lab.net.run_for(Duration::from_millis(100));
            lab.net.run_for(t);
            let probe = tspu_stack::craft::udp_packet(v_addr, port, remote.addr, 443, &[0x22; 40]);
            lab.net.send_from(v_host, probe);
            lab.net.run_for(Duration::from_millis(300));
            !lab.net.take_inbox(remote.host).iter().any(|(_, bytes)| {
                tspu_wire::ipv4::Ipv4Packet::new_checked(&bytes[..])
                    .map(|ip| ip.payload().len() == 8 + 40)
                    .unwrap_or(false)
            })
        }),
        Mechanism::IpBased => None,
    }
}

/// Table 2's lower half: one [`measure_block_residual`] cell per verdict
/// of [`RESIDUALS`], in that order.
pub fn block_residuals(policy: &PolicyHandle, pool: &ScanPool) -> Vec<(Mechanism, Option<u64>)> {
    fig1_cells(policy, &RESIDUALS, pool, |lab, &mechanism| {
        (mechanism, measure_block_residual(lab, mechanism))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tspu_registry::Universe;
    use tspu_topology::policy_from_universe;

    fn policy() -> PolicyHandle {
        policy_from_universe(&Universe::generate(3), false, true)
    }

    fn close_to(measured: u64, expected: u64) -> bool {
        measured.abs_diff(expected) <= 5
    }

    #[test]
    fn table2_states_recovered() {
        let measured = state_timeouts(&policy(), &table2_state_rows(), &ScanPool::new(2));
        for (measured, expected) in measured.into_iter().zip([60, 105, 480]) {
            assert!(close_to(measured.unwrap(), expected), "{measured:?}, expected {expected}");
        }
    }

    #[test]
    fn block_residuals_recovered() {
        let residuals = block_residuals(&policy(), &ScanPool::new(2));
        let measured: Vec<_> = residuals.iter().map(|&(m, v)| (m.label(), v.unwrap())).collect();
        for ((label, measured), expected) in measured.into_iter().zip([75, 420, 40, 420]) {
            assert!(close_to(measured, expected), "{label} {measured}");
        }
        let mut lab = VantageLab::builder().policy(policy()).build();
        assert_eq!(measure_block_residual(&mut lab, Mechanism::IpBased), None);
    }

    #[test]
    fn table8_selected_rows() {
        let ls = Symbol { from: ProbeSide::Local, flags: TcpFlags::SYN };
        let lsa = Symbol { from: ProbeSide::Local, flags: TcpFlags::SYN_ACK };
        let rs = Symbol { from: ProbeSide::Remote, flags: TcpFlags::SYN };
        let ra = Symbol { from: ProbeSide::Remote, flags: TcpFlags::ACK };
        let sequences = [vec![], vec![rs], vec![ls, ra], vec![lsa]];
        let rows = sequence_timeouts(&policy(), &sequences, &ScanPool::new(2));
        // `Lt` (empty prefix): DROP with the 180 s Loose residual; `Rs;Lt`:
        // PASS, flips at the SYN-SENT expiry; `Ls;Ra;Lt`: PASS (Invalid
        // state), flips at 180 s; `Lsa;Lt`: DROP, residual clipped by the
        // SNI-II verdict (420 s).
        let expected =
            [(Action::Drop, 180), (Action::Pass, 60), (Action::Pass, 180), (Action::Drop, 420)];
        for (row, (action, timeout)) in rows.iter().zip(expected) {
            assert_eq!(row.action, action, "{row:?}");
            assert!(close_to(row.timeout_secs.unwrap(), timeout), "{row:?}");
        }
    }
}
