//! Oracle negatives per profile: seeded model violations that are *legal*
//! under one country's semantics but forbidden under another's must be
//! caught, and the report must name the offending packet and the profile
//! whose audit it failed.
//!
//! * Turkmenistan — a device that only RSTs toward the client
//!   (unidirectional, i.e. valid TSPU behavior) violates the bidirectional
//!   contract: the local→remote packet it let through surfaces as an
//!   `EarlyUnblock` on an enforcing flow.
//! * India — a block page injected on a flow no Host trigger armed, and
//!   one injected after the armed window lapsed, surface as
//!   `UnexplainedBlockPage` / `ResidualExceeded`.

use std::time::Duration;

use tspu_core::{CensorProfile, ModelViolation};
use tspu_measure::harness::{handshake_prefix, run_script, ProbeSide, ScriptEnd, ScriptStep};
use tspu_netsim::oracle::Violation;
use tspu_registry::Universe;
use tspu_topology::VantageLab;
use tspu_wire::http::{HttpRequest, HttpResponse};
use tspu_wire::tcp::TcpFlags;
use tspu_wire::tls::ClientHelloBuilder;

const BLOCKED: &str = "meduza.io";
const INNOCUOUS: &str = "rust-lang.org";

/// Lab running `profile` everywhere, with `violation` seeded on the
/// ER-Telecom symmetric device and capture armed.
fn seeded_lab(profile: CensorProfile, violation: ModelViolation) -> VantageLab {
    let universe = Universe::generate(3);
    let mut lab = VantageLab::builder().universe(&universe).censor_profile(profile).build();
    let device = lab.vantage("ER-Telecom").sym_device;
    lab.net.middlebox_mut(device).set_model_violation(Some(violation));
    lab.net.set_capture(true);
    lab
}

fn ends(lab: &VantageLab, port: u16, remote_port: u16) -> (ScriptEnd, ScriptEnd) {
    let v = lab.vantage("ER-Telecom");
    (
        ScriptEnd { host: v.host, addr: v.addr, port },
        ScriptEnd { host: lab.us_main, addr: lab.us_main_addr, port: remote_port },
    )
}

#[test]
fn unidirectional_rst_under_turkmenistan_is_flagged() {
    let mut lab = seeded_lab(
        CensorProfile::turkmenistan(),
        ModelViolation::UnidirectionalRstUnderBidirectional,
    );
    let (local, remote) = ends(&lab, 47500, 443);
    let mut steps = handshake_prefix();
    steps.push(ScriptStep::new(ProbeSide::Local, TcpFlags::PSH_ACK).payload(ClientHelloBuilder::new(BLOCKED).build()));
    // Remote data first: its rewrite marks the flow enforcing. Then local
    // data — which the seeded (TSPU-style) device lets through untouched,
    // though Turkmenistan's contract says it must be torn down too.
    steps.push(ScriptStep::new(ProbeSide::Remote, TcpFlags::PSH_ACK).payload(vec![0xb1; 120]));
    steps.push(ScriptStep::new(ProbeSide::Local, TcpFlags::PSH_ACK).payload(vec![0xc2; 60]));
    run_script(&mut lab.net, local, remote, &steps);

    let report = lab.oracle_audit();
    assert!(!report.is_clean(), "oracle missed the unidirectional RST");
    let v = report
        .violations
        .iter()
        .find(|v| matches!(v.violation, Violation::EarlyUnblock { .. }))
        .expect("no EarlyUnblock reported");
    assert_eq!(v.device_label, "ER-Telecom-sym");
    assert_eq!(v.profile, "turkmenistan", "the report must name the profile");
    assert!(!v.packet.is_empty(), "the report must carry the offending packet");
    assert!(v.to_string().contains("turkmenistan"), "rendered report names the profile: {v}");

    // Control: the same unidirectional behavior *is* the TSPU contract.
    let mut control = seeded_lab(CensorProfile::tspu(), ModelViolation::UnidirectionalRstUnderBidirectional);
    let (local, remote) = ends(&control, 47500, 443);
    run_script(&mut control.net, local, remote, &steps);
    let report = control.oracle_audit();
    assert!(report.is_clean(), "unidirectional RST is legal tspu behavior: {:?}",
        report.violations.iter().map(|v| v.to_string()).collect::<Vec<_>>());
}

#[test]
fn block_page_without_trigger_under_india_is_flagged() {
    let mut lab = seeded_lab(CensorProfile::india(), ModelViolation::BlockPageWithoutTrigger);
    let (local, remote) = ends(&lab, 47510, 80);
    let mut steps = handshake_prefix();
    // The Host is not on any list: no trigger, yet the seeded device
    // replaces the origin response with its page.
    steps.push(ScriptStep::new(ProbeSide::Local, TcpFlags::PSH_ACK).payload(HttpRequest::get(INNOCUOUS, "/").build()));
    steps.push(ScriptStep::new(ProbeSide::Remote, TcpFlags::PSH_ACK).payload(HttpResponse::ok(b"origin-content-ok").build()));
    run_script(&mut lab.net, local, remote, &steps);

    let report = lab.oracle_audit();
    assert!(!report.is_clean(), "oracle missed the unexplained block page");
    let v = report
        .violations
        .iter()
        .find(|v| matches!(v.violation, Violation::UnexplainedBlockPage))
        .expect("no UnexplainedBlockPage reported");
    assert_eq!(v.device_label, "ER-Telecom-sym");
    assert_eq!(v.profile, "india");
    assert!(!v.packet.is_empty());
    assert!(v.to_string().contains("india"), "rendered report names the profile: {v}");
}

#[test]
fn block_page_outside_armed_window_under_india_is_flagged() {
    let mut lab = seeded_lab(CensorProfile::india(), ModelViolation::BlockPageWithoutTrigger);
    let (local, remote) = ends(&lab, 47520, 80);
    let mut steps = handshake_prefix();
    // Legitimate arm + in-window injection first.
    steps.push(ScriptStep::new(ProbeSide::Local, TcpFlags::PSH_ACK).payload(HttpRequest::get(BLOCKED, "/").build()));
    steps.push(ScriptStep::new(ProbeSide::Remote, TcpFlags::PSH_ACK).payload(HttpResponse::ok(b"origin-content-ok").build()));
    // 90 s later the 60 s window has lapsed; the device's verdict has
    // expired, so the seeded violation branch injects the page again —
    // now outside the window the trigger armed.
    steps.push(
        ScriptStep::new(ProbeSide::Remote, TcpFlags::PSH_ACK)
            .payload(HttpResponse::ok(b"origin-content-ok").build())
            .after(Duration::from_secs(90)),
    );
    run_script(&mut lab.net, local, remote, &steps);

    let report = lab.oracle_audit();
    assert!(!report.is_clean(), "oracle missed the out-of-window page");
    let v = report
        .violations
        .iter()
        .find(|v| matches!(v.violation, Violation::ResidualExceeded { .. }))
        .expect("no ResidualExceeded reported");
    assert_eq!(v.device_label, "ER-Telecom-sym");
    assert_eq!(v.profile, "india");
    assert!(!v.packet.is_empty());
}

#[test]
fn violation_report_carries_the_arming_ledger_event() {
    // Same seeding as the out-of-window case, but the report now attaches
    // the device's flight-recorder ledger: the rendered violation must
    // name the very trigger/arming events whose lapsed window the page
    // injection violated — the recorder closing the loop from "what went
    // wrong" to "what the device thought it was enforcing".
    let mut lab = seeded_lab(CensorProfile::india(), ModelViolation::BlockPageWithoutTrigger);
    let (local, remote) = ends(&lab, 47530, 80);
    let mut steps = handshake_prefix();
    steps.push(ScriptStep::new(ProbeSide::Local, TcpFlags::PSH_ACK).payload(HttpRequest::get(BLOCKED, "/").build()));
    steps.push(ScriptStep::new(ProbeSide::Remote, TcpFlags::PSH_ACK).payload(HttpResponse::ok(b"origin-content-ok").build()));
    steps.push(
        ScriptStep::new(ProbeSide::Remote, TcpFlags::PSH_ACK)
            .payload(HttpResponse::ok(b"origin-content-ok").build())
            .after(Duration::from_secs(90)),
    );
    run_script(&mut lab.net, local, remote, &steps);

    let report = lab.oracle_audit();

    let v = report
        .violations
        .iter()
        .find(|v| matches!(v.violation, Violation::ResidualExceeded { .. }))
        .expect("no ResidualExceeded reported");
    assert!(
        v.ledger.iter().any(|line| line.contains("trigger_fired source=http_host")),
        "ledger must name the arming trigger: {:?}",
        v.ledger
    );
    assert!(
        v.ledger.iter().any(|line| line.contains("block_armed kind=block_page")),
        "ledger must name the armed verdict: {:?}",
        v.ledger
    );
    let rendered = v.to_string();
    assert!(rendered.contains("enforcement ledger"), "rendered report carries the ledger: {rendered}");
    assert!(rendered.contains("block_armed kind=block_page"), "{rendered}");
    // Every ledger line names the profile the device was enforcing.
    assert!(v.ledger.iter().all(|line| line.contains("profile=india")), "{:?}", v.ledger);
}
