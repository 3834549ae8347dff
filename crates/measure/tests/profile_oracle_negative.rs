//! Oracle negatives per profile: device behavior that is *legal* under
//! one country's semantics but forbidden under another's must be caught,
//! and the report must name the offending packet and the profile whose
//! audit it failed. Each test runs a clean lab and edits one egress record
//! of the ER-Telecom symmetric device in its capture:
//!
//! * Turkmenistan — the RST rewrite of local→remote data turned back into
//!   the data (unidirectional, i.e. valid TSPU behavior) violates the
//!   bidirectional contract: the untouched local→remote packet surfaces
//!   as an `EarlyUnblock` on an enforcing flow.
//! * India — an origin response replaced by the block page on a flow no
//!   Host trigger armed, and one replaced after the armed window lapsed,
//!   surface as `UnexplainedBlockPage` / `ResidualExceeded`.

use std::time::Duration;

use tspu_core::device::block_page_rewrite;
use tspu_core::CensorProfile;
use tspu_measure::harness::{handshake_prefix, run_script, ProbeSide, ScriptEnd, ScriptStep};
use tspu_netsim::oracle::{OracleReport, Violation};
use tspu_registry::Universe;
use tspu_topology::VantageLab;
use tspu_wire::http::{HttpRequest, HttpResponse};
use tspu_wire::tcp::TcpFlags;
use tspu_wire::tls::ClientHelloBuilder;

mod tamper;
use tamper::audit_tampered;

const BLOCKED: &str = "meduza.io";
const INNOCUOUS: &str = "rust-lang.org";

/// Lab running `profile` everywhere, with capture armed.
fn clean_lab(profile: CensorProfile) -> VantageLab {
    let universe = Universe::generate(3);
    let mut lab = VantageLab::builder().universe(&universe).censor_profile(profile).build();
    lab.net.set_capture(true);
    lab
}

/// The audit of `lab`'s capture with the last origin response through the
/// ER-Telecom symmetric device replaced by the India block page.
fn audit_with_page(lab: &mut VantageLab) -> OracleReport {
    let device = lab.vantage("ER-Telecom").sym_device.id();
    let page = CensorProfile::india().block_page_bytes().expect("india serves a page").to_vec();
    let (report, _) = audit_tampered(
        lab,
        device,
        |ingress, _| ingress.ends_with(&origin_response()),
        |ingress, _| block_page_rewrite(ingress, &page),
    );
    report
}

fn origin_response() -> Vec<u8> {
    HttpResponse::ok(b"origin-content-ok").build()
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
    let mut lab = clean_lab(CensorProfile::turkmenistan());
    let (local, remote) = ends(&lab, 47500, 443);
    let mut steps = handshake_prefix();
    steps.push(ScriptStep::new(ProbeSide::Local, TcpFlags::PSH_ACK).payload(ClientHelloBuilder::new(BLOCKED).build()));
    // Remote data first: its rewrite marks the flow enforcing. Then local
    // data — which the edited capture shows passing untouched, as a
    // TSPU-style device would, though Turkmenistan's contract says it must
    // be torn down too.
    steps.push(ScriptStep::new(ProbeSide::Remote, TcpFlags::PSH_ACK).payload(vec![0xb1; 120]));
    steps.push(ScriptStep::new(ProbeSide::Local, TcpFlags::PSH_ACK).payload(vec![0xc2; 60]));
    let local_data = |ingress: &[u8], _: &[u8]| ingress.ends_with(&[0xc2; 60]);
    let forwarded = |ingress: &[u8], _: &[u8]| ingress.to_vec();
    run_script(&mut lab.net, local, remote, &steps);
    let device = lab.vantage("ER-Telecom").sym_device.id();
    let (report, _) = audit_tampered(&mut lab, device, local_data, forwarded);
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
    let mut control = clean_lab(CensorProfile::tspu());
    let (local, remote) = ends(&control, 47500, 443);
    run_script(&mut control.net, local, remote, &steps);
    let (report, _) = audit_tampered(&mut control, device, local_data, forwarded);
    assert!(report.is_clean(), "unidirectional RST is legal tspu behavior: {:?}",
        report.violations.iter().map(|v| v.to_string()).collect::<Vec<_>>());
}

#[test]
fn block_page_without_trigger_under_india_is_flagged() {
    let mut lab = clean_lab(CensorProfile::india());
    let (local, remote) = ends(&lab, 47510, 80);
    let mut steps = handshake_prefix();
    // The Host is not on any list: no trigger, yet the edited capture
    // shows the origin response replaced with the page.
    steps.push(ScriptStep::new(ProbeSide::Local, TcpFlags::PSH_ACK).payload(HttpRequest::get(INNOCUOUS, "/").build()));
    steps.push(ScriptStep::new(ProbeSide::Remote, TcpFlags::PSH_ACK).payload(origin_response()));
    run_script(&mut lab.net, local, remote, &steps);

    let report = audit_with_page(&mut lab);
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

/// A blocked Host arms the page, whose in-window injection is legitimate;
/// a second origin response follows 90 s later, after the 60 s window has
/// lapsed and the device's verdict has expired. The edit pages it anyway.
fn page_after_window() -> Vec<ScriptStep> {
    let mut steps = handshake_prefix();
    steps.push(ScriptStep::new(ProbeSide::Local, TcpFlags::PSH_ACK).payload(HttpRequest::get(BLOCKED, "/").build()));
    steps.push(ScriptStep::new(ProbeSide::Remote, TcpFlags::PSH_ACK).payload(origin_response()));
    steps.push(
        ScriptStep::new(ProbeSide::Remote, TcpFlags::PSH_ACK)
            .payload(origin_response())
            .after(Duration::from_secs(90)),
    );
    steps
}

#[test]
fn block_page_outside_armed_window_under_india_is_flagged() {
    let mut lab = clean_lab(CensorProfile::india());
    let (local, remote) = ends(&lab, 47520, 80);
    run_script(&mut lab.net, local, remote, &page_after_window());

    let report = audit_with_page(&mut lab);
    assert!(!report.is_clean(), "oracle missed the out-of-window page");
    let v = report
        .violations
        .iter()
        .find(|v| matches!(v.violation, Violation::ResidualExceeded { .. }))
        .expect("no ResidualExceeded reported");
    assert_eq!(v.device_label, "ER-Telecom-sym");
    assert_eq!(v.profile, "india");
    assert!(!v.packet.is_empty());
    // The page went out 90 s after the arm: the message names the window
    // as the residual, never as the time elapsed.
    let rendered = v.violation.to_string();
    assert!(rendered.contains("60 s Table-2 residual"), "{rendered}");
    assert!(!rendered.contains("60 s after the trigger"), "{rendered}");
}

#[test]
fn violation_report_carries_the_arming_ledger_event() {
    // Same edit as the out-of-window case, and the report attaches the
    // device's flight-recorder ledger: the rendered violation must name
    // the very trigger/arming events whose lapsed window the page
    // injection violated — the recorder closing the loop from "what went
    // wrong" to "what the device thought it was enforcing".
    let mut lab = clean_lab(CensorProfile::india());
    let (local, remote) = ends(&lab, 47530, 80);
    run_script(&mut lab.net, local, remote, &page_after_window());

    let report = audit_with_page(&mut lab);

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
