//! Per-country conformance: each [`CensorProfile`] behaves in the lab the
//! way its source study describes (DESIGN.md §12).
//!
//! * Turkmenistan — bidirectional RST injection on the SNI trigger, a
//!   residual full-drop on DNS flows that queried a blocked qname, both
//!   expiring on the profile's own `BLOCK_TKM` window.
//! * India — HTTP 200 block-page injection in place of the origin
//!   response, TLS left alone, and *censorship leakage*: an India-profile
//!   middlebox on another ISP's transit path blocks that ISP's clients.
//! * TSPU — the Fig. 2 behavior classes are unchanged when the profile is
//!   installed explicitly rather than defaulted.
//!
//! Every capture-backed scenario is replayed through the trace-invariant
//! oracle with per-profile audits, so the conformance claims here are the
//! same ones the differential campaign enforces at scale.

use std::net::Ipv4Addr;
use std::time::Duration;

use tspu_core::CensorProfile;
use tspu_measure::behaviors::{classify_behavior, ObservedBehavior};
use tspu_measure::harness::{handshake_prefix, run_script, ProbeSide, ScriptEnd, ScriptStep};
use tspu_netsim::{Direction, Route, RouteStep};
use tspu_registry::Universe;
use tspu_stack::craft::udp_packet;
use tspu_topology::VantageLab;
use tspu_wire::dns::{DnsQuery, DnsResponse, QTYPE_A};
use tspu_wire::http::{HttpRequest, HttpResponse};
use tspu_wire::tcp::TcpFlags;
use tspu_wire::tls::ClientHelloBuilder;

/// A domain on the universe's `sni_rst` list (see the domains module) and
/// one that is on no list at all.
const BLOCKED: &str = "meduza.io";
const INNOCUOUS: &str = "rust-lang.org";

fn lab_with(profile: CensorProfile) -> VantageLab {
    let universe = Universe::generate(3);
    VantageLab::builder().universe(&universe).censor_profile(profile).build()
}

fn ends(lab: &VantageLab, vantage: &str, port: u16, remote_port: u16) -> (ScriptEnd, ScriptEnd) {
    let v = lab.vantage(vantage);
    (
        ScriptEnd { host: v.host, addr: v.addr, port },
        ScriptEnd { host: lab.us_main, addr: lab.us_main_addr, port: remote_port },
    )
}

/// Handshake + GET + scripted origin response + one local follow-up.
fn http_script(host: &str) -> Vec<ScriptStep> {
    let mut steps = handshake_prefix();
    steps.push(ScriptStep::new(ProbeSide::Local, TcpFlags::PSH_ACK).payload(HttpRequest::get(host, "/").build()));
    steps.push(ScriptStep::new(ProbeSide::Remote, TcpFlags::PSH_ACK).payload(HttpResponse::ok(b"origin-content-ok").build()));
    steps.push(ScriptStep::new(ProbeSide::Local, TcpFlags::PSH_ACK).payload(vec![0xc1; 40]));
    steps
}

/// Handshake + ClientHello + data from both sides.
fn tls_script(host: &str) -> Vec<ScriptStep> {
    let mut steps = handshake_prefix();
    steps.push(ScriptStep::new(ProbeSide::Local, TcpFlags::PSH_ACK).payload(ClientHelloBuilder::new(host).build()));
    steps.push(ScriptStep::new(ProbeSide::Remote, TcpFlags::PSH_ACK).payload(vec![0xb1; 120]));
    steps.push(ScriptStep::new(ProbeSide::Local, TcpFlags::PSH_ACK).payload(vec![0xc2; 60]));
    steps
}

fn assert_oracle_clean(lab: &mut VantageLab) {
    let report = lab.oracle_audit();
    assert!(report.is_clean(), "oracle violations: {:?}", report.violations.iter().map(|v| v.to_string()).collect::<Vec<_>>());
}

#[test]
fn turkmenistan_rsts_both_directions_on_sni_trigger() {
    let mut lab = lab_with(CensorProfile::turkmenistan());
    lab.net.set_capture(true);
    let (local, remote) = ends(&lab, "ER-Telecom", 47100, 443);
    let result = run_script(&mut lab.net, local, remote, &tls_script(BLOCKED));

    assert!(
        result.at_local.iter().any(|p| p.is_rst_ack && p.payload_len == 0),
        "client must see the injected RST"
    );
    assert!(
        result.at_remote.iter().any(|p| p.is_rst_ack && p.payload_len == 0),
        "the server must see an RST too — the chokepoint is bidirectional"
    );
    assert_oracle_clean(&mut lab);
}

#[test]
fn turkmenistan_drops_dns_flow_until_residual_window_expires() {
    let mut lab = lab_with(CensorProfile::turkmenistan());
    lab.net.set_capture(true);
    let (v_host, v_addr) = {
        let v = lab.vantage("ER-Telecom");
        (v.host, v.addr)
    };
    let (r_host, r_addr) = (lab.us_main, lab.us_main_addr);
    let port = 47150;
    let send_query = |lab: &mut VantageLab, qname: &str, id: u16| {
        let query = DnsQuery { id, qname: qname.into(), qtype: QTYPE_A };
        lab.net.send_from(v_host, udp_packet(v_addr, port, r_addr, 53, &query.build()));
        lab.net.run_for(Duration::from_millis(300));
        query
    };

    // The blocked query itself is eaten.
    send_query(&mut lab, BLOCKED, 1);
    assert!(lab.net.take_inbox(r_host).is_empty(), "blocked qname must not reach the resolver");

    // Residual: an innocuous query on the same flow is eaten too.
    send_query(&mut lab, INNOCUOUS, 2);
    assert!(lab.net.take_inbox(r_host).is_empty(), "residual drop must consume the follow-up");

    // Past BLOCK_TKM (60 s) the flow is forgiven: query and answer flow.
    lab.net.run_for(Duration::from_secs(90));
    let query = send_query(&mut lab, INNOCUOUS, 3);
    assert_eq!(lab.net.take_inbox(r_host).len(), 1, "window expired — query passes");
    let answer = DnsResponse::answer(&query, &[Ipv4Addr::new(93, 184, 216, 34)]).build();
    lab.net.send_from(r_host, udp_packet(r_addr, 53, v_addr, port, &answer));
    lab.net.run_for(Duration::from_millis(500));
    assert_eq!(lab.net.take_inbox(v_host).len(), 1, "answer comes back");
    assert_oracle_clean(&mut lab);
}

#[test]
fn india_injects_block_page_and_leaves_tls_alone() {
    let mut lab = lab_with(CensorProfile::india());
    lab.net.set_capture(true);
    let page_len = CensorProfile::india().block_page_bytes().unwrap().len();

    // TLS on the blocked domain: India has no SNI engine — all data flows.
    let (local, remote) = ends(&lab, "ER-Telecom", 47200, 443);
    let result = run_script(&mut lab.net, local, remote, &tls_script(BLOCKED));
    assert!(result.at_local.iter().any(|p| p.payload_len == 120), "TLS data untouched");
    assert!(!result.at_local.iter().any(|p| p.is_rst_ack), "no RST injection");

    // HTTP on the blocked domain: the origin's response is replaced by the
    // censor's HTTP 200 page, byte-length-exact.
    let (local, remote) = ends(&lab, "ER-Telecom", 47201, 80);
    let result = run_script(&mut lab.net, local, remote, &http_script(BLOCKED));
    assert!(
        result.at_local.iter().any(|p| p.payload_len == page_len),
        "client must receive the block page"
    );

    // HTTP on the innocuous domain: origin content intact.
    let origin_len = HttpResponse::ok(b"origin-content-ok").build().len();
    let (local, remote) = ends(&lab, "ER-Telecom", 47202, 80);
    let result = run_script(&mut lab.net, local, remote, &http_script(INNOCUOUS));
    assert!(result.at_local.iter().any(|p| p.payload_len == origin_len));
    assert_oracle_clean(&mut lab);
}

/// The India study's signature phenomenon: middleboxes filter *paths*, not
/// customers, so when ISP B's middlebox sits on ISP A's transit route, A's
/// clients get B's censorship. Modeled here by making OBIT's US transit
/// device symmetric on the return path and switching it (only it) to the
/// India profile — the rest of the lab stays TSPU.
#[test]
fn india_censorship_leaks_onto_another_isps_path() {
    let universe = Universe::generate(3);
    let mut lab = VantageLab::builder().universe(&universe).build();
    let (obit_host, sym_handle, transit_handle) = {
        let v = lab.vantage("OBIT");
        (v.host, v.sym_device, v.upstream_devices[0])
    };
    // Put the transit middlebox on the return path too (symmetric), then
    // hand it to a different censor. Hop addresses mirror the lab's
    // asymmetric OBIT reverse route.
    let reverse = Route {
        steps: vec![
            RouteStep::router(Ipv4Addr::new(185, 140, 30, 9)),
            RouteStep::with_device(Ipv4Addr::new(188, 128, 30, 1), transit_handle.id(), Direction::RemoteToLocal),
            RouteStep::router(Ipv4Addr::new(185, 140, 30, 8)),
            RouteStep::with_device(Ipv4Addr::new(10, 30, 255, 2), sym_handle.id(), Direction::RemoteToLocal),
            RouteStep::router(Ipv4Addr::new(10, 30, 255, 1)),
        ],
    };
    lab.net.set_route(lab.us_main, obit_host, reverse);
    lab.net.middlebox_mut(transit_handle).set_censor_profile(CensorProfile::india());
    lab.net.set_capture(true);
    let page_len = CensorProfile::india().block_page_bytes().unwrap().len();

    // OBIT's client sees India's block page — its own ISP (TSPU profile)
    // has no HTTP Host trigger at all.
    let (local, remote) = ends(&lab, "OBIT", 47300, 80);
    let result = run_script(&mut lab.net, local, remote, &http_script(BLOCKED));
    assert!(
        result.at_local.iter().any(|p| p.payload_len == page_len),
        "India's page leaks onto OBIT's path"
    );

    // An ER-Telecom client requesting the same host is untouched: the
    // leakage is a property of the path, not the domain.
    let origin_len = HttpResponse::ok(b"origin-content-ok").build().len();
    let (local, remote) = ends(&lab, "ER-Telecom", 47301, 80);
    let result = run_script(&mut lab.net, local, remote, &http_script(BLOCKED));
    assert!(result.at_local.iter().any(|p| p.payload_len == origin_len));

    // An innocuous host through the same leaky path is untouched too.
    let (local, remote) = ends(&lab, "OBIT", 47302, 80);
    let result = run_script(&mut lab.net, local, remote, &http_script(INNOCUOUS));
    assert!(result.at_local.iter().any(|p| p.payload_len == origin_len));

    // The mixed-profile oracle accepts all of it: each device is judged
    // against its own profile's audit.
    assert_oracle_clean(&mut lab);
}

/// The Fig. 2 behavior classes are byte-for-byte unchanged whether the
/// `tspu` profile is defaulted or installed explicitly — the lab-level
/// face of the core differential proptest.
#[test]
fn tspu_fig2_classes_unchanged_under_explicit_profile() {
    let universe = Universe::generate(3);
    let mut default_lab = VantageLab::builder().universe(&universe).build();
    let mut explicit_lab = lab_with(CensorProfile::tspu());

    let cases: &[(&str, u16)] = &[
        (BLOCKED, 47400),       // SNI-I: RST/ACK
        ("nordvpn.com", 47401), // SNI-II: delayed drop, 5–8 allowance
        (INNOCUOUS, 47402),     // Pass
    ];
    for &(domain, port) in cases {
        let verdicts: Vec<ObservedBehavior> = [&mut default_lab, &mut explicit_lab]
            .into_iter()
            .map(|lab| {
                let (local, remote) = ends(lab, "ER-Telecom", port, 443);
                classify_behavior(
                    &mut lab.net,
                    local,
                    remote,
                    &handshake_prefix(),
                    ClientHelloBuilder::new(domain).build(),
                )
            })
            .collect();
        assert_eq!(verdicts[0], verdicts[1], "{domain}: explicit tspu profile diverged");
    }

    // Spot-check the classes themselves (Fig. 2, Table 2 shapes).
    let (local, remote) = ends(&default_lab, "ER-Telecom", 47403, 443);
    let rst = classify_behavior(
        &mut default_lab.net,
        local,
        remote,
        &handshake_prefix(),
        ClientHelloBuilder::new(BLOCKED).build(),
    );
    assert_eq!(rst, ObservedBehavior::RstAck);
    let (local, remote) = ends(&explicit_lab, "ER-Telecom", 47403, 443);
    let rst = classify_behavior(
        &mut explicit_lab.net,
        local,
        remote,
        &handshake_prefix(),
        ClientHelloBuilder::new(BLOCKED).build(),
    );
    assert_eq!(rst, ObservedBehavior::RstAck);
}
