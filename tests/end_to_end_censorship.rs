//! Cross-crate integration: full censorship scenarios through the Fig. 1
//! lab, exercising wire + netsim + core + stack + registry + topology
//! together.

use std::time::Duration;

use tspu::registry::Universe;
use tspu::stack::client::SendShaping;
use tspu::stack::{ClientOutcome, PortBehavior, ServerApp, ServerPort, TcpClient, TcpClientConfig};
use tspu::topology::{policy_from_universe, VantageLab};
use tspu::wire::tls::ClientHelloBuilder;

fn fetch(lab: &mut VantageLab, vantage: &str, port: u16, domain: &str) -> ClientOutcome {
    let (host, addr) = {
        let v = lab.vantage(vantage);
        (v.host, v.addr)
    };
    let (app, report, syn) = TcpClient::start(TcpClientConfig::new(
        addr,
        port,
        lab.us_main_addr,
        443,
        ClientHelloBuilder::new(domain).build(),
    ));
    lab.net.set_app(host, Box::new(app));
    lab.net.send_from(host, syn);
    lab.net.run_until_idle();
    report.outcome()
}

#[test]
fn blocking_is_uniform_across_isps() {
    // §5.1's attribution criterion: the TSPU blocks the same list, the
    // same way, at every ISP — unlike ISP resolvers.
    let universe = Universe::generate(77);
    let mut lab = VantageLab::builder().universe(&universe).table1().build();
    lab.net.set_app(lab.us_main, Box::new(ServerApp::https_site(lab.us_main_addr)));

    for (i, vantage) in ["Rostelecom", "ER-Telecom", "OBIT"].iter().enumerate() {
        let port = 30_000 + i as u16 * 10;
        assert_eq!(fetch(&mut lab, vantage, port, "twitter.com"), ClientOutcome::Reset, "{vantage}");
        assert_eq!(fetch(&mut lab, vantage, port + 1, "bbc.com"), ClientOutcome::Reset, "{vantage}");
        assert_eq!(
            fetch(&mut lab, vantage, port + 2, "rust-lang.org"),
            ClientOutcome::GotData,
            "{vantage}"
        );
    }

    // The resolvers, by contrast, disagree with each other on recent
    // registry entries.
    let recent: Vec<&str> = universe
        .registry_sample
        .iter()
        .take(300)
        .map(|d| d.name.as_str())
        .collect();
    let counts: Vec<usize> = lab
        .resolvers
        .iter()
        .map(|r| recent.iter().filter(|d| r.lists(d)).count())
        .collect();
    assert!(counts.iter().collect::<std::collections::HashSet<_>>().len() > 1, "{counts:?}");
}

#[test]
fn central_policy_update_applies_everywhere_at_once() {
    // The March 2022 pattern: Roskomnadzor adds a domain and every device
    // in the country enforces it immediately.
    let universe = Universe::generate(78);
    let mut lab = VantageLab::builder().universe(&universe).table1().build();
    lab.net.set_app(lab.us_main, Box::new(ServerApp::https_site(lab.us_main_addr)));

    assert_eq!(fetch(&mut lab, "OBIT", 31_000, "newsite.example"), ClientOutcome::GotData);
    lab.policy.update(|p| p.sni_rst.insert("newsite.example"));
    assert_eq!(fetch(&mut lab, "OBIT", 31_001, "newsite.example"), ClientOutcome::Reset);
    assert_eq!(fetch(&mut lab, "Rostelecom", 31_002, "newsite.example"), ClientOutcome::Reset);
    assert_eq!(fetch(&mut lab, "ER-Telecom", 31_003, "newsite.example"), ClientOutcome::Reset);
}

#[test]
fn residual_censorship_and_fresh_ports() {
    // §3: tests reuse fresh source ports because verdicts stick to the
    // 5-tuple for their residual duration.
    let universe = Universe::generate(79);
    let mut lab = VantageLab::builder().universe(&universe).table1().build();
    lab.net.set_app(lab.us_main, Box::new(ServerApp::https_site(lab.us_main_addr)));

    assert_eq!(fetch(&mut lab, "ER-Telecom", 32_000, "meduza.io"), ClientOutcome::Reset);
    // Same port, innocuous SNI, within the 75 s residual: still reset.
    assert_eq!(fetch(&mut lab, "ER-Telecom", 32_000, "rust-lang.org"), ClientOutcome::Reset);
    // Fresh port: clean.
    assert_eq!(fetch(&mut lab, "ER-Telecom", 32_001, "rust-lang.org"), ClientOutcome::GotData);
    // Same port after the residual expires: clean again.
    lab.net.run_for(Duration::from_secs(481));
    assert_eq!(fetch(&mut lab, "ER-Telecom", 32_000, "rust-lang.org"), ClientOutcome::GotData);
}

#[test]
fn datacenter_style_path_sees_no_censorship() {
    // §3: "all data center VPSes we rent show little to no signs of
    // censorship" — the Paris machine (no TSPU on its path to the US)
    // fetches blocked domains freely.
    let universe = Universe::generate(80);
    let mut lab = VantageLab::builder().universe(&universe).table1().build();
    lab.net.set_app(lab.us_main, Box::new(ServerApp::https_site(lab.us_main_addr)));
    let (app, report, syn) = TcpClient::start(TcpClientConfig::new(
        lab.paris_addr,
        33_000,
        lab.us_main_addr,
        443,
        ClientHelloBuilder::new("twitter.com").build(),
    ));
    lab.net.set_app(lab.paris, Box::new(app));
    lab.net.send_from(lab.paris, syn);
    lab.net.run_until_idle();
    assert_eq!(report.outcome(), ClientOutcome::GotData);
}

#[test]
fn server_side_strategies_help_unmodified_clients() {
    // §8 deployed at the site: an unmodified client reaches an SNI-I
    // blocked site when the server uses the split handshake or a small
    // window.
    let universe = Universe::generate(81);
    let mut lab = VantageLab::builder().universe(&universe).table1().build();
    for (port_cfg, client_port) in [
        (ServerPort::new(443, PortBehavior::TlsServer).split_handshake(), 34_000u16),
        (ServerPort::new(443, PortBehavior::TlsServer).small_window(64), 34_001),
    ] {
        lab.net.set_app(
            lab.us_main,
            Box::new(ServerApp::new(lab.us_main_addr).with_port(port_cfg)),
        );
        let outcome = fetch(&mut lab, "ER-Telecom", client_port, "meduza.io");
        assert_eq!(outcome, ClientOutcome::GotData);
        lab.net.run_for(Duration::from_secs(481));
    }
}

#[test]
fn two_devices_on_path_compound_reliability() {
    // Table 1's explanation: Rostelecom's path crosses two devices, so a
    // mechanism both can enforce (SNI-II upstream drops) fails only when
    // both roll a failure.
    let universe = Universe::generate(82);
    let mut lab = VantageLab::builder().universe(&universe).table1().build();
    let er = tspu::measure::reliability::run_cell(
        &mut lab,
        "ER-Telecom",
        tspu::measure::reliability::Mechanism::Sni2,
        800,
    );
    let ro = tspu::measure::reliability::run_cell(
        &mut lab,
        "Rostelecom",
        tspu::measure::reliability::Mechanism::Sni2,
        800,
    );
    assert!(er.failures >= ro.failures, "ER {} vs RO {}", er.failures, ro.failures);
}

/// FNV-1a over every capture record's time, trace point and bytes.
fn capture_digest(captures: &[tspu::netsim::CaptureRecord]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |bytes: &[u8]| {
        for &byte in bytes {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for record in captures {
        feed(&record.time.as_micros().to_be_bytes());
        feed(format!("{:?}", record.point).as_bytes());
        feed(&(record.bytes.len() as u64).to_be_bytes());
        feed(&record.bytes);
    }
    hash
}

#[test]
fn page_burst_wire_bytes_are_pinned() {
    // A page is one un-paced burst: every segment leaves the server at the
    // same virtual instant, and SNI-II's allowance and the SNI-III policer
    // are calibrated on exactly that. The golden digests were taken from
    // the capture (every record's time, point and bytes) before the host
    // stack's data path was rewritten; they pin "same packets at the same
    // virtual instants" on a burst for an open, a delayed-drop and a
    // policed flow.
    const PAGE: usize = 64 << 10;
    let mut expected = tspu::wire::tls::server_hello_record();
    expected.extend_from_slice(&[0x17, 0x03, 0x03]);
    expected.extend_from_slice(&(PAGE.min(0xffff) as u16).to_be_bytes());
    expected.resize(expected.len() + PAGE, 0xda);

    let universe = Universe::generate(83);
    let plain = SendShaping::default();
    let segmented = SendShaping {
        segment_bytes: Some(64),
        decoys: vec![(2, b"GET / HTTP/1.1\r\n".to_vec())],
        ..SendShaping::default()
    };
    let fragmented = SendShaping { ip_fragment_bytes: Some(48), ..SendShaping::default() };
    // (name, client shaping, port, segments received, bytes received, capture digest)
    let cases = [
        ("rust-lang.org", &plain, 33_000, 45usize, 65_588usize, 0x981f_479b_ecba_7204u64),
        ("play.google.com", &plain, 33_001, 7, 10_220, 0x17c6_0177_ce59_33a7),
        ("fbcdn.net", &plain, 33_002, 1, 1_460, 0x82a4_9771_c3c7_7e04),
        // The client's own emission paths: MSS-forced segments behind a
        // TTL-limited decoy, and a request fragmented at the IP layer
        // (which this server, having no reassembly, never answers).
        ("rust-lang.org", &segmented, 33_003, 45, 65_588, 0xa360_e9fa_52de_d114),
        ("rust-lang.org", &fragmented, 33_004, 0, 0, 0xe843_db46_d980_25e0),
    ];
    for (domain, shaping, port, segments, bytes, digest) in cases {
        let mut lab = VantageLab::builder().universe(&universe).policy(policy_from_universe(&universe, true, true)).build();
        lab.net.set_app(
            lab.us_main,
            Box::new(
                ServerApp::new(lab.us_main_addr)
                    .with_port(ServerPort::new(443, PortBehavior::TlsServerPage(PAGE))),
            ),
        );
        lab.net.set_capture(true);
        let (host, addr) = {
            let v = lab.vantage("ER-Telecom");
            (v.host, v.addr)
        };
        let mut config = TcpClientConfig::new(
            addr,
            port,
            lab.us_main_addr,
            443,
            ClientHelloBuilder::new(domain).build(),
        );
        config.shaping = shaping.clone();
        let (app, report, syn) = TcpClient::start(config);
        lab.net.set_app(host, Box::new(app));
        lab.net.send_from(host, syn);
        lab.net.run_until_idle();

        let received = report.read();
        assert_eq!(received.data_segments, segments, "{domain}: data segments");
        assert_eq!(received.bytes_received, bytes, "{domain}: bytes received");
        assert_eq!(received.data, expected[..bytes], "{domain}: a prefix of the page, byte for byte");
        assert_eq!(capture_digest(lab.net.captures()), digest, "{domain}: capture digest");
    }
}
