//! Counts are results, the snapshot is an export of them: one lossy Fig. 1
//! cell whose device, chaos-link and engine counts are read off the
//! components, and one fixed run whose exported snapshot — every
//! component that exports one, forked from an image, tracing on — is pinned
//! byte for byte. `TSPU_BLESS=1 cargo test --test obs_export` rewrites the
//! golden files after an intended export change.

use std::time::Duration;

use tspu::core::PolicyDelta;
use tspu::measure::chaos::{ChaosScenario, ChaosSweep};
use tspu::measure::reliability::{run_cell, Mechanism};
use tspu::measure::ScanPool;
use tspu::netsim::fault::{DeviceFaults, FaultPlan, LinkFaults};
use tspu::registry::Universe;
use tspu::stack::client::SendShaping;
use tspu::stack::{ServerApp, TcpClient, TcpClientConfig};
use tspu::topology::{policy_from_universe, VantageLab};
use tspu::wire::tls::ClientHelloBuilder;

fn lossy_links() -> LinkFaults {
    LinkFaults { loss: 0.1, duplicate: 0.05, reorder: 0.05, max_displacement: 2, ..LinkFaults::default() }
}

/// What Table 1 and the chaos grid score themselves on, read straight off
/// the components: the device's packets, the engine's events and the chaos
/// links' drops and injections.
#[test]
fn a_lossy_cell_counts_its_chaos_device_and_engine_work() {
    let universe = Universe::generate(2022);
    let policy = policy_from_universe(&universe, false, true);

    let mut lab = VantageLab::builder().policy(policy.clone()).table1().build();
    lab.apply_fault_plan(&FaultPlan::symmetric(7, lossy_links()));
    run_cell(&mut lab, "ER-Telecom", Mechanism::Sni1, 20);
    let device = lab.vantage("ER-Telecom").sym_device;
    assert!(lab.net.middlebox(device).stats().packets_seen > 0);
    assert!(lab.net.events_processed() > 0);
    let events = lab.net.obs_snapshot().gauge("netsim.events_popped");
    assert_eq!(events, Some(lab.net.events_processed() as i64));

    let sweep = ChaosSweep {
        scenarios: vec![ChaosScenario { vantage: "ER-Telecom", mechanism: Mechanism::Sni1 }],
        forward: lossy_links(),
        reverse: lossy_links(),
        ..ChaosSweep::table1_grid(policy, vec![7], 20)
    };
    let cells = sweep.run(&ScanPool::new(1));
    assert!(cells[0].chaos_dropped > 0, "{:?}", cells[0]);
    assert!(cells[0].chaos_injected > 0, "{:?}", cells[0]);
}

/// A clean fetch of `domain` from `vantage`, optionally IP-fragmented.
fn fetch(lab: &mut VantageLab, vantage: &str, port: u16, domain: &str, shaping: SendShaping) {
    let (host, addr) = {
        let v = lab.vantage(vantage);
        (v.host, v.addr)
    };
    let hello = ClientHelloBuilder::new(domain).build();
    let mut config = TcpClientConfig::new(addr, port, lab.us_main_addr, 443, hello);
    config.shaping = shaping;
    let (app, _report, syn) = TcpClient::start(config);
    lab.net.set_app(host, Box::new(app));
    lab.net.send_from(host, syn);
    lab.net.run_until_idle();
}

/// The export of one fixed run, against the files generated before the
/// metrics registry was deleted: every `netsim.*`, `device.*`, `link.*`
/// and `policy.*` name, kind and value, and the span count.
#[test]
fn the_export_of_a_fixed_lab_run_is_pinned() {
    let universe = Universe::generate(2022);
    let mut built = VantageLab::builder().universe(&universe).table1().build();
    let restart = DeviceFaults { restarts: vec![Duration::from_secs(601)] };
    built.apply_fault_plan(&FaultPlan { device: restart, ..FaultPlan::symmetric(7, lossy_links()) });
    let mut lab = built.snapshot().fork(0);
    lab.set_tracing(true);
    lab.net.set_app(lab.us_main, Box::new(ServerApp::https_site(lab.us_main_addr)));

    // The cells are here for the traffic they drive, not for their verdicts:
    // with an application on the US host its deliveries go to the
    // application, and the script harness reads that host's empty inbox.
    for mechanism in Mechanism::ALL {
        run_cell(&mut lab, "Rostelecom", mechanism, 6);
    }
    fetch(&mut lab, "ER-Telecom", 41_000, "twitter.com", SendShaping::default());
    lab.policy.apply_delta(&PolicyDelta::add_rst_batch(["rust-lang.org"]));
    let fragmented = SendShaping { ip_fragment_bytes: Some(64), ..SendShaping::default() };
    fetch(&mut lab, "ER-Telecom", 41_001, "rust-lang.org", fragmented);

    // One scheduled flip of OBIT's forward route onto itself.
    let obit = lab.vantage("OBIT").host;
    let route = lab.net.route(obit, lab.us_main).expect("vantage route");
    let rid = lab.net.intern_route(route);
    lab.net.schedule_reroute(Duration::from_millis(1), obit, lab.us_main, rid);
    fetch(&mut lab, "OBIT", 41_002, "wikipedia.org", SendShaping::default());

    let snapshot = lab.take_obs();
    for prefix in ["netsim.route_flips", "netsim.queue_depth", "device.", "link.", "policy.epoch"] {
        assert!(snapshot.metrics().iter().any(|(name, _)| name.starts_with(prefix)), "{prefix}");
    }
    assert!(!snapshot.spans().is_empty());

    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/obs_export");
    for (ext, rendered) in [("json", snapshot.to_json()), ("om", snapshot.to_openmetrics())] {
        let path = format!("{golden}.{ext}");
        if std::env::var_os("TSPU_BLESS").is_some() {
            std::fs::write(&path, &rendered).expect("write golden");
        }
        let expected = std::fs::read_to_string(&path).expect("golden file");
        assert!(rendered == expected, "{path} differs from this run's export:\n{rendered}");
    }
}
