//! What browsing from a Russian residential connection looks like: DNS
//! through the ISP's censoring resolver, HTTPS through the TSPU, and a
//! QUIC attempt — across several sites and all three vantage ISPs.
//!
//! ```sh
//! cargo run --example censored_browsing
//! ```

use tspu_registry::Universe;
use tspu_stack::{
    ClientOutcome, PortBehavior, QuicClient, ServerApp, ServerPort, TcpClient, TcpClientConfig,
};
use tspu_topology::VantageLab;
use tspu_wire::quic::QuicVersion;
use tspu_wire::tls::ClientHelloBuilder;

fn main() {
    let universe = Universe::generate(2022);
    let mut lab = VantageLab::builder().universe(&universe).table1().build();

    // Each ISP runs a blockpage web server; DNS-censored sites land there.
    let mut blockpage_hosts = std::collections::HashMap::new();
    for resolver in lab.resolvers.iter() {
        let addr = resolver.blockpage_addr();
        let page = format!(
            "<html><body><h1>Доступ ограничен</h1>Access restricted per the \
             registry of banned sites ({}).</body></html>",
            resolver.isp()
        );
        let app = ServerApp::new(addr)
            .with_port(ServerPort::new(80, tspu_stack::PortBehavior::Respond(page.into_bytes())));
        let host = lab.net.add_host_with_app(addr, Box::new(app));
        blockpage_hosts.insert(resolver.isp().to_string(), host);
    }
    // Blockpages are reachable from every vantage (inside the ISP).
    for vantage in &lab.vantages {
        for &bp in blockpage_hosts.values() {
            lab.net.set_route_symmetric(vantage.host, bp, tspu_netsim::Route::direct());
        }
    }
    // Sites serve a 20 kB page, so partial transfers (SNI-II's delayed
    // drop) are distinguishable from full loads.
    let page = 20_000usize;
    let site_app = |addr| {
        Box::new(ServerApp::new(addr).with_port(ServerPort::new(443, PortBehavior::TlsServerPage(page))))
    };
    lab.net.set_app(lab.us_main, site_app(lab.us_main_addr));

    let sites = [
        "twitter.com",       // RST-blocked + backup filter
        "meduza.io",         // RST-blocked news
        "play.google.com",   // out-registry delayed drop
        "wikipedia.org",     // untouched
    ];

    let mut port = 41_000u16;
    for vantage_name in ["Rostelecom", "ER-Telecom", "OBIT"] {
        println!("=== browsing from {vantage_name} ===");
        // One site this ISP's resolver blockpages (an old registry entry).
        let dns_blocked: String = {
            let resolver = lab.resolvers.iter().find(|r| r.isp() == vantage_name).unwrap();
            universe
                .registry_sample
                .iter()
                .find(|d| resolver.lists(&d.name))
                .map(|d| d.name.clone())
                .unwrap_or_else(|| "registry-entry.ru".into())
        };
        let mut sites: Vec<&str> = sites.to_vec();
        sites.push(&dns_blocked);
        for site in sites {
            port += 1;
            // Step 1: DNS via the ISP resolver (the decentralized layer).
            let resolver = lab
                .resolvers
                .iter()
                .find(|r| r.isp() == vantage_name)
                .expect("resolver");
            let resolution = resolver.resolve(site, lab.us_main_addr);
            if resolution.is_blocked() {
                // The browser follows the poisoned A record and gets the
                // ISP's blockpage over plain HTTP.
                let bp_host = blockpage_hosts[vantage_name];
                let (v_host, v_addr) = {
                    let v = lab.vantage(vantage_name);
                    (v.host, v.addr)
                };
                let (app, report, syn) = TcpClient::start(TcpClientConfig::new(
                    v_addr,
                    port,
                    resolution.addr(),
                    80,
                    b"GET / HTTP/1.1\r\nHost: site\r\n\r\n".to_vec(),
                ));
                lab.net.set_app(v_host, Box::new(app));
                lab.net.send_from(v_host, syn);
                lab.net.run_until_idle();
                let _ = bp_host;
                let body = String::from_utf8_lossy(&report.read().data).to_string();
                println!(
                    "  {site}: DNS -> {} -> blockpage: {:?}",
                    resolution.addr(),
                    body.chars().take(40).collect::<String>()
                );
                continue;
            }
            // Step 2: HTTPS through the TSPU.
            let vantage = lab.vantage(vantage_name);
            let (host, addr) = (vantage.host, vantage.addr);
            let (app, report, syn) = TcpClient::start(TcpClientConfig::new(
                addr,
                port,
                resolution.addr(),
                443,
                ClientHelloBuilder::new(site).build(),
            ));
            lab.net.set_app(host, Box::new(app));
            lab.net.send_from(host, syn);
            lab.net.run_until_idle();
            let note = match report.outcome() {
                ClientOutcome::GotData if report.read().bytes_received < page => format!(
                    "stalls mid-transfer: {} of {page} bytes, then silence (SNI-II delayed drop)",
                    report.read().bytes_received
                ),
                ClientOutcome::GotData => "OK".to_string(),
                ClientOutcome::Reset => "RST by TSPU (SNI-I)".to_string(),
                ClientOutcome::Silent => {
                    format!("silently dropped after {} packets (SNI-II/IV)", report.read().data_segments)
                }
                ClientOutcome::NoHandshake => "unreachable".to_string(),
            };
            println!("  {site}: DNS ok, TLS -> {note}");
        }

        // Step 3: HTTP/3. The browser falls back to TCP when QUIC dies.
        port += 1;
        let vantage = lab.vantage(vantage_name);
        let (host, addr) = (vantage.host, vantage.addr);
        lab.net.set_app(
            lab.us_main,
            Box::new(ServerApp::new(lab.us_main_addr).with_udp_echo(443)),
        );
        let (app, replies, packets) =
            QuicClient::start(addr, port, lab.us_main_addr, QuicVersion::V1, 2);
        lab.net.set_app(host, Box::new(app));
        for packet in packets {
            lab.net.send_from(host, packet);
        }
        lab.net.run_until_idle();
        println!(
            "  QUIC v1 to port 443: {} of 3 datagrams answered{}",
            replies.get(),
            if replies.get() == 0 { " — HTTP/3 is blocked (Mar 4, 2022 filter)" } else { "" }
        );
        lab.net.set_app(lab.us_main, site_app(lab.us_main_addr));
        println!();
    }

    println!("note the uniformity: the same sites fail the same way at all three ISPs —");
    println!("that uniformity is how the paper attributes blocking to the TSPU (§5.1).");
}
