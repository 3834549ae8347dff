//! "What does the TSPU block?" — §6's artifacts: Fig. 6 (TSPU vs ISP
//! blocklist sets), Fig. 7 (categories), Table 3 (blocking types), plus
//! Table 7 (the OS timeout reference).

use std::collections::HashSet;
use std::fmt::Write as _;

use tspu_measure::domains::{self, DomainVerdict};
use tspu_measure::os_reference;
use tspu_measure::sweep::{self, ScanPool};
use tspu_topology::policy_from_universe;

use super::{universe, ExperimentReport};
use crate::env_usize;

/// Fig. 6: domains blocked by the TSPU versus by each ISP resolver, for
/// both test lists. The campaign shards domain-per-scenario across the
/// scan pool (`TSPU_THREADS`); aggregation is deterministic, so the
/// report is identical at any thread count.
pub fn fig6() -> ExperimentReport {
    let universe = universe();
    let limit = env_usize("TSPU_DOMAIN_LIMIT", 25_000);
    let pool = ScanPool::from_env();

    let mut body = String::new();
    for (list_name, domains, total) in [
        ("Tranco+CLBL", &universe.tranco, universe.tranco.len()),
        ("Registry sample", &universe.registry_sample, universe.registry_sample.len()),
    ] {
        let names: Vec<&str> = domains.iter().take(limit).map(|d| d.name.as_str()).collect();
        let tested = names.len();
        let campaign = sweep::registry_campaign(&universe, names, &pool);
        let tspu = campaign.tspu_blocked();
        let tspu_only = campaign.tspu_only();
        let _ = writeln!(body, "--- {list_name}: tested {tested} of {total} domains ---");
        let _ = writeln!(body, "  TSPU blocks: {}", tspu.len());
        for (isp, blocked) in &campaign.isp_blocked {
            let overlap = blocked.iter().filter(|d| tspu.contains(*d)).count();
            let _ = writeln!(
                body,
                "  {isp} resolver blocks: {} (∩ TSPU: {overlap}, ISP-only: {})",
                blocked.len(),
                blocked.len() - overlap
            );
        }
        let _ = writeln!(body, "  blocked ONLY by the TSPU (out-registry + resolver lag): {}\n", tspu_only.len());
    }
    body.push_str(
        "paper (Fig. 6/§6.3): the TSPU blocks 9,655 of the 10,000 recent registry\ndomains in all three ISPs, while the Rostelecom and OBIT resolvers manage\nonly 1,302 and 3,943; Tranco domains blocked only by the TSPU are mostly\nout-registry (Google services, circumvention, news, porn).\n",
    );
    ExperimentReport { id: "fig6", title: "Fig. 6 TSPU vs ISP blocking sets", body }
}

/// Fig. 7: blocked-domain categories.
pub fn fig7() -> ExperimentReport {
    let universe = universe();
    // Ground-truth blocked set (the campaign recovers the same list; the
    // histogram uses the full sample so counts match the paper's scale).
    let blocked: HashSet<String> = universe.blocks.sni_rst.iter().cloned().collect();
    let hist = domains::category_histogram(&universe, &blocked, universe.registry_sample.len(), 2022);
    let mut body = String::from("category            classified   blocked-by-TSPU\n");
    let mut rows: Vec<_> = hist.rows.iter().collect();
    rows.sort_by_key(|(_, (all, _))| std::cmp::Reverse(*all));
    for (category, (all, blocked)) in rows {
        let bar = "#".repeat(all / 60);
        let _ = writeln!(body, "{category:<20}{all:<13}{blocked:<10}{bar}");
    }
    let _ = writeln!(
        body,
        "\nexcluded: {} failed TCP + {} empty/unparseable (paper: 1398 + 2680)",
        hist.failed_tcp, hist.bad_html
    );
    body.push_str(
        "paper (Fig. 7): gambling, informative media and streaming dominate; the\nInformative Media category has the most blocked domains.\n",
    );
    ExperimentReport { id: "fig7", title: "Fig. 7 blocked-domain categories", body }
}

/// Table 3: blocking types per domain.
pub fn table3() -> ExperimentReport {
    let universe = universe();
    // The named anchors plus a sample establish each type's membership.
    let probe = [
        "infox.sg", "tor.eff.org", "theins.ru", "twimg.com", "t.co", "facebook.com",
        "twitter.com", "dw.com", "instagram.com", "meduza.io", "bbc.com",
        "nordaccount.com", "play.google.com", "news.google.com", "nordvpn.com",
        "messenger.com", "cdninstagram.com", "web.facebook.com",
        "wikipedia.org", "rust-lang.org",
    ];
    let campaign = sweep::registry_campaign(&universe, probe, &ScanPool::from_env());

    let mut by_type: std::collections::BTreeMap<&str, Vec<String>> = Default::default();
    for (domain, verdict) in &campaign.tspu {
        let label = match verdict {
            DomainVerdict::Open => "open",
            DomainVerdict::Sni1 => "SNI-I",
            DomainVerdict::Sni2 => "SNI-II",
            DomainVerdict::Sni4 => "SNI-IV",
            DomainVerdict::Throttled => "SNI-III",
        };
        by_type.entry(label).or_default().push(domain.clone());
    }
    let mut body = String::new();
    for (label, mut domains) in by_type {
        domains.sort();
        let _ = writeln!(body, "{label:<8}: {}", domains.join(", "));
    }
    // Full-scale count from the ground-truth policy.
    let policy = policy_from_universe(&universe, false, true);
    let policy = policy.read();
    let _ = writeln!(body, "\nfull SNI-I list size: {} (paper Table 3: 9,899)", policy.sni_rst.len());
    let mut sni_slow: Vec<String> = policy.sni_slow.iter().map(str::to_string).collect();
    sni_slow.sort();
    let _ = writeln!(body, "SNI-II list: {sni_slow:?}");
    body.push_str("paper Table 3's SNI-II list: nordaccount.com, play.google.com,\nnews.google.com, nordvpn.com; SNI-IV: twimg.com, t.co, messenger.com,\ncdninstagram.com, twitter.com, web.facebook.com, numbuster.ru.\n");
    ExperimentReport { id: "table3", title: "Table 3 domain blocking types", body }
}

/// §5.1 attribution (extension): the paper tells TSPU blocking apart from
/// ISP blocking by its *uniformity*. Three ISPs with different legacy
/// equipment (DNS blockpage, HTTP keyword DPI, nothing) all overlay the
/// same TSPU: the port-443 behavior is identical everywhere while the
/// legacy layer differs per ISP — the attribution signal. The keyword DPI
/// is the shared censor engine under `CensorProfile::legacy_isp`, with
/// the ISP's own list.
pub fn attribution() -> ExperimentReport {
    use std::net::Ipv4Addr;
    use std::time::Duration;
    use tspu_core::{CensorProfile, Policy, PolicyHandle, TspuDevice};
    use tspu_netsim::{Direction, Network, Route, RouteStep};
    use tspu_stack::craft::TcpPacketSpec;
    use tspu_topology::IspResolver;
    use tspu_wire::http::HttpRequest;
    use tspu_wire::ipv4::Ipv4Packet;
    use tspu_wire::tcp::{TcpFlags, TcpSegment};
    use tspu_wire::tls::ClientHelloBuilder;

    let domain = "blocked-site.ru";
    let listing = |name: &str| {
        let mut p = Policy::default();
        p.sni_rst.insert(name);
        PolicyHandle::new(p)
    };
    let policy = listing(domain);

    let mut net = Network::with_default_latency();
    let server_addr = Ipv4Addr::new(203, 0, 113, 50);
    let server = net.add_host(server_addr);

    // Three ISPs: legacy equipment differs, the TSPU is the same model
    // with the same central policy.
    let mut isps = Vec::new();
    for (i, (name, dns_blockpage, keyword_dpi)) in [
        ("ISP-A (DNS blockpage)", true, false),
        ("ISP-B (HTTP keyword DPI)", false, true),
        ("ISP-C (no legacy gear)", false, false),
    ]
    .into_iter()
    .enumerate()
    {
        let client_addr = Ipv4Addr::new(10, 40 + i as u8, 0, 2);
        let client = net.add_host(client_addr);
        let tspu = net.add_middlebox(Box::new(TspuDevice::reliable(name, policy.clone())));
        let hop_a = Ipv4Addr::new(10, 40 + i as u8, 255, 1);
        let hop_b = Ipv4Addr::new(10, 40 + i as u8, 255, 2);
        let mut step_a = RouteStep::router(hop_a);
        if keyword_dpi {
            let dpi = TspuDevice::reliable(name, listing(domain))
                .with_censor_profile(CensorProfile::legacy_isp());
            let dpi = net.add_middlebox(Box::new(dpi));
            step_a.devices.push((dpi, Direction::LocalToRemote));
        }
        let step_b = RouteStep::with_device(hop_b, tspu, Direction::LocalToRemote);
        net.set_route(client, server, Route { steps: vec![step_a.clone(), step_b] });
        net.set_route(
            server,
            client,
            Route {
                steps: vec![
                    RouteStep::with_device(hop_b, tspu, Direction::RemoteToLocal),
                    RouteStep::router(hop_a),
                ],
            },
        );
        let resolver_list = if dns_blockpage { HashSet::from([domain.to_string()]) } else { HashSet::new() };
        let resolver = IspResolver::new(name, resolver_list, Ipv4Addr::new(10, 40 + i as u8, 0, 80));
        isps.push((name, resolver, client, client_addr));
    }

    let mut body = String::from(
        "one domain, three ISPs, three observables (DNS / HTTP / HTTPS):

         ISP                       DNS            HTTP:80          HTTPS:443 (TSPU layer)
",
    );
    for (name, resolver, client, client_addr) in isps {
        // DNS observable: the ISP's own resolver and list.
        let dns = if resolver.resolve(domain, server_addr).is_blocked() { "blockpage IP" } else { "real IP" };

        // HTTP observable: does the GET reach the server?
        let _ = net.take_inbox(server);
        let get = TcpPacketSpec::new(client_addr, 33_000, server_addr, 80, TcpFlags::PSH_ACK)
            .payload(HttpRequest::get(domain, "/").build())
            .build();
        net.send_from(client, get);
        net.run_for(Duration::from_millis(300));
        let http = if net.take_inbox(server).is_empty() { "swallowed (timeout)" } else { "reaches server" };

        // HTTPS observable: handshake + CH, then the response.
        for (flags, from_client) in [(TcpFlags::SYN, true), (TcpFlags::SYN_ACK, false), (TcpFlags::ACK, true)] {
            let pkt = if from_client {
                TcpPacketSpec::new(client_addr, 33_100, server_addr, 443, flags).build()
            } else {
                TcpPacketSpec::new(server_addr, 443, client_addr, 33_100, flags).build()
            };
            net.send_from(if from_client { client } else { server }, pkt);
            net.run_for(Duration::from_millis(120));
        }
        let ch = TcpPacketSpec::new(client_addr, 33_100, server_addr, 443, TcpFlags::PSH_ACK)
            .payload(ClientHelloBuilder::new(domain).build())
            .build();
        net.send_from(client, ch);
        net.run_for(Duration::from_millis(200));
        let _ = net.take_inbox(client);
        let reply = TcpPacketSpec::new(server_addr, 443, client_addr, 33_100, TcpFlags::PSH_ACK)
            .payload(vec![0xaa; 120])
            .build();
        net.send_from(server, reply);
        net.run_for(Duration::from_millis(300));
        let https = net
            .take_inbox(client)
            .iter()
            .find_map(|(_, bytes)| {
                let ip = Ipv4Packet::new_checked(&bytes[..]).ok()?;
                let seg = TcpSegment::new_checked(ip.payload()).ok()?;
                Some(if seg.flags() == TcpFlags::RST_ACK { "RST/ACK rewrite" } else { "data arrives" })
            })
            .unwrap_or("silence");
        let _ = writeln!(body, "{name:<26}{dns:<15}{http:<21}{https}");
    }
    body.push_str(concat!(
        "
paper (§5.1): 'TSPU blocking should show a high degree of uniformity in
",
        "blocking behaviors across ISPs … in contrast to blocking performed by
",
        "individual ISPs' — the HTTPS column is identical everywhere, the legacy
",
        "columns are not. That uniformity is the attribution criterion.
",
    ));
    ExperimentReport { id: "attribution", title: "§5.1 attribution by uniformity (extension)", body }
}

/// Table 7: OS/spec timeout reference vs the TSPU.
pub fn table7() -> ExperimentReport {
    let mut body = String::from("system     state                                    timeout (s)\n");
    for row in os_reference::TABLE7 {
        let _ = writeln!(body, "{:<11}{:<41}{}", row.system, row.state, row.timeout_secs);
    }
    let _ = writeln!(body, "\nTSPU measured: {:?}", os_reference::TSPU_MEASURED);
    let _ = writeln!(
        body,
        "any documented system matches the TSPU: {} (paper: none)",
        os_reference::any_system_matches_tspu()
    );
    ExperimentReport { id: "table7", title: "Table 7 OS timeout reference", body }
}
