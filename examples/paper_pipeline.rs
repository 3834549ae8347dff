//! The whole paper in one run: a miniature version of the full
//! measurement campaign — **how** the TSPU blocks (behaviors, state
//! machine), **what** it blocks (domains), and **where** it sits
//! (localization, country scan) — printed as a narrative.
//!
//! This is the "read the paper in 60 seconds of CPU" example; the
//! `experiments` bench target regenerates each artifact individually and
//! at larger scale.
//!
//! ```sh
//! cargo run --release --example paper_pipeline
//! ```

use tspu_measure::behaviors::{classify_behavior, ObservedBehavior};
use tspu_measure::harness::{handshake_prefix, ProbeSide, ScriptEnd, ScriptStep};
use tspu_measure::sweep::{registry_campaign, RunOpts, ScanPool};
use tspu_measure::{echo, fragscan, timeouts, LocalizeSpec};
use tspu_registry::Universe;
use tspu_topology::{policy_from_universe, Runet, RunetConfig, VantageLab};
use tspu_wire::tcp::TcpFlags;
use tspu_wire::tls::ClientHelloBuilder;

fn main() {
    println!("════════ reproducing 'TSPU: Russia's Decentralized Censorship System' ════════\n");
    let universe = Universe::generate(2022);

    // ───────────────────────── §5 HOW does the TSPU block? ─────────────────────────
    println!("§5 HOW — probing from the ER-Telecom vantage point:");
    let mut lab = VantageLab::builder().universe(&universe).table1().build();
    for (domain, note) in [
        ("meduza.io", "news site"),
        ("play.google.com", "out-registry Google service"),
        ("twitter.com", "social media (backup-filtered)"),
        ("wikipedia.org", "control"),
    ] {
        let vantage = lab.vantage("ER-Telecom");
        let local = ScriptEnd { host: vantage.host, addr: vantage.addr, port: 20_000 + domain.len() as u16 };
        let remote = ScriptEnd { host: lab.us_main, addr: lab.us_main_addr, port: 443 };
        let behavior = classify_behavior(
            &mut lab.net,
            local,
            remote,
            &handshake_prefix(),
            ClientHelloBuilder::new(domain).build(),
        );
        let name = match behavior {
            ObservedBehavior::RstAck => "SNI-I: response rewritten to RST/ACK",
            ObservedBehavior::DelayedDrop(n) => {
                println!("  {domain:<18}({note}): SNI-II: {n} packets pass, then symmetric drops");
                continue;
            }
            ObservedBehavior::FullDrop => "SNI-IV: everything dropped",
            ObservedBehavior::Throttled => "SNI-III: throttled",
            ObservedBehavior::Pass => "no interference",
        };
        println!("  {domain:<18}({note}): {name}");
    }

    // The split handshake flips SNI-I off but arms the backup.
    let vantage = lab.vantage("ER-Telecom");
    let local = ScriptEnd { host: vantage.host, addr: vantage.addr, port: 21_000 };
    let remote = ScriptEnd { host: lab.us_main, addr: lab.us_main_addr, port: 443 };
    let split = vec![
        ScriptStep::new(ProbeSide::Local, TcpFlags::SYN),
        ScriptStep::new(ProbeSide::Remote, TcpFlags::SYN),
    ];
    let green = classify_behavior(
        &mut lab.net,
        local,
        remote,
        &split,
        ClientHelloBuilder::new("meduza.io").build(),
    );
    println!("  split handshake + meduza.io: {green:?} (a Fig. 4 'green' sequence)");

    // State timeouts, measured black-box, one flip search per forked cell.
    println!("\n§5.3 the connection tracker's timeouts (binary-searched, Fig. 5):");
    let policy = policy_from_universe(&universe, false, true);
    let pool = ScanPool::from_env();
    let rows = timeouts::table2_state_rows();
    let labels = ["SYN-SENT", "SYN-RCVD", "ESTABLISHED"];
    let measured = timeouts::state_timeouts(&policy, &rows, &pool);
    for ((row, measured), label) in rows.iter().zip(measured).zip(labels) {
        println!("  {label:<12} {:>3?} s (paper: {} s)", measured.unwrap_or(0), row.paper_timeout);
    }

    // ───────────────────────── §6 WHAT does it block? ─────────────────────────
    println!("\n§6 WHAT — testing 400 registry-sample domains + anchors:");
    let names = universe.registry_sample.iter().take(400).map(|d| d.name.as_str());
    let campaign = registry_campaign(&universe, names, &pool);
    let tspu = campaign.tspu_blocked();
    println!("  TSPU blocks {}/400 uniformly; resolver coverage differs per ISP:", tspu.len());
    for (isp, blocked) in &campaign.isp_blocked {
        println!("    {isp:<12} resolver blockpages {:>3} of them", blocked.len());
    }

    // ───────────────────────── §7 WHERE does it block? ─────────────────────────
    println!("\n§7 WHERE — TTL localization from the vantage points:");
    for name in ["Rostelecom", "ER-Telecom", "OBIT"] {
        let found = LocalizeSpec::symmetric(policy.clone(), name)
            .port_base(26_000)
            .run(&pool, &RunOpts::quick())
            .first();
        let upstream = LocalizeSpec::upstream(policy.clone(), name)
            .port_base(27_000)
            .run(&pool, &RunOpts::quick())
            .devices;
        println!(
            "  {name:<12} symmetric device after hop {}, {} upstream-only device(s)",
            found.map(|d| d.after_hop).unwrap_or(0),
            upstream.len()
        );
    }

    println!("\n§7.2 remote measurements over a synthetic RuNet:");
    let config = RunetConfig { scale: 0.0015, ..RunetConfig::default() };
    let mut net = Runet::generate(&universe, config);
    println!(
        "  generated {} endpoints in {} ASes ({} TSPU devices deployed)",
        net.endpoints.len(),
        net.ases.len(),
        net.devices.len()
    );
    let (rows, _, ases_positive) = fragscan::run_port_scan(&mut net, 3);
    let (total, positive) = rows.iter().fold((0, 0), |(t, p), r| (t + r.endpoints, p + r.positive));
    println!(
        "  fragmentation fingerprint (45 vs 46): {positive}/{total} sampled endpoints positive ({:.1}%), {ases_positive} ASes",
        100.0 * positive as f64 / total.max(1) as f64
    );
    let target = net
        .echo_servers()
        .find(|e| e.behind_upstream_only && !e.behind_symmetric)
        .map(|e| e.addr);
    if let Some(target) = target {
        let result = echo::echo_measurement(&mut net, target, 443);
        println!(
            "  echo technique on an upstream-only-covered server: control {}/20, trigger {}/20",
            result.control_received, result.trigger_received
        );
    }

    println!("\n(regenerate every table and figure: cargo bench -p tspu-bench --bench experiments)");
}
