//! Replays the February–March 2022 policy timeline against one flow shape
//! and reports what a Twitter CDN fetch experienced on each date: open,
//! hard-throttled (SNI-III at ~650 B/s), then RST-blocked with the QUIC
//! filter on (the March 4 transition, §5.2).
//!
//! The download is driven as a constant offered load (a TCP sender with
//! retransmission keeps offering data until it is delivered), so the
//! policer's goodput is directly observable.
//!
//! ```sh
//! cargo run --release --example throttling_timeline
//! ```

use std::time::Duration;

use tspu_measure::harness::{handshake_prefix, run_script, ProbeSide, ScriptEnd, ScriptStep};
use tspu_registry::{PolicyTimeline, Universe};
use tspu_topology::{policy_from_universe, VantageLab};
use tspu_wire::tcp::TcpFlags;
use tspu_wire::tls::ClientHelloBuilder;

fn main() {
    let universe = Universe::generate(2022);
    let timeline = PolicyTimeline::new(&universe);

    let dates = [
        (20u32, "2022-01-21 (before the escalation)"),
        (55, "2022-02-25 (war began, blocks expanding)"),
        (58, "2022-02-28 (hard throttling window)"),
        (63, "2022-03-05 (throttling replaced by RST; QUIC filter on)"),
    ];

    for (day_number, label) in dates {
        let epoch = timeline.epoch(day_number);
        let mut lab = VantageLab::builder()
            .universe(&universe)
            .policy(policy_from_universe(&universe, epoch.throttle_active, epoch.quic_filter))
            .table1()
            .build();
        if day_number < tspu_registry::day::MAR_4 {
            // Before Mar 4 the social-media domains were not RST-blocked:
            // before Feb 26 they were simply open; Feb 26 – Mar 4 they
            // were throttle-listed only.
            lab.policy.update(|p| {
                for d in ["twitter.com", "t.co", "twimg.com", "facebook.com", "instagram.com", "fbcdn.net"] {
                    p.sni_rst.remove(d);
                    p.sni_backup.remove(d);
                }
            });
        }

        // Handshake + ClientHello, then a 60 s constant offered load of
        // 1460-byte segments from the CDN side (10 per second).
        let vantage = lab.vantage("ER-Telecom");
        let local = ScriptEnd { host: vantage.host, addr: vantage.addr, port: 43_210 };
        let remote = ScriptEnd { host: lab.us_main, addr: lab.us_main_addr, port: 443 };
        let mut steps = handshake_prefix();
        steps.push(
            ScriptStep::new(ProbeSide::Local, TcpFlags::PSH_ACK)
                .payload(ClientHelloBuilder::new("twimg.com").build()),
        );
        for _ in 0..600 {
            let mut step =
                ScriptStep::new(ProbeSide::Remote, TcpFlags::PSH_ACK).payload(vec![0x7a; 1460]);
            step.wait_before = Duration::from_millis(100);
            steps.push(step);
        }
        let result = run_script(&mut lab.net, local, remote, &steps);

        let got_rst = result.at_local.iter().any(|p| p.is_rst_ack);
        let bytes: usize = result.at_local.iter().map(|p| p.payload_len).sum();
        let offered = 600 * 1460;
        let duration = match (result.at_local.first(), result.at_local.last()) {
            (Some(first), Some(last)) => (last.time - first.time).as_secs_f64().max(1.0),
            _ => 1.0,
        };
        let goodput = bytes as f64 / duration;
        let verdict = if got_rst {
            "RST-blocked (SNI-I) — the download never starts".to_string()
        } else if bytes * 2 < offered {
            format!(
                "THROTTLED: {bytes} of {offered} offered bytes delivered = {goodput:.0} B/s (paper: 600-700 B/s)"
            )
        } else {
            format!("open: all {bytes} bytes delivered")
        };
        println!("{label}\n  twimg.com download: {verdict}");
        println!(
            "  central policy: throttle={} quic_filter={}\n",
            epoch.throttle_active, epoch.quic_filter
        );
    }
    println!("paper (§5.2): the Feb 26 throttle polices flows to ~600-700 B/s; on");
    println!("March 4 the affected domains moved to RST blocking and QUIC died.");
}
