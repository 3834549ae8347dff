//! Million-flow soak: a full ISP subscriber population — Zipf domain
//! popularity over a 100k-domain universe, diurnal arrival curve,
//! open/closed-loop client mix — driven through one TSPU device with a
//! sharded million-entry flow table.
//!
//! Prints the load report and writes `load_report.json` (load counters +
//! per-shard occupancy as an obs snapshot). The file holds only
//! virtual-time counts, so two runs write identical bytes; the wall-clock
//! throughput and latency figures are printed, not exported.
//!
//! ```sh
//! cargo run --release --example load_soak            # 1M flows
//! TSPU_LOAD_FLOWS=100000 cargo run --release --example load_soak
//! ```

use std::time::Duration;

use tspu_load::gen::LoadProfile;
use tspu_load::soak::{build_lab, SoakConfig};

fn main() {
    let flows: usize = std::env::var("TSPU_LOAD_FLOWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000);

    let config = SoakConfig {
        profile: LoadProfile {
            flows,
            clients: 64,
            universe_domains: 100_000,
            span: Duration::from_secs(240),
            ..LoadProfile::default()
        },
        flow_capacity: 1_048_576,
        shards: Some(16),
        slice: Duration::from_millis(200),
    };

    println!("building lab: {flows} flows, 64 clients, 100k domains, 16-shard conntrack…");
    let lab = build_lab(config);
    println!(
        "universe blocked fraction: {:.1}% — driving population…",
        lab.blocked_universe_fraction * 100.0
    );
    let report = lab.run();

    let s = &report.stats;
    println!();
    println!("== load soak report ==");
    println!("flows        started {} / completed {}", s.flows_started, s.flows_completed);
    println!(
        "outcomes     {} fetched data, {} reset by TSPU, {} oracle mismatches",
        s.got_data, s.resets, s.oracle_mismatches
    );
    println!("mix          {} open-loop, {} closed-loop", s.open_loop_flows, s.closed_loop_flows);
    println!("events       {} scheduler events, {:.1}s wall", report.events, report.wall_seconds);
    println!("throughput   {:.0} packets/sec sustained", report.sustained_pps);
    println!(
        "latency      p50 {} ns/event, p99 {} ns, p999 {} ns (steady state)",
        report.p50_event_ns, report.p99_event_ns, report.p999_event_ns
    );
    println!(
        "conntrack    peak {} tracked flows, {:.0} bytes/flow, {} gc probes",
        report.peak_tracked_flows, report.bytes_per_flow, report.gc_probes
    );
    print!("shards       occupancy");
    for len in &report.shard_lens {
        print!(" {len}");
    }
    println!();
    println!(
        "gc bound     {} (≤ {} probes per device packet)",
        if report.gc_within_budget() { "OK" } else { "EXCEEDED" },
        tspu_core::conntrack::GC_PROBE_BUDGET
    );

    let json = report.obs_snapshot().to_json();
    std::fs::write("load_report.json", &json).expect("write load_report.json");
    println!("\nwrote load_report.json ({} bytes)", json.len());
}
