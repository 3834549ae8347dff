//! Campaign observability report: run a large registry sweep observed,
//! with the virtual-time tracer sampling, print the campaign-level
//! report (verdict tally, per-worker pool utilization, top device
//! counters, virtual scenario-latency histogram), and write the sampled
//! span trace as Chrome-trace JSON (loadable in Perfetto or
//! `chrome://tracing`) plus the full metric snapshot as JSON.
//!
//! ```sh
//! cargo run --release --example obs_report                 # 100k domains
//! TSPU_OBS_DOMAINS=5000 cargo run --release --example obs_report
//! TSPU_THREADS=1 cargo run --release --example obs_report  # same snapshot bytes
//! ```
//!
//! The snapshot (and therefore `obs_snapshot.json` / `trace.json`) is
//! byte-identical at every `TSPU_THREADS` setting: spans carry simulated
//! time, scenario indices, and nothing wall-clock. Only the pool report
//! printed to stdout is timing-dependent.

use std::fs::File;
use std::io::BufWriter;

use tspu_measure::domains::DomainVerdict;
use tspu_measure::{RunOpts, ScanPool, SweepSpec};
use tspu_registry::Universe;

/// Trace one scenario in a thousand: a 100k-domain campaign keeps ~100
/// traced scenarios — readable in Perfetto, megabytes not gigabytes.
const TRACE_EVERY: usize = 1000;

fn main() {
    let count: usize = std::env::var("TSPU_OBS_DOMAINS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100_000);

    // The campaign list: the universe's real domains (Tranco anchors,
    // registry sample, blocklists) padded with unlisted filler to the
    // requested size, exactly like a wide §6 scan list.
    let universe = Universe::generate(3);
    let mut domains: Vec<String> =
        universe.all_domains().map(|d| d.name.clone()).take(count).collect();
    for i in domains.len()..count {
        domains.push(format!("filler-{i}.example"));
    }

    let pool = ScanPool::from_env();
    let spec = SweepSpec::from_universe(&universe, domains);
    println!(
        "sweeping {} domains on {} threads (tracing 1/{TRACE_EVERY} scenarios)...",
        spec.len(),
        pool.threads()
    );
    let observed = spec.run(&pool, &RunOpts::sampled(TRACE_EVERY));

    // --- Verdict tally -------------------------------------------------
    let mut tally = [0usize; 5];
    for verdict in &observed.verdicts {
        let slot = match verdict {
            DomainVerdict::Open => 0,
            DomainVerdict::Sni1 => 1,
            DomainVerdict::Sni2 => 2,
            DomainVerdict::Sni4 => 3,
            DomainVerdict::Throttled => 4,
        };
        tally[slot] += 1;
    }
    println!(
        "\nverdicts: {} open, {} SNI-I, {} SNI-II, {} SNI-IV, {} throttled",
        tally[0], tally[1], tally[2], tally[3], tally[4]
    );

    // --- Pool report (wall clock — the nondeterministic half) ----------
    println!("\n{}", observed.report.as_ref().expect("report requested").summary());

    // --- Snapshot highlights (deterministic) ---------------------------
    let snapshot = observed.snapshot.as_ref().expect("observed run");
    println!("snapshot: {} metrics, {} spans", snapshot.metrics().len(), snapshot.spans().len());
    let mut counters = snapshot.moved_counters();
    counters.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    println!("top counters:");
    for (name, value) in counters.iter().take(12) {
        println!("  {value:>12}  {name}");
    }
    if let Some(hist) = snapshot.histogram("sweep.scenario_us") {
        println!(
            "virtual scenario duration: min {} us, p50 {} us, p99 {} us, max {} us",
            hist.min().unwrap_or(0),
            hist.quantile_lower(0.50),
            hist.quantile_lower(0.99),
            hist.max().unwrap_or(0),
        );
    }

    // --- Artifacts -----------------------------------------------------
    let trace_path = std::env::var("TSPU_TRACE_OUT").unwrap_or_else(|_| "trace.json".into());
    let snap_path =
        std::env::var("TSPU_SNAPSHOT_OUT").unwrap_or_else(|_| "obs_snapshot.json".into());
    let om_path =
        std::env::var("TSPU_OPENMETRICS_OUT").unwrap_or_else(|_| "metrics.om".into());
    let trace = File::create(&trace_path).expect("create trace file");
    snapshot.write_chrome_trace(BufWriter::new(trace)).expect("write chrome trace");
    std::fs::write(&snap_path, snapshot.to_json()).expect("write snapshot json");
    std::fs::write(&om_path, snapshot.to_openmetrics()).expect("write openmetrics");
    println!(
        "\nwrote {trace_path} ({} spans), {snap_path}, and {om_path}",
        snapshot.spans().len()
    );
    println!("snapshot fingerprint: {:016x}", fingerprint(&snapshot.to_json()));
}

/// FNV-1a over the snapshot JSON — a quick way to eyeball byte-identity
/// across `TSPU_THREADS` settings without diffing files.
fn fingerprint(s: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in s.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}
