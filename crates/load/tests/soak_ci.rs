//! CI soak: a 50k-flow population driven through one TSPU device, held to
//! the same determinism bar as the single-probe experiments.
//!
//! The CI `load` job runs this in release mode at `--test-threads={1,8}`
//! and `TSPU_THREADS={1,8}`: the exported snapshot and the timeline must
//! be identical in every configuration, the per-flow policy oracle must
//! be clean, conntrack GC must stay within its advertised per-packet
//! probe budget, and the event queue must stay shallow.

use std::time::Duration;

use tspu_core::conntrack::GC_PROBE_BUDGET;
use tspu_load::gen::LoadProfile;
use tspu_load::soak::{build_lab, SoakConfig};

fn ci_config() -> SoakConfig {
    SoakConfig {
        profile: LoadProfile {
            flows: 50_000,
            clients: 64,
            universe_domains: 100_000,
            span: Duration::from_secs(120),
            ..LoadProfile::default()
        },
        flow_capacity: 65_536,
        shards: Some(8),
        slice: Duration::from_millis(200),
    }
}

#[test]
fn fifty_k_flow_soak_is_deterministic_and_oracle_clean() {
    let lab = build_lab(ci_config());
    assert_eq!(lab.total_flows(), 50_000);

    // Two forks of the same lab: everything virtual-time derived must be
    // identical. Wall-clock figures (pps, latency percentiles) are named
    // report fields, never part of the exported snapshot.
    let first = lab.run();
    let second = lab.run();
    assert_eq!(
        first.obs_snapshot(),
        second.obs_snapshot(),
        "soak runs diverged across forks of one lab"
    );
    assert_eq!(first.timeline, second.timeline, "soak timelines diverged");

    // Every flow launched, every flow completed.
    assert_eq!(first.stats.flows_started, 50_000);
    assert_eq!(first.stats.flows_completed, 50_000);

    // Policy oracle: a flow is RST iff its SNI matches the device's RST
    // set — zero tolerance, over all 50k lifecycles.
    assert_eq!(first.stats.oracle_mismatches, 0, "enforcement wrong under load");
    assert!(first.stats.resets > 0, "blocked mid-tail never sampled");
    assert!(first.stats.got_data > first.stats.resets, "clean head not dominant");

    // GC stays bounded per device-visible packet, aggregate and per-shard.
    assert!(
        first.gc_probes <= GC_PROBE_BUDGET as u64 * first.device_packets,
        "gc probes {} exceed budget ({} packets)",
        first.gc_probes,
        first.device_packets
    );
    assert!(
        first.max_shard_gc_probes <= GC_PROBE_BUDGET as u64 * first.device_packets,
        "one shard over-probed"
    );

    // The population is genuinely concurrent: arrivals span 120 s, well
    // under the Established idle timeout, so the tracker holds a large
    // share of all flows at the peak.
    assert!(
        first.peak_tracked_flows >= 25_000,
        "peak tracked {} — population not concurrent",
        first.peak_tracked_flows
    );

    // The flow table costs what it tracks: a slab slot per flow at the peak
    // (168 B) plus the provisioned index shared out (8 × 16,384 five-byte
    // buckets, 0.66 MB over the peak) — measured 181 B, bounded at × 1.3.
    assert!(
        first.bytes_per_flow < 236.0,
        "{:.0} B per tracked flow: conntrack memory follows capacity, not flows",
        first.bytes_per_flow
    );

    // Traffic guard for the single binary-heap event queue (DESIGN.md
    // "Event queue"): packets in flight are rate × one RTT and wake-up
    // timers one per client, so depth peaks near a thousand (measured 1,092). A
    // population that parks far more reopens heap-vs-wheel with data.
    let peak_depth = first.timeline.iter().map(|s| s.wheel_depth).max().unwrap_or(0);
    assert!(peak_depth <= 2_048, "event queue peaked at {peak_depth} pending events");

    // Occupancy spreads across shards: no shard is empty, none holds more
    // than half the final population.
    assert_eq!(first.shard_lens.len(), 8);
    let total: usize = first.shard_lens.iter().sum();
    if total > 1_000 {
        for (i, &len) in first.shard_lens.iter().enumerate() {
            assert!(len > 0, "shard {i} empty");
            assert!(len < total / 2 + total / 8, "shard {i} holds {len} of {total}");
        }
    }
}
