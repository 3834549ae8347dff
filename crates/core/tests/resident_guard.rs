//! What a provisioned flow table costs in resident memory.
//!
//! A device provisioned for a million flows and carrying fifty thousand
//! must pay for the fifty thousand: the index is resident at its capacity
//! (a hash spreads flows over every page of it), the slab only in the
//! slots that hold a flow. Measured: 13 MiB — 10 MiB of index, 3 MiB of
//! slab (64-byte slots).
//!
//! One test in its own binary, so nothing else moves the process's
//! resident set while it measures. Read from `/proc/self/status` (`VmRSS`,
//! in KiB — `statm` counts pages and the page size needs libc); skipped
//! where that file does not exist. CI runs it in release.

use std::net::Ipv4Addr;

use tspu_core::{FlowKey, ShardedConnTracker, Side};
use tspu_netsim::Time;
use tspu_wire::tcp::TcpFlags;

fn resident_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|line| line.strip_prefix("VmRSS:"))?;
    line.split_whitespace().next()?.parse().ok()
}

#[test]
fn a_million_flow_table_is_resident_for_the_flows_it_holds() {
    let Some(before) = resident_kib() else {
        eprintln!("skipped: no /proc/self/status");
        return;
    };
    let mut tracker = ShardedConnTracker::with_capacity_and_shards(1_048_576, 16);
    for flow in 0..50_000u32 {
        let [a, b, c, d] = flow.to_be_bytes();
        let key = FlowKey {
            local_addr: Ipv4Addr::new(10, a, b, 1),
            local_port: u16::from_be_bytes([c, d]),
            remote_addr: Ipv4Addr::new(203, 0, 113, 5),
            remote_port: 443,
            protocol: 6,
        };
        tracker.observe_tcp(Time::ZERO, key, Side::Local, TcpFlags::SYN, 0);
    }
    assert_eq!(tracker.len(), 50_000);
    let grown_mib = resident_kib().expect("read once already").saturating_sub(before) / 1024;
    let estimate_mib = tracker.memory_bytes_estimate() as u64 >> 20;
    eprintln!("50,000 flows: {grown_mib} MiB resident, {estimate_mib} MiB estimated");
    // 13 MiB measured, × 1.3.
    assert!(grown_mib < 17, "50,000 flows made {grown_mib} MiB resident");
    // The estimate the soak divides into bytes per flow tracks the same
    // thing: within a factor of two of what the kernel counted.
    assert!(
        (grown_mib / 2..=grown_mib * 2).contains(&estimate_mib),
        "estimated {estimate_mib} MiB, resident {grown_mib} MiB"
    );
}
