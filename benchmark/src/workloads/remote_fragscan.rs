//! `remote_fragscan`: the §7 fragment-fingerprint scan of RuNet endpoints
//! (Fig. 9).
//!
//! A generated country of about 19k endpoints in 4,986 ASes, every
//! endpoint fingerprinted with a plain SYN, a 45-fragment SYN and a
//! 46-fragment SYN over the serial `&mut Runet` path. The only workload
//! that drives `wire::frag`, `core::frag_cache` and NAT, and the most
//! expensive per unit. The scan mutates the country (conntrack, fragment
//! queues, NAT bindings), so each repetition scans a freshly generated one;
//! generating it is set-up, not scan, and is not in the timed region.

use std::collections::BTreeMap;
use std::time::Instant;

use tspu_measure::fragscan::{fingerprint, run_port_scan, PortScanRow};
use tspu_registry::Universe;
use tspu_topology::{Runet, RunetConfig};

use super::{Counts, Digest, LedgerTerm, RepOut, RungCost, Size, Workload, WorkloadInfo};
use crate::trace;

pub struct RemoteFragscan {
    universe: Universe,
    config: RunetConfig,
    /// The country set-up generated, for the first repetition to scan.
    fresh: Option<Runet>,
}

/// Per-port ground truth: endpoints a remote scan can reach, and those of
/// them behind a symmetric device.
fn ground_truth(net: &Runet) -> BTreeMap<u16, (usize, usize)> {
    let mut truth: BTreeMap<u16, (usize, usize)> = BTreeMap::new();
    for endpoint in net.endpoints.iter().filter(|e| !e.behind_nat) {
        let row = truth.entry(endpoint.port).or_default();
        row.0 += 1;
        row.1 += usize::from(endpoint.behind_symmetric);
    }
    truth
}

/// Endpoints whose row disagrees with the ground truth, and the hash of
/// the scan's output.
fn score(net: &Runet, rows: &[PortScanRow], ases_seen: usize, ases_positive: usize) -> (u64, u64) {
    let mut digest = Digest::default();
    let mut truth = ground_truth(net);
    let mut failed = 0;
    for row in rows {
        let (reachable, covered) = truth.remove(&row.port).unwrap_or((0, 0));
        failed += row.endpoints.abs_diff(reachable) + row.positive.abs_diff(covered);
        for value in [
            u64::from(row.port),
            row.endpoints as u64,
            row.positive as u64,
        ] {
            digest.u64(value);
        }
    }
    // Ports the scan never reported.
    failed += truth
        .values()
        .map(|(reachable, _)| reachable)
        .sum::<usize>();
    digest.u64(ases_seen as u64);
    digest.u64(ases_positive as u64);
    (failed as u64, digest.finish())
}

fn device_counts(net: &Runet) -> Counts {
    let covered = net
        .endpoints
        .iter()
        .filter(|e| e.behind_symmetric && !e.behind_nat)
        .count();
    Counts {
        events: net.net.events_processed(),
        device_packets: net
            .devices
            .iter()
            .map(|&d| net.net.middlebox(d).stats().packets_seen)
            .sum(),
        frag_discarded: net
            .devices
            .iter()
            .map(|&d| net.net.middlebox(d).frag_cache().discarded())
            .sum(),
        // The 45- and the 46-piece train both cross the device.
        frag_trains: 2 * covered as u64,
        ..Counts::default()
    }
}

impl RemoteFragscan {
    fn generate(&self) -> Runet {
        Runet::generate(&self.universe, self.config)
    }
}

impl Workload for RemoteFragscan {
    const INFO: WorkloadInfo = WorkloadInfo {
        name: "remote_fragscan",
        why: "Sec. 7 fragment-fingerprint scan of ~19k generated RuNet endpoints over the serial &mut Runet path: the only workload driving wire::frag, core::frag_cache and NAT, and the most expensive per unit.",
    };

    fn setup(seed: u64, size: Size) -> Self {
        let universe = Universe::generate(seed);
        // Devices never fail, so a fingerprint must equal the ground truth.
        let config = RunetConfig {
            seed,
            scale: match size {
                Size::Full => 0.001,
                Size::Check => 0.000_05,
            },
            num_ases: size.cells(4_986, 160),
            device_failure: 0.0,
            ..RunetConfig::default()
        };
        let mut workload = RemoteFragscan {
            universe,
            config,
            fresh: None,
        };
        workload.fresh = Some(workload.generate());
        workload
    }

    fn rep(&mut self) -> RepOut {
        let mut net = self.fresh.take().unwrap_or_else(|| self.generate());
        let start = Instant::now();
        let (rows, ases_seen, ases_positive) = run_port_scan(&mut net, 1);
        let wall = start.elapsed();
        let (failed, digest) = score(&net, &rows, ases_seen, ases_positive);
        RepOut {
            wall,
            nominal_wall_ns: None,
            cells: net.endpoints.len() as u64,
            failed,
            digest,
            counts: device_counts(&net),
            layer: Vec::new(),
        }
    }

    /// `run_port_scan`'s loop over `fingerprint`, one traced cell per
    /// endpoint, each verdict held against that endpoint's ground truth.
    fn traced(&mut self) -> RepOut {
        let mut net = self.fresh.take().unwrap_or_else(|| self.generate());
        let targets: Vec<_> = net
            .endpoints
            .iter()
            .map(|e| {
                (
                    e.addr,
                    e.port,
                    e.asn,
                    e.behind_symmetric && !e.behind_nat,
                    e.behind_nat,
                )
            })
            .collect();
        let mut rows: BTreeMap<u16, PortScanRow> = BTreeMap::new();
        let mut ases_seen = std::collections::BTreeSet::new();
        let mut ases_positive = std::collections::BTreeSet::new();
        let mut wrong = 0u64;
        let mut src_port = 1024u16;

        let start = Instant::now();
        let root = trace::begin("workload", trace::NONE);
        for (index, &(addr, port, asn, covered, behind_nat)) in targets.iter().enumerate() {
            let id = index as u32;
            src_port = src_port.wrapping_add(7) | 1024;
            let cell = trace::begin("cell", id);
            let verdict = trace::span("measure.probe", id, || {
                fingerprint(&mut net, addr, port, src_port)
            });
            trace::end(cell);
            wrong += u64::from(
                verdict.tspu_positive() != covered || verdict.responded_plain == behind_nat,
            );
            if !verdict.responded_plain {
                continue;
            }
            let row = rows.entry(port).or_insert(PortScanRow {
                port,
                ..PortScanRow::default()
            });
            row.endpoints += 1;
            ases_seen.insert(asn);
            if verdict.tspu_positive() {
                row.positive += 1;
                ases_positive.insert(asn);
            }
        }
        trace::end(root);
        let wall = start.elapsed();

        let rows: Vec<PortScanRow> = rows.into_values().collect();
        let (failed, digest) = score(&net, &rows, ases_seen.len(), ases_positive.len());
        RepOut {
            wall,
            nominal_wall_ns: None,
            cells: targets.len() as u64,
            failed: failed.max(wrong),
            digest,
            counts: device_counts(&net),
            layer: Vec::new(),
        }
    }

    fn ledger(counts: &Counts, cells: u64, rung: RungCost) -> Vec<LedgerTerm> {
        let endpoints = cells as f64;
        vec![
            LedgerTerm::events(counts, rung),
            LedgerTerm::new(
                "fragment pieces cut (45 + 46 per endpoint)",
                endpoints * 91.0,
                rung("wire.fragment_8x_ns") / 8.0,
            ),
            LedgerTerm::new(
                "fragment trains through a device",
                counts.frag_trains as f64,
                rung("core.device_fragment_train_ns"),
            ),
            LedgerTerm::device_packets(counts, rung),
            LedgerTerm::new(
                "SYN builds, 552 bytes (3 per endpoint; the 1400-byte rung is an upper bound)",
                endpoints * 3.0,
                rung("wire.build_tcp_1400B_ns"),
            ),
        ]
    }
}
