//! Shared by the oracle's negative tests: a clean lab's capture with one
//! device egress record edited, so the oracle has an error to find while
//! the engine carries none.

use tspu_netsim::{Capture, MiddleboxId, Oracle, OracleReport, TracePoint};
use tspu_topology::VantageLab;

/// Drains `lab`'s capture, edits one record and audits the result. Of the
/// calls of `device` whose ingress and egress `picks` (a call the device
/// forwarded or rewrote: one ingress record, then its one egress), the
/// last has its egress replaced by `edit(ingress, egress)`. The oracle
/// then checks the capture under `lab.oracle_spec()`, and each violation
/// carries the device's ledger for its flow. Returns the report and the
/// number of records captured.
pub fn audit_tampered(
    lab: &mut VantageLab,
    device: MiddleboxId,
    picks: impl Fn(&[u8], &[u8]) -> bool,
    edit: impl FnOnce(&[u8], &[u8]) -> Vec<u8>,
) -> (OracleReport, usize) {
    let captured = lab.net.take_captures();
    let records: Vec<_> = captured.iter().collect();
    let at = (1..records.len())
        .rev()
        .find(|&i| {
            let (ingress, egress) = (records[i - 1], records[i]);
            matches!(ingress.point, TracePoint::DeviceIngress { device: d, .. } if d == device)
                && matches!(egress.point, TracePoint::DeviceEgress { device: d, .. } if d == device)
                && picks(ingress.bytes, egress.bytes)
        })
        .expect("a call of the device matches");
    let edited = edit(records[at - 1].bytes, records[at].bytes);
    // The log is append-only: the tampered capture is rebuilt around the
    // edited record.
    let mut captures = Capture::new();
    for (i, record) in records.iter().enumerate() {
        let bytes = if i == at { &edited[..] } else { record.bytes };
        captures.push(record.time, record.point, bytes);
    }
    let mut report = Oracle::new(lab.oracle_spec()).check(&captures);
    report.attach_device_ledger(|id, packet| lab.device_ledger(id, packet, 8));
    (report, captures.len())
}
