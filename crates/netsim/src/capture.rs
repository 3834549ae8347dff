//! Packet capture: the simulator's equivalent of running tcpdump on both
//! ends, which the paper's methodology does for every measurement (§3) —
//! plus per-middlebox trace points, the equivalent of a tap on either side
//! of an in-path device, which the chaos oracle replays to check model
//! invariants exactly where the device acted.

use crate::middlebox::MiddleboxId;
use crate::network::HostId;
use crate::time::Time;

/// Where a captured packet was observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePoint {
    /// Leaving a host's network interface.
    HostTx(HostId),
    /// Arriving at a host's network interface.
    HostRx(HostId),
    /// Dropped in transit: TTL expiry or a middlebox drop, at the given
    /// route step index.
    Dropped { step: usize },
    /// Entering a middlebox at the given route step (the packet as the
    /// device sees it, post router-TTL-decrement).
    DeviceIngress { device: MiddleboxId, step: usize },
    /// Leaving a middlebox: one record per packet the device forwarded for
    /// the preceding ingress, in forwarding order. An ingress followed by
    /// no egress means the device consumed the packet (drop or buffering).
    DeviceEgress { device: MiddleboxId, step: usize },
}

/// One captured packet.
#[derive(Debug, Clone)]
pub struct CaptureRecord {
    pub time: Time,
    pub point: TracePoint,
    pub bytes: Vec<u8>,
}
