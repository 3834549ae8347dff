//! The enforcement flight recorder: a bounded per-device ring of
//! structured enforcement events — the "black box" a violation report
//! replays when the oracle flags a flow.
//!
//! Counters say *how much* a device enforced; the ledger says *what
//! happened to this flow, in order*: the trigger that fired, the verdict
//! it armed, the residual window lapsing, stale-epoch enforcement after a
//! policy delta, conntrack GC reclamation, device restarts, and the
//! device observing a new policy epoch. Every event is stamped with
//! virtual time, the (direction-normalized) flow key where one applies,
//! the censor-profile name, and the policy epoch in force.
//!
//! Design constraints, in priority order:
//!
//! 1. **Steady-state packets record nothing.** Pass-verdict traffic — the
//!    hot path the `zero_alloc` test guards — never touches the ring.
//!    Events exist only where the device already does cold work (arming a
//!    verdict, expiring one, restarting).
//! 2. **Bounded.** The ring holds [`DEFAULT_LEDGER_CAP`] events and
//!    overwrites the oldest; a blocked-flow soak cannot grow it.
//! 3. **Deterministic.** Events are ordered by a monotone sequence
//!    number; virtual time is the only clock. Renderings are
//!    byte-identical at every `TSPU_THREADS` setting.
//!
//! Every device keeps one. Unlike [`tspu_obs::Tracer`] it has no run-time
//! switch: by rule 1 its steady-state cost is one epoch comparison.

use crate::conntrack::FlowKey;

/// Default ring capacity, per device. Big enough that a scenario cell's
/// entire enforcement story fits; small enough that a million-flow soak's
/// per-device footprint stays a few KiB.
pub const DEFAULT_LEDGER_CAP: usize = 256;

/// What happened — one enforcement-relevant state change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LedgerKind {
    /// A trigger matched and survived the failure dice. `trigger` names
    /// the mechanism (`sni1`..`sni4`, `quic`, `http_host`, `dns`).
    TriggerFired { trigger: &'static str },
    /// A block verdict was installed (or refreshed) on the flow.
    BlockArmed { kind: &'static str },
    /// The flow's verdict lapsed (residual window expired) and was
    /// cleared.
    BlockExpired { kind: &'static str },
    /// The flow was enforced under a verdict pinned to an epoch older
    /// than the live policy — residual blocking across a registry delta.
    StaleEnforcement { kind: &'static str },
    /// Conntrack GC reclaimed `evicted` expired flows since the last
    /// ledger event (coalesced; the sweep itself is hot-path work).
    GcSweep { evicted: u64 },
    /// A scheduled restart wiped conntrack and the fragment cache.
    Restart,
    /// The device first observed a new policy epoch — a `PolicyDelta`
    /// (or hot reload) becoming visible to this box.
    EpochObserved,
}

impl LedgerKind {
    fn render(&self, out: &mut String) {
        use std::fmt::Write as _;
        match self {
            LedgerKind::TriggerFired { trigger } => {
                let _ = write!(out, "trigger_fired source={trigger}");
            }
            LedgerKind::BlockArmed { kind } => {
                let _ = write!(out, "block_armed kind={kind}");
            }
            LedgerKind::BlockExpired { kind } => {
                let _ = write!(out, "block_expired kind={kind}");
            }
            LedgerKind::StaleEnforcement { kind } => {
                let _ = write!(out, "stale_enforcement kind={kind}");
            }
            LedgerKind::GcSweep { evicted } => {
                let _ = write!(out, "gc_sweep evicted={evicted}");
            }
            LedgerKind::Restart => out.push_str("restart"),
            LedgerKind::EpochObserved => out.push_str("epoch_observed"),
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LedgerEvent {
    /// Monotone per-device sequence number (never wraps; the ring does).
    pub seq: u64,
    /// Virtual time in microseconds.
    pub at_us: u64,
    /// The flow concerned, or `None` for device-wide events (restart,
    /// epoch observation, GC sweeps).
    pub flow: Option<FlowKey>,
    pub kind: LedgerKind,
    /// The censor profile the device was interpreting.
    pub profile: &'static str,
    /// The policy epoch in force when the event was recorded.
    pub epoch: u64,
}

impl LedgerEvent {
    /// Renders the event as one deterministic line, e.g.
    /// `[1234567us] #3 block_armed kind=rst_rewrite profile=tspu epoch=2 flow=10.0.0.1:40000<->93.184.216.34:443/tcp`.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(96);
        let _ = write!(out, "[{}us] #{} ", self.at_us, self.seq);
        self.kind.render(&mut out);
        let _ = write!(out, " profile={} epoch={}", self.profile, self.epoch);
        if let Some(flow) = &self.flow {
            let proto = match flow.protocol {
                6 => "tcp".to_string(),
                17 => "udp".to_string(),
                p => p.to_string(),
            };
            let _ = write!(
                out,
                " flow={}:{}<->{}:{}/{}",
                flow.local_addr, flow.local_port, flow.remote_addr, flow.remote_port, proto
            );
        }
        out
    }
}

/// The recorder proper: a ring of the last `cap` events plus the
/// state needed to coalesce GC sweeps and detect epoch changes.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    /// Next sequence number; `seq % cap` is the next ring slot.
    seq: u64,
    cap: usize,
    ring: Vec<LedgerEvent>,
    /// Last policy epoch this device observed; [`FlightRecorder::note_epoch`]
    /// records only transitions.
    last_epoch: u64,
    /// GC eviction total at the last ledger event, for coalescing.
    last_evictions: u64,
}

impl FlightRecorder {
    /// A recorder with the default capacity, baselined at
    /// `initial_epoch` so the epoch in force at construction is not
    /// itself reported as a delta.
    pub fn new(initial_epoch: u64) -> FlightRecorder {
        FlightRecorder::with_capacity(DEFAULT_LEDGER_CAP, initial_epoch)
    }

    /// A recorder holding the last `cap` events (`cap` ≥ 1 enforced).
    pub fn with_capacity(cap: usize, initial_epoch: u64) -> FlightRecorder {
        FlightRecorder {
            seq: 0,
            cap: cap.max(1),
            ring: Vec::new(),
            last_epoch: initial_epoch,
            last_evictions: 0,
        }
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing has been recorded (or everything was reset).
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Total events ever recorded (wrapped-out ones included).
    pub fn recorded(&self) -> u64 {
        self.seq
    }

    /// Records one event. The ring allocates lazily on the first
    /// event and overwrites the oldest slot once full.
    pub fn record(
        &mut self,
        at_us: u64,
        flow: Option<FlowKey>,
        kind: LedgerKind,
        profile: &'static str,
        epoch: u64,
    ) {
        let event = LedgerEvent { seq: self.seq, at_us, flow, kind, profile, epoch };
        if self.ring.len() < self.cap {
            if self.ring.capacity() == 0 {
                self.ring.reserve_exact(self.cap);
            }
            self.ring.push(event);
        } else {
            let slot = (self.seq % self.cap as u64) as usize;
            self.ring[slot] = event;
        }
        self.seq += 1;
    }

    /// Records an [`LedgerKind::EpochObserved`] event iff `epoch`
    /// differs from the last observed one — the per-packet cost on
    /// the steady state is this one comparison.
    #[inline]
    pub fn note_epoch(&mut self, at_us: u64, epoch: u64, profile: &'static str) {
        if epoch != self.last_epoch {
            self.last_epoch = epoch;
            self.record(at_us, None, LedgerKind::EpochObserved, profile, epoch);
        }
    }

    /// Coalesces conntrack GC activity: given the tracker's running
    /// eviction total, records one [`LedgerKind::GcSweep`] covering
    /// everything reclaimed since the previous ledger event. Called
    /// from cold enforcement paths only.
    pub fn sync_gc(&mut self, at_us: u64, evictions: u64, profile: &'static str, epoch: u64) {
        if evictions > self.last_evictions {
            let evicted = evictions - self.last_evictions;
            self.last_evictions = evictions;
            self.record(at_us, None, LedgerKind::GcSweep { evicted }, profile, epoch);
        }
    }

    /// Re-baselines the epoch detector — used when a forked device is
    /// pointed at a different policy handle, whose current epoch must
    /// not read as a delta.
    pub fn rebase_epoch(&mut self, epoch: u64) {
        self.last_epoch = epoch;
    }

    /// Events oldest-first (ring unrolled in sequence order).
    pub fn events(&self) -> Vec<LedgerEvent> {
        let mut out = self.ring.clone();
        out.sort_by_key(|e| e.seq);
        out
    }

    /// The last `n` events concerning `flow` (device-wide events
    /// included — a restart or epoch change is part of any flow's
    /// story), rendered oldest-first.
    pub fn for_flow(&self, flow: &FlowKey, n: usize) -> Vec<String> {
        let mut hits: Vec<&LedgerEvent> = self
            .ring
            .iter()
            .filter(|e| e.flow.is_none() || e.flow.as_ref() == Some(flow))
            .collect();
        hits.sort_by_key(|e| e.seq);
        let skip = hits.len().saturating_sub(n);
        hits[skip..].iter().map(|e| e.render()).collect()
    }

    /// A clean copy for a forked device: same capacity and epoch
    /// baseline, empty ring, eviction baseline zeroed (the fork's
    /// conntrack starts empty).
    pub fn fork_reset(&self) -> FlightRecorder {
        FlightRecorder {
            seq: 0,
            cap: self.cap,
            ring: Vec::new(),
            last_epoch: self.last_epoch,
            last_evictions: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn flow(port: u16) -> FlowKey {
        FlowKey {
            local_addr: Ipv4Addr::new(10, 0, 0, 1),
            local_port: port,
            remote_addr: Ipv4Addr::new(93, 184, 216, 34),
            remote_port: 443,
            protocol: 6,
        }
    }

    #[test]
    fn ring_wraps_at_capacity_keeping_the_newest() {
        let mut rec = FlightRecorder::with_capacity(4, 0);
        for i in 0..10u64 {
            rec.record(i, Some(flow(1000 + i as u16)), LedgerKind::Restart, "tspu", 0);
        }
        assert_eq!(rec.len(), 4);
        assert_eq!(rec.recorded(), 10);
        let seqs: Vec<u64> = rec.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn for_flow_filters_but_keeps_device_wide_events() {
        let mut rec = FlightRecorder::new(0);
        rec.record(1, Some(flow(1)), LedgerKind::TriggerFired { trigger: "sni1" }, "tspu", 0);
        rec.record(2, Some(flow(2)), LedgerKind::TriggerFired { trigger: "sni2" }, "tspu", 0);
        rec.record(3, None, LedgerKind::Restart, "tspu", 0);
        rec.record(4, Some(flow(1)), LedgerKind::BlockArmed { kind: "rst_rewrite" }, "tspu", 0);
        let lines = rec.for_flow(&flow(1), 8);
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("trigger_fired source=sni1"));
        assert!(lines[1].contains("restart"));
        assert!(lines[2].contains("block_armed kind=rst_rewrite"));
        // Last-N truncation keeps the newest.
        let last = rec.for_flow(&flow(1), 1);
        assert_eq!(last.len(), 1);
        assert!(last[0].contains("block_armed"));
    }

    #[test]
    fn fork_reset_clears_events_and_keeps_layout() {
        let mut rec = FlightRecorder::with_capacity(8, 5);
        rec.record(1, None, LedgerKind::Restart, "tspu", 5);
        let forked = rec.fork_reset();
        assert_eq!(forked.capacity(), 8);
        assert!(forked.is_empty());
        assert_eq!(forked.recorded(), 0);
        // The epoch baseline survives the fork: re-observing epoch 5 is
        // not a delta, epoch 6 is.
        let mut forked = forked;
        forked.note_epoch(10, 5, "tspu");
        assert!(forked.is_empty());
        forked.note_epoch(11, 6, "tspu");
        assert_eq!(forked.len(), 1);
        assert_eq!(forked.events()[0].kind, LedgerKind::EpochObserved);
    }

    #[test]
    fn gc_sweeps_coalesce() {
        let mut rec = FlightRecorder::new(0);
        rec.sync_gc(5, 0, "tspu", 0);
        assert!(rec.is_empty());
        rec.sync_gc(6, 3, "tspu", 0);
        rec.sync_gc(7, 3, "tspu", 0);
        rec.sync_gc(8, 10, "tspu", 0);
        let events = rec.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, LedgerKind::GcSweep { evicted: 3 });
        assert_eq!(events[1].kind, LedgerKind::GcSweep { evicted: 7 });
    }

    #[test]
    fn rendering_is_stable() {
        let event = LedgerEvent {
            seq: 3,
            at_us: 1_234_567,
            flow: Some(flow(40000)),
            kind: LedgerKind::BlockArmed { kind: "rst_rewrite" },
            profile: "tspu",
            epoch: 2,
        };
        assert_eq!(
            event.render(),
            "[1234567us] #3 block_armed kind=rst_rewrite profile=tspu epoch=2 \
             flow=10.0.0.1:40000<->93.184.216.34:443/tcp"
        );
    }
}
