//! The connection tracker as the paper describes it (§5.3.2–5.3.3, Fig. 4,
//! Tables 2 and 8): the role automaton and its idle timeouts, over an eager
//! `HashMap<FlowKey, FlowEntry>` with nothing else — an expired entry is
//! dropped the moment anything touches its key; there is no GC, no slab
//! and no shard.

use std::collections::HashMap;
use std::time::Duration;

use tspu_core::behaviors::BlockState;
use tspu_core::conntrack::{ConnState, FlowEntry};
use tspu_core::{FlowKey, Side};
use tspu_netsim::Time;
use tspu_wire::tcp::TcpFlags;

/// Tables 2 and 8: how long each state lives without a packet.
pub fn timeout(state: ConnState) -> Duration {
    Duration::from_secs(match state {
        ConnState::SynSent => 60,
        ConnState::SynRecv => 105,
        ConnState::Loose | ConnState::Invalid => 180,
        ConnState::Established | ConnState::AckFirst | ConnState::SynAckFirst | ConnState::Udp => 480,
    })
}

/// A flow is gone once it has been idle longer than its state's timeout.
pub fn gone(entry: &FlowEntry, now: Time) -> bool {
    now.since(entry.last_seen) > timeout(entry.state)
}

/// A verdict is over once its residual window has passed.
pub fn lapsed(block: &BlockState, now: Time) -> bool {
    now.since(block.since) > block.window
}

fn bare_ack(flags: TcpFlags, payload: usize) -> bool {
    flags.ack() && payload == 0 && !flags.rst() && !flags.fin()
}

/// The state a flow's first packet puts it in.
fn first_state(flags: TcpFlags, payload: usize) -> ConnState {
    if flags.is_pure_syn() {
        ConnState::SynSent
    } else if flags.is_syn_ack() {
        ConnState::SynAckFirst
    } else if bare_ack(flags, payload) {
        ConnState::AckFirst
    } else {
        ConnState::Loose
    }
}

/// Fig. 4 as one packet's effect on a flow that already exists.
fn step(e: &mut FlowEntry, side: Side, flags: TcpFlags, payload: usize) {
    use ConnState::*;
    let from_client = side == e.client;
    if flags.is_pure_syn() {
        if !from_client && e.state != Invalid {
            (e.state, e.ambiguous) = (SynRecv, true);
        }
    } else if flags.is_syn_ack() {
        if e.state == SynRecv || (e.state == SynSent && !from_client) {
            e.state = Established;
        }
    } else {
        if bare_ack(flags, payload) {
            match e.state {
                SynSent if !from_client => (e.state, e.ambiguous) = (Invalid, false),
                SynRecv if e.ambiguous && from_client => {
                    (e.client, e.ambiguous, e.reversed) = (e.client.flip(), false, true);
                }
                SynRecv => e.state = Established,
                _ => {}
            }
        }
        if payload > 0 && matches!(e.state, SynSent | SynRecv) {
            e.state = Loose;
        }
    }
}

/// Every tracked flow, by key.
#[derive(Debug, Default)]
pub struct Tracker {
    pub(crate) flows: HashMap<FlowKey, FlowEntry>,
}

impl Tracker {
    /// Every access starts here: an expired flow does not exist.
    fn touch(&mut self, now: Time, key: &FlowKey) {
        if self.flows.get(key).is_some_and(|e| gone(e, now)) {
            self.flows.remove(key);
        }
    }

    pub fn get(&self, now: Time, key: &FlowKey) -> Option<&FlowEntry> {
        self.flows.get(key).filter(|e| !gone(e, now))
    }

    pub fn get_mut(&mut self, now: Time, key: &FlowKey) -> Option<&mut FlowEntry> {
        self.touch(now, key);
        self.flows.get_mut(key)
    }

    /// One packet of flow `key` from `side`: `packet` is its TCP flags and
    /// payload length, `None` for UDP. Creates the flow or moves it along
    /// Fig. 4, and returns it.
    pub fn observe(
        &mut self,
        now: Time,
        key: FlowKey,
        side: Side,
        packet: Option<(TcpFlags, usize)>,
    ) -> &mut FlowEntry {
        self.touch(now, &key);
        let known = self.flows.contains_key(&key);
        let e = self.flows.entry(key).or_insert_with(|| FlowEntry {
            state: packet.map_or(ConnState::Udp, |(flags, len)| first_state(flags, len)),
            client: side,
            first_sender: side,
            ambiguous: false,
            reversed: false,
            last_seen: now,
            block: None,
            exempt: false,
            exemption_decided: false,
            rx_stream: None,
            remote_ip_blocked: None,
        });
        if e.block.as_deref().is_some_and(|b| lapsed(b, now)) {
            e.block = None;
        }
        // A verdict in force freezes the flow: no transition, no refresh.
        if e.block.is_none() {
            if let (true, Some((flags, len))) = (known, packet) {
                step(e, side, flags, len);
            }
            e.last_seen = now;
        }
        e
    }

    /// Unexpired flows at `now`.
    pub fn unexpired(&self, now: Time) -> usize {
        self.flows.values().filter(|e| !gone(e, now)).count()
    }

    /// Unexpired flows whose verdict, still in force, was armed under a
    /// registry version older than `epoch`.
    pub fn blocks_pinned_before(&self, now: Time, epoch: u64) -> usize {
        self.flows
            .values()
            .filter(|e| !gone(e, now))
            .filter_map(|e| e.block.as_deref())
            .filter(|b| !lapsed(b, now) && b.epoch < epoch)
            .count()
    }
}
