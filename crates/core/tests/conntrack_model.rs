//! Model differential: the flow tracker against a naive executable
//! restatement of what it promises.
//!
//! The model is a `HashMap<FlowKey, FlowEntry>` with nothing else: an
//! expired entry is dropped the moment anything touches its key, there is
//! no GC, no slab and no shards, and the Fig. 4 / Table 2 / Table 8
//! automaton and its timeouts are written out again below rather than
//! borrowed from `tspu_core::conntrack`. Random op lists over a key space
//! small enough that in-place replacement, slot reuse and the hand
//! catching an entry at the very edge of its timeout all happen often are
//! played into the model and into trackers of 1, 4 and 16 shards, and
//! every entry either side hands back is compared in full.
//!
//! What no access can observe is held structurally instead:
//! `check_invariants()` after every op (debug builds), GC never shrinking
//! the table below the model's unexpired population, and — on the
//! one-shard tracker, where `slots` is bounded by the key space — every
//! expired entry gone within ⌈slots ÷ `GC_PROBE_BUDGET`⌉ observations.
//!
//! ## Seeded mutations
//!
//! The suite must fail on each of these edits to
//! `crates/core/src/conntrack.rs`. Each is a patch under `tests/mutants/`
//! that CI's `mutants` job applies and runs (`sh tests/mutants/check.sh`);
//! a rewrite of the tracker's storage re-cuts the patches it breaks.
//!
//! 1. `gc_step` evicts on `now.since(last_seen) >= timeout` instead of
//!    `FlowEntry::expired`'s `>` (an entry exactly at its timeout is alive).
//! 2. `gc_step` frees the slot but leaves its key in the index.
//! 3. `lookup_or_insert` replaces an expired entry in place but carries the
//!    old incarnation's `block` over.
//! 4. Deleting from the flow index empties the key's bucket and skips the
//!    backward shift, so a key displaced past it is no longer found.

use proptest::prelude::*;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::time::Duration;

use tspu_core::behaviors::{BlockKind, BlockState};
use tspu_core::conntrack::{ConnState, FlowEntry, GC_PROBE_BUDGET};
use tspu_core::policy::ThrottleConfig;
use tspu_core::{FlowKey, ShardedConnTracker, Side};
use tspu_netsim::Time;
use tspu_wire::tcp::TcpFlags;

/// Ten TCP flows and four UDP flows; `KEYS` bounds every tracker's slab.
const KEYS: u16 = 14;

fn key(id: u16) -> FlowKey {
    FlowKey {
        local_addr: Ipv4Addr::new(10, 0, 0, 5),
        local_port: 40_000 + id,
        remote_addr: Ipv4Addr::new(203, 0, 113, 5),
        remote_port: 443,
        protocol: if id < 10 { 6 } else { 17 },
    }
}

/// The flow no op list touches: observing it lets GC run without
/// refreshing anything under test.
fn probe_key() -> FlowKey {
    FlowKey { local_port: 9, ..key(0) }
}

// ---- the model -----------------------------------------------------------

/// Tables 2 and 8, seconds.
fn timeout(state: ConnState) -> Duration {
    Duration::from_secs(match state {
        ConnState::SynSent => 60,
        ConnState::SynRecv => 105,
        ConnState::Loose | ConnState::Invalid => 180,
        ConnState::Established
        | ConnState::AckFirst
        | ConnState::SynAckFirst
        | ConnState::Udp => 480,
    })
}

fn expired(entry: &FlowEntry, now: Time) -> bool {
    now.since(entry.last_seen) > timeout(entry.state)
}

fn bare_ack(flags: TcpFlags, payload: usize) -> bool {
    flags.ack() && payload == 0 && !flags.rst() && !flags.fin()
}

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

#[derive(Default)]
struct Model {
    flows: HashMap<FlowKey, FlowEntry>,
}

impl Model {
    /// Every access starts here: an expired flow does not exist.
    fn touch(&mut self, now: Time, key: &FlowKey) {
        if self.flows.get(key).is_some_and(|e| expired(e, now)) {
            self.flows.remove(key);
        }
    }

    fn get_mut(&mut self, now: Time, key: &FlowKey) -> Option<&mut FlowEntry> {
        self.touch(now, key);
        self.flows.get_mut(key)
    }

    /// `packet` is the TCP flags and payload length, `None` for UDP.
    fn observe(
        &mut self,
        now: Time,
        key: FlowKey,
        side: Side,
        packet: Option<(TcpFlags, usize)>,
    ) -> &FlowEntry {
        self.touch(now, &key);
        let known = self.flows.contains_key(&key);
        let e = self.flows.entry(key).or_insert_with(|| FlowEntry {
            state: packet.map_or(ConnState::Udp, |(flags, len)| first_state(flags, len)),
            client: side,
            first_sender: side,
            ambiguous: false,
            reversed: false,
            created: now,
            last_seen: now,
            block: None,
            exempt: false,
            exemption_decided: false,
            rx_stream: Vec::new(),
            remote_ip_blocked: None,
        });
        if e.block.as_ref().is_some_and(|b| !b.active(now)) {
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

    fn unexpired(&self, now: Time) -> usize {
        self.flows.values().filter(|e| !expired(e, now)).count()
    }

    fn blocks_pinned_before(&self, now: Time, epoch: u64) -> usize {
        self.flows
            .values()
            .filter(|e| !expired(e, now))
            .filter_map(|e| e.block.as_ref())
            .filter(|b| b.active(now) && b.epoch < epoch)
            .count()
    }
}

// ---- op lists ------------------------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    Tcp { id: u16, side: Side, flags: TcpFlags, payload: usize },
    Udp { id: u16, side: Side },
    Get { id: u16 },
    /// What the device does to a flow it holds: `get_mut`, then install a
    /// verdict and fill the per-flow caches.
    Block { id: u16, kind: BlockKind, window_secs: u64, epoch: u64 },
    /// `get_mut`, then lift the verdict.
    Unblock { id: u16 },
    Remove { id: u16 },
    Clear,
    Jump(Duration),
    /// One full revolution of a one-shard tracker's hand at a standstill.
    Sweep,
    Pinned { epoch: u64 },
}

fn arb_side() -> impl Strategy<Value = Side> {
    prop_oneof![Just(Side::Local), Just(Side::Remote)]
}

fn arb_flags() -> impl Strategy<Value = TcpFlags> {
    prop_oneof![
        Just(TcpFlags::SYN),
        Just(TcpFlags::SYN_ACK),
        Just(TcpFlags::ACK),
        Just(TcpFlags::PSH_ACK),
        Just(TcpFlags::FIN),
        Just(TcpFlags::RST),
        Just(TcpFlags::RST_ACK),
        Just(TcpFlags::FIN | TcpFlags::ACK),
    ]
}

/// Time moves only here, so everything observed since the last jump shares
/// one `last_seen`, and a jump of exactly a state's timeout puts every such
/// flow in that state on the last instant it is alive.
fn arb_jump() -> impl Strategy<Value = Op> {
    let state = prop_oneof![
        Just(ConnState::SynSent),
        Just(ConnState::SynRecv),
        Just(ConnState::Established),
        Just(ConnState::Loose),
        Just(ConnState::AckFirst),
        Just(ConnState::SynAckFirst),
        Just(ConnState::Invalid),
        Just(ConnState::Udp),
    ];
    prop_oneof![
        (state, 0u64..3).prop_map(|(state, edge)| {
            Op::Jump(timeout(state) + Duration::from_micros(edge) - Duration::from_micros(1))
        }),
        (1u64..50).prop_map(|secs| Op::Jump(Duration::from_secs(secs))),
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    let tcp = || 0u16..10;
    let any = || 0u16..KEYS;
    let kind = prop_oneof![
        Just(BlockKind::RstRewrite),
        Just(BlockKind::DelayedDrop),
        Just(BlockKind::Throttle),
        Just(BlockKind::FullDrop),
        Just(BlockKind::QuicDrop),
    ];
    let observe = || {
        prop_oneof![
            (tcp(), arb_side(), arb_flags(), 0usize..3)
                .prop_map(|(id, side, flags, len)| Op::Tcp { id, side, flags, payload: len * 300 }),
            (10u16..KEYS, arb_side()).prop_map(|(id, side)| Op::Udp { id, side }),
        ]
    };
    prop_oneof![
        observe(),
        observe(),
        observe(),
        any().prop_map(|id| Op::Get { id }),
        // Windows on both sides of the 60–480 s state timeouts: a verdict
        // can lapse inside a live flow or outlive an expired one.
        (any(), kind, 30u64..600, 0u64..4)
            .prop_map(|(id, kind, window_secs, epoch)| Op::Block { id, kind, window_secs, epoch }),
        any().prop_map(|id| Op::Unblock { id }),
        any().prop_map(|id| Op::Remove { id }),
        arb_jump(),
        arb_jump(),
        Just(Op::Sweep),
        (0u64..5).prop_map(|epoch| Op::Pinned { epoch }),
        // Rare: a restart empties the table the rest of the list built.
        (0u8..8).prop_map(|roll| if roll == 0 { Op::Clear } else { Op::Sweep }),
    ]
}

/// Every field, through the derived `Debug`: a field added to `FlowEntry`
/// or `BlockState` is compared without an edit here.
fn face(entry: &FlowEntry) -> String {
    format!("{entry:?}")
}

proptest! {
    #[test]
    fn tracker_matches_the_naive_model_at_1_4_and_16_shards(
        ops in proptest::collection::vec(arb_op(), 1..400),
        provisioned in 0u8..2,
    ) {
        let mut model = Model::default();
        let mut trackers: Vec<ShardedConnTracker> = [1, 4, 16]
            .iter()
            .map(|&n| match provisioned {
                0 => ShardedConnTracker::with_shards(n),
                _ => ShardedConnTracker::with_capacity_and_shards(64, n),
            })
            .collect();
        let mut now = Time::ZERO;
        for op in &ops {
            // The model moves once per op; every tracker is held to it.
            match *op {
                Op::Tcp { id, side, flags, payload } => {
                    let want = face(model.observe(now, key(id), side, Some((flags, payload))));
                    for t in &mut trackers {
                        let got = face(t.observe_tcp(now, key(id), side, flags, payload));
                        prop_assert_eq!(&got, &want, "observe_tcp at {} shards", t.shard_count());
                    }
                }
                Op::Udp { id, side } => {
                    let want = face(model.observe(now, key(id), side, None));
                    for t in &mut trackers {
                        let got = face(t.observe_udp(now, key(id), side));
                        prop_assert_eq!(&got, &want, "observe_udp at {} shards", t.shard_count());
                    }
                }
                Op::Get { id } => {
                    let want = model.get_mut(now, &key(id)).map(|e| face(e));
                    for t in &trackers {
                        let got = t.get(now, &key(id)).map(face);
                        prop_assert_eq!(&got, &want, "get at {} shards", t.shard_count());
                    }
                }
                Op::Block { id, kind, window_secs, epoch } => {
                    let install = |e: &mut FlowEntry| {
                        e.block = Some(
                            BlockState::new(kind, now, 6, ThrottleConfig::hard_2022())
                                .pinned_to(epoch)
                                .with_window(Duration::from_secs(window_secs)),
                        );
                        e.exempt = epoch % 2 == 1;
                        e.exemption_decided = true;
                        e.rx_stream.extend_from_slice(&[kind as u8; 40]);
                        e.remote_ip_blocked = Some((epoch, true));
                        face(e)
                    };
                    let want = model.get_mut(now, &key(id)).map(install);
                    for t in &mut trackers {
                        let got = t.get_mut(now, &key(id)).map(install);
                        prop_assert_eq!(&got, &want, "get_mut at {} shards", t.shard_count());
                    }
                }
                Op::Unblock { id } => {
                    let lift = |e: &mut FlowEntry| {
                        e.block = None;
                        face(e)
                    };
                    let want = model.get_mut(now, &key(id)).map(lift);
                    for t in &mut trackers {
                        let got = t.get_mut(now, &key(id)).map(lift);
                        prop_assert_eq!(&got, &want, "get_mut at {} shards", t.shard_count());
                    }
                }
                Op::Remove { id } => {
                    model.flows.remove(&key(id));
                    for t in &mut trackers {
                        t.remove(&key(id));
                        prop_assert!(t.get(now, &key(id)).is_none());
                    }
                }
                Op::Clear => {
                    model.flows.clear();
                    for t in &mut trackers {
                        t.clear();
                        prop_assert!(t.is_empty());
                    }
                }
                Op::Jump(by) => now += by,
                Op::Sweep => {
                    // A slab holds at most the key space and the probe
                    // flow, which the model then knows too.
                    let want = face(model.observe(now, probe_key(), Side::Local, Some((TcpFlags::ACK, 0))));
                    for t in &mut trackers {
                        for _ in 0..(usize::from(KEYS) + 1).div_ceil(GC_PROBE_BUDGET) {
                            let got = face(t.observe_tcp(now, probe_key(), Side::Local, TcpFlags::ACK, 0));
                            prop_assert_eq!(&got, &want, "probe flow at {} shards", t.shard_count());
                        }
                    }
                    prop_assert_eq!(
                        trackers[0].len(),
                        model.unexpired(now),
                        "a revolution of the hand leaves exactly the unexpired flows"
                    );
                }
                Op::Pinned { epoch } => {
                    let want = model.blocks_pinned_before(now, epoch);
                    for t in &trackers {
                        let got = t.blocks_pinned_before(now, epoch);
                        prop_assert_eq!(got, want, "blocks_pinned_before at {} shards", t.shard_count());
                    }
                }
            }
            for t in &trackers {
                #[cfg(debug_assertions)]
                t.check_invariants();
                prop_assert!(
                    t.len() >= model.unexpired(now),
                    "GC evicted an unexpired flow at {} shards", t.shard_count()
                );
            }
        }
    }
}
