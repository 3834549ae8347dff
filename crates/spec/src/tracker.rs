//! The tracker differential: one op list played into [`crate::conntrack`]'s
//! model, a bare `ConnTracker` and `ShardedConnTracker`s of 1, 4 and 16
//! shards, every entry either side hands back compared in full. The key
//! space is small enough that in-place replacement, slot reuse and the GC
//! hand meeting an entry at the very edge of its timeout all happen often.
//!
//! What no access can observe is held structurally instead:
//! `check_invariants()` after every op (debug builds), GC never shrinking a
//! table below the model's unexpired population, and — on the trackers with
//! one hand, where `slots` is bounded by the key space — every expired
//! entry gone within ⌈slots ÷ `GC_PROBE_BUDGET`⌉ observations.

use std::net::Ipv4Addr;
use std::time::Duration;

use proptest::prelude::*;
use tspu_core::behaviors::{BlockKind, BlockState, EnforceDirections};
use tspu_core::conntrack::{ConnState, ConnTracker, FlowEntry, GC_PROBE_BUDGET};
use tspu_core::{FlowKey, ShardedConnTracker, Side, ThrottleConfig};
use tspu_netsim::Time;
use tspu_wire::tcp::TcpFlags;

use crate::conntrack::{timeout, Tracker};

/// Ten TCP flows and four UDP flows; `KEYS` bounds every tracker's slab.
const KEYS: u16 = 14;

fn key(id: u16) -> FlowKey {
    let protocol = if id < 10 { 6 } else { 17 };
    FlowKey {
        local_addr: Ipv4Addr::new(10, 0, 0, 5),
        local_port: 40_000 + id,
        remote_addr: Ipv4Addr::new(203, 0, 113, 5),
        remote_port: 443,
        protocol,
    }
}

/// The flow no op list touches: observing it lets GC run without
/// refreshing anything under test.
fn probe_key() -> FlowKey {
    FlowKey { local_port: 9, ..key(0) }
}

#[derive(Debug, Clone)]
pub enum Op {
    Tcp { id: u16, side: Side, flags: TcpFlags, payload: usize },
    Udp { id: u16, side: Side },
    Get { id: u16 },
    /// What a device does to a flow it holds: `get_mut`, then install a
    /// verdict and fill the per-flow caches.
    Block { id: u16, kind: BlockKind, both: bool, window_secs: u64, epoch: u64 },
    /// `get_mut`, then lift the verdict.
    Unblock { id: u16 },
    Remove { id: u16 },
    Clear,
    Jump(Duration),
    /// One full revolution of a one-hand tracker at a standstill.
    Sweep,
    Pinned { epoch: u64 },
}

/// Time moves only in `Jump`s, so everything observed since the last one
/// shares a `last_seen`, and a jump of exactly a state's timeout puts every
/// such flow in that state on the last instant it is alive.
fn jump() -> impl Strategy<Value = Op> {
    let states = [ConnState::SynSent, ConnState::SynRecv, ConnState::Loose, ConnState::Established];
    prop_oneof![
        (0..states.len(), 0u64..3).prop_map(move |(state, edge)| {
            Op::Jump(timeout(states[state]) + Duration::from_micros(edge) - Duration::from_micros(1))
        }),
        (1u64..50).prop_map(|secs| Op::Jump(Duration::from_secs(secs))),
    ]
}

/// Random op lists of 1–400 ops.
pub fn ops() -> impl Strategy<Value = Vec<Op>> {
    let side = || prop_oneof![Just(Side::Local), Just(Side::Remote)];
    let flags = || prop_oneof![
        Just(TcpFlags::SYN),
        Just(TcpFlags::SYN_ACK),
        Just(TcpFlags::ACK),
        Just(TcpFlags::PSH_ACK),
        Just(TcpFlags::RST),
        Just(TcpFlags::FIN | TcpFlags::ACK),
        any::<u8>().prop_map(|bits| TcpFlags(bits & 0x3f)),
    ];
    let kinds = [
        BlockKind::RstRewrite,
        BlockKind::DelayedDrop,
        BlockKind::Throttle,
        BlockKind::FullDrop,
        BlockKind::QuicDrop,
        BlockKind::BlockPage,
    ];
    let observe = || prop_oneof![
        (0u16..10, side(), flags(), 0usize..3)
            .prop_map(|(id, side, flags, len)| Op::Tcp { id, side, flags, payload: len * 300 }),
        (10u16..KEYS, side()).prop_map(|(id, side)| Op::Udp { id, side }),
    ];
    let op = prop_oneof![
        observe(),
        observe(),
        observe(),
        (0..KEYS).prop_map(|id| Op::Get { id }),
        // Windows on both sides of the 60–480 s state timeouts: a verdict
        // can lapse inside a live flow or outlive an expired one.
        (0..KEYS, 0..kinds.len(), any::<bool>(), 1u64..600, 0u64..4).prop_map(
            move |(id, kind, both, window_secs, epoch)| Op::Block { id, kind: kinds[kind], both, window_secs, epoch }
        ),
        (0..KEYS).prop_map(|id| Op::Unblock { id }),
        (0..KEYS).prop_map(|id| Op::Remove { id }),
        jump(),
        jump(),
        Just(Op::Sweep),
        (0u64..5).prop_map(|epoch| Op::Pinned { epoch }),
        // Rare: a restart empties the table the rest of the list built.
        (0u8..8).prop_map(|roll| if roll == 0 { Op::Clear } else { Op::Sweep }),
    ];
    proptest::collection::vec(op, 1..400)
}

/// A tracker under test.
enum Engine {
    Bare(ConnTracker),
    Sharded(ShardedConnTracker),
}

/// `$tracker.$call` on whichever tracker `$tracker` holds.
macro_rules! on {
    ($tracker:expr, $($call:tt)*) => {
        match $tracker {
            Engine::Bare(t) => t.$($call)*,
            Engine::Sharded(t) => t.$($call)*,
        }
    };
}

impl Engine {
    fn name(&self) -> String {
        match self {
            Engine::Bare(_) => "the bare tracker".into(),
            Engine::Sharded(t) => format!("{} shards", t.shard_count()),
        }
    }
}

/// Every field, through the derived `Debug`: a field added to `FlowEntry`
/// or `BlockState` is compared without an edit here.
fn face(entry: &FlowEntry) -> String {
    format!("{entry:?}")
}

/// Plays `ops` into the model and into the bare tracker and trackers of 1,
/// 4 and 16 shards (provisioned for 64 flows when `provisioned`),
/// comparing every entry either side hands back.
pub fn play(ops: &[Op], provisioned: bool) {
    let mut model = Tracker::default();
    let bare = if provisioned { ConnTracker::with_capacity(64) } else { ConnTracker::new() };
    let mut engines = vec![Engine::Bare(bare)];
    for n in [1, 4, 16] {
        let sharded = match provisioned {
            false => ShardedConnTracker::with_shards(n),
            true => ShardedConnTracker::with_capacity_and_shards(64, n),
        };
        engines.push(Engine::Sharded(sharded));
    }
    let mut now = Time::ZERO;
    for op in ops {
        // The model moves once per op; every tracker is held to it.
        match *op {
            Op::Tcp { id, side, flags, payload } => {
                let want = face(model.observe(now, key(id), side, Some((flags, payload))));
                for t in &mut engines {
                    let got = face(on!(t, observe_tcp(now, key(id), side, flags, payload)));
                    assert_eq!(got, want, "observe_tcp on {}", t.name());
                }
            }
            Op::Udp { id, side } => {
                let want = face(model.observe(now, key(id), side, None));
                for t in &mut engines {
                    let got = face(on!(t, observe_udp(now, key(id), side)));
                    assert_eq!(got, want, "observe_udp on {}", t.name());
                }
            }
            Op::Get { id } => {
                let want = model.get(now, &key(id)).map(face);
                for t in &engines {
                    assert_eq!(on!(t, get(now, &key(id))).map(face), want, "get on {}", t.name());
                }
            }
            Op::Block { id, kind, both, window_secs, epoch } => {
                let directions = if both { EnforceDirections::Both } else { EnforceDirections::ToLocal };
                let install = |e: &mut FlowEntry| {
                    e.block = Some(Box::new(
                        BlockState::new(kind, now, 6, ThrottleConfig::hard_2022())
                            .pinned_to(epoch)
                            .with_window(Duration::from_secs(window_secs))
                            .with_directions(directions),
                    ));
                    e.exempt = epoch % 2 == 1;
                    e.exemption_decided = true;
                    e.rx_stream.get_or_insert_with(Box::default).extend_from_slice(&[kind as u8; 40]);
                    e.remote_ip_blocked = Some((epoch, true));
                    face(e)
                };
                let want = model.get_mut(now, &key(id)).map(install);
                for t in &mut engines {
                    assert_eq!(on!(t, get_mut(now, &key(id))).map(install), want, "get_mut on {}", t.name());
                }
            }
            Op::Unblock { id } => {
                let lift = |e: &mut FlowEntry| {
                    e.block = None;
                    face(e)
                };
                let want = model.get_mut(now, &key(id)).map(lift);
                for t in &mut engines {
                    assert_eq!(on!(t, get_mut(now, &key(id))).map(lift), want, "get_mut on {}", t.name());
                }
            }
            Op::Remove { id } => {
                model.flows.remove(&key(id));
                for t in &mut engines {
                    on!(t, remove(&key(id)));
                    assert!(on!(t, get(now, &key(id))).is_none(), "remove on {}", t.name());
                }
            }
            Op::Clear => {
                model.flows.clear();
                for t in &mut engines {
                    on!(t, clear());
                    assert!(on!(t, is_empty()), "clear on {}", t.name());
                }
            }
            Op::Jump(by) => now += by,
            Op::Sweep => {
                // A slab holds at most the key space and the probe flow,
                // which the model then knows too.
                let want = face(model.observe(now, probe_key(), Side::Local, Some((TcpFlags::ACK, 0))));
                for t in &mut engines {
                    for _ in 0..(usize::from(KEYS) + 1).div_ceil(GC_PROBE_BUDGET) {
                        let got = face(on!(t, observe_tcp(now, probe_key(), Side::Local, TcpFlags::ACK, 0)));
                        assert_eq!(got, want, "probe flow on {}", t.name());
                    }
                }
                for t in &engines[..2] {
                    let len = on!(t, len());
                    assert_eq!(len, model.unexpired(now), "a revolution of {}'s hand leaves the unexpired", t.name());
                }
            }
            Op::Pinned { epoch } => {
                let want = model.blocks_pinned_before(now, epoch);
                for t in &engines {
                    assert_eq!(on!(t, blocks_pinned_before(now, epoch)), want, "pinned on {}", t.name());
                }
            }
        }
        for t in &engines {
            #[cfg(debug_assertions)]
            on!(t, check_invariants());
            assert!(on!(t, len()) >= model.unexpired(now), "GC evicted an unexpired flow on {}", t.name());
        }
    }
}
