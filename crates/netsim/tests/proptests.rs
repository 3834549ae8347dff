//! Property-based tests for the simulator: determinism, delivery
//! conservation, exact TTL semantics on arbitrary route shapes, and the
//! capture log reading back what was written.
//!
//! ## Seeded mutation
//!
//! `capture_empty_asks_the_bytes` (`tests/mutants/`): `Capture::is_empty`
//! asks the byte buffer instead of the record list, so a log of only
//! zero-length packets reads as empty. No other test asks such a log, so
//! only `capture_log_yields_what_was_pushed` sees it.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::net::Ipv4Addr;
use std::time::Duration;

use tspu_netsim::{
    Capture, Direction, HostId, Middlebox, MiddleboxId, Network, Route, RouteStep, Time, TracePoint, Verdict,
};
use tspu_wire::ipv4::{Ipv4Packet, Ipv4Repr, Protocol};

const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const B: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 1);

fn packet(ttl: u8, tag: u8) -> Vec<u8> {
    let mut repr = Ipv4Repr::new(A, B, Protocol::Other(0xfd), 1);
    repr.ttl = ttl;
    repr.build(&[tag])
}

fn hops(n: usize) -> Vec<Ipv4Addr> {
    (0..n as u32).map(|i| Ipv4Addr::from(0x0aff_0000 + i)).collect()
}

/// A device that forwards everything and counts what it saw.
#[derive(Default)]
struct PassThrough {
    seen: usize,
}

impl Middlebox for PassThrough {
    fn process(&mut self, _now: Time, _dir: Direction, _packet: &mut Vec<u8>) -> Verdict {
        self.seen += 1;
        Verdict::Pass
    }
}

/// A route drawn from small alphabets (four hop addresses, three device
/// ids, both directions), so equal routes come up often.
type DrawnRoute = Vec<(u32, Vec<(usize, bool)>)>;

fn drawn_route(steps: &DrawnRoute) -> Route {
    let steps = steps.iter().map(|(hop, devices)| RouteStep {
        hop_addr: Ipv4Addr::from(0x0aff_0000 + hop),
        devices: devices
            .iter()
            .map(|&(id, up)| (MiddleboxId(id), if up { Direction::LocalToRemote } else { Direction::RemoteToLocal }))
            .collect(),
    });
    Route { steps: steps.collect() }
}

/// What `set_route_symmetric` installs in the reverse direction.
fn mirrored(route: &Route) -> Route {
    let steps = route.steps.iter().rev().map(|step| RouteStep {
        hop_addr: step.hop_addr,
        devices: step.devices.iter().map(|&(id, dir)| (id, dir.flip())).collect(),
    });
    Route { steps: steps.collect() }
}

proptest! {
    /// The route arena reads back what was installed. Routes of 0–12
    /// steps with 0–3 devices each go in through `set_route` and
    /// `set_route_symmetric` between four hosts; afterwards every pair's
    /// `route` equals the last route installed for it (mirrored on the
    /// reverse of a symmetric install). Interning any installed route
    /// again yields its id without growing the arena, equal routes share
    /// one id, unequal routes never do, and the arena holds exactly the
    /// distinct routes.
    #[test]
    fn route_arena_reads_back_what_was_installed(
        installs in proptest::collection::vec(
            (
                proptest::collection::vec(
                    (0u32..4, proptest::collection::vec((0usize..3, any::<bool>()), 0..=3)),
                    0..=12,
                ),
                0usize..4,
                0usize..4,
                any::<bool>(),
            ),
            1..12,
        ),
    ) {
        let mut net = Network::new(Duration::from_millis(1));
        let hosts: Vec<_> = (0..4u32).map(|i| net.add_host(Ipv4Addr::from(0x0a00_0001 + i))).collect();
        let mut model = std::collections::HashMap::new();
        let mut distinct: Vec<Route> = Vec::new();
        for (steps, src, dst, symmetric) in &installs {
            let route = drawn_route(steps);
            let (a, b) = (hosts[*src], hosts[*dst]);
            let mut installed = vec![((a, b), route.clone())];
            if *symmetric {
                installed.push(((b, a), mirrored(&route)));
                net.set_route_symmetric(a, b, route);
            } else {
                net.set_route(a, b, route);
            }
            for (key, route) in installed {
                if !distinct.contains(&route) {
                    distinct.push(route.clone());
                }
                model.insert(key, route);
            }
        }
        for (&(a, b), route) in &model {
            prop_assert_eq!(net.route(a, b).as_ref(), Some(route));
        }
        prop_assert_eq!(net.interned_routes(), distinct.len());
        let ids: Vec<_> = distinct.iter().map(|route| net.intern_route(route.clone())).collect();
        prop_assert_eq!(net.interned_routes(), distinct.len(), "re-interning grew the arena");
        for (i, route) in distinct.iter().enumerate() {
            prop_assert_eq!(net.intern_route(route.clone()), ids[i]);
            for (j, other) in distinct.iter().enumerate() {
                prop_assert_eq!(ids[i] == ids[j], i == j, "{:?} vs {:?}", route, other);
            }
        }
    }

    /// The reference for the hop walk. A packet with TTL t crosses an
    /// n-router path iff t > n, arriving after n + 1 hop latencies;
    /// otherwise it dies at router t (step t - 1, reached after t
    /// latencies, where a capture records the drop) and exactly one ICMP
    /// time-exceeded returns from that router, t latencies later. A
    /// pass-through device at a drawn step changes none of this, and sees
    /// the packet iff it survives that step's router.
    #[test]
    fn ttl_semantics_exact(
        n in 0usize..20,
        ttl in 1u8..25,
        capture in any::<bool>(),
        with_device in any::<bool>(),
        at in 0usize..20,
    ) {
        let mut net = Network::new(Duration::from_millis(1));
        net.set_capture(capture);
        let a = net.add_host(A);
        let b = net.add_host(B);
        let route_hops = hops(n);
        let mut route = Route::through(&route_hops);
        let device = (with_device && n > 0).then(|| {
            let step = at % n;
            let handle = net.install_middlebox(PassThrough::default());
            route.steps[step].devices.push((handle.id(), Direction::LocalToRemote));
            (step, handle)
        });
        net.set_route(a, b, route);
        net.send_from(a, packet(ttl, 1));
        net.run_until_idle();
        let ttl = usize::from(ttl);
        let ms = |k: usize| Time::from_micros(1_000 * k as u64);
        let delivered = net.take_inbox(b);
        let returned = net.take_inbox(a);
        let drops: Vec<_> = net
            .captures()
            .iter()
            .filter_map(|c| match c.point {
                TracePoint::Dropped { step } => Some((step, c.time)),
                _ => None,
            })
            .collect();
        if ttl > n {
            prop_assert_eq!(delivered.len(), 1);
            prop_assert_eq!(returned.len(), 0);
            prop_assert_eq!(delivered[0].0, ms(n + 1));
            let view = Ipv4Packet::new_checked(&delivered[0].1[..]).unwrap();
            prop_assert_eq!(usize::from(view.ttl()), ttl - n);
            prop_assert!(drops.is_empty());
        } else {
            prop_assert_eq!(delivered.len(), 0);
            prop_assert_eq!(returned.len(), 1);
            prop_assert_eq!(returned[0].0, ms(2 * ttl));
            let view = Ipv4Packet::new_checked(&returned[0].1[..]).unwrap();
            prop_assert_eq!(view.src_addr(), route_hops[ttl - 1]);
            if capture {
                prop_assert_eq!(drops, vec![(ttl - 1, ms(ttl))]);
            }
        }
        if let Some((step, handle)) = device {
            prop_assert_eq!(net.middlebox(handle).seen, usize::from(ttl > step + 1));
        }
    }

    /// `send_from` never panics on up to 512 arbitrary bytes, and every
    /// packet a host sends ends exactly once: delivered to B or dropped,
    /// whether at the NIC (unparseable, unknown destination), on a hop
    /// (TTL expiry) or past the device. Half the inputs get a parseable
    /// header (version 4, total length the buffer's, a TTL of 0–7 around
    /// the three routers, source A, destination B when drawn so), the rest
    /// stay raw; the header length and every other byte stay arbitrary. A delivered packet has crossed the
    /// three routers, so it was sent with a TTL above 3 and arrives with 3
    /// less. What returns to A is the time-exceeded of a drop, never a
    /// second ending of the packet.
    #[test]
    fn send_from_arbitrary_bytes_ends_once(
        bytes in proptest::collection::vec(any::<u8>(), 0..=512),
        ipv4 in any::<bool>(),
        ttl in 0u8..8,
        to_b in any::<bool>(),
    ) {
        let mut bytes = bytes;
        if ipv4 && bytes.len() >= 20 {
            bytes[0] = 0x40 | (bytes[0] & 0x0f);
            let len = bytes.len() as u16;
            bytes[2..4].copy_from_slice(&len.to_be_bytes());
            bytes[8] = ttl;
            bytes[12..16].copy_from_slice(&A.octets());
            if to_b {
                bytes[16..20].copy_from_slice(&B.octets());
            }
        }
        let mut net = Network::new(Duration::from_millis(1));
        net.set_capture(true);
        let a = net.add_host(A);
        let b = net.add_host(B);
        let mut route = Route::through(&hops(3));
        let device = net.install_middlebox(PassThrough::default());
        route.steps[1].devices.push((device.id(), Direction::LocalToRemote));
        net.set_route(a, b, route);
        let sent_ttl = bytes.get(8).map(|&ttl| u16::from(ttl));
        net.send_from(a, bytes);
        net.run_until_idle();
        let count = |hit: &dyn Fn(&TracePoint) -> bool| net.captures().iter().filter(|c| hit(&c.point)).count();
        let sent = count(&|p| matches!(p, TracePoint::HostTx(_)));
        let delivered = count(&|p| *p == TracePoint::HostRx(b));
        let dropped = count(&|p| matches!(p, TracePoint::Dropped { .. }));
        prop_assert_eq!(sent, 1);
        prop_assert_eq!(delivered + dropped, 1);
        for (_, got) in net.take_inbox(b) {
            let ttl = u16::from(Ipv4Packet::new_checked(&got[..]).unwrap().ttl());
            prop_assert_eq!(Some(ttl + 3), sent_ttl);
        }
        let replies = net.take_inbox(a);
        prop_assert!(replies.len() <= dropped);
        for (_, reply) in replies {
            prop_assert_eq!(Ipv4Packet::new_checked(&reply[..]).unwrap().protocol(), Protocol::Icmp);
        }
        prop_assert!(net.middlebox(device).seen <= 1);
    }

    /// Delivery conservation: k sends on a plain route produce exactly k
    /// deliveries, in send order, each after hops+1 latencies.
    #[test]
    fn delivery_conservation(n in 0usize..12, k in 1usize..30, capture in any::<bool>()) {
        let mut net = Network::new(Duration::from_millis(1));
        net.set_capture(capture);
        let a = net.add_host(A);
        let b = net.add_host(B);
        net.set_route_symmetric(a, b, Route::through(&hops(n)));
        for i in 0..k {
            net.send_from(a, packet(64, i as u8));
        }
        net.run_until_idle();
        let delivered = net.take_inbox(b);
        prop_assert_eq!(delivered.len(), k);
        for (i, (time, bytes)) in delivered.iter().enumerate() {
            let view = Ipv4Packet::new_checked(&bytes[..]).unwrap();
            prop_assert_eq!(view.payload()[0] as usize, i, "FIFO order");
            prop_assert_eq!(*time, Time::from_micros(1_000 * (n as u64 + 1)));
        }
    }

    /// Determinism: two identical runs produce byte-identical captures.
    #[test]
    fn deterministic_replay(n in 0usize..8, sends in proptest::collection::vec(1u8..64, 1..20)) {
        let run = |sends: &[u8]| {
            let mut net = Network::new(Duration::from_millis(1));
            net.set_capture(true);
            let a = net.add_host(A);
            let b = net.add_host(B);
            net.set_route_symmetric(a, b, Route::through(&hops(n)));
            for &ttl in sends {
                net.send_from(a, packet(ttl, ttl));
            }
            net.run_until_idle();
            tspu_netsim::pcap::to_pcap_bytes(&net.take_captures())
        };
        prop_assert_eq!(run(&sends), run(&sends));
    }

    /// run_for never overshoots the requested deadline and processes
    /// everything due before it.
    #[test]
    fn run_for_is_exact(advance_ms in 1u64..10_000) {
        let mut net = Network::new(Duration::from_millis(1));
        let a = net.add_host(A);
        let b = net.add_host(B);
        net.set_route_symmetric(a, b, Route::direct());
        net.send_from(a, packet(64, 9));
        net.run_for(Duration::from_millis(advance_ms));
        prop_assert_eq!(net.now(), Time::from_micros(advance_ms * 1_000));
        // The 1 ms delivery happened iff we advanced at least that far.
        prop_assert_eq!(net.take_inbox(b).len(), usize::from(advance_ms >= 1));
    }
}

proptest! {
    /// Under arbitrary interleaved push/pop — same-instant collisions,
    /// near hops mixed with far timers — the queue pops what a stable sort
    /// by time of the still-pending pushes puts first: earliest due, and
    /// first scheduled within one instant.
    #[test]
    fn event_queue_pops_in_time_then_insertion_order(
        ops in proptest::collection::vec((0u8..4, 0u64..6_000_000), 1..2_000),
    ) {
        use tspu_netsim::EventQueue;

        let mut queue = EventQueue::new();
        // The reference: pending `(time, item)` pairs in push order. A
        // stable sort keeps push order among equal times, and later pushes
        // append behind everything already sorted.
        let mut pending: Vec<(Time, u32)> = Vec::new();
        let mut now = 0u64;
        for (i, &(op, offset)) in ops.iter().enumerate() {
            if op == 0 && !pending.is_empty() {
                pending.sort_by_key(|&(t, _)| t);
                let expected = pending.remove(0);
                prop_assert_eq!(queue.peek_time(), Some(expected.0));
                prop_assert_eq!(queue.pop(), Some(expected));
                now = expected.0.as_micros();
            } else {
                // Mostly on the 1 ms hop-latency grid within a few hops of
                // `now`, so same-instant ties and in-order runs dominate,
                // with the raw offset kept 1-in-8 as a far timer.
                let ahead = if offset % 8 == 0 { offset } else { offset % 5 * 1_000 };
                let t = Time::from_micros(now + ahead);
                queue.push(t, i as u32);
                pending.push((t, i as u32));
            }
            prop_assert_eq!(queue.len(), pending.len());
        }
        pending.sort_by_key(|&(t, _)| t);
        for expected in pending {
            prop_assert_eq!(queue.pop(), Some(expected));
        }
        prop_assert!(queue.is_empty() && queue.pop().is_none());
    }
}

/// A trace point of any kind, over small ids and steps.
fn trace_point() -> impl Strategy<Value = TracePoint> {
    (0u8..5, 0usize..4, 0usize..16).prop_map(|(kind, id, step)| match kind {
        0 => TracePoint::HostTx(HostId(id)),
        1 => TracePoint::HostRx(HostId(id)),
        2 => TracePoint::Dropped { step },
        3 => TracePoint::DeviceIngress { device: MiddleboxId(id), step },
        _ => TracePoint::DeviceEgress { device: MiddleboxId(id), step },
    })
}

/// Packet bytes: empty, a full 1,500-byte frame, or up to 63 bytes, each
/// byte counting up from a drawn start so neighbouring packets differ.
fn packet_bytes() -> impl Strategy<Value = Vec<u8>> {
    (0u8..3, 0usize..64, any::<u8>()).prop_map(|(shape, short, start)| {
        let len = [0, 1_500, short][usize::from(shape)];
        (0..len).map(|i| start.wrapping_add(i as u8)).collect()
    })
}

proptest! {
    /// The capture log reads back exactly what was pushed: for any push
    /// sequence (every trace point kind, empty and 1,500-byte packets),
    /// `iter` and `get` yield each (time, point, bytes) in push order, and
    /// `len` counts them.
    #[test]
    fn capture_log_yields_what_was_pushed(
        pushes in proptest::collection::vec((0u64..10_000_000, trace_point(), packet_bytes()), 0..40),
    ) {
        let mut capture = Capture::new();
        for (micros, point, bytes) in &pushes {
            capture.push(Time::from_micros(*micros), *point, bytes);
        }
        prop_assert_eq!(capture.len(), pushes.len());
        prop_assert_eq!(capture.is_empty(), pushes.is_empty());
        let read: Vec<_> = capture.iter().map(|r| (r.time.as_micros(), r.point, r.bytes.to_vec())).collect();
        prop_assert_eq!(&read, &pushes);
        for (i, (micros, point, bytes)) in pushes.iter().enumerate() {
            let record = capture.get(i).unwrap();
            prop_assert_eq!((record.time.as_micros(), record.point, record.bytes), (*micros, *point, &bytes[..]));
        }
        prop_assert!(capture.get(pushes.len()).is_none());
    }
}

/// A device that drops a packet whose last byte is 0 mod 5, forwards two
/// copies of one whose last byte is 1 mod 5, and passes the rest.
struct Shuffler;

impl Middlebox for Shuffler {
    fn process(&mut self, _now: Time, _dir: Direction, packet: &mut Vec<u8>) -> Verdict {
        match packet.last().map_or(0, |tag| tag % 5) {
            0 => Verdict::Drop,
            1 => Verdict::Fanout(vec![packet.clone(), packet.clone()]),
            _ => Verdict::Pass,
        }
    }
}

/// The pcap export of a fixed capture holding every trace point kind:
/// twelve packets drawn from seed 2022 (TTLs of 1–7 over a four-router
/// route with the [`Shuffler`] after its third router; the first payload
/// 1,480 bytes, the rest 0–119), a millisecond apart. Its bytes are pinned to
/// `golden/capture_2022.pcap`, written by the per-record capture that the
/// log replaced; `TSPU_BLESS=1` rewrites it.
#[test]
fn pcap_export_of_a_seed_2022_capture_is_pinned() {
    let mut rng = SmallRng::seed_from_u64(2022);
    let mut net = Network::new(Duration::from_millis(1));
    net.set_capture(true);
    let a = net.add_host(A);
    let b = net.add_host(B);
    let mut route = Route::through(&hops(4));
    let device = net.install_middlebox(Shuffler);
    route.steps[2].devices.push((device.id(), Direction::LocalToRemote));
    net.set_route_symmetric(a, b, route);
    for i in 0..12 {
        let ttl = rng.gen_range(1u8..8);
        let len = if i == 0 { 1_480 } else { rng.gen_range(0usize..120) };
        let payload: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        let mut repr = Ipv4Repr::new(A, B, Protocol::Other(0xfd), payload.len());
        repr.ttl = ttl;
        net.send_from(a, repr.build(&payload));
        net.run_for(Duration::from_millis(1));
    }
    net.run_until_idle();
    let captures = net.take_captures();
    for kind in 0..5 {
        let seen = captures.iter().any(|c| {
            kind == match c.point {
                TracePoint::HostTx(_) => 0,
                TracePoint::HostRx(_) => 1,
                TracePoint::Dropped { .. } => 2,
                TracePoint::DeviceIngress { .. } => 3,
                TracePoint::DeviceEgress { .. } => 4,
            }
        });
        assert!(seen, "the capture holds no trace point of kind {kind}");
    }
    let pcap = tspu_netsim::pcap::to_pcap_bytes(&captures);
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/capture_2022.pcap");
    if std::env::var_os("TSPU_BLESS").is_some() {
        std::fs::write(golden, &pcap).unwrap();
    }
    let expected = std::fs::read(golden).unwrap();
    assert_eq!(pcap.len(), expected.len(), "pcap length");
    assert!(pcap == expected, "pcap bytes differ from {golden}");
}
