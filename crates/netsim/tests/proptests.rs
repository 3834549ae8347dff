//! Property-based tests for the simulator: determinism, delivery
//! conservation, and exact TTL semantics on arbitrary route shapes.

use proptest::prelude::*;
use std::net::Ipv4Addr;
use std::time::Duration;

use tspu_netsim::{Direction, Middlebox, Network, Route, Time, TracePoint, Verdict};
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

proptest! {
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
