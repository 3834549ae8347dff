//! Property-based tests for the simulator: determinism, delivery
//! conservation, and exact TTL semantics on arbitrary route shapes.

use proptest::prelude::*;
use std::net::Ipv4Addr;
use std::time::Duration;

use tspu_netsim::{Network, Route, Time};
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

proptest! {
    /// A packet with TTL t crosses an n-router path iff t > n; otherwise
    /// exactly one ICMP time-exceeded returns, from router t — on the
    /// per-hop path (capture on) and the collapsed one (capture off) alike.
    #[test]
    fn ttl_semantics_exact(n in 0usize..20, ttl in 1u8..25, capture in any::<bool>()) {
        let mut net = Network::new(Duration::from_millis(1));
        net.set_capture(capture);
        let a = net.add_host(A);
        let b = net.add_host(B);
        let route_hops = hops(n);
        net.set_route_symmetric(a, b, Route::through(&route_hops));
        net.send_from(a, packet(ttl, 1));
        net.run_until_idle();
        let delivered = net.take_inbox(b);
        let returned = net.take_inbox(a);
        if usize::from(ttl) > n {
            prop_assert_eq!(delivered.len(), 1);
            prop_assert_eq!(returned.len(), 0);
            let view = Ipv4Packet::new_checked(&delivered[0].1[..]).unwrap();
            prop_assert_eq!(usize::from(view.ttl()), usize::from(ttl) - n);
        } else {
            prop_assert_eq!(delivered.len(), 0);
            prop_assert_eq!(returned.len(), 1);
            let view = Ipv4Packet::new_checked(&returned[0].1[..]).unwrap();
            prop_assert_eq!(view.src_addr(), route_hops[usize::from(ttl) - 1]);
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
    /// The timer wheel pops arbitrary interleaved schedules in exactly the
    /// order the old `BinaryHeap<Reverse<(time, seq)>>` scheduler did —
    /// including schedules that straddle the engagement threshold, collide
    /// on timestamps, and mix near hops with far timers.
    #[test]
    fn wheel_order_matches_binary_heap(
        ops in proptest::collection::vec((0u8..4, 0u64..6_000_000), 1..2_000),
    ) {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        use tspu_netsim::TimerWheel;

        let mut wheel = TimerWheel::new();
        let mut heap: BinaryHeap<Reverse<(Time, u64, u32)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        for (i, &(op, offset)) in ops.iter().enumerate() {
            if op == 0 && !heap.is_empty() {
                let a = wheel.pop();
                let Reverse((t, _, item)) = heap.pop().unwrap();
                prop_assert_eq!(a, Some((t, item)));
                now = t.as_micros();
            } else {
                // Mostly near-future pushes (within the ~4 ms window), with
                // the raw offset kept 1-in-8 so far timers hit the overflow
                // heap too.
                let ahead = if offset % 8 == 0 { offset } else { offset % 5_000 };
                let t = Time::from_micros(now + ahead);
                wheel.push(t, i as u32);
                heap.push(Reverse((t, seq, i as u32)));
                seq += 1;
            }
        }
        while let Some(Reverse((t, _, item))) = heap.pop() {
            prop_assert_eq!(wheel.pop(), Some((t, item)));
        }
        prop_assert!(wheel.pop().is_none());
    }
}
