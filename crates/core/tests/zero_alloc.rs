//! Proof that the packet-path matcher is allocation-free: a counting
//! global allocator wraps the system allocator, and `DomainSet::matches`
//! / `NormalizedHost::new` must not allocate for hostnames that fit the
//! 256-byte stack buffer — i.e. every hostname a real SNI carries.
//!
//! The counter is per-thread (the libtest harness main thread allocates
//! at unpredictable times while a test runs, and would otherwise bleed
//! into the measured windows), and everything runs in ONE test function
//! so no sibling test shares this thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;

use tspu_core::policy::{DomainSet, NormalizedHost};
use tspu_core::{Policy, PolicyDelta, PolicyHandle, PolicyHistory, TspuDevice};
use tspu_netsim::{Direction, Middlebox, Time, Verdict};
use tspu_wire::ipv4::{Ipv4Repr, Protocol};
use tspu_wire::tcp::{TcpFlags, TcpRepr};

struct CountingAllocator;

thread_local! {
    // const-initialized: reading it never allocates, so it is safe to
    // touch from inside the allocator itself.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // try_with: TLS is unavailable during thread teardown; allocations
    // there belong to no measured window anyway.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f` and returns how many heap allocations this thread performed.
fn allocations_during<F: FnOnce() -> R, R>(f: F) -> usize {
    let before = ALLOCATIONS.with(|c| c.get());
    let result = f();
    let after = ALLOCATIONS.with(|c| c.get());
    drop(result);
    after - before
}

#[test]
fn matcher_is_allocation_free_on_the_packet_path() {
    let set = DomainSet::from_names([
        "facebook.com",
        "instagram.com",
        "twitter.com",
        "rutracker.org",
        "xn--p1ai",
    ]);
    // 256 bytes exactly (the stack capacity), as a deep subdomain.
    let long_label = "a".repeat(NormalizedHost::STACK_CAPACITY - ".web.facebook.com".len());
    let max_host = format!("{long_label}.web.facebook.com");
    assert_eq!(max_host.len(), NormalizedHost::STACK_CAPACITY);
    let hosts: [&str; 6] = [
        "facebook.com",
        "WWW.Facebook.COM.",
        "login.instagram.com",
        "definitely-not-blocked.example",
        "com",
        &max_host,
    ];

    // Warm up so lazily initialized pieces (if any) do not count.
    for host in hosts {
        let _ = set.matches(host);
    }

    for host in hosts {
        let n = allocations_during(|| {
            let mut hits = 0u32;
            for _ in 0..100 {
                hits += u32::from(set.matches(host));
            }
            hits
        });
        assert_eq!(n, 0, "matches({host:?}) allocated {n} times in 100 calls");
    }

    // The same hosts against a set read out of a `PolicyHistory`, with
    // every part of the lookup in play: the shared table (facebook.com),
    // a tombstone over one of its entries (twitter.com) and an overlay
    // entry of the set's own (instagram.com).
    let history = PolicyHistory::compile([PolicyDelta::add_rst_batch([
        "facebook.com",
        "twitter.com",
        "rutracker.org",
    ])]);
    let mut shared = history.as_of(1).expect("one delta compiled").sni_rst;
    shared.remove("twitter.com");
    shared.insert("instagram.com");
    assert!(shared.matches(&max_host) && shared.matches("login.instagram.com"));
    assert!(!shared.matches("twitter.com"));
    let normalized: Vec<NormalizedHost> =
        hosts.iter().copied().chain(["twitter.com"]).map(NormalizedHost::new).collect();
    let n = allocations_during(|| {
        let mut hits = 0u32;
        for _ in 0..100 {
            for host in &normalized {
                hits += u32::from(shared.matches_normalized(host));
            }
        }
        hits
    });
    assert_eq!(n, 0, "history-backed matches_normalized allocated {n} times");

    // Normalization alone is also allocation-free at the capacity limit.
    let n = allocations_during(|| NormalizedHost::new(&max_host).as_bytes().len());
    assert_eq!(n, 0, "NormalizedHost::new allocated for a 256-byte host");

    // Sanity-check the counter itself: an over-limit hostname takes the
    // heap spill path and must be observed doing so.
    let oversized = format!("b{max_host}");
    let n = allocations_during(|| NormalizedHost::new(&oversized).as_bytes().len());
    assert!(n > 0, "counter failed to observe the spill-path allocation");

    // The whole device hop path: a non-triggering TCP data packet through
    // conntrack, IP blocking, trigger evaluation, and verdict application
    // must not allocate in steady state: the device's counts are plain
    // field adds, tracing is off, and a pass verdict leaves the flight
    // recorder untouched.
    let client = Ipv4Addr::new(10, 1, 1, 1);
    let server = Ipv4Addr::new(203, 0, 113, 1);
    let mut tcp = TcpRepr::new(40_000, 443, TcpFlags::PSH_ACK);
    tcp.payload = vec![0xab; 1000];
    let segment = tcp.build(client, server);
    let packet = Ipv4Repr::new(client, server, Protocol::Tcp, segment.len()).build(&segment);

    let mut dev = TspuDevice::reliable("zero-alloc", PolicyHandle::new(Policy::example()));
    let mut buf = packet;
    let mut t = 0u64;
    // Warm up: first packet fills the flow's index bucket and slab slot.
    for _ in 0..16 {
        t += 1;
        let _ = dev.process(Time::from_micros(t), Direction::LocalToRemote, &mut buf);
    }
    let n = allocations_during(|| {
        let mut passed = 0u32;
        for _ in 0..1000 {
            t += 1;
            let verdict = dev.process(Time::from_micros(t), Direction::LocalToRemote, &mut buf);
            passed += u32::from(verdict == Verdict::Pass);
        }
        passed
    });
    assert_eq!(n, 0, "device hop path allocated {n} times in 1000 packets");
}
