//! Proof that the packet-path matcher is allocation-free: a counting
//! global allocator wraps the system allocator, and `DomainSet::matches`
//! / `NormalizedHost::new` must not allocate for hostnames that fit the
//! 256-byte stack buffer — i.e. every hostname a real SNI carries. The
//! write side has budgets too: a listed name costs one allocation. So
//! does a built ClientHello, and the device inspects one without any.
//!
//! The counter is per-thread (the libtest harness main thread allocates
//! at unpredictable times while a test runs, and would otherwise bleed
//! into the measured windows), and everything runs in ONE test function
//! so no sibling test shares this thread.
//!
//! ## Seeded mutations
//!
//! Each is a patch under `tests/mutants/` this test must fail on:
//! `extract_sni_always_owns` (the SNI is always copied out of the
//! payload) and `client_hello_scratch_extensions` (the builder assembles
//! the extensions in a temporary buffer). Both leave every byte the same.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;

use tspu_core::policy::{DomainSet, NormalizedHost};
use tspu_core::{Policy, PolicyDelta, PolicyHandle, PolicyHistory, TspuDevice};
use tspu_netsim::{Direction, Middlebox, Time, Verdict};
use tspu_wire::ipv4::{Ipv4Repr, Protocol};
use tspu_wire::tcp::{TcpFlags, TcpRepr};
use tspu_wire::tls::ClientHelloBuilder;

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

    // Writing the policy: a name is normalized on the stack and copied
    // to the heap only when it lands. Inserting a name already held (in
    // any spelling) allocates nothing; a new lower-case name allocates
    // its one copy. `fresh.example` is inserted and removed first, so its
    // slot in the hash table is already there.
    let mut set = set;
    let n = allocations_during(|| set.insert("Facebook.COM."));
    assert_eq!(n, 0, "inserting a held name allocated {n} times");
    set.insert("fresh.example");
    set.remove("fresh.example");
    let n = allocations_during(|| set.insert("fresh.example"));
    assert_eq!(n, 1, "inserting a new name allocated {n} times");

    // A k-name delta onto a history version lands in the version's own
    // overlay: k name copies plus the overlay's table.
    let k = 12;
    let delta = PolicyDelta::add_rst_batch((0..k).map(|i| format!("day-{i}.example.ru")));
    let mut policy = history.as_of(1).expect("one delta compiled");
    let n = allocations_during(|| policy.apply_delta(&delta));
    assert!(n <= k + 2, "a {k}-name delta allocated {n} times");
    assert!(policy.sni_rst.matches("www.day-11.example.ru"));

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

    // A ClientHello costs its one record buffer to build: the name is
    // borrowed, the defaults are static, and the record is sized before
    // it is written.
    let name = "unlisted.example";
    let n = allocations_during(|| ClientHelloBuilder::new(name).build());
    assert_eq!(n, 1, "building a ClientHello allocated {n} times");

    // Inspecting one costs nothing: the SNI is a slice of the payload and
    // is normalized on the stack. An unlisted lower-case name passes
    // without a heap allocation once its flow is tracked.
    let hello_packet = |name: &str| {
        let mut tcp = TcpRepr::new(40_001, 443, TcpFlags::PSH_ACK);
        tcp.payload = ClientHelloBuilder::new(name).build();
        let segment = tcp.build(client, server);
        Ipv4Repr::new(client, server, Protocol::Tcp, segment.len()).build(&segment)
    };
    let mut hello = hello_packet(name);
    for _ in 0..16 {
        t += 1;
        let _ = dev.process(Time::from_micros(t), Direction::LocalToRemote, &mut hello);
    }
    let n = allocations_during(|| {
        let mut passed = 0u32;
        for _ in 0..1000 {
            t += 1;
            let verdict = dev.process(Time::from_micros(t), Direction::LocalToRemote, &mut hello);
            passed += u32::from(verdict == Verdict::Pass);
        }
        passed
    });
    assert_eq!(n, 0, "an unlisted ClientHello allocated {n} times in 1000 packets");

    // The counter sees that path: the same name in upper case is parsed
    // into one lowercased copy per packet.
    let mut shouted = hello_packet("UNLISTED.EXAMPLE");
    let n = allocations_during(|| {
        t += 1;
        dev.process(Time::from_micros(t), Direction::LocalToRemote, &mut shouted)
    });
    assert_eq!(n, 1, "an upper-case ClientHello allocated {n} times");
}
