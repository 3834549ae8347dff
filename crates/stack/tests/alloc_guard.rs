//! What a download costs the heap, and what it leaves there.
//!
//! A counting global allocator wraps the system one. A page fetched from
//! `ServerApp` by `TcpClient` over a direct route must stay within 3.5
//! allocations per data segment end to end — the packet that carries the
//! segment, the client's reply list and the ACK in it are three — and a
//! server that has answered a download must hold on to none of it: the
//! page is built once per port and a connection drops its reference with
//! the last byte it segments.
//!
//! The counters are per thread (the libtest harness allocates on its own
//! threads at unpredictable times) and everything runs in ONE test
//! function so no sibling test shares this thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;

use tspu_netsim::{HostId, Network, Route};
use tspu_stack::{PortBehavior, ServerApp, ServerPort, TcpClient, TcpClientConfig};
use tspu_wire::tls::ClientHelloBuilder;

thread_local! {
    // const-initialized: reading them never allocates, so the allocator
    // itself may touch them.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
}

/// Notes one allocator call that changed this thread's live bytes by
/// `delta`; `counts` is false for a free.
fn note(counts: bool, delta: isize) {
    // try_with: the allocator is still called while a thread's locals are
    // being torn down; that belongs to no measured window.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + usize::from(counts)));
    let _ = LIVE_BYTES.try_with(|n| n.set(n.get() + delta));
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory
// being managed.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(true, layout.size() as isize);
        // SAFETY: the caller's guarantees for `alloc` are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(true, layout.size() as isize);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(true, new_size as isize - layout.size() as isize);
        // SAFETY: `ptr` and `layout` come from this allocator, which hands
        // out `System`'s blocks unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(false, -(layout.size() as isize));
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 3);
const SERVER: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 44);
const PAGE: usize = 1 << 20;

/// Fetches the page once from source port `port`. Returns the data
/// segments received and the allocations the transfer itself performed
/// (SYN out to idle; building the client is outside the window). Both ends
/// are applications, so every delivered packet is freed by its receiver
/// and no inbox holds a copy.
fn download(net: &mut Network, client: HostId, port: u16) -> (usize, usize) {
    let hello = ClientHelloBuilder::new("example.org").build();
    let (app, report, syn) = TcpClient::start(TcpClientConfig::new(CLIENT, port, SERVER, 443, hello));
    net.set_app(client, Box::new(app));
    let before = ALLOCATIONS.with(Cell::get);
    net.send_from(client, syn);
    net.run_until_idle();
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    let received = report.read();
    assert_eq!(received.bytes_received, PAGE + 52, "ServerHello, record header and the whole page");
    (received.data_segments, allocations)
}

#[test]
fn a_download_allocates_per_packet_and_leaves_nothing_behind() {
    let mut net = Network::with_default_latency();
    let client = net.add_host(CLIENT);
    let site = ServerApp::new(SERVER).with_port(ServerPort::new(443, PortBehavior::TlsServerPage(PAGE)));
    let server = net.add_host_with_app(SERVER, Box::new(site));
    net.set_route_symmetric(client, server, Route::direct());

    // The first download also grows whatever grows once (event queue and
    // reply-list capacity); it is not measured.
    download(&mut net, client, 30_000);

    let (segments, allocations) = download(&mut net, client, 30_001);
    assert_eq!(segments, (PAGE + 52).div_ceil(1460));
    let per_segment = allocations as f64 / segments as f64;
    assert!(
        per_segment <= 3.5,
        "{allocations} allocations for {segments} data segments = {per_segment:.2} per segment (bound 3.5)"
    );

    // Every measurement below is taken at the same point of the cycle —
    // the network idle, the last client still installed and holding the
    // one report — so what differs between two of them is what a finished
    // download left behind in the server and the network.
    let mut live = Vec::new();
    for index in 0..8 {
        download(&mut net, client, 30_002 + index);
        live.push(LIVE_BYTES.with(Cell::get));
    }
    for pair in live.windows(2) {
        let growth = pair[1] - pair[0];
        assert!(
            growth < 64 << 10,
            "live heap grew by {growth} bytes over one download (bound 64 KiB); live after each: {live:?}"
        );
    }
}
