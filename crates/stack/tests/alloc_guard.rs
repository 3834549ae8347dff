//! What a download costs the heap, and what it leaves there.
//!
//! A counting global allocator wraps the system one. A page fetched from
//! `ServerApp` by `TcpClient` over a direct route must stay within 3.5
//! allocations per data segment end to end — the packet that carries the
//! segment, the client's reply list and the ACK in it are three — and a
//! server that has answered a download must hold on to none of it: a
//! connection drops its reference to the answer with the last byte it
//! segments. Nor does the server ever hold the page: its filler bytes are
//! written into the packets that carry them, so a page server is a few
//! hundred bytes and the heap during a download is the packets in flight.
//!
//! The counters are per thread (the libtest harness allocates on its own
//! threads at unpredictable times), and each test reads them only as
//! differences within its own body.
//!
//! ## Seeded mutation
//!
//! `tls_page_materialized` (`tests/mutants/`): the server writes the whole
//! page into memory when the port is added, as it once did. Every packet
//! stays the same; only the two byte ceilings here see it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use tspu_netsim::{Application, HostId, Network, Output, Route, Time};
use tspu_stack::{
    conn::incrementing, PortBehavior, ServerApp, ServerPort, TcpClient, TcpClientConfig, TcpConnection,
    TcpState,
};
use tspu_wire::ipv4::Ipv4Packet;
use tspu_wire::tcp::TcpSegment;
use tspu_wire::tls::ClientHelloBuilder;

thread_local! {
    // const-initialized: reading them never allocates, so the allocator
    // itself may touch them.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
    /// The highest `LIVE_BYTES` since the last [`reset_peak`].
    static PEAK_BYTES: Cell<isize> = const { Cell::new(0) };
}

/// Notes one allocator call that changed this thread's live bytes by
/// `delta`; `counts` is false for a free.
fn note(counts: bool, delta: isize) {
    // try_with: the allocator is still called while a thread's locals are
    // being torn down; that belongs to no measured window.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + usize::from(counts)));
    let _ = LIVE_BYTES.try_with(|n| {
        n.set(n.get() + delta);
        let _ = PEAK_BYTES.try_with(|peak| peak.set(peak.get().max(n.get())));
    });
}

fn live() -> isize {
    LIVE_BYTES.with(Cell::get)
}

/// Starts a new peak window at the current live bytes.
fn reset_peak() {
    PEAK_BYTES.with(|peak| peak.set(live()));
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

#[test]
fn a_page_server_holds_its_answer_not_its_page() {
    let before = live();
    let site = ServerApp::new(SERVER).with_port(ServerPort::new(443, PortBehavior::TlsServerPage(8 << 20)));
    let held = live() - before;
    assert!(held <= 4 << 10, "a server of an 8 MiB page holds {held} heap bytes (bound 4 KiB)");
    drop(site);
}

/// A client that fetches the page and keeps only a count of its bytes, so
/// that what the heap holds during the download is the server's and the
/// network's.
struct CountingClient {
    conn: TcpConnection,
    hello: Option<Vec<u8>>,
    received: Arc<AtomicUsize>,
}

impl Application for CountingClient {
    fn on_packet(&mut self, _now: Time, packet: &[u8]) -> Vec<Output> {
        let Ok(ip) = Ipv4Packet::new_checked(packet) else {
            return Vec::new();
        };
        let Ok(segment) = TcpSegment::new_checked(ip.payload()) else {
            return Vec::new();
        };
        let data = self.conn.on_segment(&segment);
        self.received.fetch_add(data.len(), Ordering::Relaxed);
        self.conn.take_events();
        if self.conn.state() == TcpState::Established {
            if let Some(hello) = self.hello.take() {
                self.conn.send(&hello);
            }
        }
        let mut outputs = Vec::new();
        self.conn.poll_packets(|| 0, |packet| outputs.push(Output::send(packet)));
        outputs
    }
}

#[test]
fn a_download_holds_its_packets_in_flight_not_its_page() {
    let mut net = Network::with_default_latency();
    let client = net.add_host(CLIENT);
    let server = net.add_host(SERVER);
    net.set_route_symmetric(client, server, Route::direct());
    let mut conn = TcpConnection::new(CLIENT, 30_100, SERVER, 443);
    conn.connect();
    let mut syn = Vec::new();
    conn.poll_packets(incrementing(&mut 0), |packet| syn = packet);
    let received = Arc::new(AtomicUsize::new(0));
    let hello = Some(ClientHelloBuilder::new("example.org").build());
    let app = CountingClient { conn, hello, received: received.clone() };
    net.set_app(client, Box::new(app));

    // From before the server exists to the end of the download. The
    // stack sends all it has queued at each poll, cut to the MSS and the
    // window but not paced by them, so the whole page is in flight at
    // once: its packets, and a quarter on top of them for the event queue
    // and the reply lists that carry them.
    let before = live();
    reset_peak();
    let site = ServerApp::new(SERVER).with_port(ServerPort::new(443, PortBehavior::TlsServerPage(PAGE)));
    net.set_app(server, Box::new(site));
    net.send_from(client, syn);
    net.run_until_idle();
    let peak = PEAK_BYTES.with(Cell::get) - before;
    assert_eq!(received.load(Ordering::Relaxed), PAGE + 52, "ServerHello, record header and the whole page");
    let in_flight = (PAGE + 52).div_ceil(1460) * (1460 + 40);
    let bound = in_flight + in_flight / 4;
    assert!(
        peak <= bound as isize,
        "a 1 MiB download peaked at {peak} live heap bytes; its packets are {in_flight} (bound {bound})"
    );
}
