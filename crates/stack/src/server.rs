//! A host application serving TCP ports, UDP ports, and ICMP echo — the
//! remote endpoints of every experiment: measurement machines, echo
//! servers (port 7, §7.2), TR-069 endpoints (port 7547, §7.3), and the
//! sites being censored.

use std::collections::hash_map::Entry;
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Duration;

use tspu_netsim::{Application, Output, Time};
use tspu_wire::fasthash::FxHashMap;
use tspu_wire::frag::Reassembly;
use tspu_wire::icmpv4::{Icmpv4Packet, Icmpv4Repr};
use tspu_wire::ipv4::{Ipv4Packet, Protocol};
use tspu_wire::tcp::TcpSegment;
use tspu_wire::tls;

use crate::conn::{HandshakeMode, TcpConnection};

/// What a TCP port does with established connections.
#[derive(Debug, Clone)]
pub enum PortBehavior {
    /// Echo every received byte back (TCP port 7).
    Echo,
    /// Reply once with canned bytes upon the first data received.
    Respond(Vec<u8>),
    /// Behave like a TLS server: answer a ClientHello with a ServerHello
    /// (and a little application data), anything else with nothing.
    TlsServer,
    /// A TLS server that follows the ServerHello with `usize` bytes of
    /// application data — a "page" big enough that delayed-drop (SNI-II)
    /// and throttling (SNI-III) visibly truncate or slow the transfer.
    TlsServerPage(usize),
    /// Accept and ACK, never send data.
    Sink,
}

/// Configuration of one listening TCP port.
#[derive(Debug, Clone)]
pub struct ServerPort {
    pub port: u16,
    pub behavior: PortBehavior,
    pub handshake: HandshakeMode,
    /// Advertised receive window (small values are the §8 strategy).
    pub window: u16,
    /// Delay before the handshake reply — the "wait out the TSPU's
    /// SYN-SENT timeout" strategy (§8).
    pub response_delay: Duration,
}

impl ServerPort {
    /// A standard port with the given behavior.
    pub fn new(port: u16, behavior: PortBehavior) -> ServerPort {
        ServerPort {
            port,
            behavior,
            handshake: HandshakeMode::Normal,
            window: 64240,
            response_delay: Duration::ZERO,
        }
    }

    /// Uses the split-handshake strategy on this port.
    pub fn split_handshake(mut self) -> ServerPort {
        self.handshake = HandshakeMode::SplitHandshake;
        self
    }

    /// Advertises a small window on this port.
    pub fn small_window(mut self, window: u16) -> ServerPort {
        self.window = window;
        self
    }

    /// Delays handshake replies by `delay`.
    pub fn delayed(mut self, delay: Duration) -> ServerPort {
        self.response_delay = delay;
        self
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PeerKey {
    addr: Ipv4Addr,
    port: u16,
    local_port: u16,
}

/// What a listening port does with received data: its [`PortBehavior`]
/// with the canned response built once, when the port is added, and
/// shared by every connection the port ever accepts.
enum Service {
    Echo,
    Respond(Arc<[u8]>),
    /// Answers a ClientHello with `head` (the ServerHello, an
    /// application-data record header and the page's first byte), then
    /// that byte `filler` more times: the page is never held.
    Tls { head: Arc<[u8]>, filler: usize },
    Sink,
}

impl Service {
    fn resolve(behavior: PortBehavior) -> Service {
        let page = match behavior {
            PortBehavior::Echo => return Service::Echo,
            PortBehavior::Respond(bytes) => return Service::Respond(bytes.into()),
            PortBehavior::Sink => return Service::Sink,
            PortBehavior::TlsServer => 0x40,
            PortBehavior::TlsServerPage(page) => page,
        };
        // A ServerHello followed by `page` bytes of application data, so
        // throttling and delayed drops have something to act on. Only the
        // page's first byte is stored; the rest repeat it.
        let mut head = tls::server_hello_record();
        head.extend_from_slice(&[0x17, 0x03, 0x03]);
        head.extend_from_slice(&(page.min(0xffff) as u16).to_be_bytes());
        if page > 0 {
            head.push(0xda);
        }
        Service::Tls { head: head.into(), filler: page.saturating_sub(1) }
    }
}

/// Whether `stream`, a connection's bytes from the first, holds a whole
/// ClientHello after any non-handshake records that the record-injection
/// strategy prepends.
fn ends_client_hello(stream: &[u8]) -> bool {
    let mut offset = 0;
    while stream.len() >= offset + 5 && stream[offset] != 0x16 {
        offset += 5 + usize::from(u16::from_be_bytes([stream[offset + 3], stream[offset + 4]]));
    }
    tls::ClientHello::parse(&stream[offset.min(stream.len())..]).is_ok()
}

/// One listening TCP port as the server runs it.
struct Listener {
    service: Service,
    handshake: HandshakeMode,
    window: u16,
    response_delay: Duration,
}

/// One connection as the server keeps it: 96 bytes, most of them the
/// connection itself.
struct ConnSlot {
    conn: TcpConnection,
    responded: bool,
    /// The stream so far, when a TLS ClientHello spans segments: real
    /// servers reassemble TCP, unlike the TSPU — that asymmetry is what
    /// makes segmentation a viable evasion. Allocated only when a
    /// segment's bytes do not complete a ClientHello, and boxed so that
    /// the slot spends 8 bytes on it, not 24.
    #[allow(clippy::box_collection)]
    rx_buffer: Option<Box<Vec<u8>>>,
}

/// The server application. Attach to a host with
/// [`tspu_netsim::Network::set_app`].
pub struct ServerApp {
    addr: Ipv4Addr,
    /// Listening ports, one entry each, scanned linearly: a server
    /// listens on a handful at most.
    ports: Box<[(u16, Listener)]>,
    /// UDP ports that echo datagrams back (UDP echo / QUIC reachability).
    udp_echo_ports: Vec<u16>,
    conns: FxHashMap<PeerKey, ConnSlot>,
}

impl ServerApp {
    /// Creates a server for the host with address `addr`.
    pub fn new(addr: Ipv4Addr) -> ServerApp {
        ServerApp {
            addr,
            ports: Box::default(),
            udp_echo_ports: Vec::new(),
            conns: FxHashMap::default(),
        }
    }

    /// Adds a listening TCP port, replacing any listener already on it.
    pub fn with_port(mut self, port: ServerPort) -> ServerApp {
        let listener = Listener {
            service: Service::resolve(port.behavior),
            handshake: port.handshake,
            window: port.window,
            response_delay: port.response_delay,
        };
        if let Some((_, held)) = self.ports.iter_mut().find(|(number, _)| *number == port.port) {
            *held = listener;
        } else {
            // One allocation, of the exact size.
            let mut ports = Vec::with_capacity(self.ports.len() + 1);
            ports.extend(std::mem::take(&mut self.ports).into_vec());
            ports.push((port.port, listener));
            self.ports = ports.into_boxed_slice();
        }
        self
    }

    /// Adds a UDP echo port.
    pub fn with_udp_echo(mut self, port: u16) -> ServerApp {
        self.udp_echo_ports.push(port);
        self
    }

    /// A typical censored HTTPS site: TLS server on 443.
    pub fn https_site(addr: Ipv4Addr) -> ServerApp {
        ServerApp::new(addr).with_port(ServerPort::new(443, PortBehavior::TlsServer))
    }

    /// A Quack-style echo server on TCP port 7.
    pub fn echo_server(addr: Ipv4Addr) -> ServerApp {
        ServerApp::new(addr).with_port(ServerPort::new(7, PortBehavior::Echo))
    }

    fn handle_tcp(&mut self, packet: &Ipv4Packet<&[u8]>) -> Vec<Output> {
        let Ok(segment) = TcpSegment::new_checked(packet.payload()) else {
            return Vec::new();
        };
        let local_port = segment.dst_port();
        let Some((_, listener)) = self.ports.iter().find(|(number, _)| *number == local_port) else {
            return Vec::new(); // closed port: silently ignore (no RST model)
        };
        let key = PeerKey { addr: packet.src_addr(), port: segment.src_port(), local_port };
        // A fresh SYN on a known 4-tuple is a new connection attempt (the
        // peer reused the port); recycle the slot like a real listener
        // whose old socket timed out.
        if segment.flags().is_pure_syn() {
            if let Some(slot) = self.conns.get(&key) {
                if slot.conn.state() != crate::conn::TcpState::Listen {
                    self.conns.remove(&key);
                }
            }
        }
        let slot = self.conns.entry(key).or_insert_with(|| {
            let mut conn = TcpConnection::new(self.addr, local_port, key.addr, key.port);
            conn.set_mode(listener.handshake);
            conn.set_local_window(listener.window);
            conn.listen();
            ConnSlot { conn, responded: false, rx_buffer: None }
        });

        let data = slot.conn.on_segment(&segment);
        // The server keys on data alone; nothing reads its state changes.
        slot.conn.take_events();
        if !data.is_empty() {
            match &listener.service {
                Service::Echo => slot.conn.send(data),
                Service::Respond(body) if !slot.responded => {
                    slot.responded = true;
                    slot.conn.send_shared(body.clone());
                }
                Service::Tls { head, filler } if !slot.responded => {
                    // Real servers reassemble the byte stream before
                    // parsing — segmentation evasions rely on this.
                    let complete = match &mut slot.rx_buffer {
                        Some(stream) => {
                            stream.extend_from_slice(data);
                            ends_client_hello(stream)
                        }
                        None => ends_client_hello(data),
                    };
                    if complete {
                        slot.responded = true;
                        slot.rx_buffer = None;
                        slot.conn.send_filled(head.clone(), *filler);
                    } else if slot.rx_buffer.is_none() {
                        slot.rx_buffer = Some(Box::new(data.to_vec()));
                    }
                }
                Service::Respond(_) | Service::Tls { .. } | Service::Sink => {}
            }
        }

        let mut outputs = Vec::new();
        slot.conn.poll_packets(
            || 0,
            |packet| outputs.push(Output::send_after(listener.response_delay, packet)),
        );
        outputs
    }

    fn handle_udp(&mut self, packet: &Ipv4Packet<&[u8]>) -> Vec<Output> {
        let Ok(datagram) = tspu_wire::udp::UdpDatagram::new_checked(packet.payload()) else {
            return Vec::new();
        };
        let port = datagram.dst_port();
        if !self.udp_echo_ports.contains(&port) {
            return Vec::new();
        }
        let reply = crate::craft::udp_packet(
            self.addr,
            port,
            packet.src_addr(),
            datagram.src_port(),
            datagram.payload(),
        );
        vec![Output::send(reply)]
    }

    fn handle_icmp(&mut self, packet: &Ipv4Packet<&[u8]>) -> Vec<Output> {
        let Ok(icmp) = Icmpv4Packet::new_checked(packet.payload()) else {
            return Vec::new();
        };
        match Icmpv4Repr::parse(&icmp) {
            Ok(Icmpv4Repr::EchoRequest { ident, seq_no }) => {
                vec![Output::send(crate::craft::icmp_echo_reply(
                    self.addr,
                    packet.src_addr(),
                    ident,
                    seq_no,
                ))]
            }
            _ => Vec::new(),
        }
    }
}

impl Application for ServerApp {
    fn on_packet(&mut self, _now: Time, packet: &[u8]) -> Vec<Output> {
        let Ok(view) = Ipv4Packet::new_checked(packet) else {
            return Vec::new();
        };
        if view.is_fragment() {
            // Endpoint reassembly is the caller's concern in experiments;
            // the server only answers complete packets. Fragmented probes
            // are answered by the driver-level reassembling wrapper below.
            return Vec::new();
        }
        match view.protocol() {
            Protocol::Tcp => self.handle_tcp(&view),
            Protocol::Udp => self.handle_udp(&view),
            Protocol::Icmp => self.handle_icmp(&view),
            Protocol::Other(_) => Vec::new(),
        }
    }
}

/// A wrapper that reassembles incoming IP fragments before handing packets
/// to an inner application — a normal OS network stack's behavior, needed
/// by the fragmentation-scan targets (§7.2: endpoints must respond to
/// fragmented SYNs for the fingerprint to be observable).
///
/// Each fragment is copied once, into the datagram being rebuilt
/// ([`Reassembly`]). A datagram gets one attempt, at its first MF = 0
/// fragment, and is gone after it whatever the outcome; there is no
/// reassembly timeout.
pub struct ReassemblingApp<A> {
    inner: A,
    /// Datagrams in flight by (src, dst, ident). Swapped for an empty map,
    /// which holds no allocation, whenever its last datagram leaves.
    pending: FxHashMap<(Ipv4Addr, Ipv4Addr, u16), Reassembly>,
    /// Maximum fragments per datagram this *endpoint* accepts (Linux
    /// default: 64). The fingerprint compares this against the TSPU's 45.
    pub frag_limit: usize,
}

impl<A> ReassemblingApp<A> {
    /// Wraps `inner` with Linux-like reassembly (limit 64).
    pub fn new(inner: A) -> ReassemblingApp<A> {
        ReassemblingApp { inner, pending: FxHashMap::default(), frag_limit: 64 }
    }
}

impl<A: Application> Application for ReassemblingApp<A> {
    fn on_packet(&mut self, now: Time, packet: &[u8]) -> Vec<Output> {
        let Ok(view) = Ipv4Packet::new_checked(packet) else {
            return Vec::new();
        };
        if !view.is_fragment() {
            return self.inner.on_packet(now, packet);
        }
        let key = (view.src_addr(), view.dst_addr(), view.ident());
        // One probe: the entry places the fragment and, when the fragment
        // ends the datagram, removes it.
        let complete = match self.pending.entry(key) {
            // The piece after the frag_limit-th discards the datagram.
            Entry::Occupied(datagram) if datagram.get().pieces() >= self.frag_limit => {
                datagram.remove();
                None
            }
            Entry::Occupied(mut datagram) => {
                datagram.get_mut().push(&view);
                if view.more_fragments() {
                    None
                } else {
                    Some(datagram.remove())
                }
            }
            Entry::Vacant(_) if self.frag_limit == 0 => None,
            Entry::Vacant(slot) => {
                let Ok(datagram) = Reassembly::new(&view) else {
                    return Vec::new();
                };
                if view.more_fragments() {
                    slot.insert(datagram);
                    None
                } else {
                    Some(datagram)
                }
            }
        };
        if self.pending.is_empty() {
            self.pending = FxHashMap::default();
        }
        // Holes or overlaps: the strict receiver drops the datagram.
        match complete.map(Reassembly::finish) {
            Some(Ok(whole)) => self.inner.on_packet(now, &whole),
            _ => Vec::new(),
        }
    }

    fn on_timer(&mut self, now: Time) -> Vec<Output> {
        self.inner.on_timer(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::craft::TcpPacketSpec;
    use tspu_wire::tcp::TcpFlags;

    const SERVER: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 80);
    const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 9);

    fn unwrap_sends(outputs: Vec<Output>) -> Vec<Vec<u8>> {
        outputs
            .into_iter()
            .map(|o| match o {
                Output::Send { packet, .. } => packet,
                Output::Timer { .. } => panic!("unexpected timer"),
            })
            .collect()
    }

    #[test]
    fn echo_server_full_cycle() -> tspu_wire::Result<()> {
        let mut app = ServerApp::echo_server(SERVER);
        let syn = TcpPacketSpec::new(CLIENT, 4000, SERVER, 7, TcpFlags::SYN).seq_ack(100, 0).build();
        let replies = unwrap_sends(app.on_packet(Time::ZERO, &syn));
        assert_eq!(replies.len(), 1);
        let synack_view = Ipv4Packet::new_checked(&replies[0][..])?;
        let synack = TcpSegment::new_checked(synack_view.payload())?;
        assert_eq!(synack.flags(), TcpFlags::SYN_ACK);

        let ack = TcpPacketSpec::new(CLIENT, 4000, SERVER, 7, TcpFlags::ACK)
            .seq_ack(101, synack.seq_number().wrapping_add(1))
            .build();
        assert!(app.on_packet(Time::ZERO, &ack).is_empty());

        let data = TcpPacketSpec::new(CLIENT, 4000, SERVER, 7, TcpFlags::PSH_ACK)
            .seq_ack(101, synack.seq_number().wrapping_add(1))
            .payload(b"echo me".to_vec())
            .build();
        let replies = unwrap_sends(app.on_packet(Time::ZERO, &data));
        // An ACK plus the echoed payload.
        let echoed: Vec<&Vec<u8>> = replies
            .iter()
            .filter(|p| {
                let ip = Ipv4Packet::new_unchecked(&p[..]);
                !TcpSegment::new_unchecked(ip.payload()).payload().is_empty()
            })
            .collect();
        assert_eq!(echoed.len(), 1);
        let ip = Ipv4Packet::new_unchecked(&echoed[0][..]);
        assert_eq!(TcpSegment::new_unchecked(ip.payload()).payload(), b"echo me");
        Ok(())
    }

    #[test]
    fn a_connection_slot_fits_in_96_bytes() {
        // A scanned endpoint holds one slot per half-open probe.
        let size = std::mem::size_of::<ConnSlot>();
        assert!(size <= 96, "ConnSlot is {size} bytes (bound 96)");
    }

    #[test]
    fn a_segmented_client_hello_is_answered_once_whole() {
        let hello = tls::ClientHelloBuilder::new("example.org").build();
        let mut app = ServerApp::https_site(SERVER);
        let syn = TcpPacketSpec::new(CLIENT, 4010, SERVER, 443, TcpFlags::SYN).seq_ack(100, 0).build();
        let replies = unwrap_sends(app.on_packet(Time::ZERO, &syn));
        let synack = Ipv4Packet::new_unchecked(&replies[0][..]);
        let ack = TcpSegment::new_unchecked(synack.payload()).seq_number().wrapping_add(1);
        let mut seq = 101u32;
        let mut answered = Vec::new();
        for chunk in hello.chunks(40) {
            let segment = TcpPacketSpec::new(CLIENT, 4010, SERVER, 443, TcpFlags::PSH_ACK)
                .seq_ack(seq, ack)
                .payload(chunk.to_vec())
                .build();
            seq = seq.wrapping_add(chunk.len() as u32);
            let key = PeerKey { addr: CLIENT, port: 4010, local_port: 443 };
            let data_replies = unwrap_sends(app.on_packet(Time::ZERO, &segment))
                .into_iter()
                .filter(|p| {
                    let ip = Ipv4Packet::new_unchecked(&p[..]);
                    !TcpSegment::new_unchecked(ip.payload()).payload().is_empty()
                })
                .count();
            answered.push((data_replies, app.conns[&key].rx_buffer.is_some()));
        }
        // The stream is held from the first piece to the last, which is
        // answered; nothing is held after.
        let [held @ .., last] = &answered[..] else { panic!("no segment was sent") };
        assert_eq!(*last, (1, false));
        assert!(held.iter().all(|&piece| piece == (0, true)), "{answered:?}");
    }

    #[test]
    fn closed_port_is_silent() {
        let mut app = ServerApp::echo_server(SERVER);
        let syn = TcpPacketSpec::new(CLIENT, 4000, SERVER, 9999, TcpFlags::SYN).build();
        assert!(app.on_packet(Time::ZERO, &syn).is_empty());
    }

    #[test]
    fn split_handshake_port_answers_syn_with_syn() {
        let mut app = ServerApp::new(SERVER)
            .with_port(ServerPort::new(443, PortBehavior::TlsServer).split_handshake());
        let syn = TcpPacketSpec::new(CLIENT, 4001, SERVER, 443, TcpFlags::SYN).build();
        let replies = unwrap_sends(app.on_packet(Time::ZERO, &syn));
        let ip = Ipv4Packet::new_unchecked(&replies[0][..]);
        let seg = TcpSegment::new_unchecked(ip.payload());
        assert!(seg.flags().is_pure_syn());
    }

    #[test]
    fn delayed_port_postpones_replies() {
        let mut app = ServerApp::new(SERVER).with_port(
            ServerPort::new(443, PortBehavior::TlsServer).delayed(Duration::from_secs(61)),
        );
        let syn = TcpPacketSpec::new(CLIENT, 4002, SERVER, 443, TcpFlags::SYN).build();
        let outputs = app.on_packet(Time::ZERO, &syn);
        assert!(matches!(
            outputs[0],
            Output::Send { delay, .. } if delay == Duration::from_secs(61)
        ));
    }

    #[test]
    fn udp_echo_and_icmp() -> tspu_wire::Result<()> {
        let mut app = ServerApp::new(SERVER).with_udp_echo(7);
        let probe = crate::craft::udp_packet(CLIENT, 5000, SERVER, 7, b"udp-probe");
        let replies = unwrap_sends(app.on_packet(Time::ZERO, &probe));
        assert_eq!(replies.len(), 1);

        let ping = crate::craft::icmp_echo_request(CLIENT, SERVER, 9, 1);
        let replies = unwrap_sends(app.on_packet(Time::ZERO, &ping));
        assert_eq!(replies.len(), 1);
        let ip = Ipv4Packet::new_checked(&replies[0][..])?;
        let icmp = Icmpv4Packet::new_checked(ip.payload())?;
        assert!(matches!(Icmpv4Repr::parse(&icmp)?, Icmpv4Repr::EchoReply { .. }));
        Ok(())
    }

    #[test]
    fn reassembling_app_answers_fragmented_syn() -> tspu_wire::Result<()> {
        let inner = ServerApp::echo_server(SERVER);
        let mut app = ReassemblingApp::new(inner);
        let syn = TcpPacketSpec::new(CLIENT, 4003, SERVER, 7, TcpFlags::SYN)
            .payload(vec![0xaa; 512]) // SYN with payload, as in §7.2 scans
            .ident(77)
            .build();
        let fragments = tspu_wire::frag::fragment(&syn, 64)?;
        let mut replies = Vec::new();
        for fragment in &fragments {
            replies = app.on_packet(Time::ZERO, fragment);
        }
        assert_eq!(replies.len(), 1, "reassembled SYN gets a SYN/ACK");
        Ok(())
    }

    #[test]
    fn reassembling_app_enforces_endpoint_limit() -> tspu_wire::Result<()> {
        let inner = ServerApp::echo_server(SERVER);
        let mut app = ReassemblingApp::new(inner);
        app.frag_limit = 10;
        let syn = TcpPacketSpec::new(CLIENT, 4004, SERVER, 7, TcpFlags::SYN)
            .payload(vec![0xaa; 512])
            .build();
        let fragments = tspu_wire::frag::fragment_into(&syn, 12)?;
        let mut replies = Vec::new();
        for fragment in &fragments {
            replies = app.on_packet(Time::ZERO, fragment);
        }
        assert!(replies.is_empty());
        Ok(())
    }

    /// Feeds `fragments` in order; the replies to the last one.
    fn feed(app: &mut ReassemblingApp<ServerApp>, fragments: &[Vec<u8>]) -> Vec<Output> {
        let mut replies = Vec::new();
        for fragment in fragments {
            replies = app.on_packet(Time::ZERO, fragment);
        }
        replies
    }

    /// A SYN with a 512-byte payload from `port`, cut into `pieces`.
    fn fragmented_syn(port: u16, pieces: usize) -> tspu_wire::Result<Vec<Vec<u8>>> {
        let syn = TcpPacketSpec::new(CLIENT, port, SERVER, 7, TcpFlags::SYN)
            .payload(vec![0xaa; 512])
            .ident(port)
            .build();
        tspu_wire::frag::fragment_into(&syn, pieces)
    }

    #[test]
    fn an_idle_endpoint_holds_no_reassembly_state() -> tspu_wire::Result<()> {
        let mut app = ReassemblingApp::new(ServerApp::echo_server(SERVER));
        // A completed train is answered and leaves nothing behind.
        assert_eq!(feed(&mut app, &fragmented_syn(4005, 45)?).len(), 1);
        assert_eq!(app.pending.capacity(), 0);
        // So does one a duplicate poisons: it fails its one attempt.
        let mut duplicated = fragmented_syn(4006, 45)?;
        duplicated.insert(7, duplicated[3].clone());
        assert!(feed(&mut app, &duplicated).is_empty());
        assert_eq!(app.pending.capacity(), 0);
        // And one past the endpoint's limit of 64.
        assert!(feed(&mut app, &fragmented_syn(4007, 65)?).is_empty());
        assert_eq!(app.pending.capacity(), 0);
        Ok(())
    }

    #[test]
    fn a_reversed_train_fails_at_its_first_piece() -> tspu_wire::Result<()> {
        // MF = 0 arrives first: the one attempt fails on the spot, and the
        // 44 pieces after it wait for an MF = 0 piece that has come and gone.
        let mut app = ReassemblingApp::new(ServerApp::echo_server(SERVER));
        let mut reversed = fragmented_syn(4008, 45)?;
        reversed.reverse();
        assert!(feed(&mut app, &reversed).is_empty());
        assert_eq!(app.pending.len(), 1);
        assert_eq!(app.pending.values().next().map(Reassembly::pieces), Some(44));
        Ok(())
    }
}
