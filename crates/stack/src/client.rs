//! Scripted clients: the Russian-vantage-point side of every experiment.
//!
//! Clients report through a shared [`ClientReport`] handle that the
//! experiment driver keeps, mirroring the paper's methodology of capturing
//! traffic at both ends (§3).

use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use tspu_netsim::{Application, Output, Time};
use tspu_wire::ipv4::{self, Ipv4Packet, Protocol};
use tspu_wire::tcp::{self, TcpFlags, TcpSegment};

use crate::conn::{incrementing, ConnEvent, TcpConnection, TcpState};

/// What ultimately happened to a client connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientOutcome {
    /// Never established.
    NoHandshake,
    /// Established but no response data ever arrived (symmetric drops or
    /// server unreachable).
    Silent,
    /// Received a RST (the SNI-I / IP-based signature).
    Reset,
    /// Received response data.
    GotData,
}

/// Shared observation record for one client connection.
#[derive(Debug, Default)]
pub struct ClientReportInner {
    pub established_at: Option<Time>,
    pub reset_at: Option<Time>,
    pub data: Vec<u8>,
    /// Count of data-bearing segments received.
    pub data_segments: usize,
    pub bytes_received: usize,
    pub first_data_at: Option<Time>,
    pub last_data_at: Option<Time>,
}

/// Cloneable handle to a client's observations.
///
/// `Arc<Mutex<…>>`-backed so clients (and the networks carrying them) are
/// `Send`; within one simulation the lock is uncontended.
#[derive(Clone, Default)]
pub struct ClientReport {
    inner: Arc<Mutex<ClientReportInner>>,
}

impl ClientReport {
    /// A fresh report handle.
    pub fn new() -> ClientReport {
        ClientReport::default()
    }

    /// Reads the record.
    pub fn read(&self) -> MutexGuard<'_, ClientReportInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Classifies the outcome.
    pub fn outcome(&self) -> ClientOutcome {
        let inner = self.read();
        if inner.reset_at.is_some() {
            ClientOutcome::Reset
        } else if !inner.data.is_empty() {
            ClientOutcome::GotData
        } else if inner.established_at.is_some() {
            ClientOutcome::Silent
        } else {
            ClientOutcome::NoHandshake
        }
    }

    /// Observed goodput over the data reception interval, in bytes/second.
    /// `None` before any data arrived.
    pub fn goodput(&self) -> Option<f64> {
        let inner = self.read();
        let (first, last) = (inner.first_data_at?, inner.last_data_at?);
        let secs = (last - first).as_secs_f64().max(0.1);
        Some(inner.bytes_received as f64 / secs)
    }
}

/// How the client ships its request once established (client-side
/// circumvention strategies, §8).
#[derive(Debug, Clone, Default)]
pub struct SendShaping {
    /// Force TCP segmentation into chunks of this many bytes.
    pub segment_bytes: Option<usize>,
    /// Fragment the request packet at the IP layer into payloads of this
    /// many bytes.
    pub ip_fragment_bytes: Option<usize>,
    /// Send these raw TCP payloads (with this TTL) before the request —
    /// the TTL-limited insertion strategy the paper found mitigated.
    pub decoys: Vec<(u8, Vec<u8>)>,
}

/// Configuration of one scripted TCP client.
#[derive(Debug, Clone)]
pub struct TcpClientConfig {
    pub src: Ipv4Addr,
    pub src_port: u16,
    pub dst: Ipv4Addr,
    pub dst_port: u16,
    /// Bytes to send once established (e.g. a ClientHello).
    pub request: Vec<u8>,
    pub shaping: SendShaping,
}

impl TcpClientConfig {
    /// A plain client that sends `request` to `dst:dst_port`.
    pub fn new(src: Ipv4Addr, src_port: u16, dst: Ipv4Addr, dst_port: u16, request: Vec<u8>) -> Self {
        TcpClientConfig { src, src_port, dst, dst_port, request, shaping: SendShaping::default() }
    }
}

/// The client application. Create with [`TcpClient::start`], which returns
/// the application, the report handle, and the initial SYN to inject.
pub struct TcpClient {
    config: TcpClientConfig,
    conn: TcpConnection,
    report: ClientReport,
    request_sent: bool,
    ip_ident: u16,
}

impl TcpClient {
    /// Builds the client; the returned packet is the SYN the driver must
    /// send from the client's host to begin.
    pub fn start(config: TcpClientConfig) -> (TcpClient, ClientReport, Vec<u8>) {
        let mut conn = TcpConnection::new(config.src, config.src_port, config.dst, config.dst_port);
        conn.connect();
        let mut syn_packet = Vec::new();
        conn.poll_packets(|| 0, |packet| syn_packet = packet);
        let report = ClientReport::new();
        let client = TcpClient {
            ip_ident: config.src_port ^ 0x5aa5,
            config,
            conn,
            report: report.clone(),
            request_sent: false,
        };
        (client, report, syn_packet)
    }

    /// Records what `data` (the payload the last segment delivered) and the
    /// connection's state changes mean for the report.
    fn observe(&mut self, now: Time, data: &[u8]) {
        let mut inner = self.report.read();
        for event in self.conn.take_events() {
            match event {
                ConnEvent::Established => inner.established_at.get_or_insert(now),
                ConnEvent::ResetReceived => inner.reset_at.get_or_insert(now),
            };
        }
        if !data.is_empty() {
            inner.first_data_at.get_or_insert(now);
            inner.last_data_at = Some(now);
            inner.bytes_received += data.len();
            inner.data_segments += 1;
            inner.data.extend_from_slice(data);
        }
    }

    /// Sends the request once established, then drains the connection.
    fn pump(&mut self) -> Vec<Output> {
        let mut outputs = Vec::new();
        if self.conn.state() == TcpState::Established && !self.request_sent {
            self.request_sent = true;
            // Decoys first (TTL-limited insertion).
            for (ttl, payload) in std::mem::take(&mut self.config.shaping.decoys) {
                let decoy = crate::craft::TcpPacketSpec::new(
                    self.config.src,
                    self.config.src_port,
                    self.config.dst,
                    self.config.dst_port,
                    TcpFlags::PSH_ACK,
                )
                .ttl(ttl)
                .payload(payload)
                .build();
                outputs.push(Output::send(decoy));
            }
            if let Some(chunk) = self.config.shaping.segment_bytes {
                self.conn.set_mss(chunk);
            }
            self.conn.send_shared(std::mem::take(&mut self.config.request).into());
        }
        let fragment_bytes = self.config.shaping.ip_fragment_bytes;
        self.conn.poll_packets(incrementing(&mut self.ip_ident), |packet| {
            // IP-fragmentation shaping applies to data-bearing segments only.
            let fragments = fragment_bytes
                .filter(|_| packet.len() > ipv4::HEADER_LEN + tcp::HEADER_LEN)
                .and_then(|mtu| tspu_wire::frag::fragment(&packet, mtu).ok());
            match fragments {
                Some(fragments) => outputs.extend(fragments.into_iter().map(Output::send)),
                None => outputs.push(Output::send(packet)),
            }
        });
        outputs
    }
}

impl Application for TcpClient {
    fn on_packet(&mut self, now: Time, packet: &[u8]) -> Vec<Output> {
        let Ok(view) = Ipv4Packet::new_checked(packet) else {
            return Vec::new();
        };
        if view.protocol() != Protocol::Tcp || view.is_fragment() {
            return Vec::new();
        }
        let Ok(segment) = TcpSegment::new_checked(view.payload()) else {
            return Vec::new();
        };
        if segment.dst_port() != self.config.src_port || view.src_addr() != self.config.dst {
            return Vec::new();
        }
        let data = self.conn.on_segment(&segment);
        self.observe(now, data);
        self.pump()
    }
}

/// Cloneable, `Send` counter of datagrams a [`QuicClient`] received.
#[derive(Clone, Default)]
pub struct ReplyCounter(Arc<AtomicUsize>);

impl ReplyCounter {
    /// The count so far.
    pub fn get(&self) -> usize {
        self.0.load(Ordering::Relaxed)
    }

    fn bump(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

/// What [`QuicClient::start`] hands the driver: the app, the shared
/// reply counter, and the datagrams to inject.
pub type QuicClientStart = (QuicClient, ReplyCounter, Vec<Vec<u8>>);

/// A QUIC client: one Initial-sized datagram, then `follow_ups` smaller
/// datagrams, all injected at once by the driver; records replies.
pub struct QuicClient {
    src_port: u16,
    dst: Ipv4Addr,
    replies: ReplyCounter,
}

impl QuicClient {
    /// Builds the client and the datagrams to send (the driver injects
    /// them). Returns (app, replies-handle, packets).
    pub fn start(
        src: Ipv4Addr,
        src_port: u16,
        dst: Ipv4Addr,
        version: tspu_wire::quic::QuicVersion,
        follow_ups: usize,
    ) -> QuicClientStart {
        let replies = ReplyCounter::default();
        let mut packets = vec![crate::craft::udp_packet(
            src,
            src_port,
            dst,
            443,
            &tspu_wire::quic::initial_payload(version, 1200),
        )];
        for _ in 0..follow_ups {
            packets.push(crate::craft::udp_packet(src, src_port, dst, 443, &[0x5a; 120]));
        }
        let client = QuicClient { src_port, dst, replies: replies.clone() };
        (client, replies, packets)
    }
}

impl Application for QuicClient {
    fn on_packet(&mut self, _now: Time, packet: &[u8]) -> Vec<Output> {
        let Ok(view) = Ipv4Packet::new_checked(packet) else {
            return Vec::new();
        };
        if view.protocol() != Protocol::Udp || view.src_addr() != self.dst {
            return Vec::new();
        }
        let Ok(datagram) = tspu_wire::udp::UdpDatagram::new_checked(view.payload()) else {
            return Vec::new();
        };
        if datagram.dst_port() == self.src_port {
            self.replies.bump();
        }
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{PortBehavior, ServerApp, ServerPort};
    use tspu_netsim::{Network, Route};
    use tspu_wire::tls::ClientHelloBuilder;

    const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 3);
    const SERVER: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 44);

    fn run_client(config: TcpClientConfig, server: ServerApp) -> ClientReport {
        let mut net = Network::with_default_latency();
        let c = net.add_host(CLIENT);
        let s = net.add_host_with_app(SERVER, Box::new(server));
        net.set_route_symmetric(c, s, Route::direct());
        let (app, report, syn) = TcpClient::start(config);
        net.set_app(c, Box::new(app));
        net.send_from(c, syn);
        net.run_until_idle();
        report
    }

    #[test]
    fn tls_client_gets_server_hello() {
        let ch = ClientHelloBuilder::new("example.org").build();
        let config = TcpClientConfig::new(CLIENT, 44000, SERVER, 443, ch);
        let report = run_client(config, ServerApp::https_site(SERVER));
        assert_eq!(report.outcome(), ClientOutcome::GotData);
        assert!(report.read().data.starts_with(&[0x16, 0x03, 0x03]));
    }

    #[test]
    fn echo_client_roundtrip() {
        let config = TcpClientConfig::new(CLIENT, 44001, SERVER, 7, b"bounce".to_vec());
        let report = run_client(config, ServerApp::echo_server(SERVER));
        assert_eq!(report.read().data, b"bounce");
    }

    #[test]
    fn client_against_split_handshake_server() {
        let server = ServerApp::new(SERVER)
            .with_port(ServerPort::new(443, PortBehavior::TlsServer).split_handshake());
        let ch = ClientHelloBuilder::new("example.org").build();
        let config = TcpClientConfig::new(CLIENT, 44002, SERVER, 443, ch);
        let report = run_client(config, server);
        assert_eq!(report.outcome(), ClientOutcome::GotData);
    }

    #[test]
    fn small_window_server_forces_many_segments() {
        let server = ServerApp::new(SERVER)
            .with_port(ServerPort::new(443, PortBehavior::TlsServer).small_window(64));
        let ch = ClientHelloBuilder::new("example.org").build();
        let config = TcpClientConfig::new(CLIENT, 44003, SERVER, 443, ch);
        let report = run_client(config, server);
        // The handshake + data still complete.
        assert_eq!(report.outcome(), ClientOutcome::GotData);
    }

    #[test]
    fn client_side_segmentation() {
        let ch = ClientHelloBuilder::new("example.org").build();
        let mut config = TcpClientConfig::new(CLIENT, 44004, SERVER, 443, ch);
        config.shaping.segment_bytes = Some(16);
        let report = run_client(config, ServerApp::https_site(SERVER));
        assert_eq!(report.outcome(), ClientOutcome::GotData);
    }

    #[test]
    fn silent_outcome_when_no_server() {
        // Host exists but has no app: handshake never completes.
        let mut net = Network::with_default_latency();
        let c = net.add_host(CLIENT);
        let s = net.add_host(SERVER);
        net.set_route_symmetric(c, s, Route::direct());
        let (app, report, syn) =
            TcpClient::start(TcpClientConfig::new(CLIENT, 44005, SERVER, 443, vec![1]));
        net.set_app(c, Box::new(app));
        net.send_from(c, syn);
        net.run_until_idle();
        assert_eq!(report.outcome(), ClientOutcome::NoHandshake);
    }

    #[test]
    fn quic_client_counts_replies() {
        let mut net = Network::with_default_latency();
        let c = net.add_host(CLIENT);
        let s = net.add_host_with_app(SERVER, Box::new(ServerApp::new(SERVER).with_udp_echo(443)));
        net.set_route_symmetric(c, s, Route::direct());
        let (app, replies, packets) =
            QuicClient::start(CLIENT, 45000, SERVER, tspu_wire::quic::QuicVersion::V1, 3);
        net.set_app(c, Box::new(app));
        for packet in packets {
            net.send_from(c, packet);
        }
        net.run_until_idle();
        assert_eq!(replies.get(), 4);
    }
}
