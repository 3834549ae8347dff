//! Steady-state traffic driver: a self-rescheduling client that opens a
//! fresh TLS connection to the same name every `period` of virtual time.
//!
//! This is the traffic half of the registry-churn experiments: while a
//! `PolicyUpdater` fires blocklist deltas at scheduled virtual instants,
//! a [`SteadyProbe`] keeps identical flows running through the path, so
//! the first probe to draw a RST timestamps exactly when the new rule
//! started being enforced. Every probe is its own flow on its own source
//! port (a pure function of the probe index), which keeps the driver —
//! and everything measured from it — deterministic.

use std::net::Ipv4Addr;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use tspu_netsim::{Application, Output, Time};
use tspu_wire::ipv4::{Ipv4Packet, Protocol};
use tspu_wire::tcp::TcpSegment;

use crate::conn::{incrementing, ConnEvent, TcpConnection, TcpState};

/// What one probe connection observed, all in virtual time.
#[derive(Debug, Clone)]
pub struct ProbeRecord {
    pub index: u32,
    pub port: u16,
    /// When the SYN left the client.
    pub started_at: Time,
    pub established_at: Option<Time>,
    pub reset_at: Option<Time>,
    /// Response bytes received (the open-before-the-delta signal).
    pub bytes_received: usize,
}

/// Shared observation log of a [`SteadyProbe`] — clone before installing
/// the app, read after the run.
#[derive(Clone, Default)]
pub struct ProbeLog {
    inner: Arc<Mutex<ProbeLogInner>>,
}

#[derive(Default)]
struct ProbeLogInner {
    probes: Vec<ProbeRecord>,
    first_reset: Option<(u32, Time)>,
}

impl ProbeLog {
    fn read(&self) -> MutexGuard<'_, ProbeLogInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The probes launched so far, in launch order.
    pub fn probes(&self) -> Vec<ProbeRecord> {
        self.read().probes.clone()
    }

    /// `(probe index, virtual instant)` of the first RST any probe saw.
    pub fn first_reset(&self) -> Option<(u32, Time)> {
        self.read().first_reset
    }

    /// Probes that completed with response data before the first reset.
    pub fn open_before_reset(&self) -> usize {
        let inner = self.read();
        inner.probes.iter().filter(|p| p.bytes_received > 0 && p.reset_at.is_none()).count()
    }

    /// Handshake RTT estimate: `established - started` of the first probe
    /// that established (SYN out to SYN/ACK back is one round trip).
    pub fn handshake_rtt(&self) -> Option<Duration> {
        self.read()
            .probes
            .iter()
            .find_map(|p| Some(p.established_at?.since(p.started_at)))
    }
}

/// Configuration of a [`SteadyProbe`].
#[derive(Debug, Clone)]
pub struct SteadyProbeConfig {
    pub src: Ipv4Addr,
    pub dst: Ipv4Addr,
    pub dst_port: u16,
    /// Source port of probe `i` is `port_base + i` (caller keeps the range
    /// clear of other traffic).
    pub port_base: u16,
    /// Virtual time between probe launches.
    pub period: Duration,
    /// Bytes sent once established (e.g. a ClientHello).
    pub request: Vec<u8>,
    /// Stop after this many probes even if no reset ever arrives.
    pub max_probes: u32,
}

struct ActiveProbe {
    index: u32,
    port: u16,
    conn: TcpConnection,
    request_sent: bool,
}

/// The driver application. Install on the client host and bootstrap with
/// one `Network::arm_timer(host, Duration::ZERO)`; it reschedules itself
/// every `period` until it observes a RST or exhausts `max_probes`.
pub struct SteadyProbe {
    config: SteadyProbeConfig,
    active: Vec<ActiveProbe>,
    launched: u32,
    ip_ident: u16,
    log: ProbeLog,
}

impl SteadyProbe {
    /// Builds the driver and its shared log.
    pub fn new(config: SteadyProbeConfig) -> (SteadyProbe, ProbeLog) {
        let log = ProbeLog::default();
        let probe = SteadyProbe {
            ip_ident: config.port_base ^ 0x3c3c,
            config,
            active: Vec::new(),
            launched: 0,
            log: log.clone(),
        };
        (probe, log)
    }

    /// Drains `slot`'s connection into `outputs`; every packet takes the
    /// next IP identification of the driver's one counter.
    fn transmit(&mut self, slot: usize, outputs: &mut Vec<Output>) {
        self.active[slot]
            .conn
            .poll_packets(incrementing(&mut self.ip_ident), |packet| outputs.push(Output::send(packet)));
    }

    /// Logs what the last segment meant for probe `slot` (`bytes` is the
    /// payload length it delivered), sends the request once established,
    /// and drains the connection.
    fn pump(&mut self, slot: usize, now: Time, bytes: usize) -> Vec<Output> {
        let probe = &mut self.active[slot];
        let index = probe.index;
        let mut established = None;
        let mut reset = None;
        for event in probe.conn.take_events() {
            match event {
                ConnEvent::Established => established = Some(now),
                ConnEvent::ResetReceived => reset = Some(now),
            }
        }
        if probe.conn.state() == TcpState::Established && !probe.request_sent {
            probe.request_sent = true;
            probe.conn.send(&self.config.request);
        }
        let mut outputs = Vec::new();
        self.transmit(slot, &mut outputs);
        let mut inner = self.log.read();
        if let Some(at) = reset {
            if inner.first_reset.is_none() {
                inner.first_reset = Some((index, at));
            }
        }
        let record = &mut inner.probes[index as usize];
        if let Some(at) = established {
            record.established_at.get_or_insert(at);
        }
        if let Some(at) = reset {
            record.reset_at.get_or_insert(at);
        }
        record.bytes_received += bytes;
        outputs
    }
}

impl Application for SteadyProbe {
    fn on_packet(&mut self, now: Time, packet: &[u8]) -> Vec<Output> {
        let Ok(view) = Ipv4Packet::new_checked(packet) else {
            return Vec::new();
        };
        if view.protocol() != Protocol::Tcp || view.src_addr() != self.config.dst {
            return Vec::new();
        }
        let Ok(segment) = TcpSegment::new_checked(view.payload()) else {
            return Vec::new();
        };
        let Some(slot) = self.active.iter().position(|p| p.port == segment.dst_port()) else {
            return Vec::new();
        };
        let bytes = self.active[slot].conn.on_segment(&segment).len();
        self.pump(slot, now, bytes)
    }

    fn on_timer(&mut self, now: Time) -> Vec<Output> {
        if self.log.first_reset().is_some() || self.launched >= self.config.max_probes {
            return Vec::new();
        }
        let index = self.launched;
        self.launched += 1;
        let port = self.config.port_base.wrapping_add(index as u16);
        let mut conn =
            TcpConnection::new(self.config.src, port, self.config.dst, self.config.dst_port);
        conn.connect();
        self.active.push(ActiveProbe { index, port, conn, request_sent: false });
        self.log.read().probes.push(ProbeRecord {
            index,
            port,
            started_at: now,
            established_at: None,
            reset_at: None,
            bytes_received: 0,
        });
        let mut outputs = Vec::new();
        self.transmit(self.active.len() - 1, &mut outputs);
        outputs.push(Output::Timer { delay: self.config.period });
        outputs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerApp;
    use tspu_netsim::{Network, Route};
    use tspu_wire::tls::ClientHelloBuilder;

    const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 9);
    const SERVER: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 50);

    #[test]
    fn probes_run_at_cadence_until_cap() {
        let mut net = Network::with_default_latency();
        let c = net.add_host(CLIENT);
        let s = net.add_host_with_app(SERVER, Box::new(ServerApp::https_site(SERVER)));
        net.set_route_symmetric(c, s, Route::direct());
        let (probe, log) = SteadyProbe::new(SteadyProbeConfig {
            src: CLIENT,
            dst: SERVER,
            dst_port: 443,
            port_base: 40_000,
            period: Duration::from_millis(10),
            request: ClientHelloBuilder::new("example.org").build(),
            max_probes: 5,
        });
        net.set_app(c, Box::new(probe));
        net.arm_timer(c, Duration::ZERO);
        net.run_until_idle();
        let probes = log.probes();
        assert_eq!(probes.len(), 5);
        for (i, p) in probes.iter().enumerate() {
            assert_eq!(p.started_at, Time::ZERO + Duration::from_millis(10 * i as u64));
            assert!(p.bytes_received > 0, "probe {i} got no data");
            assert!(p.reset_at.is_none());
        }
        assert_eq!(log.first_reset(), None);
        assert_eq!(log.open_before_reset(), 5);
        let rtt = log.handshake_rtt();
        assert!(rtt.is_some_and(|rtt| rtt > Duration::ZERO), "no handshake round trip: {rtt:?}");
    }
}
