//! `bulk_download`: large transfers through the Fig. 1 lab.
//!
//! A `TcpClient` at the ER-Telecom vantage fetches an 8 MiB page for an
//! unblocked name from a `TlsServerPage` server, 32 times per repetition.
//! Largest packets (1460-byte segments, windowed `tspu-stack` TCP): per-byte
//! costs — a `Vec<u8>` per hop, checksums, inbox copies — dominate, and
//! policy and SNI work is nil after the first segment. A per-packet
//! optimisation predicts no change here; removing a copy predicts the
//! largest change here.
//!
//! No campaign driver exists for this, so the untraced and the traced
//! repetition are the same code; the traced one wraps both applications so
//! that time inside `tspu-stack` shows as its own span under `netsim.run`.

use std::time::{Duration, Instant};

use tspu_netsim::{Application, Output, Time};
use tspu_registry::Universe;
use tspu_stack::{PortBehavior, ServerApp, ServerPort, TcpClient, TcpClientConfig};
use tspu_topology::{policy_from_universe, LabImage, VantageLab};
use tspu_wire::tls::{server_hello_record, ClientHelloBuilder};

use super::{
    policy_lists, vantage_device_packets, Counts, Digest, LedgerTerm, RepOut, RungCost, Size,
    Workload, WorkloadInfo,
};
use crate::trace;

pub struct BulkDownload {
    image: LabImage,
    /// An unblocked name: the device parses one ClientHello and lets the
    /// flow be.
    domain: String,
    downloads: usize,
    page_bytes: usize,
}

const VANTAGE: &str = "ER-Telecom";

/// Records every call into the wrapped application as a `stack.app` span.
struct TracedApp<A> {
    inner: A,
    cell: u32,
}

impl<A: Application> Application for TracedApp<A> {
    fn on_packet(&mut self, now: Time, packet: &[u8]) -> Vec<Output> {
        trace::span("stack.app", self.cell, || self.inner.on_packet(now, packet))
    }

    fn on_timer(&mut self, now: Time) -> Vec<Output> {
        trace::span("stack.app", self.cell, || self.inner.on_timer(now))
    }
}

impl BulkDownload {
    /// What `PortBehavior::TlsServerPage` answers a ClientHello with.
    fn expected_response(&self) -> Vec<u8> {
        let mut response = server_hello_record();
        response.extend_from_slice(&[0x17, 0x03, 0x03]);
        response.extend_from_slice(&(self.page_bytes.min(0xffff) as u16).to_be_bytes());
        response.resize(response.len() + self.page_bytes, 0xda);
        response
    }

    fn server(&self, lab: &VantageLab) -> ServerApp {
        ServerApp::new(lab.us_main_addr).with_port(ServerPort::new(
            443,
            PortBehavior::TlsServerPage(self.page_bytes),
        ))
    }

    fn run(&self, traced: bool) -> RepOut {
        let expected = self.expected_response();
        let mut digest = Digest::default();
        let mut counts = Counts {
            forks: 1,
            client_hellos: self.downloads as u64,
            ..Counts::default()
        };
        let mut failed = 0;
        let mut wall = Duration::ZERO;

        let root = trace::begin("workload", trace::NONE);
        let start = Instant::now();
        let mut lab = trace::span("topology.fork", trace::NONE, || self.image.fork(0));
        let server = self.server(&lab);
        if traced {
            lab.net.set_app(
                lab.us_main,
                Box::new(TracedApp {
                    inner: server,
                    cell: trace::NONE,
                }),
            );
        } else {
            lab.net.set_app(lab.us_main, Box::new(server));
        }
        wall += start.elapsed();
        let vantage = lab.vantage(VANTAGE);
        let (host, addr) = (vantage.host, vantage.addr);

        for download in 0..self.downloads {
            let id = download as u32;
            let hello = ClientHelloBuilder::new(&self.domain).build();
            let (client, report, syn) = TcpClient::start(TcpClientConfig::new(
                addr,
                20_000 + download as u16,
                lab.us_main_addr,
                443,
                hello,
            ));
            let start = Instant::now();
            let cell = trace::begin("cell", id);
            if traced {
                lab.net.set_app(
                    host,
                    Box::new(TracedApp {
                        inner: client,
                        cell: id,
                    }),
                );
            } else {
                lab.net.set_app(host, Box::new(client));
            }
            lab.net.send_from(host, syn);
            trace::span("netsim.run", id, || lab.net.run_until_idle());
            // The inboxes keep a copy of every delivered packet.
            trace::span("load.drain", id, || {
                drop(lab.net.take_inbox(host));
                drop(lab.net.take_inbox(lab.us_main));
            });
            trace::end(cell);
            wall += start.elapsed();

            let received = report.read();
            failed += u64::from(received.data != expected);
            counts.payload_bytes += received.bytes_received as u64;
            digest.u64(received.bytes_received as u64);
            digest.u64(received.data_segments as u64);
        }
        trace::end(root);
        counts.events = lab.net.events_processed();
        counts.device_packets = vantage_device_packets(&lab, VANTAGE);
        RepOut {
            wall,
            nominal_wall_ns: None,
            cells: self.downloads as u64,
            failed,
            digest: digest.finish(),
            counts,
            layer: vec![(
                "stack.mib_per_s",
                counts.payload_bytes as f64 / (1 << 20) as f64 / wall.as_secs_f64(),
            )],
        }
    }
}

impl Workload for BulkDownload {
    const INFO: WorkloadInfo = WorkloadInfo {
        name: "bulk_download",
        why: "32 x 8 MiB TLS page downloads on the Fig. 1 lab: 1460-byte segments, windowed TCP. Per-byte costs (a Vec per hop, checksums, inbox copies) dominate; policy and SNI work is nil. Copy removal shows.",
    };

    fn setup(seed: u64, size: Size) -> Self {
        let universe = Universe::generate(seed);
        let policy = policy_from_universe(&universe, false, true);
        let domain = {
            let policy = policy.read();
            universe
                .tranco
                .iter()
                .map(|d| d.name.clone())
                .find(|name| !policy_lists(&policy, name))
                .expect("the Tranco list holds an unblocked name")
        };
        BulkDownload {
            image: VantageLab::builder().policy(policy).image(),
            domain,
            downloads: size.cells(32, 2),
            page_bytes: match size {
                Size::Full => 8 << 20,
                Size::Check => 256 << 10,
            },
        }
    }

    fn rep(&mut self) -> RepOut {
        self.run(false)
    }

    fn traced(&mut self) -> RepOut {
        self.run(true)
    }

    fn ledger(counts: &Counts, _cells: u64, rung: RungCost) -> Vec<LedgerTerm> {
        let segments = counts.payload_bytes as f64 / 1460.0;
        vec![
            LedgerTerm::events(counts, rung),
            LedgerTerm::device_packets(counts, rung),
            LedgerTerm::new(
                "segments through both connections (built, received, acknowledged)",
                segments,
                rung("stack.conn_segment_ns"),
            ),
            LedgerTerm::new(
                "segment send + inbox take",
                segments,
                rung("netsim.send_take_1400B_ns"),
            ),
        ]
    }
}
