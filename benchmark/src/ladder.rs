//! The ladder: one fixed packet or operation per rung, each rung one
//! layer's public API called alone, timed in batches.
//!
//! A rung reports the median over its batches of wall nanoseconds per
//! operation, with the median absolute deviation and the batch count. The
//! rungs are what a workload's ledger multiplies its counts by; what the
//! products do not cover is `ledger.residual_share`.

use std::collections::VecDeque;
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tspu_core::{
    ConnTracker, DomainSet, FlowKey, Policy, PolicyDelta, PolicyHandle, ShardedConnTracker, Side,
    TspuDevice,
};
use tspu_load::gen::{
    build_schedule, ClientSchedule, FlowSpec, LoadClientApp, LoadProfile, LoadServerApp, LoadStats,
};
use tspu_measure::domains::test_domain;
use tspu_netsim::{
    Application, Direction, Middlebox, Network, Oracle, Output, Route, Time, TimerWheel, TracePoint,
};
use tspu_obs::Snapshot;
use tspu_registry::Universe;
use tspu_stack::craft::TcpPacketSpec;
use tspu_stack::{ServerApp, TcpConnection, TcpState};
use tspu_topology::{
    policy_from_universe, GenParams, Runet, RunetConfig, TopologySpec, VantageLab,
};
use tspu_wire::frag;
use tspu_wire::ipv4::{Ipv4Packet, Ipv4Repr, Protocol};
use tspu_wire::tcp::{TcpFlags, TcpSegment};
use tspu_wire::tls::{extract_sni, ClientHelloBuilder, SniOutcome};

use crate::host;
use crate::stats::{self, Summary};
use crate::workloads::Size;

/// One measured rung: nanoseconds per operation over its batches, at
/// nominal speed (see `host.rs`) so that rungs from different runs, and a
/// rung and a workload's wall time, can be held against each other.
#[derive(Debug, Clone, PartialEq)]
pub struct Rung {
    pub name: &'static str,
    pub ns: Summary,
    pub mad_ns: f64,
    /// The median as measured, and the calibration loop's mean pass
    /// while the ladder ran.
    pub raw_ns: f64,
    pub calib_ns: f64,
}

const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 1, 1, 1);
const SERVER: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 1);
/// A name no list holds: the device evaluates it in full and passes it.
const UNLISTED: &str = "unlisted-video-host.example.org";

/// Collects one rung's per-batch samples.
struct Sampler {
    ns_per_op: Vec<f64>,
}

impl Sampler {
    /// Times `f`, which performs `ops` operations.
    fn batch(&mut self, ops: u64, f: impl FnOnce()) {
        let start = Instant::now();
        f();
        self.record(start.elapsed(), ops);
    }

    fn record(&mut self, elapsed: Duration, ops: u64) {
        self.ns_per_op
            .push(elapsed.as_nanos() as f64 / ops.max(1) as f64);
    }
}

/// How much of each rung to run: thirty batches at full size, three small
/// ones in a check.
#[derive(Clone, Copy)]
struct Plan {
    size: Size,
}

impl Plan {
    fn batches(self, full: usize) -> usize {
        match self.size {
            Size::Full => full,
            Size::Check => 3,
        }
    }

    fn ops(self, full: usize) -> usize {
        self.size.cells(full, 4)
    }
}

fn rung(name: &'static str, batches: usize, mut body: impl FnMut(&mut Sampler)) -> Rung {
    let mut sampler = Sampler {
        ns_per_op: Vec::with_capacity(batches),
    };
    // A rung lasts tens of milliseconds, far less than the box's slow
    // spells: each gets the calibration loop right before and after it.
    let ((), to_nominal) = host::bracketed(|| {
        for _ in 0..batches {
            body(&mut sampler);
        }
    });
    let raw = stats::summary(&sampler.ns_per_op);
    Rung {
        name,
        ns: raw.scaled(to_nominal),
        mad_ns: stats::mad(&sampler.ns_per_op) * to_nominal,
        raw_ns: raw.median,
        calib_ns: host::CALIB_NOMINAL_NS / to_nominal,
    }
}

fn data_packet(src_port: u16, payload: usize) -> Vec<u8> {
    TcpPacketSpec::new(CLIENT, src_port, SERVER, 443, TcpFlags::PSH_ACK)
        .payload(vec![0xab; payload])
        .build()
}

fn ten_hop_network(
    with_device: Option<PolicyHandle>,
) -> (Network, tspu_netsim::HostId, tspu_netsim::HostId) {
    let mut net = Network::new(Duration::from_micros(100));
    net.set_capture(false);
    let a = net.add_host(CLIENT);
    let s = net.add_host(SERVER);
    let hops: Vec<Ipv4Addr> = (0..10u32)
        .map(|i| Ipv4Addr::from(0x0a80_0000 + i))
        .collect();
    let mut route = Route::through(&hops);
    if let Some(policy) = with_device {
        let device = net.add_middlebox(Box::new(TspuDevice::reliable("ladder", policy)));
        route.steps[8]
            .devices
            .push((device, Direction::LocalToRemote));
    }
    net.set_route_symmetric(a, s, route);
    (net, a, s)
}

fn wire_rungs(plan: Plan, out: &mut Vec<Rung>) {
    let packet = data_packet(40_000, 100);
    let ops = plan.ops(20_000);
    out.push(rung("wire.parse_ipv4_tcp_ns", plan.batches(30), |s| {
        s.batch(ops as u64, || {
            for _ in 0..ops {
                let ip = Ipv4Packet::new_checked(black_box(&packet[..])).expect("well-formed");
                let segment = TcpSegment::new_checked(ip.payload()).expect("well-formed");
                black_box((
                    ip.src_addr(),
                    ip.dst_addr(),
                    segment.src_port(),
                    segment.flags(),
                    segment.payload().len(),
                ));
            }
        });
    }));

    let hello = ClientHelloBuilder::new("some-blocked-domain-name.ru").build();
    let ops = plan.ops(10_000);
    out.push(rung("wire.extract_sni_ns", plan.batches(30), |s| {
        s.batch(ops as u64, || {
            for _ in 0..ops {
                assert!(matches!(extract_sni(black_box(&hello)), SniOutcome::Sni(_)));
            }
        });
    }));

    let spec = TcpPacketSpec::new(CLIENT, 41_000, SERVER, 9090, TcpFlags::PSH_ACK)
        .payload(vec![0x5a; 1400]);
    let ops = plan.ops(5_000);
    out.push(rung("wire.build_tcp_1400B_ns", plan.batches(30), |s| {
        s.batch(ops as u64, || {
            for _ in 0..ops {
                black_box(black_box(&spec).build());
            }
        });
    }));

    let datagram = spec.build();
    out.push(rung("wire.fragment_8x_ns", plan.batches(30), |s| {
        s.batch(ops as u64, || {
            for _ in 0..ops {
                black_box(
                    frag::fragment_into(black_box(&datagram), 8).expect("1400 bytes cut in 8"),
                );
            }
        });
    }));
}

fn policy_rungs(plan: Plan, out: &mut Vec<Rung>) {
    let names = plan.ops(100_000).max(1_000);
    let mut set = DomainSet::new();
    for i in 0..names {
        set.insert(format!("domain-{i}.example{}.ru", i % 7));
    }
    // A subdomain of a listed name walks suffixes until the hit; a deep
    // unlisted host walks every level.
    let hit = format!("Www.CDN.domain-{}.example3.ru", (names / 2) | 3);
    let miss = "edge-17.pop.msk.cdn.static.unlisted-video-host.example.com";
    let ops = plan.ops(20_000);
    for (name, host) in [
        ("core.policy_match_hit_ns", hit.as_str()),
        ("core.policy_match_miss_ns", miss),
    ] {
        out.push(rung(name, plan.batches(30), |s| {
            s.batch(ops as u64, || {
                for _ in 0..ops {
                    black_box(set.matches(black_box(host)));
                }
            });
        }));
    }

    // Daily-sized deltas (32 additions, one delisting) against a policy of
    // registry size: the steady-state churn path.
    let mut policy = Policy::permissive();
    policy.sni_rst = DomainSet::from_names((0..names).map(|i| format!("blocked-{i}.example.ru")));
    let mut day = 0u64;
    out.push(rung("core.policy_delta_apply_ns", plan.batches(30), |s| {
        let deltas: Vec<PolicyDelta> = (0..16)
            .map(|_| {
                day += 1;
                PolicyDelta {
                    add_rst: (0..32)
                        .map(|i| format!("fresh-{day}-{i}.example.net"))
                        .collect(),
                    remove_rst: vec![format!("fresh-{}-0.example.net", day - 1)],
                    ..PolicyDelta::default()
                }
            })
            .collect();
        s.batch(deltas.len() as u64, || {
            for delta in &deltas {
                policy.apply_delta(black_box(delta));
            }
        });
    }));
}

fn flow_key(index: u32) -> FlowKey {
    FlowKey {
        local_addr: Ipv4Addr::from(0x0a00_0000 | (index >> 14)),
        local_port: 1024 + (index & 0x3fff) as u16,
        remote_addr: SERVER,
        remote_port: 443,
        protocol: 6,
    }
}

fn conntrack_rungs(plan: Plan, out: &mut Vec<Rung>) {
    let ops = plan.ops(20_000);
    let mut tracker = ConnTracker::new();
    let mut now_us = 0u64;
    out.push(rung(
        "core.conntrack_observe_1flow_ns",
        plan.batches(30),
        |s| {
            s.batch(ops as u64, || {
                for _ in 0..ops {
                    now_us += 1;
                    let entry = tracker.observe_tcp(
                        Time::from_micros(now_us),
                        flow_key(7),
                        Side::Local,
                        TcpFlags::PSH_ACK,
                        100,
                    );
                    black_box(entry.state);
                }
            });
        },
    ));

    // A million resident flows, then lookups of random residents: every
    // access misses the cache the one-flow rung lives in.
    let resident = plan.ops(1_000_000) as u32;
    let mut sharded = ShardedConnTracker::with_capacity_and_shards(1_048_576, 16);
    let now = Time::from_secs(1);
    for index in 0..resident {
        sharded.observe_tcp(now, flow_key(index), Side::Local, TcpFlags::SYN, 0);
    }
    let mut x = 0x2545_f491_4f6c_dd1d_u64;
    out.push(rung(
        "core.conntrack_observe_sharded_1m_ns",
        plan.batches(30),
        |s| {
            s.batch(ops as u64, || {
                for _ in 0..ops {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let key = flow_key((x % u64::from(resident)) as u32);
                    black_box(
                        sharded
                            .observe_tcp(now, key, Side::Local, TcpFlags::ACK, 0)
                            .state,
                    );
                }
            });
        },
    ));
}

fn device_rungs(plan: Plan, policy: &PolicyHandle, out: &mut Vec<Rung>) {
    let ops = plan.ops(20_000);
    let mut device = TspuDevice::reliable("ladder", policy.clone());
    let mut packet = data_packet(40_000, 1000);
    let mut now_us = 0u64;
    out.push(rung("core.device_data_packet_ns", plan.batches(30), |s| {
        s.batch(ops as u64, || {
            for _ in 0..ops {
                now_us += 1;
                black_box(device.process(
                    Time::from_micros(now_us),
                    Direction::LocalToRemote,
                    &mut packet,
                ));
            }
        });
    }));

    // A ClientHello for an unlisted name: parsed, looked up in every list,
    // passed — and evaluated again the next time, since nothing is armed.
    let mut hello = TcpPacketSpec::new(CLIENT, 40_001, SERVER, 443, TcpFlags::PSH_ACK)
        .payload(ClientHelloBuilder::new(UNLISTED).build())
        .build();
    let ops = plan.ops(10_000);
    out.push(rung("core.device_clienthello_ns", plan.batches(30), |s| {
        s.batch(ops as u64, || {
            for _ in 0..ops {
                now_us += 1;
                black_box(device.process(
                    Time::from_micros(now_us),
                    Direction::LocalToRemote,
                    &mut hello,
                ));
            }
        });
    }));

    // One 45-fragment train, the most the device's queue forwards: 44
    // fragments buffered, the 45th flushes them all.
    let trains = plan.ops(200);
    let mut ident = 0u16;
    out.push(rung(
        "core.device_fragment_train_ns",
        plan.batches(30),
        |s| {
            let mut batch: Vec<Vec<Vec<u8>>> = (0..trains)
                .map(|_| {
                    ident = ident.wrapping_add(1);
                    let syn = TcpPacketSpec::new(SERVER, 50_000, CLIENT, 7547, TcpFlags::SYN)
                        .payload(vec![0x5c; 512])
                        .ident(ident)
                        .build();
                    frag::fragment_into(&syn, 45).expect("512 bytes cut in 45")
                })
                .collect();
            let flushed_before = device.frag_cache().flushed();
            s.batch(trains as u64, || {
                for train in &mut batch {
                    for fragment in train {
                        now_us += 1;
                        black_box(device.process(
                            Time::from_micros(now_us),
                            Direction::RemoteToLocal,
                            fragment,
                        ));
                    }
                }
            });
            assert!(
                device.frag_cache().flushed() > flushed_before,
                "no train was flushed"
            );
        },
    ));
}

fn netsim_rungs(plan: Plan, policy: &PolicyHandle, out: &mut Vec<Rung>) {
    // One small packet across ten router hops, nothing attached: the bare
    // cost of a scheduler event in the shallow-queue regime.
    let (mut net, a, s_host) = ten_hop_network(None);
    let packets = plan.ops(2_000);
    let mut port = 1_000u16;
    out.push(rung("netsim.hop_ns", plan.batches(30), |s| {
        let events_before = net.events_processed();
        let start = Instant::now();
        for _ in 0..packets {
            port = port.wrapping_add(1).max(1_000);
            net.send_from(
                a,
                TcpPacketSpec::new(CLIENT, port, SERVER, 443, TcpFlags::SYN).build(),
            );
            net.run_until_idle();
            black_box(net.take_inbox(s_host).len());
        }
        s.record(start.elapsed(), net.events_processed() - events_before);
    }));

    // The scheduler alone, push + pop at constant depth: 16 pending events
    // (the small-heap regime every paper-scale lab stays in) and 50,000
    // (the wheel a population soak runs on).
    let ops = plan.ops(100_000);
    for (name, depth, spread_us) in [
        ("netsim.queue_heap_ns", 16u64, 16u64),
        (
            "netsim.queue_wheel_ns",
            plan.ops(50_000).max(2_048) as u64,
            8_192,
        ),
    ] {
        let mut wheel: TimerWheel<u64> = TimerWheel::new();
        for i in 0..depth {
            wheel.push(Time::from_micros(1 + i % spread_us), i);
        }
        out.push(rung(name, plan.batches(30), |s| {
            s.batch(ops as u64, || {
                for _ in 0..ops {
                    let (now, item) = wheel.pop().expect("standing population");
                    wheel.push(
                        now + Duration::from_micros(1 + (item & (spread_us / 2 - 1))),
                        item,
                    );
                    black_box(item);
                }
            });
        }));
    }

    // A full-size segment handed to the network and taken back out of the
    // destination's inbox over a direct link: the host-boundary copies.
    let mut direct = Network::new(Duration::from_micros(100));
    direct.set_capture(false);
    let (da, ds) = (direct.add_host(CLIENT), direct.add_host(SERVER));
    direct.set_route_symmetric(da, ds, Route::direct());
    let segment = TcpPacketSpec::new(CLIENT, 41_000, SERVER, 9090, TcpFlags::PSH_ACK)
        .payload(vec![0x5a; 1400])
        .build();
    let ops = plan.ops(5_000);
    out.push(rung("netsim.send_take_1400B_ns", plan.batches(30), |s| {
        s.batch(ops as u64, || {
            for _ in 0..ops {
                direct.send_from(da, segment.clone());
                direct.run_until_idle();
                black_box(direct.take_inbox(ds).len());
            }
        });
    }));

    // Capture, by difference: the same packets over the same ten hops and
    // device with capture off and on.
    let (mut net, a, s_host) = ten_hop_network(Some(policy.clone()));
    let packets = plan.ops(1_000);
    let mut pass = |net: &mut Network, capture: bool| {
        net.set_capture(capture);
        let start = Instant::now();
        for _ in 0..packets {
            port = port.wrapping_add(1).max(1_000);
            net.send_from(
                a,
                TcpPacketSpec::new(CLIENT, port, SERVER, 443, TcpFlags::SYN).build(),
            );
            net.run_until_idle();
            black_box(net.take_inbox(s_host).len());
            black_box(net.take_captures().len());
        }
        start.elapsed().as_nanos() as f64
    };
    let mut flip = false;
    out.push(rung(
        "netsim.capture_ns_per_packet",
        plan.batches(30),
        |s| {
            // Alternate which pass goes first so drift cancels.
            flip = !flip;
            let (on, off) = if flip {
                let on = pass(&mut net, true);
                (on, pass(&mut net, false))
            } else {
                let off = pass(&mut net, false);
                (pass(&mut net, true), off)
            };
            s.ns_per_op.push((on - off) / packets as f64);
        },
    ));
}

fn oracle_rung(plan: Plan, universe: &Universe, policy: &PolicyHandle, out: &mut Vec<Rung>) {
    // A capture of real probes, listed and unlisted names alike.
    let mut lab = VantageLab::builder().policy(policy.clone()).build();
    lab.net.set_capture(true);
    let domains = crate::workloads::mixed_domains(universe, plan.ops(400).max(10));
    for (index, domain) in domains.iter().enumerate() {
        black_box(test_domain(&mut lab, domain, 3_000 + index as u16));
    }
    let captures = lab.net.take_captures();
    let sent = captures
        .iter()
        .filter(|c| matches!(c.point, TracePoint::HostTx(_)))
        .count();
    let oracle = Oracle::new(lab.oracle_spec());
    out.push(rung(
        "netsim.oracle_replay_ns_per_packet",
        plan.batches(30),
        |s| {
            s.batch(sent as u64, || {
                let report = oracle.check(black_box(&captures));
                assert!(
                    report.is_clean(),
                    "the ladder's capture violates the oracle: {report}"
                );
            });
        },
    ));
}

/// Runs a client connection against a server application in memory until
/// both fall silent. Returns the packets exchanged.
fn converse(client: &mut TcpConnection, server: &mut ServerApp, request: &[u8]) -> u64 {
    let (client_addr, server_addr) = (client.local_addr, client.peer_addr);
    let mut packets = 0;
    let mut requested = false;
    loop {
        if client.state() == TcpState::Established && !requested {
            requested = true;
            client.send(request);
        }
        let outgoing = client.poll_output();
        if outgoing.is_empty() {
            return packets;
        }
        for repr in outgoing {
            let segment = repr.build(client_addr, server_addr);
            let packet = Ipv4Repr::new(client_addr, server_addr, Protocol::Tcp, segment.len())
                .build(&segment);
            packets += 1;
            for reply in server.on_packet(Time::ZERO, &packet) {
                let Output::Send { packet, .. } = reply else {
                    continue;
                };
                packets += 1;
                let ip =
                    Ipv4Packet::new_checked(&packet[..]).expect("the server builds valid packets");
                client.on_segment(&TcpSegment::new_checked(ip.payload()).expect("valid segment"));
            }
        }
        black_box(client.take_events());
    }
}

fn stack_rungs(plan: Plan, out: &mut Vec<Rung>) {
    // A whole short connection — handshake, ClientHello, ServerHello —
    // between the client state machine and the server application, per
    // packet either side handled.
    let hello = ClientHelloBuilder::new(UNLISTED).build();
    let connections = plan.ops(500);
    let mut port = 10_000u16;
    out.push(rung("stack.server_turnaround_ns", plan.batches(30), |s| {
        let mut server = ServerApp::https_site(SERVER);
        let start = Instant::now();
        let mut packets = 0;
        for _ in 0..connections {
            port = port.wrapping_add(1).max(10_000);
            let mut client = TcpConnection::new(CLIENT, port, SERVER, 443);
            client.connect();
            packets += converse(&mut client, &mut server, &hello);
        }
        s.record(start.elapsed(), packets);
    }));

    // Established connection, full-size segments one way and their
    // acknowledgements back: the sans-IO state machine and the segment
    // builder alone, per data segment.
    let mut a = TcpConnection::new(CLIENT, 20_000, SERVER, 443);
    let mut b = TcpConnection::new(SERVER, 443, CLIENT, 20_000);
    b.listen();
    a.connect();
    let pump = |from: &mut TcpConnection, to: &mut TcpConnection| -> usize {
        let (src, dst) = (from.local_addr, from.peer_addr);
        let reprs = from.poll_output();
        for repr in &reprs {
            let bytes = repr.build(src, dst);
            to.on_segment(&TcpSegment::new_checked(&bytes[..]).expect("valid segment"));
        }
        reprs.len()
    };
    while pump(&mut a, &mut b) + pump(&mut b, &mut a) > 0 {}
    assert_eq!(
        (a.state(), b.state()),
        (TcpState::Established, TcpState::Established)
    );
    let payload = vec![0x5a; 1400];
    let segments = plan.ops(5_000);
    out.push(rung("stack.conn_segment_ns", plan.batches(30), |s| {
        s.batch(segments as u64, || {
            for _ in 0..segments {
                a.send(&payload);
                while pump(&mut a, &mut b) + pump(&mut b, &mut a) > 0 {}
                black_box(b.take_events());
            }
        });
    }));
}

fn topology_rungs(
    plan: Plan,
    seed: u64,
    universe: &Universe,
    policy: &PolicyHandle,
    out: &mut Vec<Rung>,
) {
    let image = VantageLab::builder().policy(policy.clone()).image();
    let forks = plan.ops(2_000);
    out.push(rung("topology.fork_fig1_ns", plan.batches(30), |s| {
        s.batch(forks as u64, || {
            for index in 0..forks {
                black_box(image.fork(index));
            }
        });
    }));

    // Building the 5000-AS image is a second of work: a handful of
    // batches, each one whole build, then forks of the last.
    let ases = plan.size.cells(5_000, 50);
    let mut image = None;
    out.push(rung("topology.gen_ns_per_as", plan.batches(5), |s| {
        s.batch(ases as u64, || {
            image = Some(
                VantageLab::builder()
                    .policy(policy.clone())
                    .topology(TopologySpec::Generated(GenParams::new(seed, ases)))
                    .image(),
            );
        });
    }));
    let image = image.expect("at least one batch ran");
    let forks = plan.ops(400);
    out.push(rung("topology.fork_as5000_ns", plan.batches(30), |s| {
        s.batch(forks as u64, || {
            for index in 0..forks {
                black_box(image.fork(index));
            }
        });
    }));

    let config = RunetConfig {
        seed,
        scale: match plan.size {
            Size::Full => 0.001,
            Size::Check => 0.000_05,
        },
        num_ases: plan.size.cells(4_986, 160),
        device_failure: 0.0,
        ..RunetConfig::default()
    };
    out.push(rung(
        "topology.runet_gen_ns_per_endpoint",
        plan.batches(10),
        |s| {
            let start = Instant::now();
            let country = Runet::generate(universe, config);
            s.record(start.elapsed(), country.endpoints.len() as u64);
        },
    ));
}

fn load_rungs(plan: Plan, seed: u64, out: &mut Vec<Rung>) {
    let names: Vec<Arc<str>> = (0..plan.ops(100_000).max(100))
        .map(|i| Arc::from(format!("site-{i}.example.ru")))
        .collect();
    let blocked: Vec<bool> = (0..names.len()).map(|i| i % 10 == 0).collect();
    let profile = LoadProfile {
        seed,
        flows: plan.ops(20_000),
        clients: 64,
        universe_domains: names.len(),
        ..LoadProfile::default()
    };
    out.push(rung("load.schedule_ns_per_flow", plan.batches(30), |s| {
        s.batch(profile.flows as u64, || {
            black_box(build_schedule(&profile, &names, &blocked));
        });
    }));

    // Client and server load applications handed each other's packets
    // directly: every flow's whole lifecycle, per application call.
    let flows = plan.ops(2_000);
    let client_addr = Ipv4Addr::new(10, 77, 0, 1);
    let server_addr = Ipv4Addr::new(93, 184, 216, 34);
    out.push(rung("load.client_step_ns", plan.batches(30), |s| {
        let stats: Arc<Mutex<LoadStats>> = Arc::default();
        let open = (0..flows)
            .map(|i| FlowSpec {
                at: Time::ZERO,
                domain: Arc::clone(&names[i % names.len()]),
                blocked: false,
            })
            .collect();
        let schedule = ClientSchedule {
            open,
            closed: Vec::new(),
        };
        let mut client = LoadClientApp::new(
            client_addr,
            server_addr,
            443,
            schedule,
            8,
            Arc::clone(&stats),
        );
        let mut server = LoadServerApp::new(server_addr, 400, Arc::clone(&stats));
        let start = Instant::now();
        let mut calls = 1u64;
        let mut in_flight: VecDeque<(bool, Vec<u8>)> = VecDeque::new();
        let queue =
            |to_server: bool, outputs: Vec<Output>, in_flight: &mut VecDeque<(bool, Vec<u8>)>| {
                for output in outputs {
                    if let Output::Send { packet, .. } = output {
                        in_flight.push_back((to_server, packet));
                    }
                }
            };
        queue(true, client.on_timer(Time::ZERO), &mut in_flight);
        while let Some((to_server, packet)) = in_flight.pop_front() {
            calls += 1;
            if to_server {
                queue(false, server.on_packet(Time::ZERO, &packet), &mut in_flight);
            } else {
                queue(true, client.on_packet(Time::ZERO, &packet), &mut in_flight);
            }
        }
        s.record(start.elapsed(), calls);
        assert_eq!(
            stats.lock().expect("apps do not panic").got_data,
            flows as u64
        );
    }));
}

fn obs_rung(plan: Plan, policy: &PolicyHandle, out: &mut Vec<Rung>) {
    // One scenario's snapshot, as a sweep cell hands it to the campaign.
    let mut lab = VantageLab::builder().policy(policy.clone()).build();
    black_box(test_domain(&mut lab, UNLISTED, 3_000));
    let cell = lab.take_obs().with_scenario(1);
    let merges = plan.ops(1_000);
    out.push(rung("obs.snapshot_merge_ns", plan.batches(30), |s| {
        let mut campaign = Snapshot::new();
        s.batch(merges as u64, || {
            for _ in 0..merges {
                campaign.merge(black_box(&cell));
            }
        });
        black_box(campaign.metrics().len());
    }));
}

/// Runs every rung, in the order `metrics::LADDER` lists them.
pub fn run(seed: u64, size: Size) -> Vec<Rung> {
    let plan = Plan { size };
    let universe = Universe::generate(seed);
    let policy = policy_from_universe(&universe, false, true);
    let mut rungs = Vec::new();
    wire_rungs(plan, &mut rungs);
    policy_rungs(plan, &mut rungs);
    conntrack_rungs(plan, &mut rungs);
    device_rungs(plan, &policy, &mut rungs);
    netsim_rungs(plan, &policy, &mut rungs);
    oracle_rung(plan, &universe, &policy, &mut rungs);
    stack_rungs(plan, &mut rungs);
    topology_rungs(plan, seed, &universe, &policy, &mut rungs);
    load_rungs(plan, seed, &mut rungs);
    obs_rung(plan, &policy, &mut rungs);
    // The loop itself, as measured: what the others are scaled by.
    let passes: Vec<f64> = (0..plan.batches(30)).map(|_| host::calibrate()).collect();
    let own = stats::summary(&passes);
    rungs.push(Rung {
        name: "host.calib_ns",
        ns: own,
        mad_ns: stats::mad(&passes),
        raw_ns: own.median,
        calib_ns: own.median,
    });

    let order = |name: &str| {
        crate::metrics::LADDER
            .iter()
            .position(|def| def.name == name)
    };
    rungs.sort_by_key(|r| {
        order(r.name).unwrap_or_else(|| panic!("rung {} is not in metrics::LADDER", r.name))
    });
    assert_eq!(
        rungs.len(),
        crate::metrics::LADDER.len(),
        "a ladder metric has no rung"
    );
    rungs
}
