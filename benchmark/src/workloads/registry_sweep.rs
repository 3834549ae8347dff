//! `registry_sweep` and `as5000_sweep`: the §6 registry test, one scenario
//! per domain, on the Fig. 1 lab and on a generated 5000-AS graph.
//!
//! The two share everything but the topology, which is the point: on Fig. 1
//! a cell is mostly probe (handshake, one ClientHello, verdict); on the
//! generated graph the fork of a large image and the route-arena lookups
//! take over and the device does little.

use std::time::Instant;

use tspu_measure::domains::{test_domain, DomainVerdict};
use tspu_measure::sweep::{scenario_port, RunOpts, ScanPool, SweepSpec};
use tspu_registry::Universe;
use tspu_topology::{GenParams, TopologySpec, VantageLab};

use super::{
    campaign_domains, policy_lists, vantage_device_packets, Counts, Digest, LedgerTerm, RepOut,
    RungCost, Size, Workload, WorkloadInfo,
};
use crate::trace;

pub struct Sweep<const GENERATED: bool> {
    spec: SweepSpec,
    /// Ground truth per domain: does any list the devices enforce hold it?
    listed: Vec<bool>,
}

pub type Fig1 = Sweep<false>;
pub type As5000 = Sweep<true>;

fn verdict_code(verdict: DomainVerdict) -> u8 {
    match verdict {
        DomainVerdict::Open => 0,
        DomainVerdict::Sni1 => 1,
        DomainVerdict::Sni2 => 2,
        DomainVerdict::Sni4 => 4,
        DomainVerdict::Throttled => 3,
    }
}

impl<const GENERATED: bool> Sweep<GENERATED> {
    /// Checks verdicts against the policy and hashes them.
    fn score(&self, verdicts: &[DomainVerdict]) -> (u64, u64) {
        let mut digest = Digest::default();
        let mut failed = self.listed.len().abs_diff(verdicts.len()) as u64;
        for (verdict, &listed) in verdicts.iter().zip(&self.listed) {
            digest.bytes(&[verdict_code(*verdict)]);
            failed += u64::from((*verdict != DomainVerdict::Open) != listed);
        }
        (failed, digest.finish())
    }

    /// Packets seen by the devices on the path scenario `port` probes.
    fn device_packets(lab: &VantageLab, port: u16) -> u64 {
        match &lab.gen {
            Some(gen) => {
                let client = &gen.clients[port as usize % gen.clients.len()];
                client
                    .primary
                    .devices
                    .iter()
                    .map(|&(device, _)| {
                        lab.net
                            .middlebox(gen.devices[device].handle)
                            .stats()
                            .packets_seen
                    })
                    .sum()
            }
            None => vantage_device_packets(lab, "ER-Telecom"),
        }
    }
}

impl<const GENERATED: bool> Workload for Sweep<GENERATED> {
    const INFO: WorkloadInfo = if GENERATED {
        WorkloadInfo {
            name: "as5000_sweep",
            why: "30k-domain sweep on a generated 5000-AS graph: forking a large image is two fifths of the cell and route-arena lookups matter; the device does little, no wheel or flow-table pressure builds.",
        }
    } else {
        WorkloadInfo {
            name: "registry_sweep",
            why: "The headline run: 100k-domain registry sweep on the Fig. 1 lab, a tenth blocked. Short flows, one tracked flow, small event queue, smallest packets: per-cell and per-packet overhead dominate.",
        }
    };

    fn setup(seed: u64, size: Size) -> Self {
        let universe = Universe::generate(seed);
        let (domains, topology) = if GENERATED {
            let ases = size.cells(5_000, 50);
            (
                size.cells(30_000, 300),
                TopologySpec::Generated(GenParams::new(seed, ases)),
            )
        } else {
            (size.cells(100_000, 1_000), TopologySpec::Fig1)
        };
        let spec = SweepSpec::from_universe(&universe, campaign_domains(&universe, domains))
            .with_topology(topology);
        let listed = {
            let policy = spec.policy.read();
            spec.domains
                .iter()
                .map(|name| policy_lists(&policy, name))
                .collect()
        };
        Sweep { spec, listed }
    }

    fn rep(&mut self) -> RepOut {
        let pool = ScanPool::new(1);
        let start = Instant::now();
        let run = self.spec.run(&pool, &RunOpts::quick());
        let wall = start.elapsed();
        let (failed, digest) = self.score(&run.verdicts);
        RepOut {
            wall,
            cells: self.spec.len() as u64,
            failed,
            digest,
            ..RepOut::default()
        }
    }

    fn traced(&mut self) -> RepOut {
        let mut counts = Counts::default();
        let mut verdicts = Vec::with_capacity(self.spec.len());
        let start = Instant::now();
        let root = trace::begin("workload", trace::NONE);
        let image = trace::span("topology.image", trace::NONE, || {
            VantageLab::builder()
                .policy(self.spec.policy.clone())
                .topology(self.spec.topology.clone())
                .image()
        });
        for (index, domain) in self.spec.domains.iter().enumerate() {
            let id = index as u32;
            let port = scenario_port(index);
            let cell = trace::begin("cell", id);
            let mut lab = trace::span("topology.fork", id, || image.fork(index));
            let verdict = trace::span("measure.probe", id, || test_domain(&mut lab, domain, port));
            trace::end(cell);
            counts.events += lab.net.events_processed();
            counts.device_packets += Self::device_packets(&lab, port);
            // An RST verdict is followed by the split-handshake probe.
            counts.client_hellos +=
                1 + u64::from(matches!(verdict, DomainVerdict::Sni1 | DomainVerdict::Sni4));
            verdicts.push(verdict);
        }
        trace::end(root);
        let wall = start.elapsed();
        counts.forks = verdicts.len() as u64;
        if let TopologySpec::Generated(params) = &self.spec.topology {
            counts.image_ases = params.num_ases as u64;
        }
        let (failed, digest) = self.score(&verdicts);
        RepOut {
            wall,
            nominal_wall_ns: None,
            cells: verdicts.len() as u64,
            failed,
            digest,
            counts,
            layer: Vec::new(),
        }
    }

    fn ledger(counts: &Counts, cells: u64, rung: RungCost) -> Vec<LedgerTerm> {
        let fork = if GENERATED {
            "topology.fork_as5000_ns"
        } else {
            "topology.fork_fig1_ns"
        };
        let packets = counts.device_packets as f64;
        vec![
            LedgerTerm::new(
                "image build, per AS",
                counts.image_ases as f64,
                rung("topology.gen_ns_per_as"),
            ),
            LedgerTerm::new("lab forks", cells as f64, rung(fork)),
            LedgerTerm::events(counts, rung),
            LedgerTerm::device_packets(counts, rung),
            LedgerTerm::client_hellos(counts.client_hellos, rung),
            LedgerTerm::new(
                "endpoint packet parses",
                packets,
                rung("wire.parse_ipv4_tcp_ns"),
            ),
        ]
    }
}
