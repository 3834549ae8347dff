//! `registry_churn`: the February–March 2022 escalation replayed as
//! policy deltas fired into labs with live flows.
//!
//! The only workload that writes the policy while flows read it: a
//! `PolicyUpdater` applies the day's `PolicyDelta` while `SteadyProbe`
//! flows cross the device, so cached verdicts and the epoch mirror are
//! invalidated mid-flow. Every cell also brings its lab to the previous
//! registry day by replaying all earlier deltas, which is where most of a
//! cell's time goes.

use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

use tspu_core::{Policy, PolicyDelta, PolicyHandle, PolicyUpdater};
use tspu_measure::churn::{churn_delta, ChurnCampaign, DeltaConvergence};
use tspu_measure::sweep::ScanPool;
use tspu_registry::{ChurnSchedule, Universe};
use tspu_stack::{ServerApp, SteadyProbe, SteadyProbeConfig};
use tspu_topology::{LabImage, VantageLab};
use tspu_wire::tls::ClientHelloBuilder;

use super::{
    vantage_device_packets, Counts, Digest, LedgerTerm, RepOut, RungCost, Size, Workload,
    WorkloadInfo,
};
use crate::trace;

pub struct RegistryChurn {
    universe: Universe,
    campaign: ChurnCampaign,
    /// Whole-window replays per repetition: one replay is a few dozen
    /// cells, too short to time alone.
    replays: usize,
}

/// Cells a full-size repetition aims for, so the tail percentile of the
/// traced cells has its ten samples and a repetition takes most of a
/// second whatever the seed's schedule length.
const CELLS_PER_REP: usize = 2_500;

// The two constants `ChurnCampaign`'s private cell uses; the traced cell
// must send byte-identical traffic to produce an identical report.
const CONTROLLER: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 200);
const PROBE_PORT_BASE: u16 = 40_000;

impl RegistryChurn {
    fn schedule(&self) -> ChurnSchedule {
        ChurnSchedule::from_universe(&self.universe, &self.campaign.churn)
    }

    /// A cell converged when the first reset followed its delta within one
    /// probe period plus the time a probe needs to reach its ClientHello.
    fn converged(&self, cell: &DeltaConvergence) -> bool {
        let limit = self.campaign.probe_period.as_micros() as u64 + 2 * cell.handshake_rtt_us;
        cell.enforced_at_us > 0 && cell.convergence_us <= limit
    }

    fn score(
        &self,
        cells: &[DeltaConvergence],
        median_convergence_us: u64,
        digest: &mut Digest,
    ) -> u64 {
        digest.u64(median_convergence_us);
        for cell in cells {
            digest.bytes(format!("{cell:?}").as_bytes());
        }
        cells.iter().filter(|cell| !self.converged(cell)).count() as u64
    }

    /// `ChurnCampaign`'s cell, rebuilt from the public pieces it is made
    /// of, with a span around each call into a layer.
    fn traced_cell(
        &self,
        image: &LabImage,
        schedule: &ChurnSchedule,
        index: usize,
        pos: usize,
        id: u32,
        counts: &mut Counts,
    ) -> DeltaConvergence {
        let campaign = &self.campaign;
        let batches = schedule.batches();
        let batch = &batches[pos];

        let handle = trace::span("core.updater", id, || {
            let mut policy = Policy::permissive();
            for prior in &batches[..pos] {
                policy.apply_delta(&churn_delta(prior));
            }
            PolicyHandle::new(policy)
        });
        counts.delta_applies += pos as u64;
        let mut lab = trace::span("topology.fork", id, || {
            let mut lab = image.fork(index);
            lab.set_policy(handle.clone());
            lab
        });
        counts.forks += 1;

        let target = batch
            .add
            .first()
            .expect("cells are add-bearing batches")
            .clone();
        let vantage = lab.vantage(campaign.vantage);
        let (probe_host, probe_addr) = (vantage.host, vantage.addr);
        let (probe, probe_log) = SteadyProbe::new(SteadyProbeConfig {
            src: probe_addr,
            dst: lab.us_main_addr,
            dst_port: 443,
            port_base: PROBE_PORT_BASE,
            period: campaign.probe_period,
            request: ClientHelloBuilder::new(&target).build(),
            max_probes: campaign.max_probes,
        });
        let delta_at = campaign.probe_period * campaign.warmup_probes;
        let updater = PolicyUpdater::new(handle.clone(), vec![(delta_at, churn_delta(batch))]);
        let update_log = updater.log();
        let first_offset = updater.first_offset().expect("one scheduled delta");
        lab.net.set_app(
            lab.us_main,
            Box::new(ServerApp::https_site(lab.us_main_addr)),
        );
        lab.net.set_app(probe_host, Box::new(probe));
        lab.net.arm_timer(probe_host, Duration::ZERO);
        let controller = lab.net.add_host(CONTROLLER);
        lab.net.set_app(controller, Box::new(updater));
        lab.net.arm_timer(controller, first_offset);

        trace::span("netsim.run", id, || lab.net.run_until_idle());

        let applied = update_log
            .lock()
            .expect("the updater ran on this thread and did not panic")
            .first()
            .cloned()
            .expect("scheduled delta fired");
        let (_, enforced_at) = probe_log.first_reset().expect("delta enforced");
        let applied_at_us = applied.at.as_micros();
        let enforced_at_us = enforced_at.as_micros();

        let stale_pinned = trace::span("core.updater", id, || {
            handle.apply_delta(&PolicyDelta::new());
            let now = lab.net.now();
            let mut stale = 0;
            for vantage in &lab.vantages {
                stale += lab
                    .net
                    .middlebox(vantage.sym_device)
                    .stale_verdict_audit(now);
                for &upstream in &vantage.upstream_devices {
                    stale += lab.net.middlebox(upstream).stale_verdict_audit(now);
                }
            }
            stale
        });

        counts.events += lab.net.events_processed();
        counts.device_packets += vantage_device_packets(&lab, campaign.vantage);
        counts.client_hellos += probe_log.probes().len() as u64;

        DeltaConvergence {
            day: batch.day,
            target,
            ops: applied.ops,
            epoch: applied.epoch,
            applied_at_us,
            enforced_at_us,
            convergence_us: enforced_at_us.saturating_sub(applied_at_us),
            handshake_rtt_us: probe_log
                .handshake_rtt()
                .map_or(0, |rtt| rtt.as_micros() as u64),
            open_before: probe_log.open_before_reset(),
            stale_pinned,
            isp_lag_us: campaign
                .isps
                .iter()
                .map(|&isp| (isp, campaign.isp_lag.lag(isp, pos).as_micros() as u64))
                .collect(),
        }
    }
}

fn median_convergence_us(cells: &[DeltaConvergence]) -> u64 {
    let mut samples: Vec<u64> = cells.iter().map(|c| c.convergence_us).collect();
    samples.sort_unstable();
    samples.get(samples.len() / 2).copied().unwrap_or(0)
}

impl Workload for RegistryChurn {
    const INFO: WorkloadInfo = WorkloadInfo {
        name: "registry_churn",
        why: "2022 escalation replay: a PolicyUpdater applies deltas while SteadyProbe flows read the policy. The only workload that writes the policy mid-flow, invalidating cached verdicts and the epoch mirror.",
    };

    fn setup(seed: u64, size: Size) -> Self {
        let universe = Universe::generate(seed);
        let campaign = ChurnCampaign::escalation_2022();
        let mut workload = RegistryChurn {
            universe,
            campaign,
            replays: 1,
        };
        let cells = workload
            .schedule()
            .batches()
            .iter()
            .filter(|b| !b.add.is_empty())
            .count();
        workload.replays = size.cells(CELLS_PER_REP, 1).div_ceil(cells.max(1));
        workload
    }

    fn rep(&mut self) -> RepOut {
        let pool = ScanPool::new(1);
        let mut digest = Digest::default();
        let (mut cells, mut failed) = (0, 0);
        let mut wall = Duration::ZERO;
        for _ in 0..self.replays {
            let start = Instant::now();
            let report = self.campaign.run(&self.universe, &pool);
            wall += start.elapsed();
            cells += report.cells.len() as u64;
            failed += self.score(&report.cells, report.median_convergence_us(), &mut digest);
        }
        RepOut {
            wall,
            cells,
            failed,
            digest: digest.finish(),
            ..RepOut::default()
        }
    }

    fn traced(&mut self) -> RepOut {
        let mut counts = Counts::default();
        let mut digest = Digest::default();
        let (mut total, mut failed) = (0u64, 0);
        let start = Instant::now();
        let root = trace::begin("workload", trace::NONE);
        for _ in 0..self.replays {
            let schedule = trace::span("registry.schedule", trace::NONE, || self.schedule());
            let image = trace::span("topology.image", trace::NONE, || {
                VantageLab::builder()
                    .policy(PolicyHandle::new(Policy::permissive()))
                    .image()
            });
            let positions: Vec<usize> = schedule
                .batches()
                .iter()
                .enumerate()
                .filter(|(_, batch)| !batch.add.is_empty())
                .map(|(pos, _)| pos)
                .collect();
            let mut cells = Vec::with_capacity(positions.len());
            for (index, &pos) in positions.iter().enumerate() {
                let id = (total as usize + index) as u32;
                let cell = trace::begin("cell", id);
                cells.push(self.traced_cell(&image, &schedule, index, pos, id, &mut counts));
                trace::end(cell);
            }
            total += cells.len() as u64;
            failed += self.score(&cells, median_convergence_us(&cells), &mut digest);
        }
        trace::end(root);
        let wall = start.elapsed();
        RepOut {
            wall,
            nominal_wall_ns: None,
            cells: total,
            failed,
            digest: digest.finish(),
            counts,
            layer: Vec::new(),
        }
    }

    fn ledger(counts: &Counts, cells: u64, rung: RungCost) -> Vec<LedgerTerm> {
        let probes = counts.client_hellos as f64;
        vec![
            LedgerTerm::new("lab forks", cells as f64, rung("topology.fork_fig1_ns")),
            LedgerTerm::new(
                "prior deltas replayed",
                counts.delta_applies as f64,
                rung("core.policy_delta_apply_ns"),
            ),
            LedgerTerm::events(counts, rung),
            LedgerTerm::device_packets(counts, rung),
            LedgerTerm::client_hellos(counts.client_hellos, rung),
            LedgerTerm::new(
                "server turn-arounds",
                probes,
                rung("stack.server_turnaround_ns"),
            ),
        ]
    }
}
