//! Tomography-based censorship localization on generated AS graphs.
//!
//! The TTL walks of [`crate::localize`] need a cooperating path: they see
//! *where on one route* a device sits. Tomography instead exploits route
//! churn — the seeded flip schedule a generated topology carries — to see
//! *which AS* censors, using only end-to-end blocked/passed verdicts:
//!
//! 1. Every cell forks the shared generated-lab image, picks one ground-
//!    truth device to leave active (all others get a permissive policy),
//!    and arms the churn schedule.
//! 2. In each inter-flip epoch it probes the target domain from every
//!    client and records the verdict against the AS path the client rode
//!    during that epoch (replayed from the schedule — the observer and
//!    the engine's route table agree by construction).
//! 3. The solver intersects the AS sets of blocked paths and subtracts
//!    every AS seen on a passed path. Provider-diverse clients plus at
//!    least one flip per client shrink the suspect set to exactly the
//!    active device's AS.
//! 4. A TTL cross-check ([`crate::localize::rst_trial`], TTL-limited)
//!    confirms the named AS at the hop ground truth says the device
//!    occupies.
//!
//! Every cell is a pure function of its index, so a sharded campaign is
//! byte-identical at any thread count, like every other sweep here.

use std::collections::BTreeSet;
use std::time::Duration;

use tspu_core::{Policy, PolicyHandle};
use tspu_obs::{MetricValue, Snapshot};
use tspu_topology::{GenClient, GenParams, TopologySpec, VantageLab};

use crate::harness::ScriptEnd;
use crate::localize::{first_onset, rst_trial};
use crate::sweep::{PoolReport, RunOpts, ScanPool};

/// Configuration of one tomography campaign: the generated topology to
/// probe and how many localization cells to run. Each cell activates a
/// different ground-truth device (round-robin over the candidates the
/// topology's client paths can reach).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TomographyConfig {
    /// The generated topology (graph, placement, churn schedule).
    pub params: GenParams,
    /// Number of localization cells.
    pub cells: usize,
    /// The SNI-RST trigger domain probes carry.
    pub domain: String,
}

impl TomographyConfig {
    /// Defaults: 8 cells probing `meduza.io` (the paper's running SNI-I
    /// example).
    pub fn new(params: GenParams) -> TomographyConfig {
        TomographyConfig { params, cells: 8, domain: "meduza.io".to_string() }
    }

    /// Sets the cell count.
    pub fn cells(mut self, cells: usize) -> TomographyConfig {
        self.cells = cells;
        self
    }

    /// Sets the trigger domain (must be SNI-RST-listed in the policy).
    pub fn domain(mut self, domain: &str) -> TomographyConfig {
        self.domain = domain.to_string();
        self
    }
}

/// One end-to-end probe observation: what a client saw during one epoch,
/// tagged with the AS path it rode (replayed from the churn schedule).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeObs {
    /// Inter-flip epoch index (`0` = before the first flip).
    pub epoch: usize,
    /// Probing client index.
    pub client: usize,
    /// AS ids on the client's path during this epoch.
    pub path_ases: Vec<usize>,
    /// Whether the probe was blocked (RST/ACK observed at the client).
    pub blocked: bool,
}

/// One localization cell's outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TomographyCell {
    /// Cell index.
    pub cell: usize,
    /// Ground truth: AS id of the one active device (`None` = negative
    /// control, no device reachable from any client path).
    pub active_as: Option<usize>,
    /// The solver's suspect set, sorted AS ids. Localization succeeded
    /// when this is exactly `[active_as]`.
    pub suspects: Vec<usize>,
    /// Whether the solver named the ground truth: singleton suspect set
    /// equal to the active AS, or (negative control) nothing blocked and
    /// no suspects.
    pub named: bool,
    /// Every probe observation, in (epoch, client) order.
    pub probes: Vec<ProbeObs>,
    /// TTL cross-check: the measured onset hop of the active device on a
    /// final-epoch path that crosses it (`None` when no final path does,
    /// or on negative controls).
    pub ttl_hop: Option<u8>,
    /// Ground truth hop for the cross-check, from the route generator.
    pub ttl_truth: Option<u8>,
}

/// What a tomography campaign produced: per-cell outcomes, each carrying
/// its probes in (epoch, client) order.
#[derive(Debug, Clone, PartialEq)]
pub struct TomographyRun {
    /// One outcome per cell, in cell order at every thread count.
    pub cells: Vec<TomographyCell>,
}

impl TomographyRun {
    /// Fraction of cells whose solver named the ground truth.
    pub fn named_fraction(&self) -> f64 {
        if self.cells.is_empty() {
            return 1.0;
        }
        self.cells.iter().filter(|c| c.named).count() as f64 / self.cells.len() as f64
    }
}

/// Runs one localization cell on a freshly forked lab. Pure in
/// `(image, config, cell)` — the determinism unit the pool shards.
fn run_cell(lab: &mut VantageLab, config: &TomographyConfig, cell: usize) -> TomographyCell {
    let gen = lab.gen.clone().expect("tomography runs on generated labs");
    let candidates = gen.censor_candidates();
    let active = (!candidates.is_empty()).then(|| candidates[cell % candidates.len()]);

    // Exactly one censor: every other device a probe can reach turns
    // permissive. Devices off every client variant never see a packet, so
    // they are left alone — and, in a fork, never built. `set_policy` on
    // the fork's private middlebox cell leaves the shared image intact.
    let off = PolicyHandle::new(Policy::permissive());
    for &di in &candidates {
        if Some(di) != active {
            lab.net.middlebox_mut(gen.devices[di].handle).set_policy(off.clone());
        }
    }

    lab.arm_route_churn();
    let end = |client: &GenClient, port: u16| ScriptEnd { host: client.host, addr: client.addr, port };
    let clients = gen.clients.len();
    let epochs = gen.churn.len() + 1;
    let mut probes = Vec::with_capacity(epochs * clients);
    for epoch in 0..epochs {
        for client in 0..clients {
            let port = 3000 + (epoch * clients + client) as u16;
            let blocked = rst_trial(lab, end(&gen.clients[client], port), &config.domain, None);
            let variant = gen.variant_after(client, epoch);
            probes.push(ProbeObs { epoch, client, path_ases: variant.path_ases.clone(), blocked });
        }
        if epoch < gen.churn.len() {
            // Warp to just past the next flip; the armed reroute events
            // fire inside this run_for window.
            let flip_us = gen.churn[epoch].at.as_micros() as u64;
            let now_us = lab.net.now().as_micros();
            assert!(
                now_us < flip_us,
                "tomography: epoch {epoch} probes overran the churn period \
                 ({now_us} us > flip at {flip_us} us) — lengthen GenParams::churn_period"
            );
            lab.net.run_for(Duration::from_micros(flip_us - now_us + 1_000));
        }
    }

    // The solver: suspects = ∩ (blocked-path AS sets) \ ∪ (passed-path
    // AS sets). Blocked paths all cross the censor AS; every AS that ever
    // carried a passed probe is exonerated.
    let mut blocked_isect: Option<BTreeSet<usize>> = None;
    let mut cleared: BTreeSet<usize> = BTreeSet::new();
    for p in &probes {
        let ases: BTreeSet<usize> = p.path_ases.iter().copied().collect();
        if p.blocked {
            blocked_isect = Some(match blocked_isect {
                None => ases,
                Some(so_far) => so_far.intersection(&ases).copied().collect(),
            });
        } else {
            cleared.extend(ases);
        }
    }
    let any_blocked = blocked_isect.is_some();
    let suspects: Vec<usize> =
        blocked_isect.unwrap_or_default().difference(&cleared).copied().collect();

    let named = match active {
        Some(di) => suspects == [gen.devices[di].as_id],
        None => !any_blocked && suspects.is_empty(),
    };

    // TTL cross-check on the final routing state: walk the path of a
    // client whose post-churn variant crosses the active device and
    // compare the onset hop to the generator's ground truth.
    let (ttl_hop, ttl_truth) = match active {
        Some(di) => {
            let target = (0..clients).find_map(|c| {
                let v = gen.variant_after(c, gen.churn.len());
                v.devices.iter().find(|&&(d, _)| d == di).map(|&(_, hop)| (c, hop))
            });
            match target {
                Some((c, hop)) => {
                    let blocked: Vec<bool> = (1..=4u8)
                        .map(|ttl| {
                            let local = end(&gen.clients[c], 20_000 + u16::from(ttl));
                            rst_trial(lab, local, &config.domain, Some(ttl))
                        })
                        .collect();
                    (first_onset(&blocked).map(|d| d.after_hop), Some(hop))
                }
                None => (None, None),
            }
        }
        None => (None, None),
    };

    TomographyCell { cell, active_as: active.map(|di| gen.devices[di].as_id), suspects, named, probes, ttl_hop, ttl_truth }
}

/// Runs the campaign: one cell per index, sharded across the pool, cells
/// reassembled in index order. Returns the run plus the merged campaign
/// snapshot (`Some` iff [`RunOpts::observe`]; includes the engine's
/// `netsim.route_flips` from every cell) and the wall-clock report
/// (`Some` iff [`RunOpts::report`]).
pub(crate) fn run_tomography(
    config: &TomographyConfig,
    policy: &PolicyHandle,
    pool: &ScanPool,
    opts: &RunOpts,
) -> (TomographyRun, Option<Snapshot>, Option<PoolReport>) {
    let image = VantageLab::builder()
        .policy(policy.clone())
        .topology(TopologySpec::Generated(config.params.clone()))
        .image();
    let indices: Vec<usize> = (0..config.cells).collect();
    let run = pool.run_cells(opts, &indices, |_| &image, |lab, cell, _| run_cell(lab, config, cell));
    let cells = run.cells;
    let mut snapshot = run.snapshot;
    if let Some(total) = snapshot.as_mut() {
        total.insert("tomography.cells", MetricValue::Counter(cells.len() as u64));
        let named = cells.iter().filter(|c| c.named).count() as u64;
        total.insert("tomography.named", MetricValue::Counter(named));
    }
    (TomographyRun { cells }, snapshot, run.report)
}
