//! The registry-churn campaign: per-delta blocking-convergence latency,
//! measured in virtual time and sharded across the [`ScanPool`].
//!
//! The schedule's batches are moved, names and all, into one shared
//! [`PolicyDelta`] per registry day (an `Arc`), and those deltas are
//! compiled once into a [`PolicyHistory`]; each cell then replays one
//! registry day of the [`ChurnSchedule`]: the lab starts from the policy
//! as of the previous day — the history read at that day, which costs the
//! same on day 1 and on day 60 — a [`SteadyProbe`] keeps identical TLS
//! flows running toward a name the day's batch is about to blocklist, and
//! a [`PolicyUpdater`] fires the day's shared delta at its scheduled
//! virtual instant through the incremental [`Policy::apply_delta`] path,
//! into that cell's policy alone. Past the schedule, a listed name is
//! copied once into the history's table and once into the overlay of the
//! cell that applies it, and nowhere else. The gap between the delta's
//! application and the first probe to draw a RST is the TSPU's
//! *blocking-convergence latency* — one centrally distributed policy, so
//! it converges within about one round trip (§5). The decentralized
//! per-ISP baseline never needs its own packet simulation: each cell also
//! samples the [`UpdateLag`] distribution, whose days-long registry-sync
//! lags dwarf the TSPU's round-trip convergence by construction.
//!
//! Every cell is a pure function of `(schedule, batch index, campaign
//! config)` — a private lab from the campaign kernel
//! ([`ScanPool::run_cells`]), its own day's policy handle swapped in,
//! virtual clock; the history is shared and never written — so the
//! campaign is byte-identical at any worker-thread count.

use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Duration;

use tspu_core::{Policy, PolicyDelta, PolicyHandle, PolicyHistory, PolicyUpdater};
use tspu_obs::{Histogram, MetricValue, Snapshot};
use tspu_registry::{ChurnBatch, ChurnConfig, ChurnSchedule, Universe};
use tspu_stack::{ServerApp, SteadyProbe, SteadyProbeConfig};
use tspu_topology::VantageLab;
use tspu_wire::tls::ClientHelloBuilder;

use crate::sweep::{RunOpts, ScanPool};

/// Where the central updater lives: a dedicated controller host. It never
/// exchanges packets, so it needs no routes — only a timer.
const CONTROLLER: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 200);

/// Source-port range of the steady prober (clear of the scenario ports
/// the domain campaigns use).
const PROBE_PORT_BASE: u16 = 40_000;

/// The consumer's one-liner the registry crate leaves to us: a churn
/// batch as an incremental policy delta. Registry additions land in
/// SNI-I (RST rewrite) — the paper's dominant mechanism — and the
/// timeline's toggle flips ride along.
pub fn churn_delta(batch: &ChurnBatch) -> PolicyDelta {
    into_delta(batch.clone())
}

/// [`churn_delta`] for a batch the caller is done with: its names move
/// into the delta instead of being copied.
fn into_delta(batch: ChurnBatch) -> PolicyDelta {
    PolicyDelta {
        add_rst: batch.add,
        remove_rst: batch.remove,
        quic_filter: batch.quic_filter,
        throttle_active: batch.throttle_active,
        ..PolicyDelta::default()
    }
}

/// Registry-sync lag: how long after a central registry delta each ISP's
/// own gear starts enforcing it. §6.3 finds ISP resolvers "do not enforce
/// blocking effectively on domains recently added to the registry" — each
/// ISP syncs its snapshot on its own schedule, while the TSPU's one
/// centrally distributed policy converges within a round trip.
///
/// A deterministic lag distribution: `base + uniform[0, jitter)`,
/// sampled per `(isp, delta index)` from `seed`. No RNG state — every
/// sample is a pure hash of its coordinates, so campaign cells can ask
/// for lags in any order (or in parallel) and agree byte-for-byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateLag {
    /// Minimum lag every ISP pays (distribution offset).
    pub base: Duration,
    /// Width of the uniform jitter added on top.
    pub jitter: Duration,
    pub seed: u64,
}

impl UpdateLag {
    /// The 2022 registry-sync picture scaled to a churn replay where one
    /// registry day lasts `day`: ISPs pick up a delta after 1 to 21 days
    /// (§6.3's staleness window).
    pub fn registry_sync_2022(day: Duration) -> UpdateLag {
        UpdateLag { base: day, jitter: day * 20, seed: 0 }
    }

    /// The lag `isp` pays on delta `delta_index`.
    pub fn lag(&self, isp: &str, delta_index: usize) -> Duration {
        let jitter_ns = self.jitter.as_nanos() as u64;
        if jitter_ns == 0 {
            return self.base;
        }
        let mut h = self.seed ^ 0xcbf2_9ce4_8422_2325;
        for byte in isp.bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= delta_index as u64;
        // splitmix64 finalizer over the FNV-1a digest.
        h = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
        self.base + Duration::from_nanos(h % jitter_ns)
    }
}

/// Campaign configuration: the churn window plus the probe cadence and
/// the decentralized baseline's lag model.
#[derive(Debug, Clone)]
pub struct ChurnCampaign {
    /// How the schedule is derived from the universe.
    pub churn: ChurnConfig,
    /// Vantage the steady probes run from.
    pub vantage: &'static str,
    /// Virtual time between probe launches.
    pub probe_period: Duration,
    /// Probes launched before the delta fires (the open baseline — these
    /// must complete, proving the name was reachable until the delta).
    pub warmup_probes: u32,
    /// Hard per-cell probe cap, reset or not.
    pub max_probes: u32,
    /// Registry-sync lag distribution of the per-ISP DPI baseline.
    pub isp_lag: UpdateLag,
    /// ISPs modeled against that distribution.
    pub isps: Vec<&'static str>,
}

impl ChurnCampaign {
    /// The February–March 2022 escalation replay: the
    /// [`ChurnConfig::escalation_2022`] window, probes every 5 ms of
    /// virtual time from the ER-Telecom vantage, and the three paper ISPs
    /// syncing their registries 1–21 (virtual) days late.
    pub fn escalation_2022() -> ChurnCampaign {
        let churn = ChurnConfig::escalation_2022();
        let isp_lag = UpdateLag::registry_sync_2022(churn.day_duration);
        ChurnCampaign {
            churn,
            vantage: "ER-Telecom",
            probe_period: Duration::from_millis(5),
            warmup_probes: 3,
            max_probes: 40,
            isp_lag,
            isps: vec!["Rostelecom", "ER-Telecom", "OBIT"],
        }
    }

    /// Derives the schedule from `universe` and runs every cell on the
    /// pool.
    pub fn run(&self, universe: &Universe, pool: &ScanPool) -> ChurnReport {
        self.run_schedule(ChurnSchedule::from_universe(universe, &self.churn), pool)
    }

    /// Runs one cell per batch that adds at least one domain (toggle-only
    /// and pure-delisting batches carry no blocking-convergence signal).
    /// Cells come back in schedule order — byte-identical at every thread
    /// count, because each cell is a pure function of its batch index.
    pub fn run_schedule(&self, schedule: ChurnSchedule, pool: &ScanPool) -> ChurnReport {
        let (batches, total_adds, total_removes) =
            (schedule.len(), schedule.total_adds(), schedule.total_removes());
        // Each day's names move into one delta: the history compiles from
        // it, and the day's cell hands its updater a clone of the `Arc`.
        let (days, deltas): (Vec<u32>, Vec<Arc<PolicyDelta>>) = schedule
            .into_batches()
            .into_iter()
            .map(|batch| (batch.day, Arc::new(into_delta(batch))))
            .unzip();
        let cells: Vec<usize> = deltas
            .iter()
            .enumerate()
            .filter(|(_, delta)| !delta.add_rst.is_empty())
            .map(|(index, _)| index)
            .collect();
        // The image carries a placeholder handle; each cell swaps in its
        // own day's.
        let image =
            VantageLab::builder().policy(PolicyHandle::new(Policy::permissive())).image();
        // Version `pos` of the history is the country on the eve of batch
        // `pos`.
        let history = PolicyHistory::compile(deltas.iter().map(Arc::as_ref));
        let run = pool.run_cells(&RunOpts::quick(), &cells, |_| &image, |lab, _, &pos| {
            self.run_cell(lab, days[pos], &deltas[pos], &history, pos)
        });
        let mut convergence = Histogram::new();
        let mut snapshot = Snapshot::new();
        let mut out = Vec::with_capacity(run.cells.len());
        for (cell, policy_obs) in run.cells {
            convergence.record(cell.convergence_us);
            snapshot.merge(&policy_obs);
            out.push(cell);
        }
        snapshot.insert("churn.deltas", MetricValue::Counter(out.len() as u64));
        snapshot.insert("churn.convergence_us", MetricValue::Hist(convergence));
        ChurnReport {
            cells: out,
            batches,
            total_adds,
            total_removes,
            snapshot,
        }
    }

    /// One cell: replay registry `day`, batch `pos` of the schedule, and
    /// time its delta's convergence.
    fn run_cell(
        &self,
        lab: &mut VantageLab,
        day: u32,
        delta: &Arc<PolicyDelta>,
        history: &PolicyHistory,
        pos: usize,
    ) -> (DeltaConvergence, Snapshot) {
        // `pos` indexes the schedule the history was compiled from.
        let policy = history.as_of(pos).expect("the history was compiled from this schedule");
        let handle = PolicyHandle::new(policy);
        lab.set_policy(handle.clone());
        lab.net.set_app(lab.us_main, Box::new(ServerApp::https_site(lab.us_main_addr)));

        // Steady traffic toward the day's first (sorted) addition.
        // Only add-bearing batches become cells.
        let target = delta.add_rst.first().expect("cells are add-bearing batches").clone();
        let vantage = lab.vantage(self.vantage);
        let (probe_host, probe_addr) = (vantage.host, vantage.addr);
        let (probe, probe_log) = SteadyProbe::new(SteadyProbeConfig {
            src: probe_addr,
            dst: lab.us_main_addr,
            dst_port: 443,
            port_base: PROBE_PORT_BASE,
            period: self.probe_period,
            request: ClientHelloBuilder::new(&target).build(),
            max_probes: self.max_probes,
        });
        lab.net.set_app(probe_host, Box::new(probe));
        lab.net.arm_timer(probe_host, Duration::ZERO);

        // The central updater fires the day's delta after the warmup.
        let delta_at = self.probe_period * self.warmup_probes;
        let updater = PolicyUpdater::new(handle.clone(), vec![(delta_at, Arc::clone(delta))]);
        let update_log = updater.log();
        let controller = lab.net.add_host(CONTROLLER);
        lab.net.set_app(controller, Box::new(updater));
        lab.net.arm_timer(controller, delta_at);

        lab.net.run_until_idle();

        let applied = update_log
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .first()
            .cloned()
            // The run went idle, so the timer armed for the one delta fired.
            .expect("scheduled delta fired");
        let (_, enforced_at) = probe_log.first_reset().unwrap_or_else(|| {
            panic!("day {day} delta never enforced (target {target})")
        });
        let applied_at_us = applied.at.as_micros();
        let enforced_at_us = enforced_at.as_micros();
        let handshake_rtt_us =
            probe_log.handshake_rtt().map_or(0, |rtt| rtt.as_micros() as u64);

        // Simulate the *next* central push: one more epoch bump, after
        // which the reset flow's verdict — pinned to this delta's epoch
        // and still inside its Table-2 window — is auditable as stale.
        handle.apply_delta(&PolicyDelta::new());
        let now = lab.net.now();
        let mut stale_pinned = 0;
        for vantage in &lab.vantages {
            stale_pinned += lab.net.middlebox(vantage.sym_device).stale_verdict_audit(now);
            for &upstream in &vantage.upstream_devices {
                stale_pinned += lab.net.middlebox(upstream).stale_verdict_audit(now);
            }
        }

        let isp_lag_us = self
            .isps
            .iter()
            .map(|&isp| (isp, self.isp_lag.lag(isp, pos).as_micros() as u64))
            .collect();

        let cell = DeltaConvergence {
            day,
            target,
            ops: applied.ops,
            epoch: applied.epoch,
            applied_at_us,
            enforced_at_us,
            // Saturating: a target shadowed by an earlier rule (e.g. a
            // parent domain already listed) can reset pre-delta; its
            // convergence is zero, not underflow.
            convergence_us: enforced_at_us.saturating_sub(applied_at_us),
            handshake_rtt_us,
            open_before: probe_log.open_before_reset(),
            stale_pinned,
            isp_lag_us,
        };
        (cell, handle.obs_snapshot())
    }
}

/// One measured registry-day cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaConvergence {
    /// Registry day (since 2022-01-01) the cell replays.
    pub day: u32,
    /// The freshly listed domain the steady probes carried in their SNI.
    pub target: String,
    /// List/toggle operations the delta carried.
    pub ops: usize,
    /// Policy epoch after the delta applied.
    pub epoch: u64,
    /// Virtual instant the updater applied the delta.
    pub applied_at_us: u64,
    /// Virtual instant the first probe drew a RST.
    pub enforced_at_us: u64,
    /// `enforced - applied`: the TSPU's blocking-convergence latency.
    pub convergence_us: u64,
    /// One handshake round trip at this vantage, for the ~1-RTT claim.
    pub handshake_rtt_us: u64,
    /// Probes that completed before the delta (the reachability baseline).
    pub open_before: usize,
    /// Live flows still enforcing the delta's verdict after the *next*
    /// epoch bump — the residual blocking the epoch audit exists to count.
    pub stale_pinned: usize,
    /// Modeled per-ISP registry-sync lag for this delta (decentralized
    /// baseline; virtual µs).
    pub isp_lag_us: Vec<(&'static str, u64)>,
}

/// The finished campaign.
#[derive(Debug, Clone)]
pub struct ChurnReport {
    /// One cell per add-bearing batch, in schedule order.
    pub cells: Vec<DeltaConvergence>,
    /// Batches in the schedule (including toggle-only / delist-only ones).
    pub batches: usize,
    pub total_adds: usize,
    pub total_removes: usize,
    /// Deterministic campaign metrics: `churn.deltas`,
    /// `churn.convergence_us`, and the merged per-cell policy instruments
    /// (`policy.delta_applies`, `policy.epoch`).
    pub snapshot: Snapshot,
}

impl ChurnReport {
    /// The convergence curve: `(registry day, convergence µs)` per
    /// add-bearing day, in day order.
    pub fn convergence_curve(&self) -> Vec<(u64, u64)> {
        self.cells.iter().map(|c| (u64::from(c.day), c.convergence_us)).collect()
    }

    /// Median TSPU convergence latency across cells (virtual µs).
    pub fn median_convergence_us(&self) -> u64 {
        let mut samples: Vec<u64> = self.cells.iter().map(|c| c.convergence_us).collect();
        samples.sort_unstable();
        samples.get(samples.len() / 2).copied().unwrap_or(0)
    }

    /// Worst-case TSPU convergence latency (virtual µs).
    pub fn max_convergence_us(&self) -> u64 {
        self.cells.iter().map(|c| c.convergence_us).max().unwrap_or(0)
    }

    /// Median modeled ISP registry-sync lag, pooled over every (ISP,
    /// delta) sample (virtual µs).
    pub fn median_isp_lag_us(&self) -> u64 {
        let mut samples: Vec<u64> =
            self.cells.iter().flat_map(|c| c.isp_lag_us.iter().map(|&(_, lag)| lag)).collect();
        samples.sort_unstable();
        samples.get(samples.len() / 2).copied().unwrap_or(0)
    }

    /// The paper's update-lag contrast in one number: median ISP sync lag
    /// over median TSPU convergence.
    pub fn update_lag_ratio(&self) -> f64 {
        let tspu = self.median_convergence_us().max(1);
        self.median_isp_lag_us() as f64 / tspu as f64
    }

    /// Human-readable campaign summary.
    pub fn summary(&self) -> String {
        format!(
            "{} deltas replayed ({} adds, {} delists across {} batches); \
             TSPU convergence median {} µs / max {} µs (virtual); \
             ISP registry-sync lag median {} µs — {:.0}× slower",
            self.cells.len(),
            self.total_adds,
            self.total_removes,
            self.batches,
            self.median_convergence_us(),
            self.max_convergence_us(),
            self.median_isp_lag_us(),
            self.update_lag_ratio(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short_campaign() -> ChurnCampaign {
        let mut campaign = ChurnCampaign::escalation_2022();
        // A week of the escalation is plenty for a unit test.
        campaign.churn.end_day = campaign.churn.start_day + 7;
        campaign
    }

    #[test]
    fn convergence_is_about_one_round_trip() {
        let universe = Universe::generate(5);
        let campaign = short_campaign();
        let report = campaign.run(&universe, &ScanPool::single_thread());
        assert!(!report.cells.is_empty());
        for cell in &report.cells {
            assert!(cell.open_before >= 1, "day {}: no probe completed pre-delta", cell.day);
            assert!(cell.convergence_us > 0, "day {}: instant convergence", cell.day);
            // Enforcement lands within one probe period plus a couple of
            // round trips of the delta — the centralized claim.
            let bound = campaign.probe_period.as_micros() as u64 + 4 * cell.handshake_rtt_us;
            assert!(
                cell.convergence_us <= bound,
                "day {}: converged in {} µs (> {} µs)",
                cell.day,
                cell.convergence_us,
                bound
            );
            assert!(cell.epoch > 0);
            assert_eq!(cell.isp_lag_us.len(), campaign.isps.len());
            for &(isp, lag) in &cell.isp_lag_us {
                assert!(
                    lag > 10 * cell.convergence_us,
                    "{isp} lag {lag} µs does not dwarf TSPU convergence"
                );
            }
        }
        assert!(report.update_lag_ratio() > 10.0);
        assert!(!report.summary().is_empty());
    }

    #[test]
    fn epoch_audit_counts_the_residually_blocked_flow() {
        let universe = Universe::generate(5);
        let campaign = short_campaign();
        let report = campaign.run(&universe, &ScanPool::single_thread());
        for cell in &report.cells {
            assert!(
                cell.stale_pinned >= 1,
                "day {}: the reset flow should stay pinned to epoch {}",
                cell.day,
                cell.epoch
            );
        }
    }

    #[test]
    fn cells_resolve_the_campaign_day_by_day() {
        let universe = Universe::generate(5);
        let campaign = short_campaign();
        let report = campaign.run(&universe, &ScanPool::single_thread());
        // One cell per add-bearing registry day, in day order.
        assert!(report.cells.windows(2).all(|w| w[0].day < w[1].day), "{:?}", report.cells);
        let curve = report.convergence_curve();
        assert_eq!(curve.len(), report.cells.len());
        for (cell, &(day, us)) in report.cells.iter().zip(&curve) {
            assert_eq!(day, cell.day as u64);
            assert_eq!(us, cell.convergence_us);
            // The slowest modeled ISP dwarfs the TSPU on every day — the
            // paper's contrast, per point on the curve.
            // Every cell carries one lag per modeled ISP.
            let lag = cell.isp_lag_us.iter().map(|&(_, lag)| lag).max().unwrap();
            assert!(lag > 10 * us, "day {day}: lag {lag} vs convergence {us}");
        }
        // Each day's cell starts from the history at its batch position and
        // applies one delta, so epochs climb with the days.
        assert!(report.cells.windows(2).all(|w| w[0].epoch < w[1].epoch));
    }

    /// The curve is a map over the cells. On the seed-2022 escalation it
    /// returns exactly the pairs the day-windowed series it replaced did
    /// (recorded at that commit): every add-bearing day of the window,
    /// each converging in 14 ms of virtual time.
    #[test]
    fn escalation_curve_equals_the_recorded_pairs() {
        let universe = Universe::generate(2022);
        let report = ChurnCampaign::escalation_2022().run(&universe, &ScanPool::single_thread());
        let recorded: Vec<(u64, u64)> = (54..=78).map(|day| (day, 14_000)).collect();
        assert_eq!(report.convergence_curve(), recorded);
    }

    #[test]
    fn campaign_snapshot_carries_the_convergence_histogram() {
        let universe = Universe::generate(5);
        let campaign = short_campaign();
        let report = campaign.run(&universe, &ScanPool::single_thread());
        assert_eq!(report.snapshot.counter("churn.deltas"), report.cells.len() as u64);
        // Every cell records its convergence into this histogram.
        let hist = report.snapshot.histogram("churn.convergence_us").expect("histogram");
        assert_eq!(hist.count(), report.cells.len() as u64);
        // One updater apply + one audit bump per cell flow through the
        // merged policy instruments.
        assert_eq!(
            report.snapshot.counter("policy.delta_applies"),
            2 * report.cells.len() as u64
        );
    }


    #[test]
    fn lag_is_deterministic_and_bounded() {
        let lag = UpdateLag::registry_sync_2022(Duration::from_millis(200));
        for isp in ["Rostelecom", "ER-Telecom", "OBIT"] {
            for delta in 0..50 {
                let sample = lag.lag(isp, delta);
                assert_eq!(sample, lag.lag(isp, delta));
                assert!(sample >= lag.base);
                assert!(sample < lag.base + lag.jitter);
            }
        }
    }

    #[test]
    fn isps_and_deltas_draw_different_lags() {
        let lag = UpdateLag::registry_sync_2022(Duration::from_millis(200));
        assert_ne!(lag.lag("Rostelecom", 0), lag.lag("OBIT", 0));
        assert_ne!(lag.lag("Rostelecom", 0), lag.lag("Rostelecom", 1));
    }

    #[test]
    fn zero_jitter_collapses_to_base() {
        let lag = UpdateLag { base: Duration::from_secs(1), jitter: Duration::ZERO, seed: 7 };
        assert_eq!(lag.lag("AnyISP", 42), Duration::from_secs(1));
    }
}
