//! ChaosSweep: the Table-1 reliability campaign as a (scenario ×
//! fault-seed) grid under seeded link and device faults, sharded across
//! the work-stealing [`ScanPool`] with byte-identical output at any
//! thread count, every cell's capture replayed through the trace-invariant
//! oracle.
//!
//! Each cell is a self-contained simulation on the campaign kernel
//! ([`ScanPool::run_cells`]): a private Table-1 lab, the cell's
//! [`FaultPlan`] wired through it, one reliability cell measured, then —
//! when `check_oracle` is on — the full capture audited against the
//! paper's model invariants. A fault schedule that provokes a model
//! violation therefore fails the sweep loudly with the offending packet
//! and trace, instead of quietly skewing a failure percentage.

use tspu_core::PolicyHandle;
use tspu_netsim::fault::{DeviceFaults, FaultPlan, LinkFaults};
use tspu_topology::VantageLab;

use crate::reliability::{run_cell, FailureStats, Mechanism};
use crate::sweep::{RunOpts, ScanPool};

/// One scenario of the grid: a vantage × mechanism pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosScenario {
    pub vantage: &'static str,
    pub mechanism: Mechanism,
}

/// The (scenario × seed) grid specification. Scenarios and seeds are
/// crossed in scenario-major order; every cell derives its own
/// [`FaultPlan`] from the shared fault template and the cell's seed.
#[derive(Clone)]
pub struct ChaosSweep {
    pub policy: PolicyHandle,
    pub scenarios: Vec<ChaosScenario>,
    pub seeds: Vec<u64>,
    /// Link faults on the local→remote transit segment of every vantage.
    pub forward: LinkFaults,
    /// Link faults on the remote→local transit segment.
    pub reverse: LinkFaults,
    /// Device faults applied to every TSPU device.
    pub device: DeviceFaults,
    /// Trials per cell (each on a fresh source port).
    pub trials: u32,
    /// Capture every cell and replay it through the oracle.
    pub check_oracle: bool,
}

/// One finished cell.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosCell {
    pub vantage: &'static str,
    pub mechanism: Mechanism,
    pub seed: u64,
    pub stats: FailureStats,
    /// Rendered oracle violations; empty means the capture was clean.
    pub oracle_violations: Vec<String>,
    /// Packets the cell's chaos links consumed (loss + MTU + flap).
    pub chaos_dropped: u64,
    /// Extra packets the cell's chaos links injected (duplicates).
    pub chaos_injected: u64,
}

impl ChaosSweep {
    /// The full Table-1 grid — every vantage × every mechanism — under a
    /// moderate loss + bounded-reorder plan, oracle on: 15 scenarios, so
    /// 7 seeds make a 105-cell grid.
    pub fn table1_grid(policy: PolicyHandle, seeds: Vec<u64>, trials: u32) -> ChaosSweep {
        let mut scenarios = Vec::new();
        for vantage in ["Rostelecom", "ER-Telecom", "OBIT"] {
            for mechanism in Mechanism::ALL {
                scenarios.push(ChaosScenario { vantage, mechanism });
            }
        }
        let link = LinkFaults {
            loss: 0.02,
            reorder: 0.05,
            max_displacement: 3,
            ..LinkFaults::default()
        };
        ChaosSweep {
            policy,
            scenarios,
            seeds,
            forward: link.clone(),
            reverse: link,
            device: DeviceFaults::default(),
            trials,
            check_oracle: true,
        }
    }

    /// Number of cells in the grid.
    pub fn len(&self) -> usize {
        self.scenarios.len() * self.seeds.len()
    }

    /// True when the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Runs the grid on the pool. Cells come back in scenario-major,
    /// seed-minor order — byte-identical at every thread count, because
    /// each cell is a pure function of (scenario, seed).
    pub fn run(&self, pool: &ScanPool) -> Vec<ChaosCell> {
        let cells: Vec<(ChaosScenario, u64)> = self
            .scenarios
            .iter()
            .flat_map(|&scenario| self.seeds.iter().map(move |&seed| (scenario, seed)))
            .collect();
        let image = VantageLab::builder().policy(self.policy.clone()).table1().image();
        pool.run_cells(&RunOpts::quick(), &cells, |_| &image, |lab, _, &(scenario, seed)| {
            self.cell(lab, scenario, seed)
        })
        .cells
    }

    /// One cell: fault plan, reliability measurement, oracle audit.
    fn cell(&self, lab: &mut VantageLab, scenario: ChaosScenario, seed: u64) -> ChaosCell {
        let plan = FaultPlan {
            seed,
            forward: self.forward.clone(),
            reverse: self.reverse.clone(),
            device: self.device.clone(),
        };
        lab.apply_fault_plan(&plan);
        if self.check_oracle {
            lab.net.set_capture(true);
        }
        let stats = run_cell(lab, scenario.vantage, scenario.mechanism, self.trials);
        let oracle_violations = if self.check_oracle {
            lab.oracle_audit().violations.iter().map(|v| v.to_string()).collect()
        } else {
            Vec::new()
        };
        let (mut chaos_dropped, mut chaos_injected) = (0, 0);
        for (_, handle) in &lab.chaos_links {
            let link_stats = lab.net.middlebox(*handle).stats();
            chaos_dropped += link_stats.total_dropped();
            chaos_injected += link_stats.injected;
        }
        ChaosCell {
            vantage: scenario.vantage,
            mechanism: scenario.mechanism,
            seed,
            stats,
            oracle_violations,
            chaos_dropped,
            chaos_injected,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tspu_registry::Universe;
    use tspu_topology::policy_from_universe;

    #[test]
    fn single_cell_is_deterministic_and_clean() {
        let universe = Universe::generate(3);
        let policy = policy_from_universe(&universe, false, true);
        let sweep = ChaosSweep::table1_grid(policy, vec![1], 4);
        let one = ChaosSweep { scenarios: vec![sweep.scenarios[0]], ..sweep };
        let a = one.run(&ScanPool::single_thread());
        let b = one.run(&ScanPool::single_thread());
        assert_eq!(a, b);
        assert_eq!(a.len(), 1);
        assert!(a[0].oracle_violations.is_empty(), "{:?}", a[0].oracle_violations);
    }
}
