//! TSPU localization (§7.1): where on the path — and on generated graphs,
//! in which AS — enforcement happens.
//!
//! One entry point, shaped like [`crate::sweep::SweepSpec::run`]:
//! [`LocalizeSpec::run`] takes the pool and a [`RunOpts`] and dispatches
//! on [`LocalizeTechnique`] — the §7.1 symmetric TTL walk, the §7.1.1
//! upstream-only protocol (Fig. 8-left), or churn-driven tomography
//! ([`crate::tomography`]) — replacing the old `localize_symmetric` /
//! `localize_symmetric_pooled` / `find_upstream_only` /
//! `find_upstream_only_pooled` driver family. TTL trials are one cell
//! per TTL on the campaign kernel ([`ScanPool::run_cells`]); results are
//! identical at every thread count.

use std::time::Duration;

use tspu_core::PolicyHandle;
use tspu_obs::Snapshot;
use tspu_topology::{TopologySpec, VantageLab};
use tspu_wire::tcp::TcpFlags;
use tspu_wire::tls::ClientHelloBuilder;

use crate::harness::{run_script, ProbeSide, ScriptEnd, ScriptStep};
use crate::sweep::{PoolReport, RunOpts, ScanPool};
use crate::tomography::{run_tomography, TomographyConfig, TomographyRun};

/// Result of the TTL sweep: the device lies between `hop` and `hop + 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalizedDevice {
    pub after_hop: u8,
}

/// The probing client's script end. On the Fig. 1 lab `vantage` is an ISP
/// name; on a generated lab it is a client index rendered as a string
/// (`"0"`, `"1"`, …) — generated topologies have no named vantages.
fn local_end(lab: &VantageLab, vantage: &str, port: u16) -> ScriptEnd {
    match &lab.gen {
        Some(gen) => {
            // The documented panic (`LocalizeSpec::with_topology`).
            let index: usize =
                vantage.parse().expect("generated labs: vantage is a client index string");
            let client = &gen.clients[index];
            ScriptEnd { host: client.host, addr: client.addr, port }
        }
        None => {
            let vantage = lab.vantage(vantage);
            ScriptEnd { host: vantage.host, addr: vantage.addr, port }
        }
    }
}

/// The remote control response [`rst_trial`] sends after the trigger:
/// borrowed by every trial, like the classifier's volleys.
static REMOTE_CONTROL: [u8; 90] = [0x99; 90];

/// One blocked/passed trial from `local`: control packets (full TTL)
/// establish the flow, the trigger ClientHello for `domain` is TTL-limited
/// when `ttl` is given, and a remote control response tests for blocking.
/// Returns whether the flow was blocked (RST/ACK seen at the local side).
/// The §7.1 symmetric walk runs it per TTL; tomography runs it at full TTL
/// per (epoch, client) and TTL-limited for its cross-check.
pub fn rst_trial(lab: &mut VantageLab, local: ScriptEnd, domain: &str, ttl: Option<u8>) -> bool {
    let remote = ScriptEnd { host: lab.us_main, addr: lab.us_main_addr, port: 443 };
    let mut steps = crate::harness::handshake_prefix();
    let mut trigger = ScriptStep::new(ProbeSide::Local, TcpFlags::PSH_ACK)
        .payload(ClientHelloBuilder::new(domain).build());
    if let Some(ttl) = ttl {
        trigger = trigger.ttl(ttl);
    }
    steps.push(trigger);
    steps.push(
        ScriptStep::new(ProbeSide::Remote, TcpFlags::PSH_ACK)
            .payload(&REMOTE_CONTROL[..])
            .after(Duration::from_millis(100)),
    );
    let result = run_script(&mut lab.net, local, remote, &steps);
    result.at_local.iter().any(|p| p.is_rst_ack)
}

/// One upstream-only trial (Fig. 8 left): the US machine opens the
/// connection, the RU side answers SYN/ACK, then sends a TTL-limited
/// SNI-II ClientHello and a 12-packet volley; blocking shows as missing
/// volley packets at the remote.
pub fn upstream_trial(lab: &mut VantageLab, vantage_name: &str, port: u16, ttl: u8) -> bool {
    let local = local_end(lab, vantage_name, port);
    // The US peer's port must be 443: from the upstream-only device's
    // reversed perspective the RU side is a client talking to remote
    // port 443 — the same quirk that forces the echo technique to pin
    // the Paris ephemeral port to 443 (§7.2).
    let remote = ScriptEnd { host: lab.us_main, addr: lab.us_main_addr, port: 443 };
    let mut steps = vec![
        // Remote-initiated connection.
        ScriptStep::new(ProbeSide::Remote, TcpFlags::SYN),
        ScriptStep::new(ProbeSide::Local, TcpFlags::SYN_ACK),
        ScriptStep::new(ProbeSide::Remote, TcpFlags::ACK),
        // TTL-limited SNI-II trigger from the RU side.
        ScriptStep::new(ProbeSide::Local, TcpFlags::PSH_ACK)
            .payload(ClientHelloBuilder::new("play.google.com").build())
            .ttl(ttl),
    ];
    // Follow-up volley from the RU side: SNI-II drops upstream traffic
    // after its allowance, which the US machine observes as missing
    // packets.
    for _ in 0..12 {
        steps.push(ScriptStep::new(ProbeSide::Local, TcpFlags::PSH_ACK).payload(vec![0x66; 70]));
    }
    let result = run_script(&mut lab.net, local, remote, &steps);
    let through = result.at_remote.iter().filter(|p| p.payload_len == 70).count();
    through < 12
}

/// The first false→true transition in the per-TTL blocking vector
/// (`blocked[i]` is the trial at TTL `i + 1`): "if we identify some TTL
/// value N where we do not observe blocking but TTL N+1 results in
/// blocking, the TSPU device exists between hop N and N+1." Blocked
/// already at TTL 1 means the device sits on the first link.
pub(crate) fn first_onset(blocked: &[bool]) -> Option<LocalizedDevice> {
    blocked
        .iter()
        .enumerate()
        .position(|(i, &b)| b && (i == 0 || !blocked[i - 1]))
        .map(|i| LocalizedDevice { after_hop: i as u8 })
}

/// Every false→true transition — one per device on the path.
pub(crate) fn all_onsets(blocked: &[bool]) -> Vec<LocalizedDevice> {
    blocked
        .iter()
        .enumerate()
        .filter(|&(i, &b)| b && (i == 0 || !blocked[i - 1]))
        .map(|(i, _)| LocalizedDevice { after_hop: i as u8 })
        .collect()
}

/// Which localization technique a [`LocalizeSpec`] runs.
#[derive(Debug, Clone, PartialEq)]
pub enum LocalizeTechnique {
    /// §7.1 symmetric TTL walk: first blocking onset on the path.
    SymmetricTtl,
    /// §7.1.1 upstream-only protocol: every onset, one per device.
    UpstreamTtl,
    /// Churn-driven tomography on a generated topology.
    Tomography(TomographyConfig),
}

/// Shared immutable description of a localization run — the
/// [`crate::sweep::SweepSpec`]-shaped spec unifying the old four-driver
/// family with tomography under one `run(pool, &RunOpts)`.
#[derive(Clone)]
pub struct LocalizeSpec {
    pub policy: PolicyHandle,
    /// The lab the TTL techniques probe. [`LocalizeTechnique::Tomography`]
    /// carries its own generated topology and ignores this field.
    pub topology: TopologySpec,
    /// Probing client: ISP name on Fig. 1, client index string (`"0"`…)
    /// on generated labs. Unused by tomography (it probes every client).
    pub vantage: String,
    /// First trial port; trial `ttl` probes `port_base + ttl`.
    pub port_base: u16,
    /// Deepest TTL the walk tries.
    pub max_ttl: u8,
    pub technique: LocalizeTechnique,
}

impl LocalizeSpec {
    /// A §7.1 symmetric TTL walk from `vantage` (port base 50 000,
    /// max TTL 8 — the defaults every old call site used).
    pub fn symmetric(policy: PolicyHandle, vantage: &str) -> LocalizeSpec {
        LocalizeSpec {
            policy,
            topology: TopologySpec::Fig1,
            vantage: vantage.to_string(),
            port_base: 50_000,
            max_ttl: 8,
            technique: LocalizeTechnique::SymmetricTtl,
        }
    }

    /// A §7.1.1 upstream-only walk from `vantage` (port base 52 000).
    pub fn upstream(policy: PolicyHandle, vantage: &str) -> LocalizeSpec {
        LocalizeSpec {
            policy,
            topology: TopologySpec::Fig1,
            vantage: vantage.to_string(),
            port_base: 52_000,
            max_ttl: 8,
            technique: LocalizeTechnique::UpstreamTtl,
        }
    }

    /// A tomography campaign over `config`'s generated topology.
    pub fn tomography(policy: PolicyHandle, config: TomographyConfig) -> LocalizeSpec {
        LocalizeSpec {
            policy,
            topology: TopologySpec::Generated(config.params.clone()),
            vantage: String::new(),
            port_base: 0,
            max_ttl: 0,
            technique: LocalizeTechnique::Tomography(config),
        }
    }

    /// Overrides the TTL-trial port base.
    pub fn port_base(mut self, port_base: u16) -> LocalizeSpec {
        self.port_base = port_base;
        self
    }

    /// Overrides the deepest TTL.
    pub fn max_ttl(mut self, max_ttl: u8) -> LocalizeSpec {
        self.max_ttl = max_ttl;
        self
    }

    /// Runs the lab the TTL walk probes on a different topology (e.g. a
    /// generated graph with `vantage` naming a client index).
    ///
    /// # Panics
    /// On a generated topology, [`LocalizeSpec::run`] panics unless
    /// `vantage` is a client index such as `"0"`.
    pub fn with_topology(mut self, topology: TopologySpec) -> LocalizeSpec {
        self.topology = topology;
        self
    }

    /// The single localization entry point. TTL techniques run one cell
    /// per TTL (trial `ttl` on port `port_base + ttl`, a pure function of
    /// the cell); tomography one cell per localization. Deterministic at
    /// every thread count.
    pub fn run(&self, pool: &ScanPool, opts: &RunOpts) -> LocalizeRun {
        let symmetric = match &self.technique {
            LocalizeTechnique::SymmetricTtl => true,
            LocalizeTechnique::UpstreamTtl => false,
            LocalizeTechnique::Tomography(config) => {
                let (tomography, snapshot, report) =
                    run_tomography(config, &self.policy, pool, opts);
                return LocalizeRun {
                    devices: Vec::new(),
                    tomography: Some(tomography),
                    snapshot,
                    report,
                };
            }
        };
        let image = VantageLab::builder()
            .policy(self.policy.clone())
            .topology(self.topology.clone())
            .image();
        let ttls: Vec<u8> = (1..=self.max_ttl).collect();
        let run = pool.run_cells(opts, &ttls, |_| &image, |lab, _, &ttl| {
            let port = self.port_base + u16::from(ttl);
            if symmetric {
                let local = local_end(lab, &self.vantage, port);
                rst_trial(lab, local, "meduza.io", Some(ttl))
            } else {
                upstream_trial(lab, &self.vantage, port, ttl)
            }
        });
        let blocked = run.cells;
        let devices = if symmetric {
            first_onset(&blocked).into_iter().collect()
        } else {
            all_onsets(&blocked)
        };
        LocalizeRun { devices, tomography: None, snapshot: run.snapshot, report: run.report }
    }
}

/// What [`LocalizeSpec::run`] returns.
#[derive(Debug, Clone)]
pub struct LocalizeRun {
    /// Localized devices in onset order. Symmetric walks report at most
    /// one (the first onset); upstream walks one per device; tomography
    /// none (its results are AS-level, in [`LocalizeRun::tomography`]).
    pub devices: Vec<LocalizedDevice>,
    /// `Some` iff the spec's technique was tomography.
    pub tomography: Option<TomographyRun>,
    /// Merged campaign snapshot, `Some` iff [`RunOpts::observe`].
    pub snapshot: Option<Snapshot>,
    /// Wall-clock report, `Some` iff [`RunOpts::report`].
    pub report: Option<PoolReport>,
}

impl LocalizeRun {
    /// The first localized device, if any — what the symmetric walk's
    /// old `Option<LocalizedDevice>` return carried.
    pub fn first(&self) -> Option<LocalizedDevice> {
        self.devices.first().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tspu_registry::Universe;
    use tspu_topology::policy_from_universe;

    fn policy() -> PolicyHandle {
        policy_from_universe(&Universe::generate(3), false, true)
    }

    #[test]
    fn symmetric_device_within_first_three_hops() {
        let policy = policy();
        let pool = ScanPool::single_thread();
        for vantage in ["Rostelecom", "ER-Telecom", "OBIT"] {
            let run = LocalizeSpec::symmetric(policy.clone(), vantage).run(&pool, &RunOpts::quick());
            let found = run.first().unwrap_or_else(|| panic!("no device found at {vantage}"));
            // The lab installs symmetric devices after hop 2.
            assert_eq!(found.after_hop, 2, "{vantage}");
            assert!(found.after_hop <= 3, "§7.1: within the first three hops");
        }
    }

    #[test]
    fn upstream_only_found_on_rostelecom_and_obit() {
        let policy = policy();
        let pool = ScanPool::single_thread();
        // Rostelecom: upstream-only device one hop behind the symmetric
        // one (after hop 3).
        let found = LocalizeSpec::upstream(policy.clone(), "Rostelecom")
            .run(&pool, &RunOpts::quick())
            .devices;
        assert_eq!(found, vec![LocalizedDevice { after_hop: 3 }], "{found:?}");

        // OBIT: at the first transit link (after hop 3 in the lab).
        let found =
            LocalizeSpec::upstream(policy.clone(), "OBIT").run(&pool, &RunOpts::quick()).devices;
        assert_eq!(found, vec![LocalizedDevice { after_hop: 3 }], "{found:?}");

        // ER-Telecom: none.
        let found =
            LocalizeSpec::upstream(policy, "ER-Telecom").run(&pool, &RunOpts::quick()).devices;
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn pooled_localization_matches_sequential() {
        let policy = policy();
        let sequential = |spec: &LocalizeSpec| {
            spec.run(&ScanPool::single_thread(), &RunOpts::quick()).devices
        };
        for threads in [2, 8] {
            let pool = ScanPool::new(threads);
            for vantage in ["Rostelecom", "ER-Telecom", "OBIT"] {
                let spec = LocalizeSpec::symmetric(policy.clone(), vantage);
                assert_eq!(
                    spec.run(&pool, &RunOpts::quick()).devices,
                    sequential(&spec),
                    "{vantage} x{threads}"
                );
            }
            let spec = LocalizeSpec::upstream(policy.clone(), "Rostelecom");
            assert_eq!(spec.run(&pool, &RunOpts::quick()).devices, sequential(&spec));
            let spec = LocalizeSpec::upstream(policy.clone(), "ER-Telecom");
            assert!(spec.run(&pool, &RunOpts::quick()).devices.is_empty(), "x{threads}");
        }
    }

    #[test]
    fn onset_helpers_pin_transitions() {
        assert_eq!(first_onset(&[false, false, true, true]), Some(LocalizedDevice { after_hop: 2 }));
        assert_eq!(first_onset(&[true, true]), Some(LocalizedDevice { after_hop: 0 }));
        assert_eq!(first_onset(&[false, false]), None);
        assert_eq!(
            all_onsets(&[false, true, false, true]),
            vec![LocalizedDevice { after_hop: 1 }, LocalizedDevice { after_hop: 3 }]
        );
    }
}
