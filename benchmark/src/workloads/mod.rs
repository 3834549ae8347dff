//! The eight campaign workloads and what they share.
//!
//! A workload builds its inputs from the seed ([`Workload::setup`]), runs
//! one repetition through the crate's own campaign driver
//! ([`Workload::rep`], the untraced run every end-to-end number comes
//! from), and runs the same cells again through the public building blocks
//! with spans around every call into a layer ([`Workload::traced`]). Both
//! check their outputs and hash them; the runner holds the two hashes
//! against each other.

use std::time::Duration;

use tspu_core::Policy;
use tspu_obs::Snapshot;
use tspu_registry::Universe;
use tspu_topology::VantageLab;

use crate::runner::{self, Outcome, RunSpec};

pub mod as5000_tomography;
pub mod bulk_download;
pub mod profiles_audited;
pub mod registry_churn;
pub mod registry_sweep;
pub mod remote_fragscan;
pub mod soak_steady;

pub struct WorkloadInfo {
    pub name: &'static str,
    /// One line, mirrored into `BENCHMARK.json`: which layers the workload
    /// stresses and which it bypasses.
    pub why: &'static str,
}

/// A workload as the command line sees it: its description and the
/// function that runs it.
pub struct Listed {
    pub name: &'static str,
    pub why: &'static str,
    pub run: fn(&RunSpec) -> Outcome,
}

const fn listed<W: Workload>() -> Listed {
    Listed {
        name: W::INFO.name,
        why: W::INFO.why,
        run: runner::run::<W>,
    }
}

/// Every workload, in the order `--workload all` runs them.
pub const ALL: &[Listed] = &[
    listed::<registry_sweep::Fig1>(),
    listed::<profiles_audited::ProfilesAudited>(),
    listed::<registry_churn::RegistryChurn>(),
    listed::<soak_steady::SoakSteady>(),
    listed::<registry_sweep::As5000>(),
    listed::<as5000_tomography::As5000Tomography>(),
    listed::<remote_fragscan::RemoteFragscan>(),
    listed::<bulk_download::BulkDownload>(),
];

/// Input size. `Check` is a hundredth of `Full`: every code path and every
/// output check, in about a second for all workloads together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Check,
}

impl Size {
    /// `full` cells at full size, a hundredth (at least `floor`) in a check.
    pub fn cells(self, full: usize, floor: usize) -> usize {
        match self {
            Size::Full => full,
            Size::Check => (full / 100).max(floor),
        }
    }
}

/// Exact counts a repetition produced. They are simulated quantities, so
/// they repeat from run to run (the runner checks); a workload fills in
/// what it can see from where it stands, the rest stays 0.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    /// Netsim events dispatched (`netsim.events_processed`).
    pub events: u64,
    /// Packets the TSPU devices on the probed paths saw.
    pub device_packets: u64,
    /// Lab or network forks taken.
    pub forks: u64,
    /// ASes of the generated image a repetition builds (0 on Fig. 1).
    pub image_ases: u64,
    /// ClientHellos (or other trigger evaluations) sent through a device.
    pub client_hellos: u64,
    /// Application payload bytes delivered to the client.
    pub payload_bytes: u64,
    /// Fragment trains (45 or 46 pieces) sent at endpoints behind a device.
    pub frag_trains: u64,
    /// Fragments the devices' 45-fragment queues discarded.
    pub frag_discarded: u64,
    /// `Policy::apply_delta` calls made to bring a lab to its day.
    pub delta_applies: u64,
    /// Soak only, from `SoakReport`: peak flows the device tracked, its
    /// flow-table bytes per tracked flow, GC ring probes, deepest queue.
    pub tracked_flows_peak: u64,
    pub bytes_per_flow: f64,
    pub gc_probes: u64,
    pub wheel_depth_peak: u64,
}

impl Counts {
    /// Field-wise maximum: the untraced and the traced run each see some
    /// of the counts, and where both see one it is the same number.
    pub fn merged(self, other: Counts) -> Counts {
        Counts {
            events: self.events.max(other.events),
            device_packets: self.device_packets.max(other.device_packets),
            forks: self.forks.max(other.forks),
            image_ases: self.image_ases.max(other.image_ases),
            client_hellos: self.client_hellos.max(other.client_hellos),
            payload_bytes: self.payload_bytes.max(other.payload_bytes),
            frag_trains: self.frag_trains.max(other.frag_trains),
            frag_discarded: self.frag_discarded.max(other.frag_discarded),
            delta_applies: self.delta_applies.max(other.delta_applies),
            tracked_flows_peak: self.tracked_flows_peak.max(other.tracked_flows_peak),
            bytes_per_flow: self.bytes_per_flow.max(other.bytes_per_flow),
            gc_probes: self.gc_probes.max(other.gc_probes),
            wheel_depth_peak: self.wheel_depth_peak.max(other.wheel_depth_peak),
        }
    }
}

/// What one repetition did.
#[derive(Debug, Clone, Default)]
pub struct RepOut {
    /// Wall time of the timed region: the campaign call(s), not the output
    /// checks and not per-repetition input generation.
    pub wall: Duration,
    /// Traced runs that time their campaign several times over: the median
    /// wall, already at nominal speed. `None` means `wall` was timed once.
    pub nominal_wall_ns: Option<f64>,
    /// Operations attempted — the denominator of `us_per_cell`.
    pub cells: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// Hash of the simulated outputs; identical on every repetition.
    pub digest: u64,
    pub counts: Counts,
    /// Layer metrics the workload measured itself instead of through
    /// spans: wall-clock figures a driver reports, differential runs.
    pub layer: Vec<(&'static str, f64)>,
}

/// One term of a workload's cost ledger: `count` operations at
/// `ns_each`, both measured — the count in the traced run, the cost on
/// the ladder.
pub struct LedgerTerm {
    pub what: &'static str,
    pub count: f64,
    pub ns_each: f64,
}

/// Looks a ladder rung's cost up by metric name.
pub type RungCost<'a> = &'a dyn Fn(&str) -> f64;

impl LedgerTerm {
    pub fn new(what: &'static str, count: f64, ns_each: f64) -> LedgerTerm {
        LedgerTerm {
            what,
            count,
            ns_each,
        }
    }

    /// Every netsim event at the cost of a bare hop.
    pub fn events(counts: &Counts, rung: RungCost) -> LedgerTerm {
        LedgerTerm::new("netsim events", counts.events as f64, rung("netsim.hop_ns"))
    }

    /// Every packet a device saw at the cost of a data packet.
    pub fn device_packets(counts: &Counts, rung: RungCost) -> LedgerTerm {
        LedgerTerm::new(
            "device packets",
            counts.device_packets as f64,
            rung("core.device_data_packet_ns"),
        )
    }

    /// What a ClientHello costs a device over a data packet.
    pub fn client_hellos(count: u64, rung: RungCost) -> LedgerTerm {
        let surcharge = rung("core.device_clienthello_ns") - rung("core.device_data_packet_ns");
        LedgerTerm::new("ClientHello evaluations", count as f64, surcharge.max(0.0))
    }
}

pub trait Workload: Sized {
    const INFO: WorkloadInfo;

    /// Builds the inputs from the seed. Timed as `setup_s`.
    fn setup(seed: u64, size: Size) -> Self;

    /// One untraced repetition through the campaign driver.
    fn rep(&mut self) -> RepOut;

    /// The same cells through the public building blocks, recording spans.
    /// Its digest must equal [`Workload::rep`]'s.
    fn traced(&mut self) -> RepOut;

    /// The ladder rungs this workload's repetition is made of, with their
    /// counts. `rung` looks a ladder metric up by name.
    fn ledger(counts: &Counts, cells: u64, rung: RungCost) -> Vec<LedgerTerm>;
}

/// FNV-1a over the simulated outputs: small, dependency-free, and stable
/// across platforms and toolchains (unlike `DefaultHasher`).
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Does any list the devices enforce hold `name`? (The throttle list only
/// while throttling is on.)
pub fn policy_lists(policy: &Policy, name: &str) -> bool {
    policy.sni_rst.matches(name)
        || policy.sni_slow.matches(name)
        || policy.sni_backup.matches(name)
        || (policy.throttle_active && policy.sni_throttle.matches(name))
}

/// Packets seen by the devices on a Fig. 1 vantage's path.
pub fn vantage_device_packets(lab: &VantageLab, vantage: &str) -> u64 {
    let vantage = lab.vantage(vantage);
    std::iter::once(vantage.sym_device)
        .chain(vantage.upstream_devices.iter().copied())
        .map(|device| lab.net.middlebox(device).stats().packets_seen)
        .sum()
}

/// Packets seen by every device, out of a campaign's merged snapshot.
pub fn snapshot_device_packets(snapshot: &Snapshot) -> u64 {
    snapshot
        .metrics()
        .iter()
        .filter(|(name, _)| name.starts_with("device.") && name.ends_with(".packets_seen"))
        .map(|(name, _)| snapshot.counter(name))
        .sum()
}

/// The §6 domain list at `n` names: the registry sample, the Tranco list,
/// then filler up to size — about a tenth blocked at 100k.
pub fn campaign_domains(universe: &Universe, n: usize) -> Vec<String> {
    universe
        .registry_sample
        .iter()
        .chain(universe.tranco.iter())
        .map(|d| d.name.clone())
        .chain((0..n).map(|i| format!("filler-{i}.example.ru")))
        .take(n)
        .collect()
}

/// A balanced cut of the same list for workloads that take fewer names:
/// one registry name in ten, so the blocked share stays near a tenth at
/// any size instead of reaching 96 % when `n` is below the sample size.
pub fn mixed_domains(universe: &Universe, n: usize) -> Vec<String> {
    let mut blocked = universe.registry_sample.iter().map(|d| d.name.clone());
    let mut open = universe
        .tranco
        .iter()
        .map(|d| d.name.clone())
        .chain((0..n).map(|i| format!("filler-{i}.example.ru")));
    (0..n)
        .map(|i| {
            let next = if i % 10 == 0 { blocked.next() } else { None };
            next.or_else(|| open.next())
                .expect("filler is as long as the list")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_fnv1a_64() {
        // Published FNV-1a test vectors.
        assert_eq!(Digest::default().finish(), 0xcbf2_9ce4_8422_2325);
        let mut d = Digest::default();
        d.bytes(b"a");
        assert_eq!(d.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut d = Digest::default();
        d.bytes(b"foobar");
        assert_eq!(d.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn domain_lists_have_the_size_asked_for_and_the_blocked_share() {
        let universe = Universe::generate(7);
        let names = campaign_domains(&universe, 30_000);
        assert_eq!(names.len(), 30_000);
        assert_eq!(names[0], universe.registry_sample[0].name);
        let mixed = mixed_domains(&universe, 1_000);
        assert_eq!(mixed.len(), 1_000);
        let registry: std::collections::HashSet<&str> = universe
            .registry_sample
            .iter()
            .map(|d| d.name.as_str())
            .collect();
        let from_registry = mixed
            .iter()
            .filter(|d| registry.contains(d.as_str()))
            .count();
        assert_eq!(from_registry, 100);
    }

    #[test]
    fn check_size_is_a_hundredth_with_a_floor() {
        assert_eq!(Size::Full.cells(100_000, 10), 100_000);
        assert_eq!(Size::Check.cells(100_000, 10), 1_000);
        assert_eq!(Size::Check.cells(500, 10), 10);
    }
}
