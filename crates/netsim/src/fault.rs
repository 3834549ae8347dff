//! Deterministic chaos injection, in the smoltcp tradition of testing
//! stacks against adverse links: every fault a real Russian transit path
//! exhibits — loss, duplication, bounded reordering, delay jitter, MTU
//! blackholes, link flaps — driven by a seeded RNG so any failure replays
//! exactly from its (plan, seed) pair.
//!
//! The paper's Table 1 exists because these faults are *why* 20,000-trial
//! reliability campaigns were needed: TSPU devices keep enforcing the same
//! trigger/timeout/fragment model on lossy, reordering, intermittently
//! asymmetric paths. A [`FaultPlan`] makes that adversity a systematic,
//! replayable dimension of every sweep instead of an accident of the
//! physical internet:
//!
//! * [`LinkFaults`] + [`ChaosLink`] — per-link packet-level faults,
//!   composable on any [`crate::RouteStep`] like any other middlebox.
//! * [`DeviceFaults`] — device-level faults (mid-flight restart that wipes
//!   conntrack/fragment state, policy hot-reload mid-connection, the
//!   Table-1 probabilistic bypass), interpreted by `tspu-core`'s device.
//! * [`LinkStats`] — uniform per-middlebox fault counters, the fault
//!   layer's analogue of the device's `DeviceStats`, consumed by oracle
//!   reports.

use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tspu_obs::{MetricNames, Snapshot};

use crate::middlebox::{Direction, Middlebox, MiddleboxImage, Verdict};
use crate::time::Time;

/// Derives an independent RNG seed from a plan seed and a salt (a link
/// index, scenario number, …) with a splitmix64 finalizer, so every link of
/// a plan gets a decorrelated stream while the whole plan stays a pure
/// function of one seed.
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform per-link fault counters — the fault layer's `DeviceStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Packets that exited the link (originals, duplicates, releases).
    pub forwarded: u64,
    /// Packets dropped by random loss.
    pub dropped: u64,
    /// Extra packets injected into the stream (duplicate copies).
    pub injected: u64,
    /// Packets that were duplicated.
    pub duplicated: u64,
    /// Packets held back and released out of order.
    pub reordered: u64,
    /// Packets given extra queueing delay.
    pub delayed: u64,
    /// Packets dropped for exceeding the link MTU (a PMTU blackhole).
    pub clamped: u64,
    /// Packets dropped while the link was flapped down.
    pub flapped: u64,
}

impl LinkStats {
    /// Every packet this link consumed rather than forwarded.
    pub fn total_dropped(&self) -> u64 {
        self.dropped + self.clamped + self.flapped
    }

    /// The export table: name under `link.<label>.` → count.
    fn exported(&self) -> [(&'static str, u64); 8] {
        [
            ("forwarded", self.forwarded),
            ("dropped", self.dropped),
            ("injected", self.injected),
            ("duplicated", self.duplicated),
            ("reordered", self.reordered),
            ("delayed", self.delayed),
            ("clamped", self.clamped),
            ("flapped", self.flapped),
        ]
    }
}

/// A link up/down duty cycle: up for `up`, then down for `down`, repeating
/// from simulation start. Packets crossing while down are dropped — the
/// paper's intermittently asymmetric paths, as a deterministic time window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlapSpec {
    /// How long the link stays up in each cycle.
    pub up: Duration,
    /// How long the link stays down in each cycle.
    pub down: Duration,
}

impl FlapSpec {
    /// True if the link is down at `now`.
    pub fn is_down(&self, now: Time) -> bool {
        let period = (self.up + self.down).as_micros() as u64;
        if period == 0 {
            return false;
        }
        now.as_micros() % period >= self.up.as_micros() as u64
    }
}

/// The per-link half of a [`FaultPlan`]: every fault rate in one value.
/// `Default` is an exact no-op — a zero-rate [`ChaosLink`] forwards every
/// packet untouched, undelayed, and in order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinkFaults {
    /// Probability a packet is dropped, in `[0, 1]`.
    pub loss: f64,
    /// Probability a packet is duplicated, in `[0, 1]`.
    pub duplicate: f64,
    /// Probability a packet is held back and re-injected later, in `[0, 1]`.
    pub reorder: f64,
    /// Upper bound on how many subsequent packets may overtake a held one.
    /// Zero disables reordering regardless of `reorder`.
    pub max_displacement: usize,
    /// Maximum extra queueing delay; each delayed packet draws uniformly
    /// from `[0, jitter]`. Zero disables jitter.
    pub jitter: Duration,
    /// Drop packets longer than this many bytes (a PMTU blackhole).
    pub mtu: Option<usize>,
    /// Link up/down duty cycle.
    pub flap: Option<FlapSpec>,
}

impl LinkFaults {
    /// True if this plan can never perturb a packet.
    pub fn is_noop(&self) -> bool {
        self.loss == 0.0
            && self.duplicate == 0.0
            && (self.reorder == 0.0 || self.max_displacement == 0)
            && self.jitter == Duration::ZERO
            && self.mtu.is_none()
            && self.flap.is_none()
    }

    /// A loss-only plan.
    pub fn lossy(loss: f64) -> LinkFaults {
        LinkFaults { loss, ..LinkFaults::default() }
    }
}

/// The device-level half of a [`FaultPlan`]. The simulator defines the
/// schedule; `tspu-core`'s device interprets it (netsim cannot know what
/// "conntrack" or "policy" mean).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeviceFaults {
    /// Virtual times at which the device restarts, wiping all flow and
    /// fragment state — the mid-flight reboot that silently unblocks every
    /// residually-blocked 5-tuple.
    pub restarts: Vec<Duration>,
    /// Virtual time at which a policy hot-reload fires mid-connection (the
    /// §5.2 March-4 style switch); the device owner supplies the policy to
    /// swap in.
    pub reload_at: Option<Duration>,
    /// Override for the Table-1 probabilistic bypass rate, unifying the
    /// device failure dice under the same plan as the link faults.
    pub bypass_rate: Option<f64>,
}

impl DeviceFaults {
    /// True if this plan never perturbs the device.
    pub fn is_noop(&self) -> bool {
        self.restarts.is_empty() && self.reload_at.is_none() && self.bypass_rate.is_none()
    }
}

/// One seeded chaos schedule for a whole route: link faults for each
/// traffic direction plus device faults, all derived from one seed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Master seed; per-link RNG streams derive from it via [`derive_seed`].
    pub seed: u64,
    /// Faults on the local→remote (upstream) transit link.
    pub forward: LinkFaults,
    /// Faults on the remote→local (downstream) transit link.
    pub reverse: LinkFaults,
    /// Faults applied to the in-path device itself.
    pub device: DeviceFaults,
}

impl FaultPlan {
    /// An all-quiet plan with the given seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan { seed, ..FaultPlan::default() }
    }

    /// Applies the same link faults in both directions.
    pub fn symmetric(seed: u64, faults: LinkFaults) -> FaultPlan {
        FaultPlan { seed, forward: faults.clone(), reverse: faults, ..FaultPlan::default() }
    }

    /// True if no fault in the plan can ever fire.
    pub fn is_noop(&self) -> bool {
        self.forward.is_noop() && self.reverse.is_noop() && self.device.is_noop()
    }

    /// The RNG seed for the `salt`-th link of this plan.
    pub fn link_seed(&self, salt: u64) -> u64 {
        derive_seed(self.seed, salt)
    }
}

/// A packet held for reordering: released after `remaining` more packets
/// pass the link.
struct HeldPacket {
    remaining: usize,
    packet: Vec<u8>,
}

/// A link that applies every [`LinkFaults`] dimension with one seeded RNG.
///
/// Per-packet draw order is fixed (flap gate, loss, MTU, duplicate,
/// reorder, jitter), so a (plan, seed) pair replays byte-identically.
/// Reordered packets are held in the link and re-injected after a bounded
/// number of later packets pass; if traffic stops first, held packets are
/// lost (trailing loss — exactly what a real reordering queue does when
/// the flow ends).
pub struct ChaosLink {
    image: ChaosLinkImage,
    rng: SmallRng,
    held: Vec<HeldPacket>,
    stats: LinkStats,
}

impl ChaosLink {
    /// Creates a chaos link from a fault plan and a seed. Its counters
    /// export under `link.chaos.*`; use [`ChaosLink::labeled`] to scope
    /// them to a named link.
    pub fn new(faults: LinkFaults, seed: u64) -> ChaosLink {
        ChaosLink::labeled(faults, seed, "chaos")
    }

    /// Creates a chaos link whose counters export under `link.<label>.*`.
    pub fn labeled(faults: LinkFaults, seed: u64, label: &str) -> ChaosLink {
        assert!((0.0..=1.0).contains(&faults.loss), "loss out of [0,1]");
        assert!((0.0..=1.0).contains(&faults.duplicate), "duplicate out of [0,1]");
        assert!((0.0..=1.0).contains(&faults.reorder), "reorder out of [0,1]");
        let names = MetricNames::scoped(&format!("link.{label}"), LinkStats::default().exported());
        ChaosLinkImage { faults, seed, names }.fork()
    }

    /// The fault counters so far.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// This link's counters exported as a [`Snapshot`] under its
    /// `link.<label>.*` scope.
    pub fn obs_snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::new();
        snap.insert_counters(&self.image.names, self.stats.exported());
        snap
    }

    /// The plan this link runs.
    pub fn faults(&self) -> &LinkFaults {
        &self.image.faults
    }

    /// Packets currently held for reordering (lost if traffic ends).
    pub fn held(&self) -> usize {
        self.held.len()
    }

    /// Advances hold counters by one forwarded slot, returning the packets
    /// whose displacement is exhausted, in hold order.
    fn take_released(&mut self) -> Vec<Vec<u8>> {
        if self.held.is_empty() {
            return Vec::new();
        }
        let mut released = Vec::new();
        let mut still_held = Vec::new();
        for mut held in self.held.drain(..) {
            held.remaining -= 1;
            if held.remaining == 0 {
                released.push(held.packet);
            } else {
                still_held.push(held);
            }
        }
        self.held = still_held;
        released
    }
}

impl Middlebox for ChaosLink {
    fn process(&mut self, now: Time, _direction: Direction, packet: &mut Vec<u8>) -> Verdict {
        // Zero-rate fast path: no RNG draw, no hold-queue touch — the
        // no-op plan is *exactly* the absent link.
        if self.image.faults.is_noop() {
            self.stats.forwarded += 1;
            return Verdict::Pass;
        }

        if let Some(flap) = self.image.faults.flap {
            if flap.is_down(now) {
                self.stats.flapped += 1;
                return Verdict::Drop;
            }
        }
        if self.image.faults.loss > 0.0 && self.rng.gen_bool(self.image.faults.loss) {
            self.stats.dropped += 1;
            return Verdict::Drop;
        }
        if let Some(mtu) = self.image.faults.mtu {
            if packet.len() > mtu {
                self.stats.clamped += 1;
                return Verdict::Drop;
            }
        }

        let duplicate = self.image.faults.duplicate > 0.0 && self.rng.gen_bool(self.image.faults.duplicate);
        let reorder = self.image.faults.reorder > 0.0
            && self.image.faults.max_displacement > 0
            && self.rng.gen_bool(self.image.faults.reorder);

        if reorder {
            // Hold this packet; it re-enters the stream after `displacement`
            // later packets pass. Any packets whose hold expires on this
            // slot still go out now.
            let displacement = self.rng.gen_range(1..=self.image.faults.max_displacement);
            let released = self.take_released();
            self.stats.reordered += 1;
            self.held.push(HeldPacket { remaining: displacement, packet: std::mem::take(packet) });
            if released.is_empty() {
                return Verdict::Drop;
            }
            self.stats.forwarded += released.len() as u64;
            return Verdict::Fanout(released);
        }

        let released = self.take_released();
        if duplicate {
            self.stats.duplicated += 1;
            self.stats.injected += 1;
        }
        if released.is_empty() && !duplicate {
            // Common case: the packet continues alone, possibly jittered.
            self.stats.forwarded += 1;
            if self.image.faults.jitter > Duration::ZERO {
                let jitter_us = self.image.faults.jitter.as_micros() as u64;
                let extra = self.rng.gen_range(0..=jitter_us);
                if extra > 0 {
                    self.stats.delayed += 1;
                    return Verdict::Delay(Duration::from_micros(extra));
                }
            }
            return Verdict::Pass;
        }

        // Multi-packet slot: releases first (they were sent earlier), then
        // the current packet, then its duplicate.
        let mut out = released;
        out.push(packet.clone());
        if duplicate {
            out.push(packet.clone());
        }
        self.stats.forwarded += out.len() as u64;
        Verdict::Fanout(out)
    }

    fn label(&self) -> String {
        format!(
            "chaos(loss={:.2}%, dup={:.2}%, reorder={:.2}%)",
            self.image.faults.loss * 100.0,
            self.image.faults.duplicate * 100.0,
            self.image.faults.reorder * 100.0
        )
    }

    fn image(&self) -> Option<Box<dyn MiddleboxImage>> {
        Some(Box::new(self.image.clone()))
    }
}

/// The configuration of a [`ChaosLink`], and all that a fork of it keeps:
/// fault plan, RNG seed, and export names. A fork reseeds the RNG from
/// scratch, so it replays the exact fault sequence of a freshly built link.
#[derive(Clone)]
struct ChaosLinkImage {
    faults: LinkFaults,
    seed: u64,
    /// Export names, `link.<label>.*`, shared with the link's forks.
    names: MetricNames,
}

impl ChaosLinkImage {
    /// A pristine link: reseeded RNG, nothing held, zeroed counters.
    fn fork(&self) -> ChaosLink {
        ChaosLink {
            image: self.clone(),
            rng: SmallRng::seed_from_u64(self.seed),
            held: Vec::new(),
            stats: LinkStats::default(),
        }
    }
}

impl MiddleboxImage for ChaosLinkImage {
    fn instantiate(&self) -> Box<dyn Middlebox> {
        Box::new(self.fork())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_seed_decorrelates_salts() {
        let a = derive_seed(1, 0);
        let b = derive_seed(1, 1);
        let c = derive_seed(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, derive_seed(1, 0));
    }

    #[test]
    fn zero_rate_chaos_link_is_pure_passthrough() {
        let mut link = ChaosLink::new(LinkFaults::default(), 99);
        for i in 0..1000u32 {
            let pkt = i.to_be_bytes().to_vec();
            let out = link.process_owned(Time::from_micros(i as u64), Direction::LocalToRemote, pkt.clone());
            assert_eq!(out, vec![pkt]);
        }
        assert_eq!(link.stats().forwarded, 1000);
        assert_eq!(link.stats().total_dropped(), 0);
    }

    #[test]
    fn chaos_loss_counts_in_stats() {
        for (loss, packets, dropped) in [(0.5, 1_000, 300..=700), (0.25, 10_000, 2_300..=2_700)] {
            let mut link = ChaosLink::new(LinkFaults::lossy(loss), 11);
            for _ in 0..packets {
                link.process_owned(Time::ZERO, Direction::LocalToRemote, vec![0; 16]);
            }
            let stats = link.stats();
            assert_eq!(stats.forwarded + stats.dropped, packets);
            assert!(dropped.contains(&stats.dropped), "loss {loss}: dropped {}", stats.dropped);
        }
    }

    #[test]
    fn duplication_injects_copies() {
        let faults = LinkFaults { duplicate: 1.0, ..LinkFaults::default() };
        let mut link = ChaosLink::new(faults, 5);
        let out = link.process_owned(Time::ZERO, Direction::LocalToRemote, vec![7; 8]);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], out[1]);
        assert_eq!(link.stats().duplicated, 1);
        assert_eq!(link.stats().injected, 1);
        assert_eq!(link.stats().forwarded, 2);
    }

    #[test]
    fn reordering_displaces_by_bounded_count() {
        // With reorder=1.0 every packet would be held; use a plan that holds
        // only the first packet by construction: displace ≤ 2, then watch
        // the held packet re-enter within 2 slots.
        let faults = LinkFaults { reorder: 0.3, max_displacement: 2, ..LinkFaults::default() };
        let mut link = ChaosLink::new(faults, 13);
        let mut out_order = Vec::new();
        for i in 0..200u8 {
            for pkt in link.process_owned(Time::ZERO, Direction::LocalToRemote, vec![i]) {
                out_order.push(pkt[0]);
            }
        }
        assert!(link.stats().reordered > 0, "no packet was ever held");
        // Bounded displacement: a packet may move at most max_displacement
        // slots later, so values can only lag their sorted position.
        for (pos, &val) in out_order.iter().enumerate() {
            let displacement = pos as i64 - val as i64;
            assert!(
                (-3..=3).contains(&displacement),
                "packet {val} displaced by {displacement} at position {pos}"
            );
        }
        // Conservation: everything except still-held trailing packets came out.
        assert_eq!(out_order.len() + link.held(), 200);
    }

    #[test]
    fn jitter_delays_but_never_drops() {
        let faults = LinkFaults { jitter: Duration::from_millis(5), ..LinkFaults::default() };
        let mut link = ChaosLink::new(faults, 17);
        let mut delayed = 0;
        for _ in 0..100 {
            let mut pkt = vec![1, 2, 3];
            match link.process(Time::ZERO, Direction::LocalToRemote, &mut pkt) {
                Verdict::Pass => {}
                Verdict::Delay(d) => {
                    assert!(d <= Duration::from_millis(5));
                    delayed += 1;
                }
                other => panic!("unexpected verdict {other:?}"),
            }
        }
        assert!(delayed > 0);
        assert_eq!(link.stats().delayed, delayed);
        assert_eq!(link.stats().forwarded, 100);
    }

    #[test]
    fn mtu_clamp_drops_oversized() {
        let faults = LinkFaults { mtu: Some(100), ..LinkFaults::default() };
        let mut link = ChaosLink::new(faults, 23);
        assert_eq!(link.process_owned(Time::ZERO, Direction::LocalToRemote, vec![0; 99]).len(), 1);
        assert_eq!(link.process_owned(Time::ZERO, Direction::LocalToRemote, vec![0; 101]).len(), 0);
        assert_eq!(link.stats().clamped, 1);
    }

    #[test]
    fn flap_window_drops_during_down_phase() {
        let faults = LinkFaults {
            flap: Some(FlapSpec { up: Duration::from_secs(1), down: Duration::from_secs(1) }),
            ..LinkFaults::default()
        };
        let mut link = ChaosLink::new(faults, 29);
        // t=0.5s: up. t=1.5s: down. t=2.5s: up again.
        assert_eq!(link.process_owned(Time::from_micros(500_000), Direction::LocalToRemote, vec![1]).len(), 1);
        assert_eq!(link.process_owned(Time::from_micros(1_500_000), Direction::LocalToRemote, vec![2]).len(), 0);
        assert_eq!(link.process_owned(Time::from_micros(2_500_000), Direction::LocalToRemote, vec![3]).len(), 1);
        assert_eq!(link.stats().flapped, 1);
    }

    #[test]
    fn chaos_replays_byte_identically_per_seed() {
        let faults = LinkFaults {
            loss: 0.2,
            duplicate: 0.1,
            reorder: 0.1,
            max_displacement: 3,
            jitter: Duration::from_millis(2),
            ..LinkFaults::default()
        };
        let run = |seed| {
            let mut link = ChaosLink::new(faults.clone(), seed);
            let mut out = Vec::new();
            for i in 0..500u16 {
                let pkt = i.to_be_bytes().to_vec();
                out.push(link.process_owned(Time::from_micros(i as u64 * 100), Direction::LocalToRemote, pkt));
            }
            (out, link.stats())
        };
        assert_eq!(run(77), run(77));
        assert_ne!(run(77).0, run(78).0);
    }

    #[test]
    fn fault_plan_noop_detection() {
        assert!(FaultPlan::new(1).is_noop());
        assert!(!FaultPlan::symmetric(1, LinkFaults::lossy(0.01)).is_noop());
        let mut plan = FaultPlan::new(2);
        plan.device.restarts.push(Duration::from_secs(30));
        assert!(!plan.is_noop());
        // Reorder rate without displacement budget can never fire.
        let stuck = LinkFaults { reorder: 0.5, max_displacement: 0, ..LinkFaults::default() };
        assert!(stuck.is_noop());
    }
}
