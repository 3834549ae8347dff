//! Seeded AS-graph generation — "RuNet at scale" for the vantage lab.
//!
//! [`TopologySpec`] is the axis [`crate::LabBuilder`] dispatches on:
//! `Fig1` builds the fixed paper topology exactly as before, while
//! `Generated(GenParams)` grows a parameterized AS graph — leaf ISPs
//! attached to transit cores by preferential attachment under a single
//! border AS, TSPU devices placed by a [`Placement`] policy — at sizes
//! (100…5000 ASes) the fixed lab never reaches. Every client leaf gets
//! *two* provider paths (primary and backup transit), both pre-interned
//! in the network's route arena, and a seeded [`ChurnEvent`] schedule
//! flips clients between them at virtual-time instants via
//! [`tspu_netsim::Network::schedule_reroute`] — the substrate the
//! tomography campaign (`tspu_measure::tomography`) localizes censors on.
//!
//! The generator is a pure function of `(seed, GenParams)`: same inputs,
//! byte-identical topology, devices, and churn schedule (pinned by
//! proptest in `tests/gen_proptests.rs`).

use std::net::Ipv4Addr;
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tspu_core::{CensorProfile, FailureProfile, PolicyHandle, TspuDevice};
use tspu_netsim::{Direction, HostId, MiddleboxHandle, Network, Route, RouteId, RouteStep};

use crate::lab::{endpoint_network, VantageLab};

/// Which topology a [`crate::LabBuilder`] constructs.
///
/// `Fig1` is the default and reproduces the paper's fixed lab
/// byte-identically (pinned by a differential test in `lab.rs`).
/// `Generated` plugs in the seeded AS-graph generator; the Fig.-1-only
/// [`crate::LabBuilder::table1`] is a no-op on generated labs, whose
/// devices are always reliable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum TopologySpec {
    /// The fixed Fig. 1 measurement setup (three vantages, six devices).
    #[default]
    Fig1,
    /// A seeded AS graph from [`GenParams`].
    Generated(GenParams),
}

/// Where the generator places TSPU devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// One device per transit core *and* at the border — the saturated
    /// deployment the paper's §5.2.1 findings trend toward.
    AllTransit,
    /// A single device at the border AS — the centralized-GFW contrast.
    BorderOnly,
    /// `k` device sites drawn (seeded) from the border + transit cores —
    /// partial rollout; some client paths may cross no device at all.
    RandomK(usize),
}

/// Parameters for one generated topology. Construct with
/// [`GenParams::new`] and refine with the builder methods.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenParams {
    /// RNG seed; the graph is a pure function of `(seed, params)`.
    pub seed: u64,
    /// Total AS count: 1 border + transits + leaf ISPs.
    pub num_ases: usize,
    /// Probing clients, one per leaf AS (client `i` lives in leaf `i`).
    pub clients: usize,
    /// TSPU device placement policy.
    pub placement: Placement,
    /// Number of scheduled path flips in the churn schedule.
    pub churn_flips: usize,
    /// Virtual-time spacing between consecutive flips.
    pub churn_period: Duration,
}

impl GenParams {
    /// Defaults: 4 clients, all-transit placement, 8 flips 30 s apart.
    pub fn new(seed: u64, num_ases: usize) -> GenParams {
        GenParams {
            seed,
            num_ases,
            clients: 4,
            placement: Placement::AllTransit,
            churn_flips: 8,
            churn_period: Duration::from_secs(30),
        }
    }

    /// Sets the probing-client count.
    pub fn clients(mut self, clients: usize) -> GenParams {
        self.clients = clients;
        self
    }

    /// Sets the device placement policy.
    pub fn placement(mut self, placement: Placement) -> GenParams {
        self.placement = placement;
        self
    }

    /// Sets the churn schedule: `flips` path flips, `period` apart.
    pub fn churn(mut self, flips: usize, period: Duration) -> GenParams {
        self.churn_flips = flips;
        self.churn_period = period;
        self
    }
}

/// One provider path of a generated client: the transit core it crosses,
/// both interned route directions, and the ground truth the tomography
/// campaign scores against.
#[derive(Debug, Clone)]
pub struct RouteVariant {
    /// AS id of the transit core this variant crosses.
    pub transit_as: usize,
    /// Interned client → destination route (shared by both US hosts —
    /// the steps are identical, so the arena holds it once).
    pub forward: RouteId,
    /// Interned destination → client route.
    pub reverse: RouteId,
    /// Every AS id on the path: `[leaf, transit, border]`. The node sets
    /// tomography intersects.
    pub path_ases: Vec<usize>,
    /// Devices on this path as `(index into GenTopology::devices, hop)`;
    /// hop is 1-based from the client, matching `LocalizedDevice`.
    pub devices: Vec<(usize, u8)>,
}

/// One probing client of a generated topology.
#[derive(Debug, Clone)]
pub struct GenClient {
    pub host: HostId,
    pub addr: Ipv4Addr,
    /// AS id of the leaf this client lives in.
    pub leaf_as: usize,
    pub primary: RouteVariant,
    pub backup: RouteVariant,
}

/// One placed TSPU device.
#[derive(Clone)]
pub struct GenDevice {
    pub handle: MiddleboxHandle<TspuDevice>,
    pub label: String,
    /// AS id of the site this device enforces at (border or transit).
    pub as_id: usize,
}

/// One scheduled path flip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnEvent {
    /// Virtual instant of the flip (from lab time zero).
    pub at: Duration,
    /// Which client's routes flip.
    pub client: usize,
    /// The variant in force *after* this flip.
    pub to_backup: bool,
}

/// Ground truth for a generated lab: clients with both provider paths,
/// placed devices, and the churn schedule. Shared by `Arc` from
/// [`VantageLab`] into every [`crate::LabImage`] fork — like the route
/// arena, it is topology, not per-run state.
pub struct GenTopology {
    pub params: GenParams,
    /// Transit core count (`T`); AS ids are `0` = border, `1..=T` =
    /// transits, `T+1..num_ases` = leaves.
    pub num_transits: usize,
    pub clients: Vec<GenClient>,
    pub devices: Vec<GenDevice>,
    /// Flips in schedule order (strictly increasing `at`).
    pub churn: Vec<ChurnEvent>,
}

impl GenTopology {
    /// Whether `client` rides its backup variant after the first
    /// `flips_applied` churn events — replayed from the schedule, so any
    /// observer tracking "which path is this probe on" agrees with the
    /// engine's route table by construction.
    pub fn on_backup_after(&self, client: usize, flips_applied: usize) -> bool {
        self.churn[..flips_applied.min(self.churn.len())]
            .iter()
            .rev()
            .find(|ev| ev.client == client)
            .map(|ev| ev.to_backup)
            .unwrap_or(false)
    }

    /// The variant `client` rides after `flips_applied` churn events.
    pub fn variant_after(&self, client: usize, flips_applied: usize) -> &RouteVariant {
        let c = &self.clients[client];
        if self.on_backup_after(client, flips_applied) { &c.backup } else { &c.primary }
    }

    /// Device indices reachable by at least one client variant — the
    /// candidate set a tomography cell draws its active censor from
    /// (sorted, deduplicated; empty under a placement that left every
    /// probed path clean).
    pub fn censor_candidates(&self) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .clients
            .iter()
            .flat_map(|c| c.primary.devices.iter().chain(c.backup.devices.iter()))
            .map(|&(di, _)| di)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Router address of an AS: border, transit cores, then leaves. Disjoint
/// ranges — border on `188.128.50.1` (mirroring Fig. 1's AS12389 border),
/// transits on `172.100.t.1` (t ≤ 64), leaves on `172.(16+hi).lo.1`
/// (16+hi < 100 for every supported size).
fn router_addr(num_transits: usize, as_id: usize) -> Ipv4Addr {
    if as_id == 0 {
        Ipv4Addr::new(188, 128, 50, 1)
    } else if as_id <= num_transits {
        Ipv4Addr::new(172, 100, as_id as u8, 1)
    } else {
        let leaf = as_id - 1 - num_transits;
        Ipv4Addr::new(172, 16 + (leaf >> 8) as u8, (leaf & 0xff) as u8, 1)
    }
}

/// Client address: inside `10.0.0.0/8` so the oracle's "local side"
/// predicate covers generated clients exactly like Fig. 1 vantages.
fn client_addr(index: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, 101 + (index / 250) as u8, (index % 250) as u8, 2)
}

/// Builds a generated lab. Pure in `(params, policy identity)`: the graph,
/// device placement, and churn schedule depend only on the seed and
/// parameters.
pub(crate) fn build_generated(
    params: &GenParams,
    policy: PolicyHandle,
    censor_profile: Option<CensorProfile>,
) -> VantageLab {
    let num_transits = (params.num_ases / 50).clamp(2, 64);
    let num_leaves = params.num_ases.saturating_sub(1 + num_transits);
    assert!(num_leaves >= 2, "GenParams: need ≥ 2 leaf ASes (num_ases ≥ {})", 3 + num_transits);
    assert!(params.clients >= 1, "GenParams: need ≥ 1 client");
    assert!(
        params.clients <= num_leaves,
        "GenParams: {} clients but only {num_leaves} leaf ASes",
        params.clients
    );

    let mut rng = SmallRng::seed_from_u64(params.seed);

    // --- Provider assignment: each leaf picks a primary transit by
    //     degree-weighted preferential attachment and a distinct uniform
    //     backup. Client leaves (the first `clients` leaves) are instead
    //     pinned round-robin across the cores — probing vantages must be
    //     provider-diverse or tomography's intersections cannot separate
    //     a transit censor from the border. ---
    let mut degree = vec![1usize; num_transits];
    let mut providers = Vec::with_capacity(num_leaves);
    for leaf in 0..num_leaves {
        let (primary, backup) = if leaf < params.clients {
            (leaf % num_transits, (leaf + 1) % num_transits)
        } else {
            let total: usize = degree.iter().sum();
            let mut roll = rng.gen_range(0..total);
            let mut primary = num_transits - 1;
            for (t, &d) in degree.iter().enumerate() {
                if roll < d {
                    primary = t;
                    break;
                }
                roll -= d;
            }
            let mut backup = rng.gen_range(0..num_transits - 1);
            if backup >= primary {
                backup += 1;
            }
            (primary, backup)
        };
        degree[primary] += 1;
        providers.push((primary, backup));
    }

    // --- Device placement over the chokepoint sites (AS ids 0..=T). ---
    let sites: Vec<usize> = match params.placement {
        Placement::AllTransit => (0..=num_transits).collect(),
        Placement::BorderOnly => vec![0],
        Placement::RandomK(k) => {
            let mut pool: Vec<usize> = (0..=num_transits).collect();
            let k = k.min(pool.len());
            for i in 0..k {
                let j = rng.gen_range(i..pool.len());
                pool.swap(i, j);
            }
            pool.truncate(k);
            pool.sort_unstable();
            pool
        }
    };

    let (mut net, endpoints) = endpoint_network();
    let [us_main, us_second, ..] = endpoints;

    // Generated devices are always reliable: the Table-1 failure dice are
    // measurements of the five real Fig. 1 devices and do not transfer.
    let mut devices = Vec::with_capacity(sites.len());
    let mut device_at_site = vec![usize::MAX; num_transits + 1];
    for &site in &sites {
        let label = format!("gen-as{site}");
        let mut device = TspuDevice::new(
            &label,
            policy.clone(),
            FailureProfile::uniform(0.0),
            1_000 + site as u64,
        );
        if let Some(profile) = &censor_profile {
            device.set_censor_profile(profile.clone());
        }
        let handle = net.install_middlebox(device);
        device_at_site[site] = devices.len();
        devices.push(GenDevice { handle, label, as_id: site });
    }

    // --- Clients and their two provider paths. Both variants are
    //     interned up front; only the primary is installed. The forward
    //     steps are destination-independent, so the two US destinations
    //     share one arena slot per direction — the dedupe that keeps a
    //     5000-AS lab's arena at ~4 slots per client. ---
    let border_router = router_addr(num_transits, 0);
    let build_variant = |net: &mut Network, leaf: usize, transit: usize| {
        let leaf_as = 1 + num_transits + leaf;
        let transit_as = 1 + transit;
        let leaf_router = router_addr(num_transits, leaf_as);
        let transit_router = router_addr(num_transits, transit_as);
        let mut path_devices = Vec::new();
        let mut step_fwd = |addr: Ipv4Addr, site: usize, hop: u8| {
            let di = device_at_site[site];
            if di != usize::MAX {
                path_devices.push((di, hop));
                RouteStep::with_device(addr, devices[di].handle.id(), Direction::LocalToRemote)
            } else {
                RouteStep::router(addr)
            }
        };
        let forward = Route {
            steps: vec![
                RouteStep::router(leaf_router),
                step_fwd(transit_router, transit_as, 2),
                step_fwd(border_router, 0, 3),
            ],
        };
        let step_rev = |addr: Ipv4Addr, site: usize| {
            let di = device_at_site[site];
            if di != usize::MAX {
                RouteStep::with_device(addr, devices[di].handle.id(), Direction::RemoteToLocal)
            } else {
                RouteStep::router(addr)
            }
        };
        let reverse = Route {
            steps: vec![
                step_rev(border_router, 0),
                step_rev(transit_router, transit_as),
                RouteStep::router(leaf_router),
            ],
        };
        let variant = RouteVariant {
            transit_as,
            forward: net.intern_route(forward.clone()),
            reverse: net.intern_route(reverse.clone()),
            path_ases: vec![leaf_as, transit_as, 0],
            devices: path_devices,
        };
        (variant, forward, reverse)
    };

    let mut clients = Vec::with_capacity(params.clients);
    for (i, &(primary_t, backup_t)) in providers.iter().enumerate().take(params.clients) {
        let addr = client_addr(i);
        let host = net.add_host(addr);
        let (primary, fwd, rev) = build_variant(&mut net, i, primary_t);
        let (backup, _, _) = build_variant(&mut net, i, backup_t);
        for dst in [us_main, us_second] {
            net.set_route(host, dst, fwd.clone());
            net.set_route(dst, host, rev.clone());
        }
        clients.push(GenClient { host, addr, leaf_as: 1 + num_transits + i, primary, backup });
    }

    // --- Churn schedule: flips round-robin over clients at strictly
    //     increasing instants, each toggling that client's variant. With
    //     churn_flips ≥ clients every probing client flips at least once,
    //     which is what lets tomography subtract a blocked client's own
    //     leaf from the suspect set. ---
    let mut on_backup = vec![false; params.clients];
    let mut churn = Vec::with_capacity(params.churn_flips);
    for f in 0..params.churn_flips {
        let client = f % params.clients;
        on_backup[client] = !on_backup[client];
        churn.push(ChurnEvent {
            at: params.churn_period * (f as u32 + 1),
            client,
            to_backup: on_backup[client],
        });
    }

    let gen = GenTopology { params: params.clone(), num_transits, clients, devices, churn };
    VantageLab::assemble(net, endpoints, policy, Vec::new(), Vec::new(), Some(gen))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tspu_registry::Universe;

    use crate::policy_build::policy_from_universe;

    fn policy() -> PolicyHandle {
        policy_from_universe(&Universe::generate(11), false, true)
    }

    /// The generated topology of a lab built from `TopologySpec::Generated`.
    fn generated(lab: &VantageLab) -> &Arc<GenTopology> {
        let Some(gen) = lab.gen.as_ref() else { panic!("a generated topology builds a generated lab") };
        gen
    }

    #[test]
    fn generated_lab_shape() {
        let params = GenParams::new(42, 300).clients(4);
        let lab = VantageLab::builder()
            .policy(policy())
            .topology(TopologySpec::Generated(params))
            .build();
        let gen = generated(&lab);
        assert_eq!(gen.num_transits, 6);
        assert_eq!(gen.clients.len(), 4);
        // AllTransit: border + every transit carries a device.
        assert_eq!(gen.devices.len(), 7);
        assert_eq!(gen.churn.len(), 8);
        // Every client's variants cross distinct transits.
        for c in &gen.clients {
            assert_ne!(c.primary.transit_as, c.backup.transit_as);
        }
    }

    #[test]
    fn route_arena_shared_across_destinations() {
        // Forward/reverse steps are destination-independent: per client,
        // the arena holds at most 4 variant slots (2 variants × 2
        // directions), not 4 per destination — plus the 2 mesh slots.
        let params = GenParams::new(7, 300).clients(8);
        let lab = VantageLab::builder()
            .policy(policy())
            .topology(TopologySpec::Generated(params))
            .build();
        assert!(lab.net.interned_routes() <= 8 * 4 + 2);
    }

    #[test]
    fn placement_border_only_and_random_k() {
        let base = GenParams::new(9, 300);
        let border = VantageLab::builder()
            .policy(policy())
            .topology(TopologySpec::Generated(base.clone().placement(Placement::BorderOnly)))
            .build();
        let bg = generated(&border);
        assert_eq!(bg.devices.len(), 1);
        assert_eq!(bg.devices[0].as_id, 0);

        let k = VantageLab::builder()
            .policy(policy())
            .topology(TopologySpec::Generated(base.placement(Placement::RandomK(3))))
            .build();
        let kg = generated(&k);
        assert_eq!(kg.devices.len(), 3);
        assert!(kg.devices.iter().all(|d| d.as_id <= kg.num_transits));
    }

    #[test]
    fn churn_replay_matches_schedule() {
        let params = GenParams::new(5, 300).clients(3).churn(7, Duration::from_secs(10));
        let lab = VantageLab::builder()
            .policy(policy())
            .topology(TopologySpec::Generated(params))
            .build();
        let gen = generated(&lab);
        // Flips round-robin: client 0 flips at events 0, 3, 6 — toggling
        // backup, primary, backup.
        assert!(!gen.on_backup_after(0, 0));
        assert!(gen.on_backup_after(0, 1));
        assert!(gen.on_backup_after(0, 3));
        assert!(!gen.on_backup_after(0, 4));
        assert!(gen.on_backup_after(0, 7));
        // Schedule instants strictly increase.
        assert!(gen.churn.windows(2).all(|w| w[0].at < w[1].at));
    }

    #[test]
    fn armed_churn_flips_installed_routes() {
        let params = GenParams::new(3, 100).clients(2).churn(2, Duration::from_secs(5));
        let mut lab = VantageLab::builder()
            .policy(policy())
            .topology(TopologySpec::Generated(params))
            .build();
        let gen = Arc::clone(generated(&lab));
        let c0 = &gen.clients[0];
        let Some(before) = lab.net.route(c0.host, lab.us_main) else { panic!("client 0 has a route") };
        lab.arm_route_churn();
        lab.net.run_for(Duration::from_secs(6));
        let Some(after) = lab.net.route(c0.host, lab.us_main) else { panic!("client 0 keeps a route") };
        let (before, after) = (before.steps[1].hop_addr, after.steps[1].hop_addr);
        assert_ne!(before, after, "client 0's transit hop must flip");
        assert_eq!(
            after,
            router_addr(gen.num_transits, c0.backup.transit_as),
            "flip lands on the backup transit"
        );
    }
}
