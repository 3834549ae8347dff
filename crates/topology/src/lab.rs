//! The paper's measurement setup (Fig. 1), reproduced as a simulator
//! topology: three residential vantage points inside Rostelecom,
//! ER-Telecom, and OBIT; two US measurement machines in one network; a
//! Paris measurement machine sharing a data center with a (no longer
//! operating, still IP-blocked) Tor entry node.
//!
//! TSPU placement follows §5.2.1 and §7.1:
//!
//! * every vantage has a *symmetric* device within its first three hops;
//! * Rostelecom additionally has an *upstream-only* device one hop behind
//!   the symmetric one (same AS);
//! * OBIT's paths cross an *upstream-only* device at the first link of
//!   the transit ISP — Rostelecom transit toward the US, RasCom transit
//!   toward France (destination-dependent, thanks to asymmetric routing);
//! * ER-Telecom has a single symmetric device (which is why Table 1 shows
//!   it failing more often).

use std::net::Ipv4Addr;
use std::sync::Arc;

use tspu_core::chaos::audit_for_profile;
use tspu_core::{CensorProfile, FailureProfile, PolicyHandle, TspuDevice};
use tspu_netsim::fault::{ChaosLink, FaultPlan};
use tspu_netsim::oracle::{DeviceAudit, Oracle, OracleReport, OracleSpec};
use tspu_netsim::{Direction, MiddleboxId, Network, NetworkImage, Route, RouteStep};
use tspu_netsim::{HostId, MiddleboxHandle, Time};
use tspu_obs::Snapshot;
use tspu_registry::{stats, Universe};

use crate::gen::{GenTopology, TopologySpec};
use crate::policy_build::{policy_from_universe, vantage_resolvers, IspResolver, TOR_ENTRY_NODE};

/// One in-country vantage point.
#[derive(Clone)]
pub struct Vantage {
    pub name: &'static str,
    pub city: &'static str,
    pub host: HostId,
    pub addr: Ipv4Addr,
    /// The symmetric device on this vantage's paths. Borrow it through
    /// `lab.net.middlebox(handle)` / `middlebox_mut(handle)`.
    pub sym_device: MiddleboxHandle<TspuDevice>,
    /// Upstream-only devices on this vantage's paths (0–2).
    pub upstream_devices: Vec<MiddleboxHandle<TspuDevice>>,
    /// Hop index (1-based, from the vantage) of the symmetric device:
    /// the device sits between hop `sym_hop` and `sym_hop + 1`.
    pub sym_hop: usize,
}

/// A lab: a network and what the campaigns read of it. One field list
/// serves both of its forms: the runnable [`VantageLab`] and the
/// [`LabImage`] that forks it per scenario cell.
pub struct Lab<N> {
    pub net: N,
    pub policy: PolicyHandle,
    pub vantages: Vec<Vantage>,
    /// Primary US measurement machine.
    pub us_main: HostId,
    pub us_main_addr: Ipv4Addr,
    /// Second US machine, same network.
    pub us_second: HostId,
    pub us_second_addr: Ipv4Addr,
    /// Paris measurement machine (same data center as the Tor node).
    pub paris: HostId,
    pub paris_addr: Ipv4Addr,
    /// The Tor entry node whose IP is out-registry blocked.
    pub tor: HostId,
    pub tor_addr: Ipv4Addr,
    /// The per-ISP censoring resolvers (the decentralized baseline).
    /// Read-only, and shared by `Arc` into every image fork.
    pub resolvers: Arc<[IspResolver]>,
    /// Chaos links installed by [`VantageLab::apply_fault_plan`], labeled
    /// `"<vantage>-fwd"` / `"<vantage>-rev"`, for per-link fault stats.
    pub chaos_links: Vec<(String, MiddleboxHandle<ChaosLink>)>,
    /// Ground truth of a generated topology
    /// ([`TopologySpec::Generated`]): clients with both provider paths,
    /// placed devices, churn schedule. `None` on the Fig. 1 lab. Shared
    /// by `Arc` into every image fork, like the route arena.
    pub gen: Option<Arc<GenTopology>>,
}

/// The runnable lab: the Fig. 1 setup or a generated AS graph.
pub type VantageLab = Lab<Network>;

/// The warm half of a [`VantageLab`], shared across forked scenario
/// cells: network topology behind `Arc`s, compiled policy behind the
/// shared [`PolicyHandle`], device and chaos-link configurations, interned
/// metric-name tables. `Send + Sync` — sweep workers fork from one
/// `&LabImage` concurrently.
pub type LabImage = Lab<NetworkImage>;

impl<N> Lab<N> {
    /// The same lab around `net`'s counterpart: the one copy path between
    /// a lab and its image, in both directions.
    fn map_net<M>(&self, net: impl FnOnce(&N) -> M) -> Lab<M> {
        Lab {
            net: net(&self.net),
            policy: self.policy.clone(),
            vantages: self.vantages.clone(),
            us_main: self.us_main,
            us_main_addr: self.us_main_addr,
            us_second: self.us_second,
            us_second_addr: self.us_second_addr,
            paris: self.paris,
            paris_addr: self.paris_addr,
            tor: self.tor,
            tor_addr: self.tor_addr,
            resolvers: self.resolvers.clone(),
            chaos_links: self.chaos_links.clone(),
            gen: self.gen.clone(),
        }
    }
}

/// Addresses of the fixed endpoints.
pub const ROSTELECOM_VANTAGE: Ipv4Addr = Ipv4Addr::new(10, 10, 0, 2);
pub const ERTELECOM_VANTAGE: Ipv4Addr = Ipv4Addr::new(10, 20, 0, 2);
pub const OBIT_VANTAGE: Ipv4Addr = Ipv4Addr::new(10, 30, 0, 2);
pub const US_MAIN: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 10);
pub const US_SECOND: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 11);
pub const PARIS_MACHINE: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 8);

fn profile(rates: &[f64; 5]) -> FailureProfile {
    FailureProfile {
        sni1: rates[0].max(0.0),
        sni2: rates[1],
        sni3: rates[0].max(0.0), // throttling shares SNI-I's trigger path
        sni4: rates[2],
        quic: rates[3],
        ip: rates[4],
    }
}

/// The one way to configure a [`VantageLab`]. Axes:
///
/// * **Universe** ([`LabBuilder::universe`]) — attaches the per-ISP
///   resolvers and, unless a policy is given, derives the policy from it
///   (throttling off, QUIC filter on; pass
///   [`policy_from_universe`]`(universe, throttle, quic)` to
///   [`LabBuilder::policy`] for another epoch). Without one, the lab is
///   the minimal sweep-worker shape: no resolvers, policy required.
/// * **Policy** ([`LabBuilder::policy`]) — an explicit shared handle, the
///   cheap per-scenario path: blocklists built once, shared behind it.
/// * **Failure dice** — devices are perfectly reliable by default;
///   [`LabBuilder::table1`] arms the per-device Table-1 failure dice for
///   reliability campaigns.
/// * **Censor profile** ([`LabBuilder::censor_profile`]) and **topology**
///   ([`LabBuilder::topology`]).
///
/// Chaos is not an axis: a fault plan is wired through a built lab or a
/// fork with [`VantageLab::apply_fault_plan`].
///
/// ```
/// # use tspu_registry::Universe;
/// # use tspu_topology::VantageLab;
/// let universe = Universe::generate(1);
/// let lab = VantageLab::builder().universe(&universe).table1().build();
/// assert_eq!(lab.vantages.len(), 3);
/// ```
#[derive(Default)]
#[must_use = "a LabBuilder does nothing until .build()"]
pub struct LabBuilder<'a> {
    universe: Option<&'a Universe>,
    policy: Option<PolicyHandle>,
    table1: bool,
    censor_profile: Option<CensorProfile>,
    topology: TopologySpec,
}

impl<'a> LabBuilder<'a> {
    /// Attaches a universe: per-ISP resolvers are built from it, and it
    /// becomes the policy source unless [`LabBuilder::policy`] overrides.
    pub fn universe(mut self, universe: &'a Universe) -> LabBuilder<'a> {
        self.universe = Some(universe);
        self
    }

    /// Uses an explicit shared policy handle instead of deriving one from
    /// the universe. This is what makes per-scenario labs cheap: the
    /// expensive blocklists live once behind the handle.
    pub fn policy(mut self, policy: PolicyHandle) -> LabBuilder<'a> {
        self.policy = Some(policy);
        self
    }

    /// Arms the Table-1 per-device failure dice — for reliability
    /// campaigns that measure the real failure rates.
    pub fn table1(mut self) -> LabBuilder<'a> {
        self.table1 = true;
        self
    }

    /// Installs a [`CensorProfile`] on every device in the lab (default:
    /// the TSPU). The same topology then models a different country's
    /// censorship — the differential-campaign axis.
    pub fn censor_profile(mut self, profile: CensorProfile) -> LabBuilder<'a> {
        self.censor_profile = Some(profile);
        self
    }

    /// Selects the topology: [`TopologySpec::Fig1`] (the default, the
    /// paper's fixed lab) or [`TopologySpec::Generated`] (the seeded AS
    /// graph). [`LabBuilder::table1`] is a no-op on generated labs, whose
    /// devices are always reliable.
    pub fn topology(mut self, spec: TopologySpec) -> LabBuilder<'a> {
        self.topology = spec;
        self
    }

    /// Builds the lab.
    ///
    /// # Panics
    /// Panics if neither a policy nor a universe to derive one from was
    /// given.
    pub fn build(self) -> VantageLab {
        let policy = self.policy.unwrap_or_else(|| {
            // The documented panic: neither a policy nor a universe was given.
            let universe = self
                .universe
                .expect("LabBuilder: give .policy(...) or .universe(...) to derive one");
            policy_from_universe(universe, false, true)
        });
        match &self.topology {
            TopologySpec::Fig1 => VantageLab::build_inner(self.universe, policy, !self.table1, self.censor_profile),
            TopologySpec::Generated(params) => crate::gen::build_generated(params, policy, self.censor_profile),
        }
    }

    /// Builds the lab once and returns its warm [`LabImage`] for
    /// fork-per-cell campaigns.
    pub fn image(self) -> LabImage {
        self.build().snapshot()
    }
}

/// The out-of-country machines, in host-id order: both topologies add them
/// first, so they hold host ids 0–3 in either.
const ENDPOINTS: [Ipv4Addr; 4] = [US_MAIN, US_SECOND, PARIS_MACHINE, TOR_ENTRY_NODE];

/// A network holding only the [`ENDPOINTS`], and their host ids.
pub(crate) fn endpoint_network() -> (Network, [HostId; 4]) {
    let mut net = Network::with_default_latency();
    let hosts = ENDPOINTS.map(|addr| net.add_host(addr));
    (net, hosts)
}

impl VantageLab {
    /// Starts a [`LabBuilder`] — the single construction path.
    pub fn builder<'a>() -> LabBuilder<'a> {
        LabBuilder::default()
    }

    fn build_inner(
        universe: Option<&Universe>,
        policy: PolicyHandle,
        reliable: bool,
        censor_profile: Option<CensorProfile>,
    ) -> VantageLab {
        let (mut net, endpoints) = endpoint_network();
        let [us_main, us_second, paris, tor] = endpoints;

        let mut vantages = Vec::new();

        // Helper: register a device with `isp`'s failure dice and return
        // (typed handle, id).
        let make_dev = |net: &mut Network, name: &str, isp: &str, seed: u64| {
            // Called only with the three ISPs that Table 1's PER_DEVICE lists.
            let rates = stats::table1::PER_DEVICE.iter().find(|(n, _)| *n == isp).expect("known ISP");
            let fp = if reliable { FailureProfile::uniform(0.0) } else { profile(&rates.1) };
            let mut device = TspuDevice::new(name, policy.clone(), fp, seed);
            if let Some(profile) = &censor_profile {
                device.set_censor_profile(profile.clone());
            }
            let handle = net.install_middlebox(device);
            (handle, handle.id())
        };

        // --- Rostelecom (St. Petersburg): symmetric at hop 2, upstream-
        //     only at hop 3 (one hop behind, same AS). ---
        {
            let host = net.add_host(ROSTELECOM_VANTAGE);
            let (sym, sym_id) = make_dev(&mut net, "rostelecom-sym", "Rostelecom", 101);
            let (up, up_id) = make_dev(&mut net, "rostelecom-up", "Rostelecom", 102);
            let hops = [
                Ipv4Addr::new(10, 10, 255, 1),
                Ipv4Addr::new(10, 10, 255, 2),
                Ipv4Addr::new(10, 10, 255, 3),
                Ipv4Addr::new(10, 10, 255, 4),
                Ipv4Addr::new(188, 128, 10, 1), // AS12389 border
            ];
            install_vantage_routes(&mut net, host, &[us_main, us_second, paris, tor], &hops, sym_id, 2, Some((up_id, 3)));
            vantages.push(Vantage {
                name: "Rostelecom",
                city: "St. Petersburg",
                host,
                addr: ROSTELECOM_VANTAGE,
                sym_device: sym,
                upstream_devices: vec![up],
                sym_hop: 2,
            });
        }

        // --- ER-Telecom (Krasnoyarsk): one symmetric device at hop 2. ---
        {
            let host = net.add_host(ERTELECOM_VANTAGE);
            let (sym, sym_id) = make_dev(&mut net, "ertelecom-sym", "ER-Telecom", 201);
            let hops = [
                Ipv4Addr::new(10, 20, 255, 1),
                Ipv4Addr::new(10, 20, 255, 2),
                Ipv4Addr::new(10, 20, 255, 3),
                Ipv4Addr::new(10, 20, 255, 4),
                Ipv4Addr::new(212, 33, 20, 1),
            ];
            install_vantage_routes(&mut net, host, &[us_main, us_second, paris, tor], &hops, sym_id, 2, None);
            vantages.push(Vantage {
                name: "ER-Telecom",
                city: "Krasnoyarsk",
                host,
                addr: ERTELECOM_VANTAGE,
                sym_device: sym,
                upstream_devices: Vec::new(),
                sym_hop: 2,
            });
        }

        // --- OBIT (Moscow): symmetric at hop 2; upstream-only devices in
        //     the transit ISPs, destination-dependent (§7.1.1). ---
        {
            let host = net.add_host(OBIT_VANTAGE);
            let (sym, sym_id) = make_dev(&mut net, "obit-sym", "OBIT", 301);
            let (up_us, up_us_id) = make_dev(&mut net, "transit-rostelecom-up", "OBIT", 302);
            let (up_fr, up_fr_id) = make_dev(&mut net, "transit-rascom-up", "OBIT", 303);
            let obit_hops = [
                Ipv4Addr::new(10, 30, 255, 1),
                Ipv4Addr::new(10, 30, 255, 2), // symmetric device after this hop
            ];
            // Toward the US: transit via "Rostelecom" (upstream-only at
            // the transit's first link).
            let us_transit = [
                Ipv4Addr::new(188, 128, 30, 1), // transit ingress, UP after
                Ipv4Addr::new(188, 128, 30, 2),
                Ipv4Addr::new(188, 128, 30, 3),
            ];
            // Toward France: transit via "RasCom".
            let fr_transit = [
                Ipv4Addr::new(80, 64, 30, 1), // transit ingress, UP after
                Ipv4Addr::new(80, 64, 30, 2),
                Ipv4Addr::new(80, 64, 30, 3),
            ];
            for (&dst, transit, up_id) in [
                (&us_main, &us_transit, up_us_id),
                (&us_second, &us_transit, up_us_id),
                (&paris, &fr_transit, up_fr_id),
                (&tor, &fr_transit, up_fr_id),
            ] {
                let forward = vec![
                    RouteStep::router(obit_hops[0]),
                    RouteStep::with_device(obit_hops[1], sym_id, Direction::LocalToRemote),
                    RouteStep::with_device(transit[0], up_id, Direction::LocalToRemote),
                    RouteStep::router(transit[1]),
                    RouteStep::router(transit[2]),
                ];
                net.set_route(host, dst, Route { steps: forward });
                // Reverse path: different transit hops (asymmetric
                // routing), no upstream-only device, symmetric device on.
                let reverse = Route {
                    steps: vec![
                        RouteStep::router(Ipv4Addr::new(185, 140, 30, 9)),
                        RouteStep::router(Ipv4Addr::new(185, 140, 30, 8)),
                        RouteStep::with_device(obit_hops[1], sym_id, Direction::RemoteToLocal),
                        RouteStep::router(obit_hops[0]),
                    ],
                };
                net.set_route(dst, host, reverse);
            }
            vantages.push(Vantage {
                name: "OBIT",
                city: "Moscow",
                host,
                addr: OBIT_VANTAGE,
                sym_device: sym,
                upstream_devices: vec![up_us, up_fr],
                sym_hop: 2,
            });
        }

        let resolvers = universe.map(vantage_resolvers).unwrap_or_default();
        VantageLab::assemble(net, endpoints, policy, vantages, resolvers, None)
    }

    /// Meshes the out-of-country machines through their shared data-center
    /// hop and assembles the lab: the one place either topology's
    /// [`VantageLab`] is put together.
    pub(crate) fn assemble(
        mut net: Network,
        endpoints: [HostId; 4],
        policy: PolicyHandle,
        vantages: Vec<Vantage>,
        resolvers: Vec<IspResolver>,
        gen: Option<GenTopology>,
    ) -> VantageLab {
        for (i, &a) in endpoints.iter().enumerate() {
            for &b in &endpoints[i + 1..] {
                net.set_route_symmetric(a, b, Route::through(&[Ipv4Addr::new(192, 0, 2, 254)]));
            }
        }
        let [us_main, us_second, paris, tor] = endpoints;
        VantageLab {
            net,
            policy,
            vantages,
            us_main,
            us_main_addr: US_MAIN,
            us_second,
            us_second_addr: US_SECOND,
            paris,
            paris_addr: PARIS_MACHINE,
            tor,
            tor_addr: TOR_ENTRY_NODE,
            resolvers: resolvers.into(),
            chaos_links: Vec::new(),
            gen: gen.map(Arc::new),
        }
    }

    /// Wires a [`FaultPlan`] through the lab: the plan's device faults on
    /// every TSPU device, and one pair of chaos links per Fig. 1 vantage on
    /// its transit segments — appended to an *existing* route step after
    /// every device on the forward path and before any device on the
    /// reverse path. Appending (rather than adding a hop) keeps hop counts
    /// and TTLs identical, so a zero-rate plan is an exact no-op.
    ///
    /// # Panics
    ///
    /// When the plan has link faults and the lab is a generated topology
    /// with clients. Chaos links ride the Fig. 1 vantage paths only, and
    /// installing them on a client's path would not hold: a route flip
    /// moves the client onto a pre-interned route that carries no link.
    /// Device faults apply to any lab.
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) {
        let generated_clients = self.gen.as_ref().is_some_and(|gen| !gen.clients.is_empty());
        assert!(
            !generated_clients || (plan.forward.is_noop() && plan.reverse.is_noop()),
            "apply_fault_plan: link faults on a generated lab are not supported; chaos links \
             ride the Fig. 1 vantage paths only, and a route flip moves a generated client \
             onto pre-interned routes that carry no link"
        );
        for handle in self.device_handles() {
            self.net.middlebox_mut(handle).set_device_faults(plan.device.clone());
        }

        let remotes = [self.us_main, self.us_second, self.paris, self.tor];
        let vantage_hosts: Vec<(usize, &'static str, HostId)> =
            self.vantages.iter().enumerate().map(|(i, v)| (i, v.name, v.host)).collect();
        for (vi, name, host) in vantage_hosts {
            let fwd_label = format!("{name}-fwd");
            let rev_label = format!("{name}-rev");
            let fwd = self.net.install_middlebox(ChaosLink::labeled(
                plan.forward.clone(),
                plan.link_seed(vi as u64 * 2),
                &fwd_label,
            ));
            let rev = self.net.install_middlebox(ChaosLink::labeled(
                plan.reverse.clone(),
                plan.link_seed(vi as u64 * 2 + 1),
                &rev_label,
            ));
            self.chaos_links.push((fwd_label, fwd));
            self.chaos_links.push((rev_label, rev));
            for remote in remotes {
                // build_inner routes every vantage to all four remotes.
                let mut forward = self.net.route(host, remote).expect("vantage route");
                // install_vantage_routes gives each route one step per hop, and every vantage has hops.
                forward.steps.last_mut().expect("non-empty route").devices
                    .push((fwd.id(), Direction::LocalToRemote));
                self.net.set_route(host, remote, forward);

                // build_inner routes all four remotes back to every vantage.
                let mut reverse = self.net.route(remote, host).expect("vantage route");
                // The reverse route has the forward route's hops, so it has a first step.
                reverse.steps.first_mut().expect("non-empty route").devices
                    .push((rev.id(), Direction::RemoteToLocal));
                self.net.set_route(remote, host, reverse);
            }
        }
    }

    /// The oracle audit specification covering every TSPU device the lab
    /// has built: each audit shares the device's policy handle and carries
    /// its applied restart schedule, so the oracle judges captures against
    /// exactly what the device was configured to do. A device a fork never
    /// built saw no packet, so it has no capture records to audit.
    pub fn oracle_spec(&self) -> OracleSpec {
        let mut spec = OracleSpec::new(|addr: Ipv4Addr| addr.octets()[0] == 10);
        for vantage in &self.vantages {
            if self.net.middlebox_built(vantage.sym_device.id()) {
                let label = format!("{}-sym", vantage.name);
                spec.devices.push(self.device_audit(vantage.sym_device, label));
            }
            for (i, &handle) in vantage.upstream_devices.iter().enumerate() {
                if self.net.middlebox_built(handle.id()) {
                    let label = format!("{}-up{i}", vantage.name);
                    spec.devices.push(self.device_audit(handle, label));
                }
            }
        }
        if let Some(gen) = &self.gen {
            for d in &gen.devices {
                if self.net.middlebox_built(d.handle.id()) {
                    spec.devices.push(self.device_audit(d.handle, d.label.clone()));
                }
            }
        }
        spec
    }

    /// The oracle's audit of one device, under `label`.
    fn device_audit(&self, handle: MiddleboxHandle<TspuDevice>, label: String) -> DeviceAudit {
        let device = self.net.middlebox(handle);
        audit_for_profile(
            handle.id(),
            label,
            device.policy().clone(),
            device.device_faults().restarts.iter().map(|&offset| Time::ZERO + offset).collect(),
            device.censor_profile().clone(),
        )
    }

    /// The audit every campaign and test runs: drains the capture taken
    /// since `lab.net.set_capture(true)`, replays it through the oracle
    /// under [`VantageLab::oracle_spec`], and joins onto each violation the
    /// counters that moved on the offending device and the tail of its
    /// flight-recorder ledger for the offending flow. Capture must have
    /// been on while the traffic ran; with it off the report is clean and
    /// audits nothing.
    pub fn oracle_audit(&mut self) -> OracleReport {
        let captures = self.net.take_captures();
        let mut report = Oracle::new(self.oracle_spec()).check(&captures);
        if !report.is_clean() {
            // On a lab fresh for its cell the totals are the cell's deltas.
            let device_snapshots = self.device_snapshots();
            report.attach_device_counters(|id| {
                device_snapshots
                    .iter()
                    .find(|(device, _)| *device == id)
                    .map(|(_, snapshot)| snapshot.moved_counters())
            });
            report.attach_device_ledger(|id, packet| self.device_ledger(id, packet, 8));
        }
        report
    }

    /// The vantage by ISP name.
    ///
    /// # Panics
    /// Panics if the lab has no vantage of that name.
    pub fn vantage(&self, name: &str) -> &Vantage {
        // The documented panic: callers name one of the Fig. 1 ISPs.
        self.vantages.iter().find(|v| v.name == name).expect("known vantage")
    }

    /// Every TSPU device handle in the lab: vantage devices in vantage
    /// order, then generated-topology devices in placement order.
    fn device_handles(&self) -> Vec<MiddleboxHandle<TspuDevice>> {
        self.vantages
            .iter()
            .flat_map(|v| std::iter::once(v.sym_device).chain(v.upstream_devices.iter().copied()))
            .chain(self.gen.iter().flat_map(|g| g.devices.iter().map(|d| d.handle)))
            .collect()
    }

    /// [`VantageLab::device_handles`] less the devices a fork has not
    /// built. An unbuilt device is pristine: all-zero counters, which a
    /// sparse [`Snapshot`] drops, and no spans. So skipping it changes no
    /// export, and exporting builds nothing.
    fn built_device_handles(&self) -> Vec<MiddleboxHandle<TspuDevice>> {
        let mut handles = self.device_handles();
        handles.retain(|h| self.net.middlebox_built(h.id()));
        handles
    }

    /// Arms a generated topology's churn schedule on the engine: every
    /// [`crate::gen::ChurnEvent`] becomes scheduled reroutes (both
    /// destinations, both directions) firing at its virtual instant. A
    /// no-op on the Fig. 1 lab. Call on a fresh lab or fork, before any
    /// virtual time passes — the schedule's instants are absolute.
    ///
    /// Churn is armed explicitly rather than baked into the image because
    /// sweep drivers that `run_until_idle` would otherwise warp through
    /// the entire flip schedule inside their first scenario.
    pub fn arm_route_churn(&mut self) {
        let Some(gen) = self.gen.clone() else { return };
        assert_eq!(
            self.net.now(),
            Time::ZERO,
            "arm_route_churn: arm the schedule before virtual time advances"
        );
        for ev in &gen.churn {
            let c = &gen.clients[ev.client];
            let v = if ev.to_backup { &c.backup } else { &c.primary };
            for dst in [self.us_main, self.us_second] {
                self.net.schedule_reroute(ev.at, c.host, dst, v.forward);
                self.net.schedule_reroute(ev.at, dst, c.host, v.reverse);
            }
        }
    }

    /// Enables or disables virtual-time span tracing on the engine and on
    /// every TSPU device (chaos links carry no spans). Every device, built
    /// or not: one built later would miss the switch.
    pub fn set_tracing(&mut self, enabled: bool) {
        self.net.set_tracing(enabled);
        for handle in self.device_handles() {
            self.net.middlebox_mut(handle).set_tracing(enabled);
        }
    }

    /// Per-device metric snapshots keyed by middlebox id — the lookup the
    /// oracle's `attach_device_counters` wants for naming which counters
    /// moved alongside a violation. Only built devices: an unbuilt one has
    /// no counter that moved.
    pub fn device_snapshots(&self) -> Vec<(MiddleboxId, Snapshot)> {
        self.built_device_handles()
            .into_iter()
            .map(|h| (h.id(), self.net.middlebox(h).obs_snapshot()))
            .collect()
    }

    /// The flight-recorder ledger of device `id` for `packet`'s flow: the
    /// last `n` rendered events, oldest first — the lookup the oracle's
    /// `attach_device_ledger` wants for explaining a violation. Empty when
    /// `id` is not a TSPU device (chaos links carry no recorder).
    pub fn device_ledger(&self, id: MiddleboxId, packet: &[u8], n: usize) -> Vec<String> {
        self.device_handles()
            .into_iter()
            .find(|h| h.id() == id)
            .map(|h| self.net.middlebox(h).ledger_for_packet(packet, n))
            .unwrap_or_default()
    }

    /// One merged snapshot of the whole lab: the engine's `netsim.*`
    /// counters, every device's `device.<label>.*` metrics, and every
    /// chaos link's `link.<label>.*` counters. Metrics only — spans stay
    /// in the tracers (use [`VantageLab::take_obs`] to drain them too).
    /// A device a fork has not built exports nothing and stays unbuilt.
    pub fn obs_snapshot(&self) -> Snapshot {
        let mut snap = self.net.obs_snapshot();
        for handle in self.built_device_handles() {
            snap.merge(&self.net.middlebox(handle).obs_snapshot());
        }
        for (_, link) in &self.chaos_links {
            snap.merge(&self.net.middlebox(*link).obs_snapshot());
        }
        snap.merge(&self.policy.obs_snapshot());
        snap
    }

    /// Like [`VantageLab::obs_snapshot`], but also drains the recorded
    /// spans out of the engine's and every device's tracer.
    pub fn take_obs(&mut self) -> Snapshot {
        let mut snap = self.net.take_obs();
        for handle in self.built_device_handles() {
            snap.merge(&self.net.middlebox_mut(handle).take_obs());
        }
        for (_, link) in &self.chaos_links {
            snap.merge(&self.net.middlebox(*link).obs_snapshot());
        }
        snap.merge(&self.policy.obs_snapshot());
        snap
    }

    /// Snapshots the lab's immutable configuration as a [`LabImage`]:
    /// the network image (shared topology, middlebox configurations),
    /// the shared policy handle, vantage/endpoint handles, and resolvers.
    /// Per-run state — conntrack, fragment caches, RNG positions, clocks,
    /// captures, metric values — is *not* captured; forks start pristine.
    pub fn snapshot(&self) -> LabImage {
        self.map_net(Network::image)
    }

    /// Swaps the shared policy on the lab *and* on every TSPU device —
    /// used by churn campaigns, where each forked cell enforces its own
    /// [`PolicyHandle`]. Device state (conntrack, RNG, metrics) is
    /// untouched, so forking and then calling `set_policy` is
    /// behaviorally identical to building the lab against that handle.
    /// It builds every device, because one built later would enforce the
    /// image's policy.
    pub fn set_policy(&mut self, policy: PolicyHandle) {
        for handle in self.device_handles() {
            self.net.middlebox_mut(handle).set_policy(policy.clone());
        }
        self.policy = policy;
    }
}

impl LabImage {
    /// Stamps out one pristine lab cell. The result is byte-identical in
    /// behavior to building the same lab from scratch: virtual time zero,
    /// empty conntrack/fragment caches, device RNGs reseeded, zeroed
    /// counters under the same export names.
    ///
    /// `_index` is the cell's scenario coordinate. It does not perturb the
    /// forked state (byte-identity with a fresh build demands that);
    /// drivers derive per-cell ports and seeds from the same index, as
    /// they always have.
    pub fn fork(&self, _index: usize) -> VantageLab {
        self.map_net(NetworkImage::fork)
    }

    /// The shared policy handle this image's forks enforce.
    pub fn policy(&self) -> &PolicyHandle {
        &self.policy
    }
}

/// Installs forward and reverse routes from a vantage through its ISP
/// hops to each destination: symmetric device after hop `sym_hop`
/// (1-based), optional upstream-only device after hop `up_hop` on the
/// forward path only.
fn install_vantage_routes(
    net: &mut Network,
    vantage: HostId,
    dsts: &[HostId],
    hops: &[Ipv4Addr],
    sym_id: MiddleboxId,
    sym_hop: usize,
    upstream: Option<(MiddleboxId, usize)>,
) {
    for &dst in dsts {
        let mut forward = Vec::new();
        for (i, &hop) in hops.iter().enumerate() {
            let hop_no = i + 1;
            let mut step = RouteStep::router(hop);
            if hop_no == sym_hop {
                step.devices.push((sym_id, Direction::LocalToRemote));
            }
            if let Some((up_id, up_hop)) = upstream {
                if hop_no == up_hop {
                    step.devices.push((up_id, Direction::LocalToRemote));
                }
            }
            forward.push(step);
        }
        net.set_route(vantage, dst, Route { steps: forward });

        // Reverse: same router hops in reverse, symmetric device only.
        let mut reverse = Vec::new();
        for (i, &hop) in hops.iter().enumerate().rev() {
            let hop_no = i + 1;
            let mut step = RouteStep::router(hop);
            if hop_no == sym_hop {
                step.devices.push((sym_id, Direction::RemoteToLocal));
            }
            reverse.push(step);
        }
        net.set_route(dst, vantage, Route { steps: reverse });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tspu_stack::craft::TcpPacketSpec;
    use tspu_stack::{ServerApp, TcpClient, TcpClientConfig};
    use tspu_wire::ipv4::Ipv4Packet;
    use tspu_wire::tcp::{TcpFlags, TcpSegment};
    use tspu_wire::tls::ClientHelloBuilder;

    fn lab() -> (Universe, VantageLab) {
        let universe = Universe::generate(11);
        let policy = policy_from_universe(&universe, false, true);
        let lab = VantageLab::builder().universe(&universe).policy(policy).table1().build();
        (universe, lab)
    }

    #[test]
    fn blocked_domain_reset_from_every_vantage() {
        let (_u, mut lab) = lab();
        lab.net.set_app(lab.us_main, Box::new(ServerApp::https_site(US_MAIN)));
        for (i, vantage) in lab.vantages.iter().enumerate() {
            let ch = ClientHelloBuilder::new("twitter.com").build();
            let config = TcpClientConfig::new(vantage.addr, 46000 + i as u16, US_MAIN, 443, ch);
            let (app, report, syn) = TcpClient::start(config);
            lab.net.set_app(vantage.host, Box::new(app));
            lab.net.send_from(vantage.host, syn);
            lab.net.run_until_idle();
            assert_eq!(
                report.outcome(),
                tspu_stack::ClientOutcome::Reset,
                "uniform blocking at {}",
                vantage.name
            );
        }
    }

    #[test]
    fn innocuous_domain_loads_from_every_vantage() {
        let (_u, mut lab) = lab();
        lab.net.set_app(lab.us_main, Box::new(ServerApp::https_site(US_MAIN)));
        for (i, vantage) in lab.vantages.iter().enumerate() {
            let ch = ClientHelloBuilder::new("rust-lang.org").build();
            let config = TcpClientConfig::new(vantage.addr, 47000 + i as u16, US_MAIN, 443, ch);
            let (app, report, syn) = TcpClient::start(config);
            lab.net.set_app(vantage.host, Box::new(app));
            lab.net.send_from(vantage.host, syn);
            lab.net.run_until_idle();
            assert_eq!(report.outcome(), tspu_stack::ClientOutcome::GotData, "{}", vantage.name);
        }
    }

    #[test]
    fn tor_node_syn_answered_with_rewritten_rst() -> Result<(), tspu_wire::Error> {
        // The §5.2 IP-blocking check: SYN from the Tor node reaches the
        // vantage, the SYN/ACK back is rewritten to RST/ACK.
        let (_u, mut lab) = lab();
        let vantage = lab.vantage("ER-Telecom").host;
        let vantage_addr = lab.vantage("ER-Telecom").addr;
        lab.net.set_app(vantage, Box::new(ServerApp::echo_server(vantage_addr)));
        let syn = TcpPacketSpec::new(TOR_ENTRY_NODE, 33000, vantage_addr, 7, TcpFlags::SYN).build();
        lab.net.send_from(lab.tor, syn);
        lab.net.run_until_idle();
        let inbox = lab.net.take_inbox(lab.tor);
        assert_eq!(inbox.len(), 1);
        let ip = Ipv4Packet::new_checked(&inbox[0].1[..])?;
        let seg = TcpSegment::new_checked(ip.payload())?;
        assert_eq!(seg.flags(), TcpFlags::RST_ACK);
        Ok(())
    }

    #[test]
    fn paris_machine_unaffected_control() -> Result<(), tspu_wire::Error> {
        // The control pair: same data center, not IP-blocked.
        let (_u, mut lab) = lab();
        let vantage = lab.vantage("ER-Telecom").host;
        let vantage_addr = lab.vantage("ER-Telecom").addr;
        lab.net.set_app(vantage, Box::new(ServerApp::echo_server(vantage_addr)));
        let syn = TcpPacketSpec::new(PARIS_MACHINE, 33001, vantage_addr, 7, TcpFlags::SYN).build();
        lab.net.send_from(lab.paris, syn);
        lab.net.run_until_idle();
        let inbox = lab.net.take_inbox(lab.paris);
        assert_eq!(inbox.len(), 1);
        let ip = Ipv4Packet::new_checked(&inbox[0].1[..])?;
        let seg = TcpSegment::new_checked(ip.payload())?;
        assert_eq!(seg.flags(), TcpFlags::SYN_ACK);
        Ok(())
    }

    #[test]
    fn upstream_only_devices_see_no_downstream() {
        let (_u, mut lab) = lab();
        // Run one blocked exchange from Rostelecom.
        lab.net.set_app(lab.us_main, Box::new(ServerApp::https_site(US_MAIN)));
        let v = lab.vantage("Rostelecom");
        let host = v.host;
        let addr = v.addr;
        let ch = ClientHelloBuilder::new("twitter.com").build();
        let (app, _report, syn) = TcpClient::start(TcpClientConfig::new(addr, 48000, US_MAIN, 443, ch));
        lab.net.set_app(host, Box::new(app));
        lab.net.send_from(host, syn);
        lab.net.run_until_idle();
        let v = lab.vantage("Rostelecom");
        let sym = lab.net.middlebox(v.sym_device).stats();
        let up = lab.net.middlebox(v.upstream_devices[0]).stats();
        assert!(sym.packets_seen > up.packets_seen);
        assert!(up.packets_seen > 0);
    }

    #[test]
    fn lab_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<VantageLab>();
        assert_send::<Vantage>();
    }

    #[test]
    fn lab_image_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LabImage>();
    }

    #[test]
    fn forked_lab_matches_fresh_build() {
        let universe = Universe::generate(11);
        let policy = policy_from_universe(&universe, false, true);
        let specs = [
            (TopologySpec::Fig1, 6),
            (TopologySpec::Generated(crate::GenParams::new(11, 5000)), 65),
        ];
        for (spec, devices) in specs {
            let builder = || {
                VantageLab::builder()
                    .universe(&universe)
                    .policy(policy.clone())
                    .table1()
                    .topology(spec.clone())
            };
            let image = builder().image();

            // One blocked fetch with capture on, from Rostelecom or from
            // generated client 0: either path crosses exactly two devices.
            let run = |mut lab: VantageLab| {
                lab.net.set_capture(true);
                lab.net.set_app(lab.us_main, Box::new(ServerApp::https_site(US_MAIN)));
                let (host, addr) = match &lab.gen {
                    Some(gen) => (gen.clients[0].host, gen.clients[0].addr),
                    None => {
                        let v = lab.vantage("Rostelecom");
                        (v.host, v.addr)
                    }
                };
                let ch = ClientHelloBuilder::new("twitter.com").build();
                let (app, report, syn) =
                    TcpClient::start(TcpClientConfig::new(addr, 49000, US_MAIN, 443, ch));
                lab.net.set_app(host, Box::new(app));
                lab.net.send_from(host, syn);
                lab.net.run_until_idle();
                assert_eq!(report.outcome(), tspu_stack::ClientOutcome::Reset);
                let built = lab.net.middleboxes_built();
                let packets = lab.net.captures().clone();
                let obs = format!("{:?}", lab.obs_snapshot());
                let audited = lab.oracle_spec().devices.len();
                assert_eq!(lab.net.middleboxes_built(), built, "exporting or auditing built a device");
                assert_eq!(audited, built, "the audit covers exactly the built devices");
                (built, packets, obs)
            };

            let (fresh_built, fresh_packets, fresh_obs) = run(builder().build());
            let (fork_built, fork_packets, fork_obs) = run(image.fork(7));
            assert_eq!(fresh_built, devices, "a built lab holds every device");
            assert_eq!(fork_built, 2, "a fork holds the devices its packets crossed");
            assert_eq!(fork_packets, fresh_packets);
            assert_eq!(fork_obs, fresh_obs);

            // Forking is repeatable: a cell dirtied by traffic leaves the
            // image untouched.
            let again = image.fork(0);
            assert_eq!(again.net.middleboxes_built(), 0);
            assert_eq!(again.obs_snapshot().counter("netsim.events_processed"), 0);
        }
    }

    #[test]
    fn explicit_fig1_spec_is_byte_identical_to_default() {
        // The TopologySpec pin: `.topology(TopologySpec::Fig1)` must be
        // the exact lab the default builder produces — same verdicts,
        // same instrument readings, same interned-route count.
        let universe = Universe::generate(11);
        let policy = policy_from_universe(&universe, false, true);
        let run = |mut lab: VantageLab| {
            assert!(lab.gen.is_none());
            lab.net.set_app(lab.us_main, Box::new(ServerApp::https_site(US_MAIN)));
            let v = lab.vantage("Rostelecom");
            let (host, addr) = (v.host, v.addr);
            let ch = ClientHelloBuilder::new("twitter.com").build();
            let (app, report, syn) =
                TcpClient::start(TcpClientConfig::new(addr, 49100, US_MAIN, 443, ch));
            lab.net.set_app(host, Box::new(app));
            lab.net.send_from(host, syn);
            lab.net.run_until_idle();
            (report.outcome(), lab.net.interned_routes(), format!("{:?}", lab.obs_snapshot()))
        };
        let default_lab =
            VantageLab::builder().universe(&universe).policy(policy.clone()).table1().build();
        let explicit = VantageLab::builder()
            .universe(&universe)
            .policy(policy)
            .table1()
            .topology(TopologySpec::Fig1)
            .build();
        assert_eq!(run(default_lab), run(explicit));
    }

    fn generated_lab() -> VantageLab {
        let policy = policy_from_universe(&Universe::generate(11), false, true);
        let spec = TopologySpec::Generated(crate::gen::GenParams::new(11, 100));
        VantageLab::builder().policy(policy).topology(spec).build()
    }

    #[test]
    #[should_panic(expected = "link faults on a generated lab are not supported")]
    fn a_generated_lab_refuses_link_faults() {
        let lossy = tspu_netsim::fault::LinkFaults::lossy(1.0);
        generated_lab().apply_fault_plan(&FaultPlan::symmetric(1, lossy));
    }

    #[test]
    fn a_generated_lab_takes_device_faults() {
        let mut lab = generated_lab();
        let mut plan = FaultPlan::new(1);
        plan.device.restarts.push(std::time::Duration::from_secs(1));
        lab.apply_fault_plan(&plan);
        assert!(lab.chaos_links.is_empty());
    }

    #[test]
    fn restart_times_are_absolute() {
        let (_u, mut lab) = lab();
        let mut plan = FaultPlan::new(1);
        plan.device.restarts = vec![std::time::Duration::from_secs(3), std::time::Duration::from_secs(9)];
        lab.apply_fault_plan(&plan);
        let spec = lab.oracle_spec();
        assert!(!spec.devices.is_empty());
        for audit in &spec.devices {
            assert_eq!(audit.restarts, vec![Time::from_secs(3), Time::from_secs(9)], "{}", audit.label);
        }
    }

    #[test]
    fn vantage_count_and_devices_match_paper() {
        let (_u, lab) = lab();
        assert_eq!(lab.vantages.len(), 3);
        assert_eq!(lab.vantage("Rostelecom").upstream_devices.len(), 1);
        assert_eq!(lab.vantage("ER-Telecom").upstream_devices.len(), 0);
        assert_eq!(lab.vantage("OBIT").upstream_devices.len(), 2);
        // Symmetric devices within the first three hops (§7.1).
        assert!(lab.vantages.iter().all(|v| v.sym_hop <= 3));
        assert_eq!(lab.resolvers.len(), 3);
    }
}
