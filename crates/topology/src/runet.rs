//! A country-scale synthetic RuNet for the remote-measurement experiments
//! (§7.2–§7.3, Tables 4 & 5, Figs. 9–12).
//!
//! ## What is modeled, and why it reproduces the paper's shape
//!
//! * **ASes** come in five kinds. Residential ISPs hold most endpoints and
//!   get *symmetric* TSPU devices close to their leaves (Roskomnadzor's
//!   guideline, §7.1); small ISPs may instead route through a transit
//!   provider that filters for them with *upstream-only* devices
//!   ("censorship-as-a-service", §7.1.1, Fig. 11); datacenters are exempt
//!   (§3: "all data center VPSes we rent show little to no censorship").
//! * **Port profiles** correlate with network kind: TR-069 (7547) and
//!   8080/58000 belong to residential CPE, 80/443/22 to servers — which is
//!   the entire mechanism behind Fig. 9's per-port positivity differences.
//! * **Device placement depth** is drawn from a leaf-heavy distribution
//!   (≈ 69 % within two hops of the endpoint, Fig. 12), and endpoints in
//!   one cluster share one device and one "TSPU link" (the paper found
//!   6,871 unique links for > 1 M positive endpoints).
//! * **Scale**: the paper scans 4,005,138 endpoints. The generator scales
//!   endpoint counts by `config.scale` (AS counts stay real), and
//!   experiments report raw + scale-corrected numbers.
//!
//! Ground truth (who is actually behind which device, at which hop) is
//! recorded on every [`Endpoint`] so measurements can be scored.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use tspu_core::{FailureProfile, PolicyHandle, TspuDevice};
use tspu_netsim::{Direction, HostId, MiddleboxHandle, MiddleboxId, Network, Route, RouteStep};
use tspu_registry::Universe;
use tspu_stack::server::ReassemblingApp;
use tspu_stack::{PortBehavior, ServerApp, ServerPort};

use crate::policy_build::{policy_from_universe, TOR_ENTRY_NODE};

/// Network kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AsKind {
    /// Consumer ISP: CPE-heavy, symmetric TSPU near the leaves.
    Residential,
    /// Small regional ISP, often filtered by its upstream provider.
    SmallIsp,
    /// Transit provider; hosts upstream-only devices for customers.
    Transit,
    /// Hosting/datacenter — exempt from TSPU.
    Datacenter,
    /// Backbone — few endpoints, no TSPU.
    Backbone,
}

/// TSPU coverage of an AS's endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Coverage {
    /// No device on any path.
    None,
    /// Symmetric device(s) inside the AS, near the leaves.
    Symmetric,
    /// The upstream provider's device sees only outbound traffic.
    UpstreamOnly,
    /// The upstream provider filters symmetrically at the transit ingress
    /// ("censorship-as-a-service", Fig. 11: TSPU links inside Rostelecom
    /// carrying small Tyumen ISPs).
    ProviderSymmetric,
}

/// Nmap-style device labels (§4's target-selection filter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceLabel {
    Router,
    Switch,
    EndUser,
}

/// One autonomous system.
#[derive(Debug, Clone)]
pub struct AsInfo {
    pub asn: u32,
    pub kind: AsKind,
    pub coverage: Coverage,
    pub endpoint_count: usize,
}

/// One scanned endpoint with ground truth.
#[derive(Debug, Clone)]
pub struct Endpoint {
    pub host: HostId,
    pub addr: Ipv4Addr,
    pub asn: u32,
    pub port: u16,
    pub label: DeviceLabel,
    /// True when a symmetric device sits on the scanner→endpoint path.
    pub behind_symmetric: bool,
    /// True when an upstream-only device covers this endpoint's outbound.
    pub behind_upstream_only: bool,
    /// Ground truth hops between the symmetric device and the endpoint.
    pub device_hops: Option<usize>,
    /// Ground truth (hop-before, hop-after) of the symmetric device.
    pub tspu_link: Option<(Ipv4Addr, Ipv4Addr)>,
    /// Whether the endpoint has TCP port 7 open (echo population).
    pub is_echo: bool,
    /// The endpoint (and its TSPU) sit behind a CG-NAT: unreachable to
    /// unsolicited probes, so remote scans cannot count its device.
    pub behind_nat: bool,
}

/// Where censorship devices sit in the topology — the architectural
/// comparison of §9: "In contrast to the Great Firewall of China (GFW)
/// that took decades to build and deploy at choke points in the nation's
/// internet topology, … Russia achieved building a nation-scale
/// censorship architecture deployed in decentralized networks."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementModel {
    /// The TSPU way: many devices near residential leaves, datacenters
    /// exempt, transit providers filtering for small customers.
    #[default]
    LeafTspu,
    /// The GFW way: a handful of devices on the border/backbone choke
    /// points; every international flow crosses one.
    ChokePointGfw,
}

/// Generation parameters.
#[derive(Debug, Clone, Copy)]
pub struct RunetConfig {
    pub seed: u64,
    /// Endpoint scale relative to the paper's 4,005,138.
    pub scale: f64,
    /// Number of ASes to generate.
    pub num_ases: usize,
    /// Per-device failure probability for the scan-visible mechanisms.
    pub device_failure: f64,
    /// Endpoints per TSPU device/link cluster.
    pub cluster_size: usize,
    /// Probability that an infrastructure endpoint in a small-ISP or
    /// transit network has the echo service (TCP port 7) enabled.
    pub echo_rate: f64,
    /// Device placement architecture.
    pub placement: PlacementModel,
    /// Fraction of covered residential clusters whose TSPU sits *behind*
    /// a CG-NAT (Roskomnadzor's recommended spot, §7.1) — invisible to
    /// the remote fragmentation scan (§7.3's lower-bound caveat).
    pub nat_fraction: f64,
}

impl Default for RunetConfig {
    fn default() -> RunetConfig {
        RunetConfig {
            seed: 2022,
            scale: 0.01,
            num_ases: 4_986,
            device_failure: 0.002,
            cluster_size: 40,
            echo_rate: 0.06,
            placement: PlacementModel::LeafTspu,
            nat_fraction: 0.25,
        }
    }
}

impl RunetConfig {
    /// A small configuration for unit tests.
    pub fn tiny(seed: u64) -> RunetConfig {
        RunetConfig {
            seed,
            scale: 0.002,
            num_ases: 160,
            device_failure: 0.0,
            cluster_size: 8,
            echo_rate: 0.35,
            placement: PlacementModel::LeafTspu,
            nat_fraction: 0.25,
        }
    }
}

/// The generated country.
pub struct Runet {
    pub net: Network,
    pub policy: PolicyHandle,
    pub config: RunetConfig,
    pub ases: Vec<AsInfo>,
    pub endpoints: Vec<Endpoint>,
    /// Paris-like measurement machine (outside Russia).
    pub scanner: HostId,
    pub scanner_addr: Ipv4Addr,
    /// The IP-blocked Tor entry node (same data center as the scanner).
    pub tor: HostId,
    pub tor_addr: Ipv4Addr,
    /// All TSPU devices, for stats (borrow through `net.middlebox`).
    pub devices: Vec<MiddleboxHandle<TspuDevice>>,
    /// Which AS owns each router hop address (Fig. 11's view).
    pub hop_owner: HashMap<Ipv4Addr, u32>,
}

/// The paper's top-10 scanned ports (Fig. 9's x-axis).
pub const TOP_PORTS: [u16; 10] = [21, 22, 80, 443, 445, 1723, 3389, 7547, 8080, 58000];

/// Port weights per AS kind: (port, weight). The correlation between port
/// and network type is the causal driver of Fig. 9.
fn port_weights(kind: AsKind) -> &'static [(u16, u32)] {
    match kind {
        AsKind::Residential => &[
            (7547, 42), (8080, 14), (58000, 12), (80, 8), (443, 6), (1723, 5),
            (445, 4), (3389, 4), (21, 3), (22, 2),
        ],
        AsKind::SmallIsp => &[
            (7547, 18), (8080, 12), (80, 16), (443, 14), (22, 10), (21, 8),
            (1723, 8), (3389, 6), (445, 5), (58000, 3),
        ],
        AsKind::Transit => &[(22, 30), (21, 20), (80, 20), (443, 15), (8080, 10), (3389, 5)],
        AsKind::Datacenter => &[(80, 30), (443, 30), (22, 20), (21, 8), (3389, 7), (8080, 5)],
        AsKind::Backbone => &[(22, 50), (21, 30), (80, 20)],
    }
}

fn pick_port(rng: &mut SmallRng, kind: AsKind) -> u16 {
    let weights = port_weights(kind);
    let total: u32 = weights.iter().map(|(_, w)| w).sum();
    let mut roll = rng.gen_range(0..total);
    for (port, weight) in weights {
        if roll < *weight {
            return *port;
        }
        roll -= weight;
    }
    weights[0].0
}

/// Fig. 12's ground-truth placement depth distribution (hops between
/// device and endpoint): ~69 % within the first two hops.
fn pick_device_hops(rng: &mut SmallRng) -> usize {
    let roll: f64 = rng.gen();
    match roll {
        r if r < 0.36 => 1,
        r if r < 0.69 => 2,
        r if r < 0.81 => 3,
        r if r < 0.88 => 4,
        r if r < 0.92 => 5,
        r if r < 0.95 => 6,
        r if r < 0.97 => 7,
        r if r < 0.985 => 8,
        r if r < 0.995 => 9,
        _ => 10,
    }
}

fn pick_label(rng: &mut SmallRng, kind: AsKind, port: u16) -> DeviceLabel {
    let infra_prob = match kind {
        AsKind::Transit | AsKind::Backbone => 0.9,
        AsKind::Datacenter => 0.5,
        AsKind::SmallIsp => 0.5,
        AsKind::Residential => {
            if port == 7547 || port == 58000 {
                0.25 // CPE devices are mostly end-user gear
            } else {
                0.4
            }
        }
    };
    if rng.gen_bool(infra_prob) {
        if rng.gen_bool(0.6) {
            DeviceLabel::Router
        } else {
            DeviceLabel::Switch
        }
    } else {
        DeviceLabel::EndUser
    }
}

impl Runet {
    /// Generates the country deterministically.
    pub fn generate(universe: &Universe, config: RunetConfig) -> Runet {
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let policy = policy_from_universe(universe, false, true);
        let mut net = Network::with_default_latency();

        let scanner_addr = Ipv4Addr::new(198, 51, 100, 8);
        let scanner = net.add_host(scanner_addr);
        let tor = net.add_host(TOR_ENTRY_NODE);
        // Scanner and Tor node share a data center (§3): direct link.
        net.set_route_symmetric(scanner, tor, Route::direct());

        // --- AS population ---
        let mut ases = Vec::with_capacity(config.num_ases);
        for i in 0..config.num_ases {
            let asn = 10_000 + i as u32;
            let kind = match rng.gen_range(0..100) {
                0..=27 => AsKind::Residential,
                28..=67 => AsKind::SmallIsp,
                68..=77 => AsKind::Transit,
                78..=92 => AsKind::Datacenter,
                _ => AsKind::Backbone,
            };
            // Heavy-tailed endpoint counts (full-scale terms), largest for
            // residential ISPs.
            let base: f64 = match kind {
                AsKind::Residential => 10f64.powf(rng.gen_range(2.8..4.4)),
                AsKind::SmallIsp => 10f64.powf(rng.gen_range(1.8..3.4)),
                AsKind::Transit => 10f64.powf(rng.gen_range(1.5..2.8)),
                AsKind::Datacenter => 10f64.powf(rng.gen_range(2.9..4.5)),
                AsKind::Backbone => 10f64.powf(rng.gen_range(1.0..2.0)),
            };
            let endpoint_count = ((base * config.scale).round() as usize).max(1);
            // Coverage: mid-to-large residential ISPs get symmetric
            // devices; a slice of small ISPs is covered upstream-only by
            // their transit provider; datacenters/backbone are exempt.
            let coverage = match kind {
                AsKind::Residential if base > 900.0 && rng.gen_bool(0.72) => Coverage::Symmetric,
                AsKind::Residential if rng.gen_bool(0.18) => Coverage::Symmetric,
                AsKind::SmallIsp if rng.gen_bool(0.18) => Coverage::UpstreamOnly,
                AsKind::SmallIsp if rng.gen_bool(0.10) => Coverage::ProviderSymmetric,
                AsKind::Transit if rng.gen_bool(0.15) => Coverage::UpstreamOnly,
                _ => Coverage::None,
            };
            ases.push(AsInfo { asn, kind, coverage, endpoint_count });
        }

        // --- Core hops shared by all routes ---
        let core_hops = [
            Ipv4Addr::new(198, 51, 100, 1),  // Paris gateway
            Ipv4Addr::new(185, 1, 0, 1),     // EU exchange
            Ipv4Addr::new(188, 128, 0, 1),   // RU border (Rostelecom)
            Ipv4Addr::new(188, 128, 0, 2),   // RU backbone
        ];

        let mut endpoints = Vec::with_capacity(ases.iter().map(|a| a.endpoint_count).sum());
        let mut devices: Vec<MiddleboxHandle<TspuDevice>> = Vec::new();
        let mut hop_owner: HashMap<Ipv4Addr, u32> = HashMap::new();
        for (i, &hop) in core_hops.iter().enumerate() {
            hop_owner.insert(hop, if i < 2 { 0 } else { 12_389 });
        }

        let mut addr_counter: u32 = 0; // cluster /24 allocator in 5.0.0.0/8
        let mut hop_counter: u32 = 0; // router addresses in 100.64.0.0/10
        let mut alloc_hop = |owner: u32, hop_owner: &mut HashMap<Ipv4Addr, u32>| {
            let addr = Ipv4Addr::from(0x6440_0000u32 + hop_counter);
            hop_counter += 1;
            hop_owner.insert(addr, owner);
            addr
        };

        // Upstream-only devices: one per covering transit provider slice.
        // Small ISPs with CaaS coverage share a provider device.
        let mut caas_device: Option<MiddleboxHandle<TspuDevice>> = None;

        // Choke-point architecture: a couple of border boxes carry the
        // whole country; nothing sits in the access networks.
        let choke_devices: Vec<MiddleboxId> = if config.placement == PlacementModel::ChokePointGfw {
            (0..2)
                .map(|i| {
                    let handle = net.install_middlebox(TspuDevice::new(
                        &format!("gfw-border-{i}"),
                        policy.clone(),
                        FailureProfile::uniform(config.device_failure),
                        config.seed ^ 0x9f0f ^ i,
                    ));
                    devices.push(handle);
                    handle.id()
                })
                .collect()
        } else {
            Vec::new()
        };

        for as_info in &ases {
            let asn = as_info.asn;
            // Per-AS ingress hops (used by every endpoint in the AS).
            let transit_owner = if as_info.kind == AsKind::SmallIsp { 12_389 } else { asn };
            let ingress_a = alloc_hop(transit_owner, &mut hop_owner);
            let ingress_b = alloc_hop(asn, &mut hop_owner);

            // Echo service (TCP port 7) clusters per network: only some
            // small-ISP/transit operators leave it enabled, which is what
            // concentrates Table 4's funnel into few ASes.
            let as_has_echo =
                matches!(as_info.kind, AsKind::SmallIsp | AsKind::Transit) && rng.gen_bool(0.30);

            // Provider-symmetric coverage: one device per covered AS,
            // sitting on the transit ingress link (owned by the provider).
            let provider_sym = if as_info.coverage == Coverage::ProviderSymmetric
                && config.placement == PlacementModel::LeafTspu
            {
                let handle = net.install_middlebox(TspuDevice::new(
                    &format!("tspu-provider-as{asn}"),
                    policy.clone(),
                    FailureProfile::uniform(config.device_failure),
                    config.seed ^ (u64::from(asn) << 8),
                ));
                devices.push(handle);
                Some(handle.id())
            } else {
                None
            };

            // Cluster endpoints over shared leaf infrastructure.
            let mut produced = 0;
            while produced < as_info.endpoint_count {
                let in_cluster = config.cluster_size.min(as_info.endpoint_count - produced).max(1);
                let cluster_base = 0x0500_0000u32 + (addr_counter << 8);
                addr_counter += 1;

                // Cluster-covered?
                let covered = config.placement == PlacementModel::LeafTspu
                    && match as_info.coverage {
                        Coverage::Symmetric => rng.gen_bool(0.64),
                        _ => false,
                    };
                let provider_covered =
                    provider_sym.is_some() && config.placement == PlacementModel::LeafTspu;
                let device_hops = if covered { pick_device_hops(&mut rng) } else { 0 };
                // Roskomnadzor's letter recommends installing before
                // CG-NAT (subscriber side); such devices are invisible to
                // the remote scan (§7.3).
                let behind_nat = covered
                    && as_info.kind == AsKind::Residential
                    && rng.gen_bool(config.nat_fraction);
                // Leaf chain long enough to put the device device_hops
                // from the endpoint: internal hops count (after ingress).
                let leaf_len = device_hops.max(1) + 1;
                let leaf_hops: Vec<Ipv4Addr> =
                    (0..leaf_len).map(|_| alloc_hop(asn, &mut hop_owner)).collect();

                // Device for this cluster.
                let (device_id, tspu_link) = if covered {
                    let handle = net.install_middlebox(TspuDevice::new(
                        &format!("tspu-as{asn}-c{addr_counter}"),
                        policy.clone(),
                        FailureProfile::uniform(config.device_failure),
                        config.seed ^ u64::from(addr_counter),
                    ));
                    devices.push(handle);
                    let id = handle.id();
                    // Place the device so that `device_hops` counts the
                    // hops from the device's link to the destination: with
                    // device_hops = 1 the device sits on the very last
                    // link before the endpoint.
                    let dev_idx = leaf_hops.len() - device_hops;
                    let before = leaf_hops[dev_idx];
                    let after = leaf_hops.get(dev_idx + 1).copied();
                    (Some((id, dev_idx)), Some((before, after.unwrap_or(before))))
                } else {
                    (None, None)
                };

                // The cluster's CG-NAT, when present, sits on the same
                // link as the device, on the scanner side.
                let nat_id = if behind_nat {
                    let public = Ipv4Addr::from(0x0512_0000u32 + addr_counter);
                    Some(net.add_middlebox(Box::new(tspu_netsim::nat::Cgnat::new(public))))
                } else {
                    None
                };

                // Upstream-only coverage: shared provider device.
                let upstream_id = if as_info.coverage == Coverage::UpstreamOnly
                    && config.placement == PlacementModel::LeafTspu
                {
                    let handle = *caas_device.get_or_insert_with(|| {
                        let handle = net.install_middlebox(TspuDevice::new(
                            "tspu-transit-caas",
                            policy.clone(),
                            FailureProfile::uniform(config.device_failure),
                            config.seed ^ 0xca45,
                        ));
                        devices.push(handle);
                        handle
                    });
                    Some(handle.id())
                } else {
                    None
                };

                // The cluster's two routes, shared by all its endpoints.
                // Forward: scanner → endpoint.
                let mut forward: Vec<RouteStep> = core_hops
                    .iter()
                    .map(|&h| RouteStep::router(h))
                    .collect();
                if let Some(&choke) = choke_devices.first() {
                    // The border box (after the RU border router).
                    forward[2].devices.push((choke, Direction::RemoteToLocal));
                }
                let mut ingress_a_step = RouteStep::router(ingress_a);
                if config.placement == PlacementModel::LeafTspu {
                    if let Some(id) = provider_sym {
                        ingress_a_step.devices.push((id, Direction::RemoteToLocal));
                    }
                }
                forward.push(ingress_a_step);
                forward.push(RouteStep::router(ingress_b));
                for (k, &hop) in leaf_hops.iter().enumerate() {
                    let mut step = RouteStep::router(hop);
                    if let Some((id, dev_idx)) = device_id {
                        if k == dev_idx {
                            // Inbound order: NAT first (scanner side),
                            // then the TSPU behind it.
                            if let Some(nat) = nat_id {
                                step.devices.push((nat, Direction::RemoteToLocal));
                            }
                            step.devices.push((id, Direction::RemoteToLocal));
                        }
                    }
                    forward.push(step);
                }

                // Reverse: endpoint → scanner (and → Tor).
                let mut reverse: Vec<RouteStep> = Vec::new();
                for (k, &hop) in leaf_hops.iter().enumerate().rev() {
                    let mut step = RouteStep::router(hop);
                    if let Some((id, dev_idx)) = device_id {
                        if k == dev_idx {
                            // Outbound order: TSPU first, then NAT.
                            step.devices.push((id, Direction::LocalToRemote));
                            if let Some(nat) = nat_id {
                                step.devices.push((nat, Direction::LocalToRemote));
                            }
                        }
                    }
                    reverse.push(step);
                }
                reverse.push(RouteStep::router(ingress_b));
                let mut transit_step = RouteStep::router(ingress_a);
                if let Some(up_id) = upstream_id {
                    // The provider's device on the transit link sees
                    // outbound traffic only.
                    transit_step.devices.push((up_id, Direction::LocalToRemote));
                }
                if let Some(id) = provider_sym {
                    transit_step.devices.push((id, Direction::LocalToRemote));
                }
                reverse.push(transit_step);
                for (ci, &h) in core_hops.iter().enumerate().rev() {
                    let mut step = RouteStep::router(h);
                    if ci == 2 {
                        if let Some(&choke) = choke_devices.get(1) {
                            step.devices.push((choke, Direction::LocalToRemote));
                        }
                    }
                    reverse.push(step);
                }
                let forward = net.intern_route(Route { steps: forward });
                let reverse = net.intern_route(Route { steps: reverse });

                for j in 0..in_cluster {
                    let addr = Ipv4Addr::from(cluster_base + 2 + j as u32);
                    let port = pick_port(&mut rng, as_info.kind);
                    let label = pick_label(&mut rng, as_info.kind, port);
                    // Echo servers: any device class can run the service;
                    // the §4 nmap filter later keeps only routers/switches.
                    let is_echo = as_has_echo && rng.gen_bool((config.echo_rate * 3.0).min(0.9));

                    let mut server = ServerApp::new(addr)
                        .with_port(ServerPort::new(port, PortBehavior::Sink));
                    if is_echo {
                        server = server.with_port(ServerPort::new(7, PortBehavior::Echo));
                    }
                    let host = net.add_host_with_app(addr, Box::new(ReassemblingApp::new(server)));
                    for probe_src in [scanner, tor] {
                        net.set_route_id(probe_src, host, forward);
                        net.set_route_id(host, probe_src, reverse);
                    }

                    let (behind_symmetric, truth_hops, truth_link) = if config.placement
                        == PlacementModel::ChokePointGfw
                    {
                        // Everything crosses the border box; its distance
                        // from the endpoint is nearly the whole path.
                        let hops_away = 2 + 1 + leaf_hops.len() + 2;
                        (true, Some(hops_away), Some((core_hops[2], core_hops[3])))
                    } else if covered {
                        (true, Some(device_hops), tspu_link)
                    } else if provider_covered {
                        // The provider's ingress device is leaf_len + 2
                        // hops from the destination (ingress_b + leaf
                        // chain + delivery).
                        (true, Some(leaf_hops.len() + 2), Some((ingress_a, ingress_b)))
                    } else {
                        (false, None, None)
                    };
                    endpoints.push(Endpoint {
                        host,
                        addr,
                        asn,
                        port,
                        label,
                        behind_symmetric,
                        behind_upstream_only: upstream_id.is_some(),
                        device_hops: truth_hops,
                        tspu_link: truth_link,
                        is_echo,
                        behind_nat,
                    });
                    produced += 1;
                }
            }
        }

        Runet {
            net,
            policy,
            config,
            ases,
            endpoints,
            scanner,
            scanner_addr,
            tor,
            tor_addr: TOR_ENTRY_NODE,
            devices,
            hop_owner,
        }
    }

    /// Endpoints with a given port open.
    pub fn endpoints_with_port(&self, port: u16) -> impl Iterator<Item = &Endpoint> {
        self.endpoints.iter().filter(move |e| e.port == port)
    }

    /// The echo-server population (TCP port 7 open).
    pub fn echo_servers(&self) -> impl Iterator<Item = &Endpoint> {
        self.endpoints.iter().filter(|e| e.is_echo)
    }

    /// Ground-truth fraction of endpoints behind a symmetric device.
    pub fn ground_truth_positive_fraction(&self) -> f64 {
        let positive = self.endpoints.iter().filter(|e| e.behind_symmetric).count();
        positive as f64 / self.endpoints.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runet() -> Runet {
        let universe = Universe::generate(5);
        Runet::generate(&universe, RunetConfig::tiny(9))
    }

    #[test]
    fn generation_shapes() {
        let r = runet();
        assert_eq!(r.ases.len(), 160);
        assert!(r.endpoints.len() > 300, "endpoints {}", r.endpoints.len());
        // Aggregate positivity in the ballpark of the paper's 25.31 %.
        let frac = r.ground_truth_positive_fraction();
        assert!((0.10..=0.45).contains(&frac), "positive fraction {frac}");
    }

    #[test]
    fn residential_ports_dominate_positive_endpoints() {
        let r = runet();
        let rate = |port: u16| {
            let all: Vec<_> = r.endpoints_with_port(port).collect();
            if all.is_empty() {
                return 0.0;
            }
            all.iter().filter(|e| e.behind_symmetric).count() as f64 / all.len() as f64
        };
        let cpe = rate(7547);
        let web = rate(80).max(rate(443));
        assert!(cpe > web, "7547 rate {cpe} vs web {web}");
    }

    #[test]
    fn datacenters_never_covered() {
        let r = runet();
        for as_info in r.ases.iter().filter(|a| a.kind == AsKind::Datacenter) {
            assert_eq!(as_info.coverage, Coverage::None);
        }
        let dc_asns: Vec<u32> = r
            .ases
            .iter()
            .filter(|a| a.kind == AsKind::Datacenter)
            .map(|a| a.asn)
            .collect();
        assert!(r
            .endpoints
            .iter()
            .filter(|e| dc_asns.contains(&e.asn))
            .all(|e| !e.behind_symmetric && !e.behind_upstream_only));
    }

    #[test]
    fn covered_endpoints_have_ground_truth_link() {
        let r = runet();
        for e in r.endpoints.iter().filter(|e| e.behind_symmetric) {
            assert!(e.device_hops.is_some());
            assert!(e.tspu_link.is_some());
        }
        // ~69 % of *leaf-placed* devices within two hops (provider-hosted
        // devices in transit ASes are deliberately deeper; at country
        // scale the residential mass dominates the Fig. 12 histogram).
        let leaf_asns: Vec<u32> = r
            .ases
            .iter()
            .filter(|a| a.coverage == Coverage::Symmetric)
            .map(|a| a.asn)
            .collect();
        let leaf_hops: Vec<usize> = r
            .endpoints
            .iter()
            .filter(|e| leaf_asns.contains(&e.asn))
            .filter_map(|e| e.device_hops)
            .collect();
        let close = leaf_hops.iter().filter(|&&h| h <= 2).count();
        let frac = close as f64 / leaf_hops.len().max(1) as f64;
        assert!((0.55..=0.85).contains(&frac), "close fraction {frac}");
    }

    #[test]
    fn scan_packet_reaches_endpoint_and_returns() {
        let mut r = runet();
        let endpoint = r.endpoints.iter().find(|e| !e.behind_symmetric).cloned().unwrap();
        assert!(!endpoint.behind_nat);
        let syn = tspu_stack::craft::TcpPacketSpec::new(
            r.scanner_addr, 50000, endpoint.addr, endpoint.port, tspu_wire::tcp::TcpFlags::SYN,
        )
        .build();
        r.net.send_from(r.scanner, syn);
        r.net.run_until_idle();
        let inbox = r.net.take_inbox(r.scanner);
        assert_eq!(inbox.len(), 1, "SYN/ACK comes back");
    }

    #[test]
    fn echo_population_is_concentrated() {
        let r = runet();
        let echoes: Vec<_> = r.echo_servers().collect();
        assert!(!echoes.is_empty());
        // Echo service clusters in a minority of ASes…
        let echo_ases: std::collections::HashSet<u32> = echoes.iter().map(|e| e.asn).collect();
        let eligible = r
            .ases
            .iter()
            .filter(|a| matches!(a.kind, AsKind::SmallIsp | AsKind::Transit))
            .count();
        assert!(echo_ases.len() < eligible / 2, "{} of {}", echo_ases.len(), eligible);
        // …and includes end-user devices the §4 filter will drop.
        assert!(echoes.iter().any(|e| e.label == DeviceLabel::EndUser));
    }

    #[test]
    fn nat_hides_covered_endpoints_from_probes() {
        let mut r = runet();
        let Some(hidden) = r
            .endpoints
            .iter()
            .find(|e| e.behind_symmetric && e.behind_nat)
            .cloned()
        else {
            panic!("tiny runet produced no NAT'd covered cluster");
        };
        // An unsolicited probe never reaches the endpoint: the scan
        // cannot count this cluster's device (§7.3's lower bound).
        let syn = tspu_stack::craft::TcpPacketSpec::new(
            r.scanner_addr, 61_000, hidden.addr, hidden.port, tspu_wire::tcp::TcpFlags::SYN,
        )
        .build();
        r.net.send_from(r.scanner, syn);
        r.net.run_until_idle();
        assert!(r.net.take_inbox(r.scanner).is_empty());
        // But the endpoint's own outbound traffic still crosses its TSPU
        // and comes back translated: users behind NAT are censored even
        // though scans cannot see their device.
        let out = tspu_stack::craft::TcpPacketSpec::new(
            hidden.addr, 40_000, r.scanner_addr, 443, tspu_wire::tcp::TcpFlags::SYN,
        )
        .build();
        r.net.send_from(hidden.host, out);
        r.net.run_until_idle();
        let arrived = r.net.take_inbox(r.scanner);
        assert_eq!(arrived.len(), 1, "outbound SYN crosses NAT");
        let view = tspu_wire::ipv4::Ipv4Packet::new_checked(&arrived[0].1[..]).unwrap();
        assert_ne!(view.src_addr(), hidden.addr, "source was translated");
    }

    #[test]
    fn choke_point_placement_flips_the_architecture() {
        let universe = Universe::generate(5);
        let config = RunetConfig { placement: PlacementModel::ChokePointGfw, ..RunetConfig::tiny(9) };
        let r = Runet::generate(&universe, config);
        // Two border boxes carry everything.
        assert_eq!(r.devices.len(), 2);
        // Every endpoint is covered, including datacenters…
        assert!(r.endpoints.iter().all(|e| e.behind_symmetric));
        // …and the device is far from the leaves (the anti-Fig. 12).
        assert!(r.endpoints.iter().all(|e| e.device_hops.unwrap() >= 5));
        // Whereas the TSPU placement needs an order of magnitude more
        // boxes for partial coverage, close to leaves. (Relative bound:
        // the absolute count depends on the RNG draws of the generator.)
        let tspu = Runet::generate(&universe, RunetConfig::tiny(9));
        assert!(
            tspu.devices.len() > 10 * r.devices.len(),
            "{} devices vs {} choke-point boxes",
            tspu.devices.len(),
            r.devices.len()
        );
    }

    #[test]
    fn deterministic() {
        let universe = Universe::generate(5);
        let a = Runet::generate(&universe, RunetConfig::tiny(9));
        let b = Runet::generate(&universe, RunetConfig::tiny(9));
        assert_eq!(a.endpoints.len(), b.endpoints.len());
        assert_eq!(a.endpoints[10].addr, b.endpoints[10].addr);
        assert_eq!(a.endpoints[10].behind_symmetric, b.endpoints[10].behind_symmetric);
    }
}
