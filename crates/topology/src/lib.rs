//! # tspu-topology
//!
//! Synthetic network topologies for the reproduction:
//!
//! * [`lab`] — the paper's measurement setup (Fig. 1): three residential
//!   vantage points (Rostelecom, ER-Telecom, OBIT) with TSPU devices
//!   placed as §5.2.1/§7.1 found them (symmetric near the user; extra
//!   upstream-only devices on Rostelecom and OBIT paths), two US
//!   measurement machines, and the Paris machine / Tor entry node pair.
//! * [`runet`] — a country-scale synthetic RuNet: thousands of ASes typed
//!   residential / transit / small ISP / datacenter / backbone, endpoint
//!   populations with port-open profiles per network type, symmetric TSPU
//!   devices near residential leaves, upstream-only devices in transit
//!   providers ("censorship-as-a-service", §7.1.1), and ground-truth
//!   labels for every endpoint so measurements can be scored.
//! * [`gen`] — seeded AS-graph generation behind [`gen::TopologySpec`]:
//!   the same [`LabBuilder`] grows parameterized graphs (100–5000 ASes,
//!   preferential-attachment leaves under transit cores, devices placed
//!   by policy) with a deterministic route-churn schedule, the substrate
//!   for tomography-based censorship localization.
//! * [`policy_build`] — turning a `tspu-registry` universe into the
//!   central `tspu-core` policy and the per-ISP censoring resolvers.

pub mod gen;
pub mod lab;
pub mod policy_build;
pub mod runet;

pub use gen::{
    ChurnEvent, GenClient, GenDevice, GenParams, GenTopology, Placement, RouteVariant,
    TopologySpec,
};
pub use lab::{LabBuilder, LabImage, Vantage, VantageLab};
pub use policy_build::{policy_from_universe, vantage_resolvers, IspResolver, Resolution, TOR_ENTRY_NODE};
pub use runet::{AsInfo, AsKind, Coverage, Endpoint, PlacementModel, Runet, RunetConfig};
