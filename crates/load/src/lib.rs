//! Population-scale workload engine for the TSPU simulator.
//!
//! The paper's subject is a device that sits on *every* subscriber's path:
//! what makes TSPU viable at national scale is that one box can track the
//! flow population of an entire ISP. This crate supplies the traffic to
//! test that claim inside the simulator:
//!
//! - [`zipf`] — heavy-tailed domain popularity sampling;
//! - [`gen`] — seeded expansion of a [`LoadProfile`] (Zipf domains,
//!   diurnal arrival curve, open/closed-loop mix) into per-client flow
//!   schedules, and the client/server [`Application`]s that replay them as
//!   full SYN → ClientHello → response → FIN lifecycles;
//! - [`soak`] — the driver that builds the topology once, forks it per
//!   run, drives the population through a [`TspuDevice`], and reports
//!   sustained packets/sec, wall latency percentiles per scheduler event,
//!   bytes per tracked flow, and per-shard conntrack occupancy.
//!
//! Everything virtual-time derived is a pure function of the profile seed:
//! two runs of the same lab produce equal [`SoakReport::obs_snapshot`]s
//! and timelines regardless of wall clock or thread count, which is what
//! lets CI hold the million-flow path to the same determinism bar as the
//! single-probe experiments. The wall-clock figures live only in the
//! report's named fields.
//!
//! [`Application`]: tspu_netsim::Application
//! [`TspuDevice`]: tspu_core::TspuDevice
//! [`LoadProfile`]: gen::LoadProfile
//! [`SoakReport::obs_snapshot`]: soak::SoakReport::obs_snapshot

pub mod gen;
pub mod soak;
pub mod zipf;

pub use gen::{FlowOutcome, LoadClientApp, LoadProfile, LoadServerApp, LoadStats};
pub use soak::{build_lab, SoakConfig, SoakLab, SoakReport, SoakSlice};
pub use zipf::ZipfSampler;
