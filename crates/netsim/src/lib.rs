//! # tspu-netsim
//!
//! A deterministic, discrete-event, packet-level network simulator — the
//! substrate on which the TSPU reproduction runs its experiments.
//!
//! Why a simulator and not sockets: the paper's methodology manipulates
//! *time* (timeout inference over 480-second sleeps, §5.3.3), *routing
//! asymmetry* (upstream-only devices, §7.1.1), and *hop position* (TTL-based
//! localization, §7). A virtual clock makes those experiments instantaneous
//! and exactly reproducible; explicit directed routes make asymmetric
//! visibility a first-class object instead of an accident of BGP.
//!
//! ## Model
//!
//! * A [`Network`] owns hosts, middleboxes, and directed routes.
//! * A **host** is an endpoint with one IPv4 address and either an
//!   [`Application`] that reacts to packets and timers (echo servers, TLS
//!   peers, …) or an inbox that records every packet delivered to it.
//! * A **route** from host A to host B is an ordered list of
//!   [`RouteStep`]s: a router hop (with an address, for traceroute
//!   TTL-exceeded replies) followed by zero or more middlebox attachments.
//!   Routes are directional and independently configurable, so the reverse
//!   path may differ — asymmetric routing "is common in Russia" (§7.1.1)
//!   and is what creates upstream-only TSPU visibility.
//! * A **middlebox** ([`Middlebox`]) sees each packet with the traffic
//!   [`Direction`] its placement declared, and maps one input packet to
//!   zero (drop), one (forward, possibly rewritten), or many (fragment
//!   queue flush) output packets.
//!
//! Packets are raw IPv4 datagram bytes from `tspu-wire`; nothing in the
//! simulator is out-of-band, so a middlebox can only act on what is
//! actually on the wire — the same constraint a real DPI has.

mod app;
mod capture;
mod middlebox;
mod network;
mod queue;
mod time;

pub mod fault;
pub mod nat;
pub mod oracle;
pub mod pcap;

pub use app::{Application, Output};
pub use fault::{ChaosLink, DeviceFaults, FaultPlan, FlapSpec, LinkFaults, LinkStats};
pub use oracle::{ArmCandidate, ArmKind, DeviceAudit, Oracle, OracleReport, OracleSpec};
pub use capture::{Capture, CaptureIter, CaptureView, TracePoint};
pub use middlebox::{AsAny, Direction, Middlebox, MiddleboxId, MiddleboxImage, Verdict};
pub use network::{HostId, MiddleboxHandle, Network, NetworkImage, Route, RouteId, RouteStep};
pub use queue::EventQueue;
pub use time::Time;

/// The frozen benchmark's queue ladder (`netsim.queue_{heap,wheel}_ns`:
/// `new` / `push` / `pop`) is the only user of this name.
pub type TimerWheel<T> = EventQueue<T>;
