//! # tspu-spec
//!
//! The paper's §5 behavioural model written once, as naive executable
//! Rust, and the differentials that hold the censor engine to it. It is a
//! test-only crate: nothing in the engine's build depends on it, and it
//! restates the paper's figures (timeouts, windows, limits) rather than
//! reading the engine's constants module, so a wrong constant in the
//! engine is a disagreement here, not a shared mistake.
//!
//! * [`conntrack`] — the Fig. 4 role automaton with the Table 2 / Table 8
//!   idle timeouts, over an eager map;
//! * [`frag`] — Fig. 3's fragment rules 1–6 as linear scans;
//! * [`names`] — the registry's suffix matching;
//! * [`Device`] — one TSPU: SNI-I…IV, the QUIC filter, IP blocking over
//!   TCP, UDP and ICMP, residual windows, the SNI-III policer, the RST/ACK
//!   rewrite, restarts and fragments, with the failure dice an input
//!   ([`Dice`]);
//! * [`Op`] — the device-level op language, and [`transcript_ops`], the
//!   fixed run the engine's transcript golden pins;
//! * [`tracker`] and [`differential`] — the two differentials' generators
//!   and players, shared by `crates/spec/tests/` and the root quick run.

pub mod conntrack;
mod device;
pub mod differential;
pub mod frag;
pub mod names;
mod ops;
pub mod tracker;
mod transcript;

pub use device::{Device, Dice};
pub use ops::{Op, Packet, Setup};
pub use transcript::{transcript_ops, transcript_setup};
