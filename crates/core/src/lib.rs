//! # tspu-core
//!
//! The TSPU middlebox model — the paper's subject, implemented to its
//! black-box behavioral specification and used as ground truth for every
//! experiment in the reproduction.
//!
//! A [`TspuDevice`] is an in-path DPI composed of:
//!
//! * a **connection tracker** ([`conntrack`]) that infers client/server
//!   roles from packet sequences and holds per-flow state with the
//!   idle timeouts of paper §5.3.3 (Tables 2 and 8);
//! * an **SNI engine** that parses ClientHellos (via `tspu_wire::tls`) and
//!   matches the extracted hostname against centrally distributed
//!   blocklists, triggering behaviors SNI-I…IV (§5.2);
//! * a **QUIC filter** keyed on the version-1 fingerprint (§5.2, Fig. 14);
//! * **IP-based blocking** of out-registry addresses (§5.2);
//! * a **fragment cache** ([`frag_cache`]) that buffers fragments, forwards
//!   them unreassembled with rewritten TTLs, enforces the 45-fragment
//!   queue limit, and discards on duplicates/overlaps (§5.3.1, Fig. 3);
//! * a **token-bucket policer** ([`policer`]) for the throttling behavior
//!   SNI-III (§5.2) at the historical 2021/2022 rates.
//!
//! Devices share a [`PolicyHandle`] — the model of Roskomnadzor's central
//! control: one policy object, referenced by every device in the country,
//! so blocklist updates are uniform and instantaneous across ISPs (§5.1).
//! Per-device failure probabilities (Table 1) and visibility (symmetric vs
//! upstream-only, §7.1.1 — a property of route placement, not the device)
//! are the only per-device variation.

pub mod behaviors;
pub mod chaos;
pub mod conntrack;
pub mod constants;
pub mod device;
pub mod fasthash;
pub mod frag_cache;
pub mod hardening;
pub mod policer;
pub mod policy;
pub mod profile;
pub mod recorder;
pub mod sharded;
pub mod updater;

pub use behaviors::{BlockKind, BlockState, EnforceDirections};
pub use conntrack::{ConnState, ConnTracker, FlowKey, Side};
pub use device::{DeviceConfig, DeviceStats, FailureProfile, TspuDevice};
pub use profile::{CensorProfile, DnsFilter, HttpHostFilter, SniMode};
pub use frag_cache::FragCache;
pub use hardening::Hardening;
pub use policer::TokenBucket;
pub use policy::{
    DomainSet, NormalizedHost, Policy, PolicyDelta, PolicyHandle, PolicyHistory, ThrottleConfig,
};
pub use recorder::{FlightRecorder, LedgerEvent, LedgerKind, DEFAULT_LEDGER_CAP};
pub use sharded::ShardedConnTracker;
pub use updater::{DeltaApplication, PolicyUpdater, UpdateLog};
