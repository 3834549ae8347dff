//! # tspu-measure
//!
//! The paper's measurement techniques, implemented as a library against
//! the simulator. Each module carries one experiment family and maps to
//! tables/figures as follows (see DESIGN.md for the full index):
//!
//! | module | paper artifact |
//! |---|---|
//! | [`harness`] | shared probe machinery (§3's setup) |
//! | [`sweep`] | the campaign layer: scan pool, fork → cell → merge kernel, §6 sweep |
//! | [`behaviors`] | Fig. 2 behavior traces, behavior classification |
//! | [`reliability`] | Table 1 |
//! | [`sequences`] | Fig. 4 (TCP trigger sequences) |
//! | [`timeouts`] | Fig. 5, Table 2, Table 8 |
//! | [`localize`] | §7.1 TTL localization, §7.1.1 upstream-only devices |
//! | [`tomography`] | AS-level censor localization on generated graphs |
//! | [`echo`] | Fig. 8-right, Table 4 (Quack echo measurements) |
//! | [`fragscan`] | §7.2 fragmentation fingerprint, Fig. 9, Fig. 12, Table 5 |
//! | [`traceroute`] | Figs. 10–11 (TSPU links) |
//! | [`domains`] | §6, Fig. 6, Fig. 7, Table 3 |
//! | [`chfuzz`] | Fig. 13 (ClientHello byte sensitivity) |
//! | [`profiles`] | cross-country differential matrix (DESIGN.md §12) |
//! | [`quicfp`] | Fig. 14 (minimal QUIC fingerprint) |
//! | [`os_reference`] | Table 7 (OS/spec timeout comparison) |
//!
//! Everything is black-box: the techniques only send packets from hosts
//! they control and look at what arrives, exactly as the authors could.
//! Ground truth from `tspu-topology` is used solely for *scoring*.

pub mod behaviors;
pub mod chaos;
pub mod chfuzz;
pub mod churn;
pub mod domains;
pub mod echo;
pub mod fragscan;
pub mod harness;
pub mod localize;
pub mod os_reference;
pub mod profiles;
pub mod quicfp;
pub mod reliability;
pub mod sequences;
pub mod sweep;
pub mod timeouts;
pub mod tomography;
pub mod traceroute;

pub use behaviors::{classify_behavior, ObservedBehavior};
pub use chaos::{ChaosCell, ChaosScenario, ChaosSweep};
pub use churn::{churn_delta, ChurnCampaign, ChurnReport, DeltaConvergence};
pub use harness::{PacketSummary, ProbeSide, ScriptResult, ScriptStep};
pub use localize::{LocalizeRun, LocalizeSpec, LocalizeTechnique, LocalizedDevice};
pub use profiles::{
    DifferentialCampaign, DnsVerdict, HttpVerdict, ProfileCell, ProfileMatrix, TlsVerdict,
};
pub use sweep::{
    CellsRun, PoolReport, PoolRun, RunOpts, ScanPool, SweepRun, SweepSpec, WorkerReport,
};
pub use tomography::{ProbeObs, TomographyCell, TomographyConfig, TomographyRun};
