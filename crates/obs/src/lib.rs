//! `tspu_obs` — deterministic observability for the TSPU reproduction.
//!
//! The rule the crate is built around: **a result is a field; a snapshot is
//! an export.** A component that counts something (packets a device saw,
//! packets a chaos link ate, events the engine ran) keeps the count as a
//! plain field of its own and reads it back through its own accessor, in
//! every build. This crate holds what is purely observational — all of it
//! designed around the simulator's determinism contract (identical output
//! at every `TSPU_THREADS` setting):
//!
//! * [`Snapshot`]: the ordered, sparse, diffable export — counters add,
//!   high-water gauges take max, last-value gauges keep the later
//!   operand, [`Histogram`]s merge elementwise, spans sort by
//!   `(virtual ts, scenario, seq)`. `to_json()` is deterministic. Each
//!   component writes one name → field table into it; [`MetricNames`]
//!   holds a labelled component's full names, formatted once and shared
//!   across forks.
//! * [`Tracer`]: virtual-time span recording into a bounded ring buffer,
//!   exported in Chrome trace-event format
//!   ([`Snapshot::write_chrome_trace`]) with *simulated* microseconds as
//!   the clock, so traces are byte-identical across thread counts.
//!
//! A snapshot is the one export: `to_json`, `to_openmetrics`
//! ([`openmetrics::render`], hand-rolled like `to_json`) and
//! `write_chrome_trace`. Anything resolved over time or over a campaign's
//! axes (registry day, censor profile, churn epoch) is the campaign's
//! typed cells, not a second export format.
//!
//! There is one build: every component exports in every program, and the
//! only switch is the run-time one that turns span recording on
//! ([`Tracer::set_enabled`], reached through `set_tracing` or a campaign's
//! `RunOpts`). No count, and so no result, depends on it.

pub mod hist;
pub mod openmetrics;
pub mod snapshot;
pub mod tracer;

pub use hist::{bucket_index, bucket_lower, Histogram, BUCKETS};
pub use snapshot::{MetricNames, MetricValue, Snapshot, SpanRecord};
pub use tracer::Tracer;
