//! Snapshots: the ordered, diffable, serializable export of a component's
//! counts (or of a whole merged system) at one instant.
//!
//! A [`Snapshot`] is sparse — zero counters and empty histograms are
//! omitted, so "absent" and "zero" mean the same thing and merging
//! snapshots whose components saw different events is well defined. All
//! orderings are deterministic: metrics sort by name, spans by
//! `(virtual timestamp, stable scenario index, sequence, category, name)`,
//! which is what makes a parallel sweep's snapshot byte-identical at
//! every `TSPU_THREADS` setting.

use std::fmt::Write as _;
use std::io::{self, Write};
use std::sync::Arc;

use crate::hist::Histogram;

/// One metric's value in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    Counter(u64),
    /// A high-water-mark gauge: merging takes the maximum.
    Gauge(i64),
    /// A last-value gauge (e.g. `policy.epoch`): merging keeps the value
    /// from the later operand, not the larger one — forked cells all
    /// report the same epoch, and "max" would silently turn a rollback
    /// into a lie.
    GaugeLast(i64),
    Hist(Histogram),
}

/// One recorded span. Timestamps are *virtual* microseconds — simulated
/// time is the clock, so identical simulations yield identical spans no
/// matter how long the host took or how work was sharded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Virtual start, microseconds since simulation start.
    pub ts_us: u64,
    /// Virtual duration in microseconds (0 for instantaneous work —
    /// packet processing does not advance the virtual clock).
    pub dur_us: u64,
    /// Span name (static so recording never allocates).
    pub name: &'static str,
    /// Category / layer: `"netsim"`, `"device"`, `"sweep"`, …
    pub cat: &'static str,
    /// Stable scenario index: which unit of sharded work produced this
    /// span. 0 for standalone simulations; the sweep stamps it.
    pub scenario: u32,
    /// Per-recorder sequence number: preserves intra-scenario order among
    /// spans sharing a virtual timestamp.
    pub seq: u32,
}

impl SpanRecord {
    /// The deterministic merge-sort key.
    fn key(&self) -> (u64, u32, u32, &'static str, &'static str) {
        (self.ts_us, self.scenario, self.seq, self.cat, self.name)
    }
}

/// The full names a labelled component exports under (`device.<label>.…`,
/// `link.<label>.…`), in the order of its export table — the component's
/// list of `(name under its scope, count)` rows. Formatted once where the
/// component is built and shared by every fork of it, so exporting a cell
/// formats nothing.
#[derive(Debug, Clone)]
pub struct MetricNames(Arc<[String]>);

impl MetricNames {
    /// `scope.name` for each row of `table`.
    pub fn scoped<'a>(scope: &str, table: impl IntoIterator<Item = (&'a str, u64)>) -> MetricNames {
        MetricNames(table.into_iter().map(|(name, _)| format!("{scope}.{name}")).collect())
    }
}

/// An ordered, diffable capture of every metric and span in scope.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Sorted by name; names are hierarchical dot-paths
    /// (`device.<id>.verdicts.rst_rewrite`, `netsim.events_processed`).
    metrics: Vec<(String, MetricValue)>,
    /// Sorted by [`SpanRecord::key`].
    spans: Vec<SpanRecord>,
}

impl Snapshot {
    pub fn new() -> Snapshot {
        Snapshot::default()
    }

    /// Inserts (or merges into an existing) metric. Zero counters and
    /// empty histograms are dropped to keep snapshots sparse.
    pub fn insert(&mut self, name: impl Into<String>, value: MetricValue) {
        let dead = match &value {
            MetricValue::Counter(0) => true,
            MetricValue::Hist(h) => h.is_empty(),
            _ => false,
        };
        if dead {
            return;
        }
        let name = name.into();
        match self.metrics.binary_search_by(|(n, _)| n.as_str().cmp(&name)) {
            Ok(at) => merge_value(&mut self.metrics[at].1, &value),
            Err(at) => self.metrics.insert(at, (name, value)),
        }
    }

    /// Inserts a component's counters: each row of its export `table`
    /// under the full name [`MetricNames::scoped`] gave that row.
    pub fn insert_counters<'a>(
        &mut self,
        names: &MetricNames,
        table: impl IntoIterator<Item = (&'a str, u64)>,
    ) {
        for (name, (_, count)) in names.0.iter().zip(table) {
            self.insert(name, MetricValue::Counter(count));
        }
    }

    /// Appends spans (re-sorted lazily by [`Snapshot::merge`] callers via
    /// the sorted invariant kept here).
    pub fn push_spans(&mut self, spans: impl IntoIterator<Item = SpanRecord>) {
        self.spans.extend(spans);
        self.spans.sort_unstable_by_key(|s| s.key());
    }

    /// Stamps every span with a stable scenario index — the sweep calls
    /// this on each per-scenario snapshot before merging, so the merged
    /// trace sorts by `(virtual time, scenario)` whatever worker ran what.
    pub fn with_scenario(mut self, scenario: u32) -> Snapshot {
        for span in &mut self.spans {
            span.scenario = scenario;
        }
        self
    }

    /// Merges `other` in: counters add, high-water gauges take the
    /// maximum, last-value gauges take `other`'s value, histograms merge
    /// elementwise, spans interleave in deterministic key order.
    ///
    /// Merge is associative, so a campaign may merge its cells in
    /// contiguous runs and then merge the runs. It is commutative only
    /// without [`MetricValue::GaugeLast`], which is why every caller
    /// merges in a fixed (cell index) order.
    pub fn merge(&mut self, other: &Snapshot) {
        // `other` is sparse already, so nothing here is dropped; a name is
        // cloned only when it is new to `self`.
        for (name, value) in &other.metrics {
            match self.metrics.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
                Ok(at) => merge_value(&mut self.metrics[at].1, value),
                Err(at) => self.metrics.insert(at, (name.clone(), value.clone())),
            }
        }
        if !other.spans.is_empty() {
            self.spans.extend(other.spans.iter().copied());
            self.spans.sort_unstable_by_key(|s| s.key());
        }
    }

    /// The metrics, sorted by name.
    pub fn metrics(&self) -> &[(String, MetricValue)] {
        &self.metrics
    }

    /// The spans, in deterministic order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Counter value by exact name (0 when absent — snapshots are sparse).
    pub fn counter(&self, name: &str) -> u64 {
        match self.lookup(name) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Gauge value by exact name (either gauge kind).
    pub fn gauge(&self, name: &str) -> Option<i64> {
        match self.lookup(name) {
            Some(MetricValue::Gauge(v)) | Some(MetricValue::GaugeLast(v)) => Some(*v),
            _ => None,
        }
    }

    /// Histogram by exact name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        match self.lookup(name) {
            Some(MetricValue::Hist(h)) => Some(h),
            _ => None,
        }
    }

    fn lookup(&self, name: &str) -> Option<&MetricValue> {
        self.metrics
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|at| &self.metrics[at].1)
    }

    /// Every nonzero counter, for "which counter moved" reporting.
    pub fn moved_counters(&self) -> Vec<(String, u64)> {
        self.metrics
            .iter()
            .filter_map(|(name, value)| match value {
                MetricValue::Counter(v) if *v > 0 => Some((name.clone(), *v)),
                _ => None,
            })
            .collect()
    }

    /// Deterministic JSON rendering: metrics in name order, then a span
    /// count (full spans go to the Chrome trace, not here). Byte-identical
    /// across runs and thread counts for identical contents.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.metrics.len() * 48);
        out.push_str("{\"metrics\":{");
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:", json_string(name));
            match value {
                MetricValue::Counter(v) => {
                    let _ = write!(out, "{v}");
                }
                MetricValue::Gauge(v) | MetricValue::GaugeLast(v) => {
                    let _ = write!(out, "{v}");
                }
                MetricValue::Hist(h) => {
                    let _ = write!(
                        out,
                        "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
                        h.count(),
                        h.sum(),
                        h.min().unwrap_or(0),
                        h.max().unwrap_or(0)
                    );
                    for (j, (lower, n)) in h.nonzero_buckets().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "[{lower},{n}]");
                    }
                    out.push_str("]}");
                }
            }
        }
        let _ = write!(out, "}},\"spans\":{}}}", self.spans.len());
        out
    }

    /// The snapshot in OpenMetrics text exposition (timestampless samples,
    /// terminated by `# EOF`) — the convenience over
    /// [`crate::openmetrics::render`].
    pub fn to_openmetrics(&self) -> String {
        crate::openmetrics::render(self)
    }

    /// Writes the span timeline in the Chrome trace-event JSON format
    /// (one complete-event per line inside the array — loads in
    /// `chrome://tracing` and Perfetto). `ts` is *virtual* microseconds;
    /// `tid` is the stable scenario index, so a sharded campaign renders
    /// one row per scenario regardless of which OS thread ran it.
    pub fn write_chrome_trace<W: Write>(&self, mut w: W) -> io::Result<()> {
        writeln!(w, "[")?;
        for (i, span) in self.spans.iter().enumerate() {
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(w, "{}{comma}", span_event_json(span))?;
        }
        writeln!(w, "]")
    }

    /// The Chrome trace as an in-memory string (tests, small traces).
    pub fn chrome_trace_string(&self) -> String {
        let mut buf = Vec::new();
        self.write_chrome_trace(&mut buf).expect("write to Vec cannot fail");
        String::from_utf8(buf).expect("trace output is ASCII")
    }
}

/// One Chrome complete-event (`"ph":"X"`) object, no trailing comma.
fn span_event_json(span: &SpanRecord) -> String {
    format!(
        "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{},\"args\":{{\"seq\":{}}}}}",
        json_string(span.name),
        json_string(span.cat),
        span.ts_us,
        span.dur_us,
        span.scenario,
        span.seq,
    )
}

fn merge_value(into: &mut MetricValue, from: &MetricValue) {
    match (into, from) {
        (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
        (MetricValue::Gauge(a), MetricValue::Gauge(b)) => *a = (*a).max(*b),
        // Last-value semantics: the later operand wins outright. Merge
        // order is deterministic (index order everywhere snapshots merge),
        // so "later" is well defined and thread-count independent.
        (MetricValue::GaugeLast(a), MetricValue::GaugeLast(b)) => *a = *b,
        (MetricValue::Hist(a), MetricValue::Hist(b)) => a.merge(b),
        // Mixed kinds under one name is a registration bug; keep the
        // existing value rather than panicking in a reporting path.
        _ => {}
    }
}

/// Minimal JSON string escaping (metric and span names are plain ASCII
/// dot-paths in practice, but stay correct for arbitrary input).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_and_sorted() {
        let mut s = Snapshot::new();
        s.insert("b.two", MetricValue::Counter(2));
        s.insert("a.one", MetricValue::Counter(1));
        s.insert("c.zero", MetricValue::Counter(0));
        let names: Vec<&str> = s.metrics().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a.one", "b.two"]);
        assert_eq!(s.counter("c.zero"), 0);
    }

    #[test]
    fn merge_adds_counters_and_maxes_gauges() {
        let mut a = Snapshot::new();
        a.insert("x", MetricValue::Counter(2));
        a.insert("g", MetricValue::Gauge(5));
        let mut b = Snapshot::new();
        b.insert("x", MetricValue::Counter(3));
        b.insert("g", MetricValue::Gauge(3));
        a.merge(&b);
        assert_eq!(a.counter("x"), 5);
        assert_eq!(a.gauge("g"), Some(5));
    }

    #[test]
    fn merge_keeps_the_later_value_for_last_gauges() {
        // The forked-cell scenario the split exists for: cell 0 ends at
        // epoch 4, cell 1 (merged later, in index order) ends at epoch 2
        // after a rollback. A Max gauge would report 4; the last-value
        // kind must report what the later cell actually saw.
        let mut a = Snapshot::new();
        a.insert("policy.epoch", MetricValue::GaugeLast(4));
        a.insert("depth", MetricValue::Gauge(4));
        let mut b = Snapshot::new();
        b.insert("policy.epoch", MetricValue::GaugeLast(2));
        b.insert("depth", MetricValue::Gauge(2));
        a.merge(&b);
        assert_eq!(a.gauge("policy.epoch"), Some(2), "last-value gauge must not max");
        assert_eq!(a.gauge("depth"), Some(4), "high-water gauge still maxes");
    }

    #[test]
    fn chrome_trace_is_valid_bracketed_json() {
        let mut s = Snapshot::new();
        s.push_spans([
            SpanRecord { ts_us: 10, dur_us: 0, name: "hop", cat: "netsim", scenario: 1, seq: 2 },
            SpanRecord { ts_us: 5, dur_us: 3, name: "scenario", cat: "sweep", scenario: 0, seq: 0 },
        ]);
        let trace = s.chrome_trace_string();
        assert!(trace.starts_with("[\n"));
        assert!(trace.ends_with("]\n"));
        // Spans sorted by virtual time.
        let first = trace.lines().nth(1).unwrap();
        assert!(first.contains("\"ts\":5"), "{first}");
        assert!(first.ends_with(','), "{first}");
        let second = trace.lines().nth(2).unwrap();
        assert!(!second.ends_with(','), "{second}");
    }

    #[test]
    fn json_is_deterministic() {
        let build = || {
            let mut s = Snapshot::new();
            s.insert("z", MetricValue::Counter(1));
            s.insert("a", MetricValue::Counter(2));
            let mut h = Histogram::new();
            h.record(4);
            h.record(1 << 20);
            s.insert("h", MetricValue::Hist(h));
            s.to_json()
        };
        assert_eq!(build(), build());
        assert!(build().contains("\"a\":2"));
    }
}
