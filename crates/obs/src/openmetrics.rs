//! OpenMetrics text exposition — hand-rolled, dependency-free, exactly
//! like [`Snapshot::to_json`].
//!
//! The renderer maps the snapshot's dot-path names onto the OpenMetrics
//! charset (`[a-zA-Z0-9_:]`, everything else becomes `_`), emits one
//! `# TYPE` line per metric family, counters with the mandated `_total`
//! suffix, gauges (both kinds — merge semantics are a snapshot concern,
//! the wire format is just "gauge"), histograms as cumulative `_bucket`
//! samples with `le` upper bounds plus `_sum`/`_count`, and terminates
//! with `# EOF`. Output is deterministic: name-ordered like the snapshot
//! itself, so a sharded campaign's exposition is byte-identical at every
//! `TSPU_THREADS` setting.

use std::fmt::Write as _;

use crate::hist::{bucket_index, bucket_lower, Histogram, BUCKETS};
use crate::snapshot::{MetricValue, Snapshot};

/// A snapshot name as an OpenMetrics metric name: every character
/// outside `[a-zA-Z0-9_:]` becomes `_`, and a leading digit gets a `_`
/// prefix. (Distinct dot-path names that differ only in separators can
/// collide after sanitizing; snapshot names are dot-separated
/// alphanumerics in practice, where the mapping is injective.)
pub fn metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphanumeric() || c == '_' || c == ':';
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
        }
        out.push(if ok { c } else { '_' });
    }
    out
}

/// Renders `snap` as a complete OpenMetrics exposition ending in `# EOF`.
pub fn render(snap: &Snapshot) -> String {
    let mut out = String::with_capacity(64 + snap.metrics().len() * 48);
    // Families already given a `# TYPE` line: two names that sanitize to
    // one family share it.
    let mut typed: Vec<String> = Vec::new();
    for (name, value) in snap.metrics() {
        let family = metric_name(name);
        let kind = match value {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) | MetricValue::GaugeLast(_) => "gauge",
            MetricValue::Hist(_) => "histogram",
        };
        if !typed.contains(&family) {
            let _ = writeln!(out, "# TYPE {family} {kind}");
            typed.push(family.clone());
        }
        match value {
            MetricValue::Counter(v) => {
                let _ = writeln!(out, "{family}_total {v}");
            }
            MetricValue::Gauge(v) | MetricValue::GaugeLast(v) => {
                let _ = writeln!(out, "{family} {v}");
            }
            MetricValue::Hist(h) => render_histogram(&mut out, &family, h),
        }
    }
    out.push_str("# EOF\n");
    out
}

fn render_histogram(out: &mut String, family: &str, h: &Histogram) {
    let mut cumulative = 0u64;
    for (lower, n) in h.nonzero_buckets() {
        cumulative += n;
        // `le` is the bucket's inclusive upper bound: one below the next
        // bucket's lower bound. The last bucket covers up to `u64::MAX`
        // and is folded into `+Inf` below.
        let index = bucket_index(lower);
        if index + 1 < BUCKETS {
            let le = bucket_lower(index + 1) - 1;
            let _ = writeln!(out, "{family}_bucket{{le=\"{le}\"}} {cumulative}");
        }
    }
    let _ = writeln!(out, "{family}_bucket{{le=\"+Inf\"}} {}", h.count());
    let _ = writeln!(out, "{family}_sum {}", h.sum());
    let _ = writeln!(out, "{family}_count {}", h.count());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> Snapshot {
        let mut snap = Snapshot::new();
        snap.insert("device.lab.verdicts.drop", MetricValue::Counter(12));
        snap.insert("netsim.queue_depth_max", MetricValue::Gauge(40));
        snap.insert("policy.epoch", MetricValue::GaugeLast(3));
        let mut h = Histogram::new();
        h.record(2);
        h.record(5);
        h.record(5);
        snap.insert("load.event_ns", MetricValue::Hist(h));
        snap
    }

    /// The golden exposition: pinned byte-for-byte so any format drift is
    /// a deliberate, reviewed change.
    #[test]
    fn golden_exposition() {
        let expected = "\
# TYPE device_lab_verdicts_drop counter
device_lab_verdicts_drop_total 12
# TYPE load_event_ns histogram
load_event_ns_bucket{le=\"2\"} 1
load_event_ns_bucket{le=\"5\"} 3
load_event_ns_bucket{le=\"+Inf\"} 3
load_event_ns_sum 12
load_event_ns_count 3
# TYPE netsim_queue_depth_max gauge
netsim_queue_depth_max 40
# TYPE policy_epoch gauge
policy_epoch 3
# EOF
";
        assert_eq!(render(&sample_snapshot()), expected);
    }

    #[test]
    fn names_are_sanitized_and_digit_prefixed() {
        assert_eq!(metric_name("device.er-telecom.rst"), "device_er_telecom_rst");
        assert_eq!(metric_name("9to5"), "_9to5");
        assert_eq!(metric_name("a:b_c"), "a:b_c");
    }

    /// Parses `family_total value` lines into (family, value).
    fn counter_lines(om: &str) -> Vec<(String, u64)> {
        om.lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (name, v) = l.split_once(' ')?;
                let family = name.strip_suffix("_total")?;
                Some((family.to_string(), v.parse().ok()?))
            })
            .collect()
    }

    fn line_merge(a: &str, b: &str) -> Vec<(String, u64)> {
        let mut merged = counter_lines(a);
        for (family, v) in counter_lines(b) {
            match merged.iter_mut().find(|(f, _)| *f == family) {
                Some((_, sum)) => *sum += v,
                None => merged.push((family, v)),
            }
        }
        merged.retain(|(_, v)| *v > 0);
        merged.sort();
        merged
    }

    fn counters_from(entries: &[(String, u64)]) -> Snapshot {
        let mut snap = Snapshot::new();
        for (name, v) in entries {
            snap.insert(name.clone(), MetricValue::Counter(*v));
        }
        snap
    }

    proptest::proptest! {
        /// Merge-then-export equals export-then-line-merge for counters:
        /// the exposition is a faithful homomorphism of snapshot merging.
        #[test]
        fn counter_export_commutes_with_merge(
            left in proptest::collection::vec(("[a-z][a-z0-9_]{0,8}", 0u64..1_000_000), 0..12),
            right in proptest::collection::vec(("[a-z][a-z0-9_]{0,8}", 0u64..1_000_000), 0..12),
        ) {
            let (a, b) = (counters_from(&left), counters_from(&right));
            let mut merged = a.clone();
            merged.merge(&b);
            let mut from_merged = counter_lines(&render(&merged));
            from_merged.sort();
            proptest::prop_assert_eq!(from_merged, line_merge(&render(&a), &render(&b)));
        }
    }
}
