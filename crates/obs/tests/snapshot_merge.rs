//! The algebra campaign merges rest on. `ScanPool::run_cells` folds each
//! cell's snapshot into its chunk's, then merges the chunks in chunk
//! order, and that equals the one-by-one index-order merge only because
//! merge is associative and the empty snapshot is its identity. Merge is
//! also commutative once last-value gauges are left out; with them, the
//! order is part of the result.

use proptest::prelude::*;
use tspu_obs::{Histogram, MetricValue, Snapshot, SpanRecord};

/// Metric names; the kind of each is fixed by its position (`kind_of`), as
/// a registered metric's kind is.
const NAMES: [&str; 8] = ["a.count", "a.high", "a.last", "a.hist", "b.count", "b.high", "b.last", "b.hist"];
const SPAN_NAMES: [&str; 3] = ["hop", "deliver", "scenario"];

/// A drawn snapshot: `(name, value)` metric rows and `(ts, dur, name)` spans.
type Draw = (Vec<(usize, u64)>, Vec<(u64, u64, usize)>);

fn draw() -> impl Strategy<Value = Draw> {
    (
        proptest::collection::vec((0usize..NAMES.len(), 0u64..1_000), 0..12),
        proptest::collection::vec((0u64..50, 0u64..10, 0usize..SPAN_NAMES.len()), 0..6),
    )
}

fn is_last_gauge(name: usize) -> bool {
    name % 4 == 2
}

/// Builds the drawn snapshot, its spans stamped with `scenario`; without
/// `last_gauges`, the last-value gauge rows are left out.
fn snapshot((metrics, spans): &Draw, scenario: u32, last_gauges: bool) -> Snapshot {
    let mut snapshot = Snapshot::new();
    for &(name, value) in metrics {
        if is_last_gauge(name) && !last_gauges {
            continue;
        }
        let signed = value as i64 - 500;
        let value = match name % 4 {
            0 => MetricValue::Counter(value),
            1 => MetricValue::Gauge(signed),
            2 => MetricValue::GaugeLast(signed),
            _ => {
                let mut hist = Histogram::new();
                hist.record(value);
                MetricValue::Hist(hist)
            }
        };
        snapshot.insert(NAMES[name], value);
    }
    snapshot.push_spans(spans.iter().enumerate().map(|(seq, &(ts_us, dur_us, name))| SpanRecord {
        ts_us,
        dur_us,
        name: SPAN_NAMES[name],
        cat: "test",
        scenario: 0,
        seq: seq as u32,
    }));
    snapshot.with_scenario(scenario)
}

fn merged(mut into: Snapshot, other: &Snapshot) -> Snapshot {
    into.merge(other);
    into
}

proptest! {
    #[test]
    fn merge_is_associative_with_the_empty_snapshot_as_identity(a in draw(), b in draw(), c in draw()) {
        let (a, b, c) = (snapshot(&a, 1, true), snapshot(&b, 2, true), snapshot(&c, 3, true));
        let left = merged(merged(a.clone(), &b), &c);
        let right = merged(a.clone(), &merged(b, &c));
        prop_assert_eq!(&left, &right);
        prop_assert_eq!(left.to_json(), right.to_json());
        prop_assert_eq!(merged(Snapshot::new(), &a), a);
    }

    #[test]
    fn merge_is_commutative_without_last_value_gauges(a in draw(), b in draw()) {
        let (a, b) = (snapshot(&a, 1, false), snapshot(&b, 2, false));
        prop_assert_eq!(merged(a.clone(), &b), merged(b, &a));
    }
}

#[test]
fn a_last_value_gauge_makes_merge_order_matter() {
    let one = snapshot(&(vec![(2, 10)], vec![]), 1, true);
    let two = snapshot(&(vec![(2, 20)], vec![]), 2, true);
    assert_ne!(merged(one.clone(), &two), merged(two, &one));
}
