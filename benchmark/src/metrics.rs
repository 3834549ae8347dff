//! Every metric the benchmark reports, by name, with its unit and the
//! direction in which it improves. `BENCHMARK.json` mirrors the tables of
//! what every workload reports (a test holds them together); the README
//! says which layer metric should move which end-to-end metric on which
//! workload.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    pub fn parse(text: &str) -> Option<Better> {
        match text {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// An end-to-end metric and the share of the parent's median by which it
/// may get worse before a change counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub def: MetricDef,
    pub bound: f64,
}

/// What a user of the simulator sees: how long a campaign takes per unit
/// of work, what it costs to set up, and how much memory one run needs.
/// All traffic is simulated; the times are host wall time taken to nominal
/// speed by the calibration loop of `host.rs`, the memory is as measured.
///
/// The bounds follow the acceptance driver's rule (README, *The contract*):
/// ten runs at ten seeds must spread by no more than the bound, better by
/// under a third of it, or the benchmark is refused.
pub const END_TO_END: &[EndToEnd] = &[
    // Wall µs per campaign cell over a timed repetition, median over the
    // repetitions, at nominal speed. A cell is the workload's unit of work:
    // sweep scenario, matrix cell, churn cell, soak flow, tomography probe,
    // scanned endpoint, download. Ten runs spread by 3 to 10 % in an
    // ordinary hour and by 15 % in a bad one (9 to 29 % as measured).
    EndToEnd {
        def: lower("us_per_cell", "us"),
        bound: 0.25,
    },
    // VmHWM after set-up, the cold repetition and the first five timed
    // ones: what a campaign run needs once the heap has stopped growing.
    // Taken there, not at exit, because the repetition count after that
    // depends on the clock. Spreads by up to 4 % with the seed.
    EndToEnd {
        def: lower("peak_rss_mib", "MiB"),
        bound: 0.10,
    },
    // Median of fifteen pure set-ups (inputs built from the seed), at
    // nominal speed.
    EndToEnd {
        def: lower("setup_s", "s"),
        bound: 0.25,
    },
];

/// Ladder rungs: one fixed packet or operation per rung, timed alone.
/// Unit ns, median over at least 30 batches. The same for every workload.
pub const LADDER: &[MetricDef] = &[
    lower("wire.parse_ipv4_tcp_ns", "ns"),
    lower("wire.extract_sni_ns", "ns"),
    lower("wire.build_tcp_1400B_ns", "ns"),
    lower("wire.fragment_8x_ns", "ns"),
    lower("core.policy_match_hit_ns", "ns"),
    lower("core.policy_match_miss_ns", "ns"),
    lower("core.policy_delta_apply_ns", "ns"),
    lower("core.conntrack_observe_1flow_ns", "ns"),
    lower("core.conntrack_observe_sharded_1m_ns", "ns"),
    lower("core.device_data_packet_ns", "ns"),
    lower("core.device_clienthello_ns", "ns"),
    lower("core.device_fragment_train_ns", "ns"),
    lower("netsim.hop_ns", "ns"),
    lower("netsim.queue_heap_ns", "ns"),
    lower("netsim.queue_wheel_ns", "ns"),
    lower("netsim.send_take_1400B_ns", "ns"),
    lower("netsim.capture_ns_per_packet", "ns"),
    lower("netsim.oracle_replay_ns_per_packet", "ns"),
    lower("stack.server_turnaround_ns", "ns"),
    lower("stack.conn_segment_ns", "ns"),
    lower("topology.fork_fig1_ns", "ns"),
    lower("topology.fork_as5000_ns", "ns"),
    lower("topology.gen_ns_per_as", "ns"),
    lower("topology.runet_gen_ns_per_endpoint", "ns"),
    lower("load.schedule_ns_per_flow", "ns"),
    lower("load.client_step_ns", "ns"),
    lower("obs.snapshot_merge_ns", "ns"),
    lower("host.calib_ns", "ns"),
];

/// Layer metrics of the traced run and the host counters that every
/// workload measures. Shares are self time over traced wall; counts are
/// exact and repeat.
pub const TRACED: &[MetricDef] = &[
    lower("trace.overhead_share", "share"),
    lower("measure.driver_share", "share"),
    lower("measure.cell_us_p50", "us"),
    lower("netsim.events_per_cell", "count"),
    lower("netsim.events", "count"),
    lower("netsim.ns_per_event", "ns"),
    lower("core.device_packets", "count"),
    lower("alloc.count_per_cell", "count"),
    lower("alloc.bytes_per_cell", "B"),
    lower("alloc.count_per_event", "count"),
    lower("host.cold_rep_s", "s"),
    lower("host.cold_rep_ratio", "ratio"),
    lower("host.minor_faults", "count"),
    lower("host.sys_time_share", "share"),
    lower("host.rss_growth_mib", "MiB"),
    higher("ledger.attributed_share", "share"),
    lower("ledger.residual_share", "share"),
];

/// Layer metrics only some workloads measure: a share is there when the
/// traced run entered that layer, the `load.*` and flow-table figures on
/// the soak, and so on (the README says which). A workload that does not
/// measure one prints no record for it. They are not in `BENCHMARK.json`,
/// whose per-layer metrics the driver expects from every workload.
pub const TRACED_WHERE_MEASURED: &[MetricDef] = &[
    lower("topology.fork_share", "share"),
    lower("measure.probe_share", "share"),
    lower("obs.merge_share", "share"),
    lower("netsim.oracle_share", "share"),
    lower("core.updater_share", "share"),
    lower("netsim.run_share", "share"),
    lower("load.drain_share", "share"),
    lower("stack.app_share", "share"),
    // Only with 1,000 cells or more, so that ten lie beyond it.
    lower("measure.cell_us_p99", "us"),
    higher("load.pps", "1/s"),
    lower("load.window_ns_per_event_p50", "ns"),
    lower("load.window_ns_per_event_p99", "ns"),
    lower("core.tracked_flows_peak", "count"),
    lower("core.bytes_per_flow", "B"),
    lower("core.gc_probes_per_packet", "count"),
    lower("netsim.wheel_depth_peak", "count"),
    lower("core.frag_discarded", "count"),
    higher("stack.mib_per_s", "MiB/s"),
];

/// Every per-layer metric every workload reports, in the order
/// `BENCHMARK.json` lists them.
pub fn per_layer() -> impl Iterator<Item = &'static MetricDef> {
    TRACED.iter().chain(LADDER)
}

/// Every metric there is.
fn all() -> impl Iterator<Item = &'static MetricDef> {
    END_TO_END
        .iter()
        .map(|m| &m.def)
        .chain(per_layer())
        .chain(TRACED_WHERE_MEASURED)
}

/// Looks a metric up by name across all the tables.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    all().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};
    use crate::workloads;
    use std::collections::BTreeSet;

    /// The contract's name rule: starts with a letter or digit, then letters,
    /// digits, `_`, `.` and `-`, at most 64 in all.
    fn is_valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// The contract's unit rule: letters, digits, `_`, `/`, `%`, `.`, `-`.
    fn is_valid_unit(unit: &str) -> bool {
        (1..=16).contains(&unit.len())
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_obey_the_charset() {
        for def in all() {
            assert!(is_valid_name(def.name), "metric name {:?}", def.name);
            assert!(
                is_valid_unit(def.unit),
                "unit {:?} of {}",
                def.unit,
                def.name
            );
        }
        for workload in workloads::ALL {
            assert!(
                is_valid_name(workload.name),
                "workload name {:?}",
                workload.name
            );
            assert!(
                workload.why.len() <= 200 && !workload.why.contains('\n'),
                "{}",
                workload.name
            );
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "µs", &"x".repeat(65)] {
            assert!(!is_valid_name(bad), "{bad:?} accepted");
        }
        assert!(!is_valid_unit("") && !is_valid_unit("µs") && !is_valid_unit(&"x".repeat(17)));
    }

    #[test]
    fn names_are_used_once() {
        let mut seen = BTreeSet::new();
        for def in all() {
            assert!(seen.insert(def.name), "{} listed twice", def.name);
        }
        for workload in workloads::ALL {
            assert!(seen.insert(workload.name), "{} clashes", workload.name);
        }
    }

    #[test]
    fn bounds_are_within_the_contract_and_setup_has_the_largest() {
        let setup = END_TO_END
            .iter()
            .find(|m| m.def.name == "setup_s")
            .expect("required metric");
        assert_eq!((setup.def.unit, setup.def.better), ("s", Better::Lower));
        for metric in END_TO_END {
            assert!(
                metric.bound > 0.0 && metric.bound <= 0.25,
                "{}",
                metric.def.name
            );
            assert!(
                metric.bound <= setup.bound,
                "{} exceeds setup_s",
                metric.def.name
            );
        }
    }

    /// `BENCHMARK.json` is what the driver reads; these tables are what the
    /// program prints. They must say the same thing.
    #[test]
    fn benchmark_json_mirrors_the_tables() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let Json::Obj(fields) = &doc else {
            panic!("top level is an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );

        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_array)
                .expect("a list")
                .to_vec()
        };
        let text = |item: &Json, key: &str| {
            item.get(key)
                .and_then(Json::as_str)
                .expect("a string")
                .to_string()
        };

        let listed: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = workloads::ALL
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(listed, ours);

        let listed: Vec<(String, String, String, f64)> = list("end_to_end")
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Json::as_f64).expect("a bound");
                (text(m, "name"), text(m, "unit"), text(m, "better"), bound)
            })
            .collect();
        let ours: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.def.name.into(),
                    m.def.unit.into(),
                    m.def.better.as_str().into(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(listed, ours);

        let listed: Vec<(String, String, String)> = list("per_layer")
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
            .collect();
        let ours: Vec<(String, String, String)> = per_layer()
            .map(|m| (m.name.into(), m.unit.into(), m.better.as_str().into()))
            .collect();
        assert_eq!(listed, ours);
        assert!(listed.len() <= 128);

        let paths = list("paths");
        assert_eq!(paths, [Json::Str("benchmark".into())]);
        let seconds = doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .expect("run_seconds");
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    }
}
