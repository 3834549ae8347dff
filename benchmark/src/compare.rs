//! `--compare A.json B.json`: holds two results files against each other,
//! one row per (workload, end-to-end metric).
//!
//! A is the base. A file may hold one run or many (a set of runs at
//! different seeds): with several, the row's median and quartiles are taken
//! over the runs' values, as the acceptance driver does; with one, they are
//! that run's own over its repetitions.

use std::fmt;

use crate::metrics::{self, Better};
use crate::record::Record;
use crate::stats::{self, Summary};
use crate::workloads;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regression,
    /// The run-to-run spread is wider than the bound, so the medians
    /// cannot tell — unless every run of B beats every run of A.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Ok => "ok",
            Verdict::Regression => "regression",
            Verdict::Unresolved => "unresolved",
        })
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub unit: &'static str,
    pub a: Summary,
    pub b: Summary,
    /// B's median over A's: the ratio, with A as its base.
    pub ratio: f64,
    /// The same ratio of the values as measured, before calibration: for
    /// the reader, not for the verdict.
    pub raw_ratio: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// One file's runs of a metric: their summary, their values, and the
/// median of the values as measured.
fn side(records: &[Record], workload: &str, metric: &str) -> Option<(Summary, Vec<f64>, f64)> {
    let runs: Vec<&Record> = records
        .iter()
        .filter(|r| r.kind == "end_to_end" && r.workload == workload && r.metric == metric)
        .collect();
    let values: Vec<f64> = runs.iter().map(|r| r.value).collect();
    let raws: Vec<f64> = runs.iter().map(|r| r.raw).collect();
    let summary = match runs.as_slice() {
        [] => return None,
        [one] => Summary {
            n: one.n,
            q1: one.q1,
            median: one.value,
            q3: one.q3,
        },
        _ => stats::summary(&values),
    };
    Some((summary, values, stats::median(&raws)))
}

pub fn judge(better: Better, bound: f64, a: (&Summary, &[f64]), b: (&Summary, &[f64])) -> Verdict {
    let worse_by = match better {
        Better::Lower => (b.0.median - a.0.median) / a.0.median,
        Better::Higher => (a.0.median - b.0.median) / a.0.median,
    };
    let beats = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let b_beats_all = b.1.iter().all(|&x| a.1.iter().all(|&y| beats(x, y)));
    if a.0.spread().max(b.0.spread()) > bound && !b_beats_all {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    }
}

/// One row per workload and end-to-end metric that both files hold.
pub fn compare(a: &[Record], b: &[Record]) -> Vec<Row> {
    let mut rows = Vec::new();
    for workload in workloads::ALL {
        for metric in metrics::END_TO_END {
            let (Some((sa, va, raw_a)), Some((sb, vb, raw_b))) = (
                side(a, workload.name, metric.def.name),
                side(b, workload.name, metric.def.name),
            ) else {
                continue;
            };
            rows.push(Row {
                workload: workload.name.to_string(),
                metric: metric.def.name,
                unit: metric.def.unit,
                ratio: sb.median / sa.median,
                raw_ratio: raw_b / raw_a,
                bound: metric.bound,
                verdict: judge(metric.def.better, metric.bound, (&sa, &va), (&sb, &vb)),
                a: sa,
                b: sb,
            });
        }
    }
    rows
}

pub fn render(rows: &[Row]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<18} {:<13} {:>4}  {:>31}  {:>31}  {:>9} {:>6}  {:<10}  {:>7}",
        "workload",
        "metric",
        "unit",
        "A median [q1, q3] n",
        "B median [q1, q3] n",
        "B/A",
        "bound",
        "verdict",
        "raw B/A"
    );
    for row in rows {
        let cell = |s: &Summary| format!("{:.4} [{:.4}, {:.4}] {}", s.median, s.q1, s.q3, s.n);
        let _ = writeln!(
            out,
            "{:<18} {:<13} {:>4}  {:>31}  {:>31}  {:>9.4} {:>6.2}  {:<10}  {:>7.4}",
            row.workload,
            row.metric,
            row.unit,
            cell(&row.a),
            cell(&row.b),
            row.ratio,
            row.bound,
            row.verdict.to_string(),
            row.raw_ratio
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RunContext;

    fn runs(workload: &str, metric: &str, values: &[f64]) -> Vec<Record> {
        let context = RunContext {
            seed: 1,
            cores: 2,
            rustc: "rustc".into(),
            calib_ns: 1.0,
            noisy: false,
        };
        let def = metrics::find(metric).expect("a metric");
        values
            .iter()
            .map(|&v| {
                Record::new(
                    &context,
                    workload,
                    "end_to_end",
                    def,
                    Summary {
                        n: 9,
                        q1: v * 0.99,
                        median: v,
                        q3: v * 1.01,
                    },
                )
            })
            .collect()
    }

    fn verdict_of(a: &[f64], b: &[f64]) -> Verdict {
        let rows = compare(
            &runs("registry_sweep", "us_per_cell", a),
            &runs("registry_sweep", "us_per_cell", b),
        );
        assert_eq!(rows.len(), 1);
        rows[0].verdict
    }

    #[test]
    fn steady_runs_within_the_bound_are_ok() {
        assert_eq!(
            verdict_of(&[7.5, 7.6, 7.55, 7.58, 7.52], &[7.6, 7.7, 7.65, 7.62, 7.66]),
            Verdict::Ok
        );
    }

    #[test]
    fn a_median_worse_than_the_bound_is_a_regression() {
        assert_eq!(
            verdict_of(
                &[7.5, 7.6, 7.55, 7.58, 7.52],
                &[10.1, 10.2, 10.15, 10.12, 10.16]
            ),
            Verdict::Regression
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_b_always_wins() {
        let noisy = [6.0, 10.0, 7.0, 9.5, 6.5];
        assert_eq!(
            verdict_of(&noisy, &[6.1, 10.1, 6.9, 9.6, 6.6]),
            Verdict::Unresolved
        );
        assert_eq!(verdict_of(&noisy, &[3.0, 5.9, 3.5, 5.8, 3.2]), Verdict::Ok);
    }

    #[test]
    fn one_run_per_file_uses_that_runs_own_quartiles() {
        let rows = compare(
            &runs("soak_steady", "us_per_cell", &[16.0]),
            &runs("soak_steady", "us_per_cell", &[16.4]),
        );
        assert_eq!(
            (rows[0].a.n, rows[0].a.q1, rows[0].a.q3),
            (9, 16.0 * 0.99, 16.0 * 1.01)
        );
        assert_eq!(rows[0].verdict, Verdict::Ok);
        assert!((rows[0].ratio - 1.025).abs() < 1e-12);
        assert!(render(&rows).contains("soak_steady"));
    }

    #[test]
    fn higher_is_better_flips_the_direction() {
        let (a, b) = (
            Summary {
                n: 5,
                q1: 99.0,
                median: 100.0,
                q3: 101.0,
            },
            Summary {
                n: 5,
                q1: 79.0,
                median: 80.0,
                q3: 81.0,
            },
        );
        assert_eq!(
            judge(Better::Higher, 0.1, (&a, &[100.0]), (&b, &[80.0])),
            Verdict::Regression
        );
        assert_eq!(
            judge(Better::Higher, 0.1, (&b, &[80.0]), (&a, &[100.0])),
            Verdict::Ok
        );
    }
}
