//! The typed record every number leaves the benchmark as: one flat JSON
//! object per line, the same schema for end-to-end metrics, layer metrics
//! and ladder rungs. A unit is a field, never part of a name's meaning.

use crate::json::{self, Json};
use crate::metrics::{Better, MetricDef};
use crate::stats::Summary;

/// What is true of the whole run and so repeats in each of its records.
#[derive(Debug, Clone, PartialEq)]
pub struct RunContext {
    pub seed: u64,
    pub cores: usize,
    pub rustc: String,
    /// `host.calib_ns` of this run: the calibration loop's mean pass
    /// during the timed repetitions.
    pub calib_ns: f64,
    /// The loop ran more than a tenth apart at the start and at the end.
    pub noisy: bool,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub workload: String,
    pub metric: String,
    /// `end_to_end`, `per_layer` or `ladder`.
    pub kind: String,
    pub value: f64,
    pub unit: String,
    pub better: Better,
    /// Samples behind `value` (repetitions, batches), with their quartiles.
    pub n: usize,
    pub q1: f64,
    pub q3: f64,
    pub seed: u64,
    pub cores: usize,
    pub rustc: String,
    /// The median as measured. Differs from `value` only for the
    /// end-to-end timings, which are reported at nominal speed.
    pub raw: f64,
    /// The run's calibration: with `raw`, everything needed to redo or undo
    /// the scaling.
    pub calib_ns: f64,
    pub noisy: bool,
}

impl Record {
    pub fn new(
        context: &RunContext,
        workload: &str,
        kind: &str,
        def: &MetricDef,
        summary: Summary,
    ) -> Record {
        Record {
            workload: workload.to_string(),
            metric: def.name.to_string(),
            kind: kind.to_string(),
            value: summary.median,
            unit: def.unit.to_string(),
            better: def.better,
            n: summary.n,
            q1: summary.q1,
            q3: summary.q3,
            seed: context.seed,
            cores: context.cores,
            rustc: context.rustc.clone(),
            raw: summary.median,
            calib_ns: context.calib_ns,
            noisy: context.noisy,
        }
    }

    /// Sets what was measured before calibration, and the calibration.
    pub fn with_raw(mut self, raw: f64, calib_ns: f64) -> Record {
        self.raw = raw;
        self.calib_ns = calib_ns;
        self
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"workload\":{},\"metric\":{},\"kind\":{},\"value\":{},\"unit\":{},\"better\":{},\"n\":{},\"q1\":{},\"q3\":{},\"seed\":{},\"cores\":{},\"rustc\":{},\"raw\":{},\"calib_ns\":{},\"noisy\":{}}}",
            json::quote(&self.workload),
            json::quote(&self.metric),
            json::quote(&self.kind),
            json::number(self.value),
            json::quote(&self.unit),
            json::quote(self.better.as_str()),
            self.n,
            json::number(self.q1),
            json::number(self.q3),
            self.seed,
            self.cores,
            json::quote(&self.rustc),
            json::number(self.raw),
            json::number(self.calib_ns),
            self.noisy,
        )
    }

    pub fn from_json(doc: &Json) -> Option<Record> {
        let text = |key: &str| doc.get(key).and_then(Json::as_str).map(str::to_string);
        let num = |key: &str| doc.get(key).and_then(Json::as_f64);
        Some(Record {
            workload: text("workload")?,
            metric: text("metric")?,
            kind: text("kind")?,
            value: num("value")?,
            unit: text("unit")?,
            better: Better::parse(&text("better")?)?,
            n: num("n")? as usize,
            q1: num("q1")?,
            q3: num("q3")?,
            seed: num("seed")? as u64,
            cores: num("cores")? as usize,
            rustc: text("rustc")?,
            raw: num("raw")?,
            calib_ns: num("calib_ns")?,
            noisy: doc.get("noisy") == Some(&Json::Bool(true)),
        })
    }
}

/// Reads the records out of a results file: one JSON object per line,
/// anything that is not a record (commentary, a run's summary line) skipped.
pub fn read_records(text: &str) -> Vec<Record> {
    text.lines()
        .filter(|line| line.starts_with("{\"workload\""))
        .filter_map(|line| json::parse(line).ok())
        .filter_map(|doc| Record::from_json(&doc))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

    fn context() -> RunContext {
        RunContext {
            seed: 2022,
            cores: 2,
            rustc: "rustc 1.95.0 (59807616e 2026-04-14)".into(),
            calib_ns: 2e6,
            noisy: false,
        }
    }

    #[test]
    fn schema_has_exactly_the_agreed_fields_in_order() {
        let def = metrics::find("us_per_cell").expect("a metric");
        let record = Record::new(
            &context(),
            "registry_sweep",
            "end_to_end",
            def,
            Summary {
                n: 12,
                q1: 7.5,
                median: 7.6,
                q3: 7.9,
            },
        );
        let Json::Obj(fields) = json::parse(&record.to_json()).expect("a record is JSON") else {
            panic!("a record is an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "workload", "metric", "kind", "value", "unit", "better", "n", "q1", "q3", "seed",
                "cores", "rustc", "raw", "calib_ns", "noisy"
            ]
        );
        assert_eq!(record.value, 7.6);
        assert_eq!(record.unit, "us");
        assert_eq!((record.raw, record.calib_ns), (7.6, 2e6));
        let scaled = record.with_raw(9.5, 7.5e5);
        assert_eq!(
            (scaled.value, scaled.raw, scaled.calib_ns),
            (7.6, 9.5, 7.5e5)
        );
    }

    #[test]
    fn records_round_trip_through_a_results_file() {
        let def = metrics::find("netsim.hop_ns").expect("a metric");
        let record = Record::new(
            &context(),
            "ladder",
            "ladder",
            def,
            Summary {
                n: 30,
                q1: 61.0,
                median: 63.25,
                q3: 70.5,
            },
        );
        let file = format!(
            "# commentary\n{}\n{{\"correct\":true}}\nnot json\n",
            record.to_json()
        );
        assert_eq!(read_records(&file), vec![record]);
    }
}
