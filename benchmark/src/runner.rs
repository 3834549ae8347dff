//! Runs one workload the way every workload is run, and turns what it
//! measured into metrics.
//!
//! Run shape: single process, single thread, closed loop — a repetition
//! starts when the one before it ends. Set-up is repeated and its median
//! reported; one repetition is discarded as warm-up (its wall time kept as
//! `host.cold_rep_s`); then repetitions are timed until the clock runs out
//! and every end-to-end timing is the median over them, taken to nominal
//! speed by the calibration loop sampled between the repetitions (see
//! `host.rs`). A traced run, when asked for, comes after all of that and
//! never feeds an end-to-end metric.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use crate::stats::{self, Summary};
use crate::workloads::{Counts, RepOut, Size, Workload};
use crate::{alloc, host, ladder, trace};

/// Pure set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Timed repetitions a run takes at least, however short its clock.
const MIN_REPS: usize = 5;

#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    pub seed: u64,
    /// Wall seconds the timed repetitions may take in all.
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
}

/// One end-to-end value with its quartiles over the repetitions.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub name: &'static str,
    /// At nominal speed for a timing; as measured for memory.
    pub summary: Summary,
    /// The median as measured, before calibration.
    pub raw: f64,
    /// The calibration loop's mean pass while this was measured.
    pub calib_ns: f64,
}

/// Everything one run of one workload produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub workload: &'static str,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Why `correct` is false, one line per finding.
    pub findings: Vec<String>,
    pub sim_digest: u64,
    pub end_to_end: Vec<Measured>,
    /// `us_per_cell` of the cold repetition, then of each timed one.
    pub rep_us_per_cell: Vec<f64>,
    /// Seconds each set-up took, in order.
    pub setup_s: Vec<f64>,
    /// Per-layer metrics by name; empty unless the run was traced.
    pub per_layer: BTreeMap<&'static str, f64>,
    /// The ladder as measured, for the records.
    pub rungs: Vec<ladder::Rung>,
    /// The ledger behind `ledger.attributed_share`, one line per term.
    pub ledger_lines: Vec<String>,
    pub calib_ns: f64,
    pub noisy: bool,
    pub trace_file: Option<PathBuf>,
}

/// Where trace files go: the build's target directory, which `.gitignore`
/// names, so a run leaves nothing in the tree.
pub fn trace_path(workload: &str) -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target
        .join("benchmark")
        .join(format!("trace-{workload}.json"))
}

/// Process counters at the three points of a run the host metrics span.
struct ProcSamples {
    start: host::ProcSample,
    /// After the cold repetition and the first [`MIN_REPS`] timed ones:
    /// where `peak_rss_mib` is read.
    gated: host::ProcSample,
    end: host::ProcSample,
}

/// The traced repetition, the ladder and the ledger: fills in
/// `outcome.per_layer` and what goes with it. `cold` and `reps` are the
/// untraced repetitions already measured; none of this touches an
/// end-to-end metric.
fn trace_and_attribute<W: Workload>(
    input: &mut W,
    spec: &RunSpec,
    outcome: &mut Outcome,
    cold: &RepOut,
    reps: &[RepOut],
    calib_reps: &[f64],
    procs: &ProcSamples,
) {
    let walls_ns: Vec<f64> = reps.iter().map(|r| r.wall.as_nanos() as f64).collect();
    let warm_wall_ns = stats::median(&walls_ns);
    // Layer timings taken within one phase are reported as measured. The
    // three figures that hold one phase against another — trace overhead,
    // driver share, the ledger — compare nominal-speed quantities, or the
    // box changing speed between the phases would be read as a layer.
    let warm_nominal_ns = warm_wall_ns * host::to_nominal(calib_reps);
    let layer = &mut outcome.per_layer;

    // Host counters over the cold and the timed repetitions.
    let cpu_s = (procs.end.user_s - procs.start.user_s) + (procs.end.sys_s - procs.start.sys_s);
    layer.insert("host.cold_rep_s", cold.wall.as_secs_f64());
    layer.insert(
        "host.cold_rep_ratio",
        cold.wall.as_nanos() as f64 / warm_wall_ns,
    );
    layer.insert(
        "host.minor_faults",
        (procs.end.minor_faults - procs.start.minor_faults) as f64,
    );
    layer.insert(
        "host.sys_time_share",
        if cpu_s > 0.0 {
            (procs.end.sys_s - procs.start.sys_s) / cpu_s
        } else {
            0.0
        },
    );
    layer.insert(
        "host.rss_growth_mib",
        procs.end.peak_rss_mib - procs.gated.peak_rss_mib,
    );

    // Wall-clock figures the untraced repetitions reported themselves.
    let mut reported: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for rep in reps {
        for &(metric, value) in &rep.layer {
            reported.entry(metric).or_default().push(value);
        }
    }
    for (metric, values) in reported {
        layer.insert(metric, stats::median(&values));
    }

    // The traced run: same cells, spans and allocation counts on.
    let ((traced, spans, allocations), traced_to_nominal) = host::bracketed(|| {
        alloc::start();
        trace::start();
        let traced = input.traced();
        (traced, trace::finish(), alloc::stop())
    });
    outcome.attempted += traced.cells;
    outcome.failed += traced.failed;
    if traced.digest != cold.digest {
        outcome.findings.push(format!(
            "traced run digest {:016x} differs from the untraced {:016x}",
            traced.digest, cold.digest
        ));
    }

    let traced_wall_ns = traced.wall.as_nanos() as f64;
    let traced_nominal_ns = traced
        .nominal_wall_ns
        .unwrap_or(traced_wall_ns * traced_to_nominal);
    layer.insert(
        "trace.overhead_share",
        (traced_nominal_ns - warm_nominal_ns) / warm_nominal_ns,
    );
    let own = trace::self_times(&spans);
    for (span, metric) in [
        ("topology.fork", "topology.fork_share"),
        ("measure.probe", "measure.probe_share"),
        ("obs.merge", "obs.merge_share"),
        ("netsim.oracle", "netsim.oracle_share"),
        ("core.updater", "core.updater_share"),
        ("netsim.run", "netsim.run_share"),
        ("load.drain", "load.drain_share"),
        ("stack.app", "stack.app_share"),
    ] {
        // No span of a layer: the workload does not enter it from where
        // the benchmark stands, and has no share to report.
        if let Some(&self_ns) = own.get(span) {
            layer.insert(metric, self_ns as f64 / traced_wall_ns);
        }
    }
    let cells_us = trace::durations_us(&spans, "cell");
    if !cells_us.is_empty() {
        layer.insert(
            "measure.cell_us_p50",
            stats::percentile_sorted(&cells_us, 0.50),
        );
        if stats::supports_p99(cells_us.len()) {
            layer.insert(
                "measure.cell_us_p99",
                stats::percentile_sorted(&cells_us, 0.99),
            );
        }
        // What the campaign driver adds around the cells: pool,
        // collection, summary. Untraced wall minus the traced cells.
        let in_cells_ns: f64 = cells_us.iter().sum::<f64>() * 1e3 * traced_to_nominal;
        layer.insert(
            "measure.driver_share",
            ((warm_nominal_ns - in_cells_ns) / warm_nominal_ns).max(0.0),
        );
    }

    let counts: Counts = cold.counts.merged(traced.counts);
    let cells = traced.cells.max(1) as f64;
    let events = counts.events.max(1) as f64;
    layer.insert("netsim.events", counts.events as f64);
    layer.insert("netsim.events_per_cell", counts.events as f64 / cells);
    layer.insert("netsim.ns_per_event", warm_wall_ns / events);
    layer.insert("core.device_packets", counts.device_packets as f64);
    layer.insert(
        "alloc.count_per_cell",
        allocations.allocations as f64 / cells,
    );
    layer.insert("alloc.bytes_per_cell", allocations.bytes as f64 / cells);
    layer.insert(
        "alloc.count_per_event",
        allocations.allocations as f64 / events,
    );
    // What only a `SoakReport` holds, and only the fragment scan counts.
    if counts.tracked_flows_peak > 0 {
        layer.insert("core.tracked_flows_peak", counts.tracked_flows_peak as f64);
        layer.insert("core.bytes_per_flow", counts.bytes_per_flow);
        layer.insert(
            "core.gc_probes_per_packet",
            counts.gc_probes as f64 / counts.device_packets.max(1) as f64,
        );
        layer.insert("netsim.wheel_depth_peak", counts.wheel_depth_peak as f64);
    }
    if counts.frag_trains > 0 {
        layer.insert("core.frag_discarded", counts.frag_discarded as f64);
    }

    // What the workload measured itself overrides the span defaults.
    for &(metric, value) in &traced.layer {
        // A throughput the traced run reports is slowed by tracing;
        // keep the untraced median for those.
        if metric != "stack.mib_per_s" {
            layer.insert(metric, value);
        }
    }

    // The ladder, then the ledger that holds it against this workload.
    outcome.rungs = ladder::run(spec.seed, spec.size);
    for rung in &outcome.rungs {
        layer.insert(rung.name, rung.ns.median);
    }
    let rungs = &outcome.rungs;
    let rung = |name: &str| {
        rungs
            .iter()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("no ladder rung {name}"))
            .ns
            .median
    };
    let mut attributed_ns = 0.0;
    for term in W::ledger(&counts, traced.cells, &rung) {
        let ns = term.count * term.ns_each;
        attributed_ns += ns;
        outcome.ledger_lines.push(format!(
            "{:>12.0} x {:>10.1} ns = {:>9.3} ms ({:>5.1} %)  {}",
            term.count,
            term.ns_each,
            ns / 1e6,
            100.0 * ns / warm_nominal_ns,
            term.what
        ));
    }
    layer.insert("ledger.attributed_share", attributed_ns / warm_nominal_ns);
    layer.insert(
        "ledger.residual_share",
        1.0 - attributed_ns / warm_nominal_ns,
    );

    let path = trace_path(outcome.workload);
    match trace::save_chrome_trace(&path, outcome.workload, &spans) {
        Ok(()) => outcome.trace_file = Some(path),
        Err(error) => outcome
            .findings
            .push(format!("trace file {}: {error}", path.display())),
    }
}

pub fn run<W: Workload>(spec: &RunSpec) -> Outcome {
    let name = W::INFO.name;
    let check = spec.size == Size::Check;
    let mut findings = Vec::new();

    // Set-up, repeated: each one builds the inputs from nothing.
    let mut setup_s = Vec::new();
    let mut input = None;
    let mut calib_setup = Vec::new();
    for _ in 0..if check { 1 } else { SETUPS } {
        drop(input.take());
        host::sample_calibration(&mut calib_setup);
        let start = Instant::now();
        input = Some(W::setup(spec.seed, spec.size));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut input = input.expect("at least one set-up ran");

    // The discarded warm-up repetition: cold heap, cold caches.
    let proc_start = host::proc_sample();
    let cold = input.rep();
    let (mut attempted, mut failed) = (cold.cells, cold.failed);

    // Timed repetitions, closed loop, the calibration loop between them.
    let mut calib_reps = Vec::new();
    let mut reps: Vec<RepOut> = Vec::new();
    let min_reps = if check { 1 } else { MIN_REPS };
    let mut proc_gated = None;
    let clock = Instant::now();
    while reps.len() < min_reps || clock.elapsed().as_secs_f64() < spec.seconds {
        host::sample_calibration(&mut calib_reps);
        let rep = input.rep();
        attempted += rep.cells;
        failed += rep.failed;
        if rep.digest != cold.digest {
            findings.push(format!(
                "repetition {} digest {:016x} differs from the first repetition's {:016x}",
                reps.len() + 1,
                rep.digest,
                cold.digest
            ));
        }
        if rep.counts != cold.counts {
            findings.push(format!(
                "repetition {} counts differ: {:?} vs {:?}",
                reps.len() + 1,
                rep.counts,
                cold.counts
            ));
        }
        reps.push(rep);
        // Every run gets this far, so the heap growth of the first few
        // repetitions is in the gated memory figure and the number of
        // repetitions the clock allowed afterwards is not.
        if reps.len() == min_reps {
            proc_gated = Some(host::proc_sample());
        }
    }
    let proc_gated = proc_gated.expect("the minimum of repetitions ran");
    let proc_end = host::proc_sample();
    host::sample_calibration(&mut calib_reps);

    let us_per_cell: Vec<f64> = reps
        .iter()
        .map(|r| r.wall.as_secs_f64() * 1e6 / r.cells.max(1) as f64)
        .collect();
    let at_nominal = |name: &'static str, samples: &[f64], calib: &[f64]| {
        let raw = stats::summary(samples);
        Measured {
            name,
            summary: raw.scaled(host::to_nominal(calib)),
            raw: raw.median,
            calib_ns: host::calib_ns(calib),
        }
    };
    let end_to_end = vec![
        at_nominal("us_per_cell", &us_per_cell, &calib_reps),
        Measured {
            name: "peak_rss_mib",
            summary: Summary::single(proc_gated.peak_rss_mib),
            raw: proc_gated.peak_rss_mib,
            calib_ns: host::calib_ns(&calib_reps),
        },
        at_nominal("setup_s", &setup_s, &calib_setup),
    ];

    let mut outcome = Outcome {
        workload: name,
        correct: true,
        attempted,
        failed,
        findings,
        sim_digest: cold.digest,
        end_to_end,
        rep_us_per_cell: std::iter::once(cold.wall.as_secs_f64() * 1e6 / cold.cells.max(1) as f64)
            .chain(us_per_cell.iter().copied())
            .collect(),
        setup_s,
        per_layer: BTreeMap::new(),
        rungs: Vec::new(),
        ledger_lines: Vec::new(),
        calib_ns: host::calib_ns(&calib_reps),
        noisy: host::is_noisy(&calib_reps),
        trace_file: None,
    };

    if spec.trace {
        let procs = ProcSamples {
            start: proc_start,
            gated: proc_gated,
            end: proc_end,
        };
        trace_and_attribute(
            &mut input,
            spec,
            &mut outcome,
            &cold,
            &reps,
            &calib_reps,
            &procs,
        );
    }

    if outcome.failed > 0 {
        outcome.findings.push(format!(
            "{} of {} operations failed their output check",
            outcome.failed, outcome.attempted
        ));
    }
    outcome.correct = outcome.findings.is_empty();
    outcome
}
