//! The repository's benchmark: eight campaign workloads, each measured end
//! to end, layer by layer on a ladder of fixed operations, and in a traced
//! run. See `README.md` beside this package for what each number means and
//! which layer metric should move which end-to-end metric.
//!
//! ```text
//! benchmark --workload <name|all> [--seed N] [--seconds S] [--trace [0|1]]
//! benchmark --ladder [--seed N]
//! benchmark --compare A.json B.json
//! benchmark --check
//! ```

mod alloc;
mod compare;
mod host;
mod json;
mod ladder;
mod metrics;
mod record;
mod runner;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use record::{Record, RunContext};
use runner::{Outcome, RunSpec};
use stats::Summary;
use workloads::Size;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Seconds of timed repetitions when `--seconds` is not given; the
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 12.0;
/// The seed the reference digests and reference results were taken at.
const DEFAULT_SEED: u64 = 2022;

const USAGE: &str = "usage:
  benchmark --workload <name|all> [--seed N] [--seconds S] [--trace [0|1]]
  benchmark --ladder [--seed N]
  benchmark --compare A.json B.json
  benchmark --check";

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    ladder: bool,
    check: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = Some(
                    value("a number")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let seconds: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
                args.seconds = Some(seconds);
            }
            // The driver passes `--trace 0|1`; by hand a bare `--trace` is on.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--ladder" => args.ladder = true,
            "--check" => args.check = true,
            "--compare" => {
                args.compare = Some((
                    PathBuf::from(value("two files")?),
                    PathBuf::from(value("two files")?),
                ))
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Runs the named workload. `None` when there is no such workload.
fn dispatch(name: &str, spec: &RunSpec) -> Option<Outcome> {
    workloads::ALL
        .iter()
        .find(|workload| workload.name == name)
        .map(|workload| (workload.run)(spec))
}

fn context(seed: u64, calib_ns: f64, noisy: bool) -> RunContext {
    RunContext {
        seed,
        cores: host::cores(),
        rustc: host::rustc_version(),
        calib_ns,
        noisy,
    }
}

/// The digest this workload had at the reference seed when the benchmark
/// was defined, from `reference/digests.json`.
fn reference_digest(workload: &str, seed: u64) -> Option<u64> {
    let doc = json::parse(include_str!("../reference/digests.json")).ok()?;
    if doc.get("seed")?.as_f64()? as u64 != seed {
        return None;
    }
    let hex = doc.get("digests")?.get(workload)?.as_str()?;
    u64::from_str_radix(hex.trim_start_matches("0x"), 16).ok()
}

/// Every record of one run, end-to-end first.
fn records_of(outcome: &Outcome, context: &RunContext) -> Vec<Record> {
    let mut records = Vec::new();
    for measured in &outcome.end_to_end {
        let def = metrics::find(measured.name).expect("end-to-end metrics are in the table");
        records.push(
            Record::new(
                context,
                outcome.workload,
                "end_to_end",
                def,
                measured.summary,
            )
            .with_raw(measured.raw, measured.calib_ns),
        );
    }
    for def in metrics::TRACED.iter().chain(metrics::TRACED_WHERE_MEASURED) {
        if let Some(&value) = outcome.per_layer.get(def.name) {
            records.push(Record::new(
                context,
                outcome.workload,
                "per_layer",
                def,
                Summary::single(value),
            ));
        }
    }
    for rung in &outcome.rungs {
        let def = metrics::find(rung.name).expect("rungs are in the table");
        records.push(
            Record::new(context, outcome.workload, "ladder", def, rung.ns)
                .with_raw(rung.raw_ns, rung.calib_ns),
        );
    }
    records
}

/// The line the acceptance driver reads: last on standard output.
fn driver_line(outcome: &Outcome, trace: bool) -> String {
    let metrics: Vec<String> = if trace {
        metrics::per_layer()
            .map(|def| {
                // Every workload measures these; `--check` holds them to it.
                let value = outcome.per_layer[def.name];
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json::quote(def.name),
                    json::number(value),
                    json::quote(def.unit)
                )
            })
            .collect()
    } else {
        outcome
            .end_to_end
            .iter()
            .map(|m| {
                let def = metrics::find(m.name).expect("end-to-end metrics are in the table");
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json::quote(m.name),
                    json::number(m.summary.median),
                    json::quote(def.unit)
                )
            })
            .collect()
    };
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(",")
    )
}

/// One workload, in this process. Prints its records, commentary and the
/// driver's line; fails on a correctness finding.
fn run_one(name: &str, spec: &RunSpec) -> ExitCode {
    let Some(outcome) = dispatch(name, spec) else {
        let known: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
        eprintln!("no workload {name:?}; there are: all, {}", known.join(", "));
        return ExitCode::from(2);
    };
    let context = context(spec.seed, outcome.calib_ns, outcome.noisy);
    for record in records_of(&outcome, &context) {
        println!("{}", record.to_json());
    }
    if let Some(info) = workloads::ALL.iter().find(|w| w.name == name) {
        println!("# {name}: {}", info.why);
    }
    println!(
        "# {name}: seed {} sim_digest {:016x}; calibration loop {:.0} us (nominal {:.0}), noisy {}",
        spec.seed,
        outcome.sim_digest,
        outcome.calib_ns / 1e3,
        host::CALIB_NOMINAL_NS / 1e3,
        outcome.noisy
    );
    let reps: Vec<String> = outcome
        .rep_us_per_cell
        .iter()
        .map(|us| format!("{us:.3}"))
        .collect();
    println!(
        "# {name}: us_per_cell as measured, cold repetition then timed ones: {}",
        reps.join(" ")
    );
    let setups: Vec<String> = outcome
        .setup_s
        .iter()
        .map(|s| format!("{:.1}", s * 1e3))
        .collect();
    println!("# {name}: set-ups as measured, ms: {}", setups.join(" "));
    if let Some(reference) = reference_digest(name, spec.seed).filter(|_| spec.size == Size::Full) {
        if reference != outcome.sim_digest {
            println!(
                "# {name}: digest changed: reference {reference:016x}, now {:016x}",
                outcome.sim_digest
            );
        }
    }
    for line in &outcome.ledger_lines {
        println!("# ledger {line}");
    }
    if let Some(path) = &outcome.trace_file {
        println!("# {name}: trace written to {}", path.display());
    }
    for finding in &outcome.findings {
        println!("# {name}: FAILED: {finding}");
    }
    println!("{}", driver_line(&outcome, spec.trace));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload, each in a child process of its own so that memory and
/// the heap's history are per workload.
fn run_all(spec: &RunSpec) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(error) => {
            eprintln!("cannot find this executable to start the workloads: {error}");
            return ExitCode::FAILURE;
        }
    };
    let mut failures = Vec::new();
    for workload in workloads::ALL {
        // The child writes straight to this process's standard output.
        let status = Command::new(&exe)
            .args(["--workload", workload.name])
            .args(["--seed", &spec.seed.to_string()])
            .args(["--seconds", &spec.seconds.to_string()])
            .args(["--trace", if spec.trace { "1" } else { "0" }])
            .stdin(Stdio::null())
            .status();
        match status {
            Ok(status) if status.success() => {}
            Ok(_) => failures.push(workload.name),
            Err(error) => {
                eprintln!("{}: could not start: {error}", workload.name);
                failures.push(workload.name);
            }
        }
    }
    if failures.is_empty() {
        println!("# all workloads correct");
        ExitCode::SUCCESS
    } else {
        println!("# FAILED: {}", failures.join(", "));
        ExitCode::FAILURE
    }
}

fn run_ladder(seed: u64) -> ExitCode {
    alloc::start();
    let rungs = ladder::run(seed, Size::Full);
    let allocations = alloc::stop();
    let calib_ns = rungs
        .iter()
        .find(|rung| rung.name == "host.calib_ns")
        .map_or(f64::NAN, |rung| rung.ns.median);
    let context = context(seed, calib_ns, false);
    for rung in &rungs {
        let def = metrics::find(rung.name).expect("rungs are in the table");
        println!(
            "{}",
            Record::new(&context, "ladder", "ladder", def, rung.ns)
                .with_raw(rung.raw_ns, rung.calib_ns)
                .to_json()
        );
    }
    for rung in &rungs {
        println!(
            "# {:<40} {:>12.1} ns  (MAD {:.1}, {} batches)",
            rung.name, rung.ns.median, rung.mad_ns, rung.ns.n
        );
    }
    println!(
        "# the whole ladder made {} allocations of {} bytes",
        allocations.allocations, allocations.bytes
    );
    ExitCode::SUCCESS
}

/// Every workload at a hundredth of its size, traced, all checks on.
fn run_check() -> Result<(), String> {
    let spec = RunSpec {
        seed: DEFAULT_SEED,
        seconds: 0.0,
        trace: true,
        size: Size::Check,
    };
    for workload in workloads::ALL {
        let outcome = dispatch(workload.name, &spec).expect("every listed workload dispatches");
        if !outcome.correct {
            return Err(format!(
                "{}: {}",
                workload.name,
                outcome.findings.join("; ")
            ));
        }
        for def in metrics::per_layer() {
            let value = outcome
                .per_layer
                .get(def.name)
                .ok_or_else(|| format!("{}: no {}", workload.name, def.name))?;
            if !value.is_finite() {
                return Err(format!("{}: {} is {value}", workload.name, def.name));
            }
        }
        println!(
            "# check {}: {} operations, digest {:016x}",
            workload.name, outcome.attempted, outcome.sim_digest
        );
    }
    Ok(())
}

fn run_compare(a: &PathBuf, b: &PathBuf) -> ExitCode {
    let read =
        |path: &PathBuf| std::fs::read_to_string(path).map(|text| record::read_records(&text));
    let (a_records, b_records) = match (read(a), read(b)) {
        (Ok(a_records), Ok(b_records)) => (a_records, b_records),
        (Err(error), _) => {
            eprintln!("{}: {error}", a.display());
            return ExitCode::from(2);
        }
        (_, Err(error)) => {
            eprintln!("{}: {error}", b.display());
            return ExitCode::from(2);
        }
    };
    let rows = compare::compare(&a_records, &b_records);
    if rows.is_empty() {
        eprintln!("the two files share no end-to-end record");
        return ExitCode::from(2);
    }
    print!("{}", compare::render(&rows));
    let settled = rows.iter().all(|row| row.verdict == compare::Verdict::Ok);
    println!(
        "# A = {}, B = {}: {}",
        a.display(),
        b.display(),
        if settled {
            "no regression, nothing unresolved"
        } else {
            "NOT settled"
        }
    );
    if settled {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("{error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    if let Some((a, b)) = &args.compare {
        return run_compare(a, b);
    }
    if args.check {
        return match run_check() {
            Ok(()) => {
                println!("# check passed");
                ExitCode::SUCCESS
            }
            Err(error) => {
                println!("# check FAILED: {error}");
                ExitCode::FAILURE
            }
        };
    }
    if args.ladder {
        return run_ladder(seed);
    }
    let Some(workload) = args.workload.as_deref() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let spec = RunSpec {
        seed,
        seconds: args.seconds.unwrap_or(DEFAULT_SECONDS),
        trace: args.trace,
        size: Size::Full,
    };
    if workload == "all" {
        run_all(&spec)
    } else {
        run_one(workload, &spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(text: &str) -> Vec<String> {
        text.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let args = parse_args(&argv(
            "--workload soak_steady --seed 7 --seconds 10 --trace 0",
        ))
        .unwrap();
        assert_eq!(
            (
                args.workload.as_deref(),
                args.seed,
                args.seconds,
                args.trace
            ),
            (Some("soak_steady"), Some(7), Some(10.0), false)
        );
        let args = parse_args(&argv("--workload all --trace 1")).unwrap();
        assert!(args.trace);
        // By hand, a bare --trace switches tracing on and eats nothing.
        let args = parse_args(&argv("--trace --workload registry_sweep")).unwrap();
        assert!(args.trace);
        assert_eq!(args.workload.as_deref(), Some("registry_sweep"));
    }

    #[test]
    fn rejects_what_it_does_not_know() {
        for bad in [
            "--workload",
            "--seed x",
            "--seconds -1",
            "--seconds nan",
            "--frobnicate",
            "--compare one",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn every_listed_workload_dispatches_and_nothing_else_does() {
        let spec = RunSpec {
            seed: 1,
            seconds: 0.0,
            trace: false,
            size: Size::Check,
        };
        assert!(dispatch("no_such_workload", &spec).is_none());
        assert_eq!(workloads::ALL.len(), 8);
    }

    #[test]
    fn reference_digests_cover_every_workload() {
        for workload in workloads::ALL {
            assert!(
                reference_digest(workload.name, DEFAULT_SEED).is_some(),
                "{}",
                workload.name
            );
        }
        assert_eq!(reference_digest("registry_sweep", DEFAULT_SEED + 1), None);
    }

    /// `--check` as a test: every workload at a hundredth of its size,
    /// untraced and traced, every output check on, every layer metric
    /// present and finite.
    #[test]
    fn check_mode_passes() {
        run_check().expect("check mode");
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let spec = RunSpec {
            seed: 3,
            seconds: 0.0,
            trace: false,
            size: Size::Check,
        };
        let outcome = dispatch("registry_churn", &spec).expect("a workload");
        let doc = json::parse(&driver_line(&outcome, false)).expect("the line is JSON");
        let json::Json::Obj(fields) = &doc else {
            panic!("an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&json::Json::Bool(true)));
        let json::Json::Obj(metrics) = doc.get("metrics").expect("metrics") else {
            panic!("an object")
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["us_per_cell", "peak_rss_mib", "setup_s"]);
        for (_, metric) in metrics {
            assert!(metric
                .get("value")
                .and_then(json::Json::as_f64)
                .is_some_and(|v| v > 0.0));
            assert!(metric.get("unit").and_then(json::Json::as_str).is_some());
        }
    }
}
