//! Host instruments: a fixed calibration loop, and the process's own
//! memory, fault and CPU-time counters from `/proc/self`.
//!
//! Nothing here touches the simulator. The calibration loop exists because
//! this kind of box changes speed under the benchmark: the same binary at
//! the same seed ran a sweep at 19.7, 25.4 and 32 µs per cell within an
//! hour, in regimes lasting from under a second to minutes, and ten runs of
//! one workload spread by up to 29 % as measured. The slowdown is common to
//! everything on the core — a register-only loop slows with it — so
//! end-to-end timings are reported at nominal speed: measured ×
//! [`CALIB_NOMINAL_NS`] ÷ the loop's time during the same repetitions. The
//! raw figure travels with every record.
//!
//! The loop is pure CPU on purpose. A loop that goes through the global
//! allocator follows allocation-heavy workloads a little more closely, but
//! its own speed then depends on the heap the code under test leaves behind
//! (its pass ranged from 1.13 to 1.32 of this loop's, by workload), so a
//! change to the simulator's allocation pattern would move the yardstick.
//! This loop touches no memory: nothing the simulator does can change it.

use std::hint::black_box;
use std::time::Instant;

use crate::stats;

/// What one pass of the loop takes on the reference box in an ordinary
/// hour, rounded. A constant of the benchmark, not of the machine: parent
/// and change are scaled by the same number, so it cancels in every
/// comparison and only fixes the unit ("µs at nominal speed").
pub const CALIB_NOMINAL_NS: f64 = 500_000.0;

/// One pass of the calibration loop: four independent integer chains in
/// registers, 400,000 rounds — throughput-bound like the simulator, where a
/// single dependent chain would be latency-bound and barely notice a busy
/// neighbour. Returns its wall nanoseconds.
pub fn calibrate() -> f64 {
    let start = Instant::now();
    let (mut a, mut b, mut c, mut d) = (1u64, 2u64, 3u64, 4u64);
    for i in 0..400_000u64 {
        a = a.wrapping_mul(6364136223846793005).wrapping_add(i);
        b = (b ^ (b << 13)) ^ (b >> 7) ^ i;
        c = c.rotate_left(17).wrapping_add(a);
        d = d.wrapping_mul(0x9E3779B97F4A7C15) ^ (d >> 29);
    }
    black_box((a, b, c, d));
    start.elapsed().as_nanos() as f64
}

/// Passes taken at each point of a run where the loop is sampled.
pub const CALIB_PASSES: usize = 5;

/// Appends [`CALIB_PASSES`] passes to `samples`.
pub fn sample_calibration(samples: &mut Vec<f64>) {
    samples.extend((0..CALIB_PASSES).map(|_| calibrate()));
}

/// Runs `f` between two bursts of the loop, four sampling points' worth
/// each, and returns the factor that takes a timing of `f` to nominal speed.
/// For a measurement made once: it has no neighbours to average the loop's
/// own pass-to-pass noise over, so it gets more passes of its own.
pub fn bracketed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let mut samples = Vec::new();
    let burst = |samples: &mut Vec<f64>| (0..4).for_each(|_| sample_calibration(samples));
    burst(&mut samples);
    let result = f();
    burst(&mut samples);
    (result, to_nominal(&samples))
}

/// The loop's mean pass over `samples`. The mean, not the median: what is
/// timed beside the loop lasts long enough to hold a share of every slow
/// stretch, so its time follows the box's average slowness, while the median
/// of the loop's short passes sits at the box's usual speed and misses them.
/// (Ten runs at ten seeds spread by 5 % on average scaled by the mean, by
/// 7 % scaled by the median, by 12 % as measured.)
pub fn calib_ns(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The factor that takes a timing measured while the loop ran as in
/// `samples` to nominal speed.
pub fn to_nominal(samples: &[f64]) -> f64 {
    CALIB_NOMINAL_NS / calib_ns(samples)
}

/// The loop at the start and at the end of the timed repetitions more than
/// a tenth apart: the box changed speed while the workload ran.
pub fn is_noisy(samples: &[f64]) -> bool {
    let edge = CALIB_PASSES.min(samples.len());
    let first = stats::median(&samples[..edge]);
    let last = stats::median(&samples[samples.len() - edge..]);
    first.max(last) > first.min(last) * 1.10
}

/// Cumulative process counters, read from `/proc/self/{status,stat}`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcSample {
    /// `VmHWM`: peak resident set so far, MiB.
    pub peak_rss_mib: f64,
    /// Minor page faults so far.
    pub minor_faults: u64,
    /// User and system CPU time so far, seconds.
    pub user_s: f64,
    pub sys_s: f64,
}

/// Clock ticks per second of `/proc/self/stat` times. `sysconf(_SC_CLK_TCK)`
/// needs libc; Linux has fixed USER_HZ at 100 on every architecture this
/// repository builds for.
const USER_HZ: f64 = 100.0;

/// Parses the two `/proc/self` files. Split from the reading so the tests
/// can feed it text.
pub fn parse_proc(status: &str, stat: &str) -> Option<ProcSample> {
    let hwm_kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    // The command name (field 2) may hold spaces and parentheses; the
    // numeric fields start after the last ')'.
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    // `fields[0]` is field 3 (state): minflt is field 10, utime 14, stime 15.
    let field = |number: usize| fields.get(number - 3)?.parse::<u64>().ok();
    Some(ProcSample {
        peak_rss_mib: hwm_kib / 1024.0,
        minor_faults: field(10)?,
        user_s: field(14)? as f64 / USER_HZ,
        sys_s: field(15)? as f64 / USER_HZ,
    })
}

/// This process's counters now. All-zero when `/proc` is unreadable (a
/// non-Linux host): the benchmark still runs, the host metrics read 0.
pub fn proc_sample() -> ProcSample {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    parse_proc(&status, &stat).unwrap_or_default()
}

/// Cores the scheduler may use. Every workload runs on one thread; the
/// number is recorded because a second busy core is what disturbs it.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// `rustc --version` of the toolchain on the path, for the record schema.
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_and_stat_with_awkward_command_name() {
        let status = "Name:\tbench\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1000 kB\n";
        let stat =
            "42 (my (odd) name) R 1 42 42 0 -1 4194304 1234 0 0 0 250 50 0 0 20 0 1 0 100 1 2";
        let sample = parse_proc(status, stat).expect("well-formed input");
        assert_eq!(sample.peak_rss_mib, 2.0);
        assert_eq!(sample.minor_faults, 1234);
        assert_eq!(sample.user_s, 2.5);
        assert_eq!(sample.sys_s, 0.5);
    }

    #[test]
    fn malformed_proc_text_is_none_not_a_panic() {
        assert_eq!(parse_proc("", ""), None);
        assert_eq!(parse_proc("VmHWM:\t12 kB\n", "1 (x) R 1"), None);
    }

    #[test]
    fn calibration_is_positive_and_noise_rule_is_ten_percent() {
        let mut samples = Vec::new();
        sample_calibration(&mut samples);
        assert_eq!(samples.len(), CALIB_PASSES);
        assert!(samples.iter().all(|&ns| ns > 0.0));
        let run = |first: f64, last: f64| {
            [
                [first; CALIB_PASSES],
                [105.0; CALIB_PASSES],
                [last; CALIB_PASSES],
            ]
            .concat()
        };
        assert!(!is_noisy(&run(100.0, 109.0)));
        assert!(is_noisy(&run(100.0, 111.0)));
        assert!(is_noisy(&run(111.0, 100.0)));
        assert_eq!(to_nominal(&[CALIB_NOMINAL_NS / 2.0; 3]), 2.0);
        assert_eq!(calib_ns(&[1.0, 1.0, 4.0]), 2.0);
    }
}
