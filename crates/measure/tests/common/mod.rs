//! Shared by the determinism suites: the one 1-vs-N-thread comparison.

use tspu_measure::ScanPool;

/// Renders a campaign on a single-thread pool and on a pool of each size
/// in `threads`, and asserts every rendering equals the single-thread one
/// byte for byte. `render` puts everything the campaign promises to keep
/// thread-independent into the string — its cells and merged snapshot —
/// and may assert on the run itself. Returns the single-thread rendering.
pub fn assert_thread_independent(
    threads: &[usize],
    render: impl Fn(&ScanPool) -> String,
) -> String {
    let baseline = render(&ScanPool::new(1));
    for &n in threads {
        let parallel = render(&ScanPool::new(n));
        if parallel != baseline {
            let line = baseline
                .lines()
                .zip(parallel.lines())
                .position(|(one, many)| one != many)
                .unwrap_or_else(|| baseline.lines().count().min(parallel.lines().count()));
            panic!(
                "{n}-thread run diverged from single-thread at line {line}:\n  1 thread: {:?}\n  {n} threads: {:?}",
                baseline.lines().nth(line),
                parallel.lines().nth(line),
            );
        }
    }
    baseline
}
