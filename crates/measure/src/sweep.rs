//! The campaign layer: a pool that shards independent cells across OS
//! threads with chunked work-stealing and reassembles results in cell
//! order, and the one kernel every campaign driver runs on
//! ([`ScanPool::run_cells`]): fork a private lab per cell from a warm
//! image, run the cell, merge what it observed. DESIGN.md "Campaign layer"
//! has the contract.
//!
//! The design exploits the measurement structure of the paper: every
//! scenario (vantage × target × technique) is a self-contained simulation.
//! A driver builds its warm lab once into a shared immutable `LabImage`;
//! the kernel forks a private `VantageLab` per cell (sub-microsecond: the
//! compiled policy, topology, and route arena are `Arc`-shared, only the
//! mutable cell — conntrack, clocks, RNG, instruments — is rebuilt). A
//! fork is byte-identical to a fresh build, so no ordering between cells
//! can influence a verdict and determinism survives parallelism by
//! construction.

use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use tspu_core::PolicyHandle;
use tspu_obs::{Histogram, MetricValue, Snapshot};
use tspu_registry::Universe;
use tspu_topology::{policy_from_universe, vantage_resolvers, LabImage, TopologySpec, VantageLab};

use crate::domains::{test_domain, DomainCampaign, DomainVerdict};

/// Largest chunk a worker claims at once. Small enough that stragglers
/// near the end of the sweep still spread across workers, large enough
/// that the shared cursor is touched rarely.
const MAX_CHUNK: usize = 256;

/// How a campaign executes — the one config struct every driver's `run`
/// takes, read in one place ([`ScanPool::run_cells`]), so each knob means
/// the same thing under every driver.
///
/// Every knob is orthogonal and none affects result values: observation
/// and reporting ride on the side of the same deterministic execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunOpts {
    /// Take each cell's lab snapshot (engine, devices, chaos links,
    /// policy), stamp it with the cell index and merge them, in index
    /// order, into one campaign [`Snapshot`].
    pub observe: bool,
    /// Span-sampling period when observing: cell indices divisible by
    /// `trace_every` record spans, the rest record metrics only; `0`
    /// disables spans entirely. A pure function of the cell index, so it
    /// cannot break cross-thread-count determinism.
    pub trace_every: usize,
    /// Collect the wall-clock [`PoolReport`] (per-worker utilization,
    /// chunk-claim timing, scenario-latency histogram). Reports are
    /// timing-dependent and never part of the deterministic results.
    pub report: bool,
}

impl RunOpts {
    /// Results only: no snapshot, no report. (`RunOpts::default()`.)
    pub fn quick() -> RunOpts {
        RunOpts::default()
    }

    /// Full observation: every scenario traced, campaign snapshot merged,
    /// wall-clock report collected.
    pub fn observed() -> RunOpts {
        RunOpts { observe: true, trace_every: 1, report: true }
    }

    /// Observation with span sampling: metrics from every scenario, spans
    /// from every `trace_every`-th. A 100k-scenario campaign traced at
    /// `trace_every = 1000` keeps ~0.1% of its spans — enough to see the
    /// shape without a gigabyte trace.
    pub fn sampled(trace_every: usize) -> RunOpts {
        RunOpts { observe: true, trace_every, report: true }
    }

    /// Results plus the wall-clock report, no observation.
    pub fn reported() -> RunOpts {
        RunOpts { report: true, ..RunOpts::default() }
    }
}

/// What [`ScanPool::run`] returns: reassembled results, plus the
/// wall-clock report when [`RunOpts::report`] asked for one.
#[derive(Debug, Clone)]
pub struct PoolRun<R> {
    /// One result per item, in item order at every thread count.
    pub results: Vec<R>,
    /// `Some` iff the run's [`RunOpts::report`] was set.
    pub report: Option<PoolReport>,
}

/// What [`ScanPool::run_cells`] returns.
#[derive(Debug, Clone)]
pub struct CellsRun<R> {
    /// One cell result per item, in item order at every thread count.
    pub cells: Vec<R>,
    /// The index-ordered merge of every cell's lab snapshot; `Some` iff
    /// the run's [`RunOpts::observe`] was set.
    pub snapshot: Option<Snapshot>,
    /// `Some` iff the run's [`RunOpts::report`] was set.
    pub report: Option<PoolReport>,
}

/// A pool of scan workers. Cheap to construct — threads are spawned per
/// [`ScanPool::run`] call (scoped), not kept alive between sweeps.
#[derive(Debug, Clone)]
pub struct ScanPool {
    threads: usize,
}

impl ScanPool {
    /// A pool with exactly `threads` workers (clamped to at least one).
    pub fn new(threads: usize) -> ScanPool {
        ScanPool { threads: threads.max(1) }
    }

    /// The sequential fallback: everything runs on the calling thread.
    pub fn single_thread() -> ScanPool {
        ScanPool::new(1)
    }

    /// Reads `TSPU_THREADS`; falls back to the machine's parallelism.
    pub fn from_env() -> ScanPool {
        let threads = std::env::var("TSPU_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
            });
        ScanPool::new(threads)
    }

    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The campaign kernel: one cell per item, each on a private lab
    /// forked from the item's warm image. This is the only place a
    /// campaign forks, and the only reader of [`RunOpts`]:
    ///
    /// * the cell runs as `cell(&mut lab, index, item)` on
    ///   `image_of(item).fork(index)` and must be a pure function of
    ///   `(image, index, item)` — that is the whole determinism argument;
    /// * with [`RunOpts::observe`], cells whose index `trace_every`
    ///   divides record spans, every cell's [`VantageLab::take_obs`] is
    ///   stamped with its index and merged, in index order, into
    ///   [`CellsRun::snapshot`] — a pure function of the campaign,
    ///   byte-identical at every thread count. A cell's snapshot is folded
    ///   into its chunk's as the cell returns, so memory grows with the
    ///   chunks claimed, not with the cells run;
    /// * with [`RunOpts::report`], the wall-clock [`PoolReport`] rides
    ///   along, on the far side of that fence.
    ///
    /// A cell that audits itself switches capture on, runs its traffic and
    /// returns [`VantageLab::oracle_audit`]'s findings in its result.
    pub fn run_cells<'i, T, R, I, F>(
        &self,
        opts: &RunOpts,
        items: &[T],
        image_of: I,
        cell: F,
    ) -> CellsRun<R>
    where
        T: Sync,
        R: Send,
        I: Fn(&T) -> &'i LabImage + Sync,
        F: Fn(&mut VantageLab, usize, &T) -> R + Sync,
    {
        if !opts.observe {
            let run = self.run(items, opts, |index, item| {
                cell(&mut image_of(item).fork(index), index, item)
            });
            return CellsRun { cells: run.results, snapshot: None, report: run.report };
        }
        let trace_every = opts.trace_every;
        // Chunks are contiguous index ranges and merge is associative, so
        // merging the chunks in chunk order below is the index-order merge
        // of every cell, last-value gauges included.
        let (chunks, report) = self.run_inner(items, |index, item, chunk: &mut Snapshot| {
            let mut lab = image_of(item).fork(index);
            if trace_every != 0 && index % trace_every == 0 {
                lab.set_tracing(true);
            }
            let result = cell(&mut lab, index, item);
            chunk.merge(&lab.take_obs().with_scenario(index as u32));
            result
        });
        let mut snapshot = Snapshot::new();
        let cells = unchunk(chunks, |chunk| snapshot.merge(&chunk));
        CellsRun { cells, snapshot: Some(snapshot), report: opts.report.then_some(report) }
    }

    /// Maps `f` over `items`, sharding across the pool with guided
    /// self-scheduling over a shared cursor. Results come back in item
    /// order regardless of which worker ran which index. The determinism
    /// guarantee assumes `f` is a pure function of `(index, item)`.
    /// Per-worker timing flows only into the report (returned iff
    /// [`RunOpts::report`]), never into result values.
    pub fn run<T, R, F>(&self, items: &[T], opts: &RunOpts, f: F) -> PoolRun<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let (chunks, report) = self.run_inner(items, |index, item, _: &mut ()| f(index, item));
        PoolRun { results: unchunk(chunks, drop), report: opts.report.then_some(report) }
    }

    /// The scheduler: guided self-scheduling over a shared cursor, per-
    /// worker timing on the side. `f` also folds into an accumulator of
    /// its chunk: one per claimed chunk, and one for a one-thread pool.
    /// The chunks come back sorted by start, so their results concatenate
    /// in item order.
    fn run_inner<T, R, A, F>(&self, items: &[T], f: F) -> (Vec<Chunk<R, A>>, PoolReport)
    where
        T: Sync,
        R: Send,
        A: Default + Send,
        F: Fn(usize, &T, &mut A) -> R + Sync,
    {
        let sweep_start = Instant::now();
        if self.threads == 1 || items.len() <= 1 {
            let mut worker = WorkerReport::default();
            let mut latencies = Histogram::new();
            let mut chunk = Chunk::starting_at(0, items.len());
            for (i, item) in items.iter().enumerate() {
                let started = Instant::now();
                chunk.results.push(f(i, item, &mut chunk.acc));
                let elapsed = started.elapsed().as_nanos() as u64;
                worker.busy_ns += elapsed;
                worker.items += 1;
                latencies.record(elapsed);
            }
            worker.chunks = usize::from(!items.is_empty());
            worker.alive_ns = sweep_start.elapsed().as_nanos() as u64;
            let report = PoolReport {
                wall_ns: worker.alive_ns,
                workers: vec![worker],
                scenario_wall_ns: latencies,
            };
            return (vec![chunk], report);
        }
        let workers = self.threads.min(items.len());
        let total = items.len();
        let cursor = AtomicUsize::new(0);
        type Shard<R, A> = (Vec<Chunk<R, A>>, WorkerReport, Histogram);
        let mut shards: Vec<Shard<R, A>> = Vec::with_capacity(workers);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let born = Instant::now();
                        let mut out: Vec<Chunk<R, A>> = Vec::new();
                        let mut worker = WorkerReport::default();
                        let mut latencies = Histogram::new();
                        loop {
                            // Guided self-scheduling: claim a quarter of
                            // an even share of what's left, so early
                            // chunks are big and the tail rebalances.
                            let claim_started = Instant::now();
                            let seen = cursor.load(Ordering::Relaxed);
                            if seen >= total {
                                break;
                            }
                            let chunk = ((total - seen) / (workers * 4)).clamp(1, MAX_CHUNK);
                            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                            worker.claim_ns += claim_started.elapsed().as_nanos() as u64;
                            if start >= total {
                                break;
                            }
                            worker.chunks += 1;
                            let end = (start + chunk).min(total);
                            let mut claimed = Chunk::starting_at(start, end - start);
                            for (index, item) in
                                items.iter().enumerate().take(end).skip(start)
                            {
                                let started = Instant::now();
                                claimed.results.push(f(index, item, &mut claimed.acc));
                                let elapsed = started.elapsed().as_nanos() as u64;
                                worker.busy_ns += elapsed;
                                worker.items += 1;
                                latencies.record(elapsed);
                            }
                            out.push(claimed);
                        }
                        worker.alive_ns = born.elapsed().as_nanos() as u64;
                        (out, worker, latencies)
                    })
                })
                .collect();
            for handle in handles {
                // A worker's panic is re-raised here with its own payload.
                shards.push(handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
            }
        });
        let mut chunks: Vec<Chunk<R, A>> = Vec::new();
        let mut worker_reports = Vec::with_capacity(workers);
        let mut latencies = Histogram::new();
        for (shard, worker, shard_latencies) in shards {
            chunks.extend(shard);
            worker_reports.push(worker);
            latencies.merge(&shard_latencies);
        }
        chunks.sort_unstable_by_key(|chunk| chunk.start);
        let report = PoolReport {
            wall_ns: sweep_start.elapsed().as_nanos() as u64,
            workers: worker_reports,
            scenario_wall_ns: latencies,
        };
        (chunks, report)
    }
}

/// One claimed run of consecutive items: the index of its first, its
/// results in item order, and what its accumulator folded over them.
struct Chunk<R, A> {
    start: usize,
    results: Vec<R>,
    acc: A,
}

impl<R, A: Default> Chunk<R, A> {
    fn starting_at(start: usize, len: usize) -> Chunk<R, A> {
        Chunk { start, results: Vec::with_capacity(len), acc: A::default() }
    }
}

/// Concatenates start-sorted chunks' results into item order, handing each
/// accumulator to `fold` in the same order. The first chunk's results
/// become the whole, so a one-thread run copies nothing.
fn unchunk<R, A>(chunks: Vec<Chunk<R, A>>, mut fold: impl FnMut(A)) -> Vec<R> {
    let mut results = Vec::new();
    for chunk in chunks {
        if results.is_empty() {
            results = chunk.results;
        } else {
            results.extend(chunk.results);
        }
        fold(chunk.acc);
    }
    results
}

/// What one worker did during a pool run. All wall-clock.
#[derive(Debug, Clone, Default)]
pub struct WorkerReport {
    /// Scenarios this worker executed.
    pub items: usize,
    /// Chunks it claimed from the shared cursor.
    pub chunks: usize,
    /// Nanoseconds inside scenario closures.
    pub busy_ns: u64,
    /// Nanoseconds spent claiming chunks (cursor contention).
    pub claim_ns: u64,
    /// Nanoseconds from worker start to worker exit.
    pub alive_ns: u64,
}

impl WorkerReport {
    /// Fraction of the worker's lifetime spent doing scenario work.
    pub fn utilization(&self) -> f64 {
        if self.alive_ns == 0 {
            return 0.0;
        }
        self.busy_ns as f64 / self.alive_ns as f64
    }
}

/// Wall-clock execution report for one pool run.
///
/// Wall-clock numbers vary run to run and thread count to thread count,
/// so they live here and are deliberately NOT part of [`Snapshot`] —
/// snapshots stay byte-identical across `TSPU_THREADS`; reports do not.
#[derive(Debug, Clone)]
pub struct PoolReport {
    /// Nanoseconds from sweep start to reassembled results.
    pub wall_ns: u64,
    /// One entry per worker, in spawn order.
    pub workers: Vec<WorkerReport>,
    /// Wall-clock latency of every scenario, pooled across workers.
    pub scenario_wall_ns: Histogram,
}

impl PoolReport {
    /// Total scenarios executed across all workers.
    pub fn total_items(&self) -> usize {
        self.workers.iter().map(|w| w.items).sum()
    }

    /// A human-readable multi-line summary (for example binaries).
    pub fn summary(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "pool: {} scenarios on {} workers in {:.1} ms",
            self.total_items(),
            self.workers.len(),
            self.wall_ns as f64 / 1e6,
        );
        for (i, w) in self.workers.iter().enumerate() {
            let _ = writeln!(
                out,
                "  worker {i}: {} items in {} chunks, {:.1} ms busy ({:.0}% util), {:.2} ms claiming",
                w.items,
                w.chunks,
                w.busy_ns as f64 / 1e6,
                w.utilization() * 100.0,
                w.claim_ns as f64 / 1e6,
            );
        }
        if let (Some(min), Some(max)) = (self.scenario_wall_ns.min(), self.scenario_wall_ns.max()) {
            let _ = writeln!(
                out,
                "  scenario latency: min {:.1} us, p50 {:.1} us, p99 {:.1} us, max {:.1} us",
                min as f64 / 1e3,
                self.scenario_wall_ns.quantile_lower(0.50) as f64 / 1e3,
                self.scenario_wall_ns.quantile_lower(0.99) as f64 / 1e3,
                max as f64 / 1e3,
            );
        }
        out
    }
}

/// Shared immutable description of a registry sweep: one scenario per
/// domain, all against the same central policy. The run builds the warm
/// scan-lab image once; workers fork a private lab per scenario.
#[derive(Clone)]
pub struct SweepSpec {
    pub policy: PolicyHandle,
    pub domains: Vec<String>,
    /// Which lab the sweep probes: the Fig. 1 vantage lab (default), or a
    /// generated AS graph — scenarios then probe from generated clients,
    /// rotating by scenario port.
    pub topology: TopologySpec,
}

impl SweepSpec {
    pub fn new(policy: PolicyHandle, domains: Vec<String>) -> SweepSpec {
        SweepSpec { policy, domains, topology: TopologySpec::Fig1 }
    }

    /// A spec over the universe's central policy (the post-March-4 epoch
    /// the §6 campaign measures: no throttling, QUIC filter on).
    pub fn from_universe<I, D>(universe: &Universe, domains: I) -> SweepSpec
    where
        I: IntoIterator<Item = D>,
        D: Into<String>,
    {
        SweepSpec {
            policy: policy_from_universe(universe, false, true),
            domains: domains.into_iter().map(Into::into).collect(),
            topology: TopologySpec::Fig1,
        }
    }

    /// Runs the sweep on a different lab topology (e.g. a generated
    /// 5000-AS graph instead of the Fig. 1 vantage lab).
    pub fn with_topology(mut self, topology: TopologySpec) -> SweepSpec {
        self.topology = topology;
        self
    }

    pub fn len(&self) -> usize {
        self.domains.len()
    }

    pub fn is_empty(&self) -> bool {
        self.domains.is_empty()
    }

    /// The single sweep entry point: sweeps every domain through
    /// [`test_domain`], one cell per domain on [`ScanPool::run_cells`].
    /// Verdicts come back parallel to `self.domains`, in domain order at
    /// every thread count.
    ///
    /// Scan labs use reliable devices, so §3's "repeated multiple times
    /// (>5) to account for the TSPU failure" needs no retry here: one
    /// attempt per scenario, on a port derived purely from the scenario
    /// index.
    ///
    /// With [`RunOpts::observe`], the campaign [`Snapshot`] also carries
    /// `sweep.scenarios` and a `sweep.scenario_us` histogram of *virtual*
    /// scenario durations.
    pub fn run(&self, pool: &ScanPool, opts: &RunOpts) -> SweepRun {
        let image = VantageLab::builder()
            .policy(self.policy.clone())
            .topology(self.topology.clone())
            .image();
        let probe = |lab: &mut VantageLab, index: usize, domain: &String| {
            test_domain(lab, domain, scenario_port(index))
        };
        // Only an observed run wants each scenario's virtual duration; the
        // quick path hands the kernel's verdicts back as they are.
        if !opts.observe {
            let run = pool.run_cells(opts, &self.domains, |_| &image, probe);
            return SweepRun { verdicts: run.cells, snapshot: None, report: run.report };
        }
        let run = pool.run_cells(opts, &self.domains, |_| &image, |lab, index, domain| {
            (probe(lab, index, domain), lab.net.now().as_micros())
        });
        // `opts.observe` is set on this path, and an observed run returns a snapshot.
        let mut snapshot = run.snapshot.expect("observed run");
        let mut scenario_us = Histogram::new();
        let verdicts: Vec<DomainVerdict> = run
            .cells
            .into_iter()
            .map(|(verdict, virtual_us)| {
                scenario_us.record(virtual_us);
                verdict
            })
            .collect();
        snapshot.insert("sweep.scenarios", MetricValue::Counter(verdicts.len() as u64));
        snapshot.insert("sweep.scenario_us", MetricValue::Hist(scenario_us));
        SweepRun { verdicts, snapshot: Some(snapshot), report: run.report }
    }
}

/// What [`SweepSpec::run`] returns: the verdicts, the deterministic
/// campaign [`Snapshot`] (`Some` iff [`RunOpts::observe`]), and the
/// nondeterministic wall-clock [`PoolReport`] (`Some` iff
/// [`RunOpts::report`]).
#[derive(Debug, Clone)]
pub struct SweepRun {
    pub verdicts: Vec<DomainVerdict>,
    pub snapshot: Option<Snapshot>,
    pub report: Option<PoolReport>,
}

/// The §5 technique drivers' kernel call: one cell per item, each on a
/// fork of a reliable Fig. 1 image enforcing `policy`, results in item
/// order. Reliable, because a flip search that meets one failure-dice
/// exemption binary-searches towards the wrong threshold.
pub(crate) fn fig1_cells<T, R>(
    policy: &PolicyHandle,
    items: &[T],
    pool: &ScanPool,
    cell: impl Fn(&mut VantageLab, &T) -> R + Sync,
) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    let image = VantageLab::builder().policy(policy.clone()).image();
    pool.run_cells(&RunOpts::quick(), items, |_| &image, |lab, _, item| cell(lab, item)).cells
}

/// Source port for scenario `index`, a pure function of the index so the
/// sweep's traffic is identical no matter which worker runs the scenario.
/// Stays in `2048..32048`: below `0x8000`, because [`test_domain`]'s
/// split-handshake follow-up probes `port ^ 0x8000`, and clear of the
/// well-known range.
pub fn scenario_port(index: usize) -> u16 {
    2048 + (index % 30_000) as u16
}

/// The §6 campaign (Fig. 6, Table 3): TSPU verdicts via the pool, ISP
/// resolver membership computed sequentially during aggregation (a pure
/// lookup). Byte-identical at any thread count.
pub fn registry_campaign<'a, I>(universe: &Universe, domains: I, pool: &ScanPool) -> DomainCampaign
where
    I: IntoIterator<Item = &'a str>,
{
    let spec = SweepSpec::from_universe(universe, domains);
    let verdicts = spec.run(pool, &RunOpts::quick()).verdicts;

    let resolvers = vantage_resolvers(universe);
    let mut campaign = DomainCampaign {
        tspu: BTreeMap::new(),
        isp_blocked: resolvers.iter().map(|r| (r.isp().to_string(), HashSet::new())).collect(),
    };
    for (domain, verdict) in spec.domains.iter().zip(verdicts) {
        campaign.tspu.insert(domain.clone(), verdict);
        for resolver in &resolvers {
            if resolver.lists(domain) {
                // `isp_blocked` was keyed by every resolver's ISP above.
                campaign
                    .isp_blocked
                    .get_mut(resolver.isp())
                    .expect("resolver registered")
                    .insert(domain.clone());
            }
        }
    }
    campaign
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_preserves_item_order() {
        let items: Vec<usize> = (0..1000).collect();
        let pool = ScanPool::new(4);
        let run = pool.run(&items, &RunOpts::quick(), |_, &x| x * 2);
        assert_eq!(run.results, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
        assert!(run.report.is_none(), "quick run must not report");
    }

    #[test]
    fn parallel_run_matches_single_thread() {
        let items: Vec<u64> = (0..317).collect();
        let work = |index: usize, item: &u64| *item * 31 + index as u64;
        let sequential = ScanPool::single_thread().run(&items, &RunOpts::quick(), work).results;
        for threads in [2, 3, 8] {
            let parallel = ScanPool::new(threads).run(&items, &RunOpts::quick(), work);
            assert_eq!(parallel.results, sequential, "{threads} threads");
        }
    }

    #[test]
    fn reported_run_counts_every_item() {
        let items: Vec<u64> = (0..100).collect();
        let run = ScanPool::new(4).run(&items, &RunOpts::reported(), |_, &x| x);
        assert_eq!(run.results, items);
        assert_eq!(run.report.map(|report| report.total_items()), Some(items.len()));
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let pool = ScanPool::new(8);
        let empty: Vec<u32> = Vec::new();
        assert!(pool.run(&empty, &RunOpts::quick(), |_, &x| x).results.is_empty());
        assert_eq!(pool.run(&[7u32], &RunOpts::quick(), |_, &x| x + 1).results, vec![8]);
    }

    #[test]
    fn from_env_honors_tspu_threads() {
        // No env mutation (tests share the process): just check clamping.
        assert_eq!(ScanPool::new(0).threads(), 1);
        assert!(ScanPool::from_env().threads() >= 1);
    }

    #[test]
    fn scenario_ports_stay_below_split_handshake_bit() {
        for index in [0usize, 1, 29_999, 30_000, 123_456] {
            let port = scenario_port(index);
            assert!((2048..0x8000).contains(&port), "index {index} -> port {port}");
            assert_ne!(port ^ 0x8000, 443);
        }
    }

    #[test]
    fn sweep_matches_sequential_verdicts() {
        let universe = Universe::generate(3);
        let domains = ["meduza.io", "play.google.com", "twitter.com", "wikipedia.org"];
        let spec = SweepSpec::from_universe(&universe, domains);
        let verdicts = spec.run(&ScanPool::new(2), &RunOpts::quick()).verdicts;
        assert_eq!(
            verdicts,
            vec![
                DomainVerdict::Sni1,
                DomainVerdict::Sni2,
                DomainVerdict::Sni4,
                DomainVerdict::Open,
            ]
        );
    }

    #[test]
    fn parallel_campaign_matches_table3_anchors() {
        let universe = Universe::generate(3);
        let pool = ScanPool::new(4);
        let campaign =
            registry_campaign(&universe, ["play.google.com", "nordvpn.com", "wikipedia.org"], &pool);
        let only = campaign.tspu_only();
        assert!(only.contains("play.google.com"));
        assert!(only.contains("nordvpn.com"));
        assert_eq!(campaign.tspu["wikipedia.org"], DomainVerdict::Open);
    }
}
