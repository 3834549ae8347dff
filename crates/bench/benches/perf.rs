//! Criterion performance and ablation benches: throughput of the TSPU
//! device's hot paths, plus the design-choice ablations DESIGN.md calls
//! out (parse-vs-scan SNI extraction, forward-without-reassembly vs full
//! reassembly, role-ambiguity tracking).

use std::net::Ipv4Addr;
use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use tspu_core::frag_cache::{FragCache, FragConfig};
use tspu_core::{DomainSet, Hardening, Policy, PolicyHandle, TokenBucket, TspuDevice};
use tspu_netsim::{Direction, Middlebox, Network, Route, Time};
use tspu_stack::craft::TcpPacketSpec;
use tspu_wire::frag;
use tspu_wire::ipv4::{Ipv4Repr, Protocol};
use tspu_wire::tcp::TcpFlags;
use tspu_wire::tls::{extract_sni, ClientHelloBuilder, SniOutcome};

const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 1, 1, 1);
const SERVER: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 1);

fn device() -> TspuDevice {
    TspuDevice::reliable("bench", PolicyHandle::new(Policy::example()))
}

/// Packets/second through the device for plain (non-triggering) traffic —
/// the conntrack hot path.
fn conntrack_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("device");
    let data = TcpPacketSpec::new(CLIENT, 40000, SERVER, 443, TcpFlags::PSH_ACK)
        .payload(vec![0xab; 1000])
        .build();
    group.throughput(Throughput::Elements(1));
    group.bench_function("conntrack_data_packet", |b| {
        let mut dev = device();
        let mut t = 0u64;
        let mut buf = data.clone();
        b.iter(|| {
            t += 1;
            dev.process(Time::from_micros(t), Direction::LocalToRemote, &mut buf)
        });
    });

    // Triggering ClientHello evaluation (parse + policy lookup + verdict).
    let ch = TcpPacketSpec::new(CLIENT, 40001, SERVER, 443, TcpFlags::PSH_ACK)
        .payload(ClientHelloBuilder::new("twitter.com").build())
        .build();
    group.bench_function("sni_trigger_evaluation", |b| {
        let mut dev = device();
        let mut t = 0u64;
        let mut buf = ch.clone();
        b.iter(|| {
            t += 1;
            dev.process(Time::from_micros(t), Direction::LocalToRemote, &mut buf)
        });
    });
    group.finish();
}

/// Policy blocklist matching at registry-representative list sizes: the
/// per-ClientHello lookup the SNI engine performs against every list.
fn policy_matching(c: &mut Criterion) {
    let mut group = c.benchmark_group("policy");
    group.throughput(Throughput::Elements(1));
    for n in [1_000usize, 100_000] {
        let mut set = DomainSet::new();
        for i in 0..n {
            set.insert(format!("domain-{i}.example{}.ru", i % 7));
        }
        // A subdomain of a listed name: walks suffixes until the hit.
        let hit = format!("Www.CDN.domain-{}.example3.ru", (n / 2) | 3);
        group.bench_function(format!("match_hit_{n}"), |b| {
            b.iter(|| set.matches(black_box(&hit)));
        });
        // A deep unlisted host: the worst case walks every suffix level.
        let miss = "edge-17.pop.msk.cdn.static.unlisted-video-host.example.com";
        group.bench_function(format!("match_miss_{n}"), |b| {
            b.iter(|| set.matches(black_box(miss)));
        });
    }
    group.finish();
}

/// Connection-table churn: every packet opens a distinct flow, so the
/// table only grows and the garbage collector is exercised on the packet
/// path. Reports the amortized cost plus the per-packet tail (the
/// full-table sweep shows up as a latency spike; a bounded incremental
/// sweep must not).
fn conntrack_gc(c: &mut Criterion) {
    let mut group = c.benchmark_group("conntrack");
    group.throughput(Throughput::Elements(1));
    group.bench_function("gc_churn_distinct_flows", |b| {
        let mut dev = device();
        let mut n: u64 = 0;
        b.iter(|| {
            n += 1;
            // Distinct src addr+port per packet: up to ~2^30 unique flows.
            let src = Ipv4Addr::from(0x0a00_0000 | (n as u32 >> 14));
            let port = 1024 + (n % 50_000) as u16;
            let mut syn = TcpPacketSpec::new(src, port, SERVER, 443, TcpFlags::SYN).build();
            dev.process(Time::from_micros(n * 3), Direction::LocalToRemote, &mut syn)
        });
    });
    group.finish();

    // Tail latency of the same churn workload, measured per packet: the
    // statistic the median-reporting harness cannot show. Run twice —
    // from an empty table (tails include hash-table growth rehashes) and
    // from a provisioned one (the remaining tail is the GC bound itself).
    let total: u64 = if std::env::var("BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty()) {
        80_000
    } else {
        300_000
    };
    for (suffix, mut dev) in [
        ("", device()),
        ("_provisioned", device().with_flow_capacity(total as usize + 1)),
    ] {
        let mut samples_ns = Vec::with_capacity(total as usize);
        for n in 1..=total {
            let src = Ipv4Addr::from(0x0a00_0000 | (n as u32 >> 14));
            let port = 1024 + (n % 50_000) as u16;
            let mut syn = TcpPacketSpec::new(src, port, SERVER, 443, TcpFlags::SYN).build();
            let start = std::time::Instant::now();
            criterion::black_box(dev.process(Time::from_micros(n * 3), Direction::LocalToRemote, &mut syn));
            samples_ns.push(start.elapsed().as_nanos() as f64);
        }
        samples_ns.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let pick = |q: f64| samples_ns[((samples_ns.len() - 1) as f64 * q) as usize];
        criterion::report_custom(&format!("conntrack/gc_churn{suffix}_p99"), pick(0.99), total);
        criterion::report_custom(&format!("conntrack/gc_churn{suffix}_p999"), pick(0.999), total);
        criterion::report_custom(&format!("conntrack/gc_churn{suffix}_max"), samples_ns[samples_ns.len() - 1], total);
    }
}

/// Ablation: the resource bill of the §8 counter-circumvention patches —
/// stock 2022 device vs fully hardened, on segmented ClientHello traffic
/// (the workload hardening exists to catch).
fn hardening_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("hardening");
    let ch = ClientHelloBuilder::new("twitter.com").build();
    let segments: Vec<Vec<u8>> = ch
        .chunks(48)
        .map(|chunk| {
            TcpPacketSpec::new(CLIENT, 40100, SERVER, 443, TcpFlags::PSH_ACK)
                .payload(chunk.to_vec())
                .build()
        })
        .collect();
    for (name, hardening) in [("stock_2022", Hardening::none()), ("fully_hardened", Hardening::full())] {
        group.bench_function(name, |b| {
            b.iter_batched(
                || {
                    TspuDevice::reliable("ablate", PolicyHandle::new(Policy::example()))
                        .with_hardening(hardening)
                },
                |mut dev| {
                    for segment in &segments {
                        dev.process_owned(Time::ZERO, Direction::LocalToRemote, segment.clone());
                    }
                    dev.stats().triggers_sni1
                },
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

/// Ablation: parsing the ClientHello to locate the SNI vs naive substring
/// scanning over the whole packet — the design §5.2/Fig. 13 establishes.
fn sni_parse_vs_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("sni_extraction");
    let record = ClientHelloBuilder::new("some-blocked-domain-name.ru").padding(900).build();
    group.throughput(Throughput::Bytes(record.len() as u64));
    group.bench_function("parse_clienthello", |b| {
        b.iter(|| {
            let outcome = extract_sni(&record);
            assert!(matches!(outcome, SniOutcome::Sni(_)));
        });
    });
    // A naive DPI that substring-searches a 10k-entry blocklist sample
    // over the raw bytes (what the TSPU demonstrably does NOT do).
    let blocklist: Vec<String> = (0..10_000).map(|i| format!("domain-{i}.example.ru")).collect();
    group.bench_function("naive_substring_scan_10k", |b| {
        b.iter(|| {
            blocklist
                .iter()
                .filter(|d| {
                    record
                        .windows(d.len())
                        .any(|w| w.eq_ignore_ascii_case(d.as_bytes()))
                })
                .count()
        });
    });
    group.finish();
}

/// Fragment cache: buffering+flush throughput, and the ablation against a
/// conventional-DPI configuration (Linux-like 64-fragment limit).
fn frag_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("frag_cache");
    let payload = vec![0x55u8; 1480];
    let mut repr = Ipv4Repr::new(CLIENT, SERVER, Protocol::Udp, payload.len());
    repr.ident = 9;
    let datagram = repr.build(&payload);
    let train = frag::fragment(&datagram, 256).unwrap();
    group.throughput(Throughput::Elements(train.len() as u64));
    group.bench_function("tspu_buffer_and_flush", |b| {
        b.iter_batched(
            FragCache::default,
            |mut cache| {
                let mut out = Vec::new();
                for piece in &train {
                    out = cache.offer(Time::ZERO, piece);
                }
                assert_eq!(out.len(), train.len());
            },
            BatchSize::SmallInput,
        );
    });
    group.bench_function("conventional_reassembly", |b| {
        // Full reassembly (what GFW-class DPIs do): strictly more work
        // and memory than the TSPU's forward-without-reassembly.
        b.iter(|| {
            let whole = frag::reassemble(&train).unwrap();
            assert_eq!(whole.len(), datagram.len());
        });
    });
    group.bench_function("tspu_45_limit_discard", |b| {
        let too_many = frag::fragment_into(&datagram, 46).unwrap();
        b.iter_batched(
            || FragCache::new(FragConfig::default()),
            |mut cache| {
                for piece in &too_many {
                    let out = cache.offer(Time::ZERO, piece);
                    assert!(out.is_empty());
                }
            },
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

/// The SNI-III policer at both historical rates.
fn policer(c: &mut Criterion) {
    let mut group = c.benchmark_group("policer");
    for (name, rate, burst) in [("hard_2022_650Bps", 650u64, 1600u64), ("twitter_2021_130kbps", 16_250, 16_000)] {
        group.bench_function(name, |b| {
            let mut bucket = TokenBucket::new(rate, burst, Time::ZERO);
            let mut t = 0u64;
            b.iter(|| {
                t += 100;
                bucket.admit(Time::from_micros(t), 1460)
            });
        });
    }
    group.finish();
}

/// Simulator event throughput: one flow crossing a 10-hop path with a
/// TSPU attached — the unit of work the Fig. 9 country scan multiplies by
/// millions.
fn netsim_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("netsim");
    group.bench_function("10hop_roundtrip_with_tspu", |b| {
        let mut net = Network::new(Duration::from_micros(100));
        let a = net.add_host(CLIENT);
        let s = net.add_host(SERVER);
        let policy = PolicyHandle::new(Policy::example());
        let dev = net.add_middlebox(Box::new(TspuDevice::reliable("bench", policy)));
        let hops: Vec<Ipv4Addr> = (0..10u32).map(|i| Ipv4Addr::from(0x0a80_0000 + i)).collect();
        let mut route = Route::through(&hops);
        route.steps[8].devices.push((dev, Direction::LocalToRemote));
        net.set_route_symmetric(a, s, route);
        let mut port = 1000u16;
        b.iter(|| {
            port = port.wrapping_add(1).max(1000);
            let syn = TcpPacketSpec::new(CLIENT, port, SERVER, 443, TcpFlags::SYN).build();
            net.send_from(a, syn);
            net.run_until_idle();
            net.take_inbox(s).len()
        });
    });

    // Pure forwarding cost of a large data packet across the same path:
    // no middlebox mutates it, so this measures the per-hop copy bill.
    group.bench_function("10hop_data_forwarding_1400B", |b| {
        let mut net = Network::new(Duration::from_micros(100));
        let a = net.add_host(CLIENT);
        let s = net.add_host(SERVER);
        let policy = PolicyHandle::new(Policy::example());
        let dev = net.add_middlebox(Box::new(TspuDevice::reliable("bench-fwd", policy)));
        let hops: Vec<Ipv4Addr> = (0..10u32).map(|i| Ipv4Addr::from(0x0a90_0000 + i)).collect();
        let mut route = Route::through(&hops);
        route.steps[8].devices.push((dev, Direction::LocalToRemote));
        net.set_route_symmetric(a, s, route);
        let data = TcpPacketSpec::new(CLIENT, 41000, SERVER, 9090, TcpFlags::PSH_ACK)
            .payload(vec![0x5a; 1400])
            .build();
        b.iter(|| {
            net.send_from(a, data.clone());
            net.run_until_idle();
            net.take_inbox(s).len()
        });
    });
    group.finish();
}

/// Raw simulator event throughput: drain a large batch of flows through
/// the event loop and charge wall time to `events_processed`. Reported as
/// ns/event under `netsim/events_per_sec` (events/sec = 1e9 / ns_per_iter).
fn netsim_event_rate(_c: &mut Criterion) {
    let quick = std::env::var("BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty());
    let flows: u64 = if quick { 2_000 } else { 40_000 };
    let mut net = Network::new(Duration::from_micros(100));
    let a = net.add_host(CLIENT);
    let s = net.add_host(SERVER);
    let policy = PolicyHandle::new(Policy::example());
    let dev = net.add_middlebox(Box::new(TspuDevice::reliable("bench-events", policy)));
    let hops: Vec<Ipv4Addr> = (0..10u32).map(|i| Ipv4Addr::from(0x0aa0_0000 + i)).collect();
    let mut route = Route::through(&hops);
    route.steps[8].devices.push((dev, Direction::LocalToRemote));
    net.set_route_symmetric(a, s, route);
    let start = std::time::Instant::now();
    for n in 0..flows {
        let port = 1024 + (n % 60_000) as u16;
        let syn = TcpPacketSpec::new(CLIENT, port, SERVER, 443, TcpFlags::SYN).build();
        net.send_from(a, syn);
        net.run_until_idle();
        black_box(net.take_inbox(s).len());
    }
    let elapsed = start.elapsed().as_nanos() as f64;
    let events = net.events_processed().max(1);
    criterion::report_custom("netsim/events_per_sec", elapsed / events as f64, events);
}

/// The tentpole's headline: the §6 registry campaign sharded by the scan
/// pool, single-thread vs 8 threads over the same `SweepSpec`. One whole
/// sweep is the unit of work, so these report through `report_custom`
/// (ns_per_iter = ns per domain scenario). Verdicts are asserted equal
/// across thread counts — the speedup must not cost determinism.
///
/// `SweepSpec::run` builds the warm lab image once and forks a private
/// lab per scenario, so `registry_100k_{1,N}thread` measure the forked
/// path; the same numbers are also recorded under the explicit
/// `registry_100k_forked_{1,N}thread` ids. `registry_100k_fresh_1thread`
/// keeps the old build-per-scenario loop alive as the reference the
/// fork is measured against (bench_smoke derives
/// `sweep/forked_vs_fresh_ratio` and asserts it ≥2.5×), and
/// `lab_fork_ns` prices one `LabImage::fork` on its own.
fn sweep_scale(_c: &mut Criterion) {
    use tspu_measure::domains::test_domain;
    use tspu_measure::sweep::{scenario_port, RunOpts, ScanPool, SweepSpec};
    use tspu_registry::Universe;
    use tspu_topology::VantageLab;

    // Always the full 100k scenarios, even under BENCH_QUICK: at ~30 µs
    // per scenario the whole sweep costs seconds, and the id promises the
    // registry scale.
    let domain_count: usize = 100_000;
    let universe = Universe::generate(2022);
    // The paper-scale domain list: the real registry/tranco names cycled
    // and uniqued with a synthetic tail up to 100k scenarios.
    let domains: Vec<String> = universe
        .registry_sample
        .iter()
        .chain(universe.tranco.iter())
        .map(|d| d.name.clone())
        .chain((0..domain_count).map(|i| format!("filler-{i}.example.ru")))
        .take(domain_count)
        .collect();
    let spec = SweepSpec::from_universe(&universe, domains);

    let timed = |threads: usize| {
        let pool = ScanPool::new(threads);
        let start = std::time::Instant::now();
        let verdicts = spec.run(&pool, &RunOpts::quick()).verdicts;
        (start.elapsed().as_nanos() as f64, verdicts)
    };
    let (ns_1, verdicts_1) = timed(1);
    let (ns_8, verdicts_8) = timed(8);
    assert_eq!(verdicts_1, verdicts_8, "sweep results must not depend on thread count");
    let n = spec.len().max(1) as u64;
    criterion::report_custom("sweep/registry_100k_1thread", ns_1 / n as f64, n);
    criterion::report_custom("sweep/registry_100k_Nthread", ns_8 / n as f64, n);
    criterion::report_custom("sweep/registry_100k_forked_1thread", ns_1 / n as f64, n);
    criterion::report_custom("sweep/registry_100k_forked_Nthread", ns_8 / n as f64, n);

    // The reference the fork replaced: one fresh builder().build() per
    // scenario, single-thread, same verdicts (asserted) — what
    // `registry_100k_1thread` measured before lab images existed.
    let pool = ScanPool::single_thread();
    let start = std::time::Instant::now();
    let fresh = pool.run(&spec.domains, &RunOpts::quick(), |index, domain| {
        let mut lab = VantageLab::builder().policy(spec.policy.clone()).build();
        test_domain(&mut lab, domain, scenario_port(index))
    });
    let fresh_ns = start.elapsed().as_nanos() as f64;
    assert_eq!(fresh.results, verdicts_1, "forked sweep must match build-per-scenario sweep");
    criterion::report_custom("sweep/registry_100k_fresh_1thread", fresh_ns / n as f64, n);

    // One fork, priced alone: the warm image amortizes construction, so
    // this is the whole per-scenario setup bill.
    let image = VantageLab::builder().policy(spec.policy.clone()).image();
    let fork_iters = 20_000u64;
    let start = std::time::Instant::now();
    for i in 0..fork_iters {
        black_box(image.fork(i as usize));
    }
    criterion::report_custom(
        "sweep/lab_fork_ns",
        start.elapsed().as_nanos() as f64 / fork_iters as f64,
        fork_iters,
    );
}

/// Generated-topology scale records: graph build cost per AS (5000-AS
/// headline graph), forking that image, route flips through the interned
/// arena, tomography probe cost, and the 1k-domain registry sweep at
/// three graph sizes. Sweep and build records always run at the id's
/// promised scale; only iteration counts shrink under `BENCH_QUICK`.
fn topo_scale(_c: &mut Criterion) {
    use tspu_measure::sweep::{RunOpts, ScanPool, SweepSpec};
    use tspu_measure::{LocalizeSpec, TomographyConfig};
    use tspu_registry::Universe;
    use tspu_topology::{policy_from_universe, GenParams, TopologySpec, VantageLab};

    let quick = std::env::var("BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty());
    let universe = Universe::generate(2022);
    let policy = policy_from_universe(&universe, false, true);

    // Building the 5000-AS graph (hosts, interned routes, devices),
    // amortized per AS.
    let params_5k = GenParams::new(5000, 5000);
    let start = std::time::Instant::now();
    let image = VantageLab::builder()
        .policy(policy.clone())
        .topology(TopologySpec::Generated(params_5k))
        .image();
    criterion::report_custom("topo/gen_ns_per_as", start.elapsed().as_nanos() as f64 / 5_000.0, 5_000);

    // Forking the 5000-AS image — the per-scenario bill a generated
    // sweep or tomography cell pays.
    let forks = if quick { 8 } else { 64 };
    let start = std::time::Instant::now();
    for i in 0..forks {
        black_box(image.fork(i));
    }
    criterion::report_custom(
        "topo/fork_ns_5000as",
        start.elapsed().as_nanos() as f64 / forks as f64,
        forks as u64,
    );

    // Route flips through the interned arena: a dense schedule (1 ms
    // apart) armed once, then drained by the engine.
    let flips = if quick { 200 } else { 2_000 };
    let churny = GenParams::new(11, 200).churn(flips, Duration::from_millis(1));
    let mut lab = VantageLab::builder()
        .policy(policy.clone())
        .topology(TopologySpec::Generated(churny))
        .build();
    lab.arm_route_churn();
    let start = std::time::Instant::now();
    lab.net.run_for(Duration::from_millis(flips as u64 + 10));
    criterion::report_custom(
        "topo/route_flip_ns",
        start.elapsed().as_nanos() as f64 / flips as f64,
        flips as u64,
    );

    // Tomography: wall microseconds per end-to-end probe, churn warps
    // and the TTL cross-check included.
    let cells = if quick { 2 } else { 8 };
    let config = TomographyConfig::new(GenParams::new(7, 160)).cells(cells);
    let pool = ScanPool::new(8);
    let start = std::time::Instant::now();
    let run = LocalizeSpec::tomography(policy, config)
        .run(&pool, &RunOpts::quick())
        .tomography
        .expect("tomography run");
    let elapsed_us = start.elapsed().as_nanos() as f64 / 1000.0;
    assert!(run.named_fraction() >= 0.95, "tomography lost the ground truth");
    let probes: usize = run.cells.iter().map(|c| c.probes.len()).sum();
    criterion::report_custom("tomography/us_per_probe", elapsed_us / probes.max(1) as f64, probes as u64);

    // The 1k-domain registry sweep at three generated graph sizes: the
    // scan cost is a function of the domain list, not the graph.
    let domains: Vec<String> =
        universe.registry_sample.iter().take(1_000).map(|d| d.name.clone()).collect();
    for ases in [100usize, 1_000, 5_000] {
        let spec = SweepSpec::from_universe(&universe, domains.clone())
            .with_topology(TopologySpec::Generated(GenParams::new(ases as u64, ases)));
        let start = std::time::Instant::now();
        let verdicts = spec.run(&pool, &RunOpts::quick()).verdicts;
        let ns = start.elapsed().as_nanos() as f64;
        assert_eq!(verdicts.len(), 1_000, "{ases}-AS sweep dropped scenarios");
        criterion::report_custom(&format!("sweep/registry_1k_{ases}as"), ns / 1_000.0, 1_000);
    }
}

/// Registry churn: the incremental-update claim in numbers. Applying a
/// daily-sized delta to a 100k-domain compiled policy costs time
/// proportional to the delta; recompiling the blocklist from scratch
/// costs time proportional to the registry (bench_smoke derives the
/// ≥50× `churn/delta_vs_recompile_ratio` record from the pair). The
/// end-to-end record replays a slice of the 2022 escalation and reports
/// the TSPU's median blocking-convergence latency in virtual
/// milliseconds — the centralized half of the paper's update-lag
/// contrast.
fn churn_convergence(_c: &mut Criterion) {
    use tspu_core::PolicyDelta;
    use tspu_measure::{ChurnCampaign, ScanPool};
    use tspu_registry::Universe;

    let mut policy = Policy::permissive();
    policy.sni_rst = DomainSet::from_names((0..100_000).map(|i| format!("blocked-{i}.example.ru")));

    // 256 distinct daily-sized deltas (32 additions + a delisting),
    // applied to the live policy — the steady-state churn path.
    let delta_iters = 256u64;
    let deltas: Vec<PolicyDelta> = (0..delta_iters)
        .map(|k| PolicyDelta {
            add_rst: (0..32).map(|i| format!("fresh-{k}-{i}.example.net")).collect(),
            remove_rst: if k > 0 {
                vec![format!("fresh-{}-0.example.net", k - 1)]
            } else {
                Vec::new()
            },
            ..PolicyDelta::default()
        })
        .collect();
    let start = std::time::Instant::now();
    for delta in &deltas {
        policy.apply_delta(black_box(delta));
    }
    let delta_ns = start.elapsed().as_nanos() as f64 / delta_iters as f64;
    criterion::report_custom("churn/delta_apply_ns", delta_ns, delta_iters);

    // The alternative a delta replaces: recompiling the whole blocklist.
    let names: Vec<String> = policy.sni_rst.iter().map(str::to_string).collect();
    let quick = std::env::var("BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty());
    let recompile_iters: u64 = if quick { 3 } else { 20 };
    let start = std::time::Instant::now();
    for _ in 0..recompile_iters {
        black_box(DomainSet::from_names(names.iter().cloned()));
    }
    let recompile_ns = start.elapsed().as_nanos() as f64 / recompile_iters as f64;
    criterion::report_custom("churn/policy_recompile_ns", recompile_ns, recompile_iters);

    // End-to-end: virtual-time convergence of a replayed escalation slice.
    let universe = Universe::generate(5);
    let mut campaign = ChurnCampaign::escalation_2022();
    campaign.churn.end_day = campaign.churn.start_day + 10;
    let report = campaign.run(&universe, &ScanPool::new(8));
    let cells = report.cells.len().max(1) as u64;
    criterion::report_custom(
        "churn/convergence_virtual_ms",
        report.median_convergence_us() as f64 / 1000.0,
        cells,
    );
}

/// Timer-wheel scheduling at population depth: steady-state push+pop with
/// tens of thousands of pending events, the regime the wheel's O(1)
/// buckets exist for (a binary heap pays O(log n) per op here).
fn wheel_schedule(_c: &mut Criterion) {
    use tspu_netsim::TimerWheel;

    let depth: u64 = 50_000;
    let mut wheel: TimerWheel<u64> = TimerWheel::new();
    // Spread the standing population over a few milliseconds so both the
    // near-future buckets and the overflow heap stay exercised.
    for i in 0..depth {
        wheel.push(Time::from_micros(1 + i % 8_192), i);
    }
    let iters: u64 = 2_000_000;
    let start = std::time::Instant::now();
    for _ in 0..iters {
        let (now, item) = wheel.pop().expect("standing population");
        // Reschedule relative to the popped time: keeps depth constant
        // and the timestamp stream monotone, like re-armed flow timers.
        wheel.push(now + Duration::from_micros(1 + (item & 4_095)), item);
        black_box(item);
    }
    criterion::report_custom(
        "netsim/wheel_schedule_ns",
        start.elapsed().as_nanos() as f64 / iters as f64,
        iters,
    );
}

/// The million-flow soak: population-scale load through one sharded-table
/// device. Reports the headline sustained packets/sec, wall latency
/// percentiles per scheduler event, and conntrack bytes per tracked flow.
/// Under BENCH_QUICK the population shrinks (like the gc_churn ids) but
/// the table stays provisioned for a million flows.
fn load_engine(_c: &mut Criterion) {
    use tspu_load::gen::LoadProfile;
    use tspu_load::soak::{build_lab, SoakConfig};

    let quick = std::env::var("BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty());
    let flows: usize = if quick { 100_000 } else { 1_000_000 };
    let lab = build_lab(SoakConfig {
        profile: LoadProfile {
            flows,
            clients: 64,
            universe_domains: 100_000,
            span: Duration::from_secs(240),
            ..LoadProfile::default()
        },
        flow_capacity: 1_048_576,
        shards: Some(16),
        slice: Duration::from_millis(200),
    });
    let report = lab.run();
    assert_eq!(report.stats.flows_completed, flows as u64, "population did not drain");
    assert_eq!(report.stats.oracle_mismatches, 0, "enforcement wrong under load");
    assert!(report.gc_within_budget(), "conntrack GC over budget");

    let packets = report.device_packets;
    // Value is packets/sec (higher is better); bench_smoke asserts the
    // floor directly on the value.
    criterion::report_custom("load/sustained_pps_1m_flows", report.sustained_pps, packets);
    criterion::report_custom("load/p50_hop_ns_1m_flows", report.p50_event_ns as f64, report.events);
    criterion::report_custom("load/p99_hop_ns_1m_flows", report.p99_event_ns as f64, report.events);
    criterion::report_custom(
        "load/p999_hop_ns_1m_flows",
        report.p999_event_ns as f64,
        report.events,
    );
    criterion::report_custom(
        "load/bytes_per_flow",
        report.bytes_per_flow,
        report.peak_tracked_flows as u64,
    );
}

/// The three-country differential campaign (DESIGN.md §12), priced per
/// (profile × domain) cell: fork the profile's warm lab image, run the
/// TLS + HTTP + DNS volleys, classify. The value is *microseconds* per
/// cell (hence `_us_`). Oracle auditing is off here — the campaign prices
/// the probe path; `profiles/differential_3country_audited_us_per_cell`
/// prices the same cells with capture + per-profile oracle replay on, so
/// the audit overhead stays visible as its own record.
fn profiles_differential(_c: &mut Criterion) {
    use tspu_measure::{DifferentialCampaign, RunOpts, ScanPool};
    use tspu_registry::Universe;
    use tspu_topology::policy_from_universe;

    let quick = std::env::var("BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty());
    let universe = Universe::generate(3);
    let policy = policy_from_universe(&universe, false, true);
    let mut domains: Vec<String> = ["meduza.io", "twitter.com", "nordvpn.com", "rust-lang.org"]
        .into_iter()
        .map(String::from)
        .collect();
    let filler = if quick { 8 } else { 60 };
    domains.extend((0..filler).map(|i| format!("cell-{i}.example")));

    let mut campaign = DifferentialCampaign::three_country(policy, domains);
    campaign.check_oracle = false;
    let cells = campaign.len().max(1) as u64;
    let pool = ScanPool::new(8);

    let start = std::time::Instant::now();
    let (matrix, _) = campaign.run(&pool, &RunOpts::quick());
    let plain_us = start.elapsed().as_nanos() as f64 / 1000.0 / cells as f64;
    assert_eq!(matrix.cells.len(), cells as usize, "campaign dropped cells");
    criterion::report_custom("profiles/differential_3country_us_per_cell", plain_us, cells);

    campaign.check_oracle = true;
    let start = std::time::Instant::now();
    let (matrix, _) = campaign.run(&pool, &RunOpts::quick());
    let audited_us = start.elapsed().as_nanos() as f64 / 1000.0 / cells as f64;
    assert!(matrix.oracle_clean(), "{:?}", matrix.oracle_violations());
    criterion::report_custom(
        "profiles/differential_3country_audited_us_per_cell",
        audited_us,
        cells,
    );
}

criterion_group!(
    benches,
    conntrack_throughput,
    policy_matching,
    conntrack_gc,
    hardening_cost,
    sni_parse_vs_scan,
    frag_cache,
    policer,
    netsim_scale,
    netsim_event_rate,
    wheel_schedule,
    sweep_scale,
    topo_scale,
    churn_convergence,
    load_engine,
    profiles_differential
);
criterion_main!(benches);
