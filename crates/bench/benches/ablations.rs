//! Criterion ablations with no successor rung or workload in `benchmark/`:
//! the design-choice controls DESIGN.md §4 cites (stock-vs-hardened
//! device, ClientHello parse vs substring scan, forward-without-reassembly
//! vs full reassembly, the SNI-III policer) and the conntrack GC tail
//! under flow churn. Single-layer numbers — end-to-end claims go through
//! `benchmark --compare`.

use std::net::Ipv4Addr;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use tspu_core::frag_cache::FragCache;
use tspu_core::{Hardening, Policy, PolicyHandle, TokenBucket, TspuDevice};
use tspu_netsim::{Direction, Middlebox, Time};
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
    let total: u64 = 300_000;
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
            std::hint::black_box(dev.process(Time::from_micros(n * 3), Direction::LocalToRemote, &mut syn));
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
                || device().with_hardening(hardening),
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

/// Ablation: the TSPU's buffer-and-forward fragment cache vs the full
/// reassembly a conventional DPI performs (§5.3.1).
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

criterion_group!(benches, conntrack_gc, hardening_cost, sni_parse_vs_scan, frag_cache, policer);
criterion_main!(benches);
