//! # tspu-circumvent
//!
//! The circumvention strategies of paper §8 and a campaign that evaluates
//! each against every blocking mechanism and both deployment shapes
//! (symmetric-only, and symmetric + upstream-only), one forked lab per
//! evaluation.
//!
//! Server-side strategies need no client modification:
//! * **small advertised window** — the SYN/ACK announces a tiny window, so
//!   an unmodified client's stack segments the ClientHello (brdgrd-style);
//! * **split handshake** — the server answers a SYN with a bare SYN,
//!   tricking the TSPU's role inference (a Fig. 4 "green" sequence);
//! * **combined** — both at once;
//! * **delayed response** — the server sits out the TSPU's short SYN-SENT
//!   timeout (60 s) before answering, so the tracked flow expires and the
//!   connection looks server-initiated.
//!
//! Client-side strategies modify the client stack:
//! * **TCP segmentation** of the ClientHello;
//! * **IP fragmentation** of the ClientHello packet;
//! * **padding extension** — inflates the ClientHello past one MSS;
//! * **record prepend** — an innocuous TLS record before the ClientHello;
//! * **TTL-limited decoys** — found *mitigated* by the paper (§8), and
//!   mitigated here: the inspection window covers later packets;
//! * **QUIC version change** — draft-29 / quicping escape the version-1
//!   fingerprint.

use std::time::Duration;

use tspu_core::Hardening;
use tspu_measure::{RunOpts, ScanPool};
use tspu_registry::Universe;
use tspu_stack::client::SendShaping;
use tspu_stack::server::ReassemblingApp;
use tspu_stack::{
    ClientOutcome, PortBehavior, QuicClient, ServerApp, ServerPort, TcpClient, TcpClientConfig,
};
use tspu_topology::{policy_from_universe, LabImage, VantageLab};
use tspu_wire::quic::QuicVersion;
use tspu_wire::tls::{change_cipher_spec_record, ClientHelloBuilder};

/// A circumvention strategy under evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Strategy {
    /// No strategy: the baseline that must fail for blocked domains.
    None,
    ServerSmallWindow(u16),
    ServerSplitHandshake,
    ServerCombined(u16),
    ServerDelayedResponse(Duration),
    ClientSegmentation(usize),
    ClientIpFragmentation(usize),
    ClientPadding(usize),
    ClientPrependRecord,
    ClientTtlDecoy(u8),
    QuicVersion(QuicVersion),
}

impl Strategy {
    /// Human-readable name.
    pub fn name(&self) -> String {
        match self {
            Strategy::None => "baseline".into(),
            Strategy::ServerSmallWindow(w) => format!("server: small window ({w})"),
            Strategy::ServerSplitHandshake => "server: split handshake".into(),
            Strategy::ServerCombined(w) => format!("server: split + window ({w})"),
            Strategy::ServerDelayedResponse(d) => format!("server: delay {}s", d.as_secs()),
            Strategy::ClientSegmentation(n) => format!("client: TCP segmentation ({n})"),
            Strategy::ClientIpFragmentation(n) => format!("client: IP fragmentation ({n})"),
            Strategy::ClientPadding(n) => format!("client: padding extension ({n})"),
            Strategy::ClientPrependRecord => "client: prepend TLS record".into(),
            Strategy::ClientTtlDecoy(ttl) => format!("client: TTL-{ttl} decoys [mitigated]"),
            Strategy::QuicVersion(v) => format!("client: QUIC version {v:?}"),
        }
    }

    /// True for strategies deployable without touching the client.
    pub fn server_side(&self) -> bool {
        matches!(
            self,
            Strategy::ServerSmallWindow(_)
                | Strategy::ServerSplitHandshake
                | Strategy::ServerCombined(_)
                | Strategy::ServerDelayedResponse(_)
        )
    }
}

/// The censored-resource classes a strategy is evaluated against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// A domain blocked by SNI-I only.
    Sni1,
    /// An out-registry SNI-II domain.
    Sni2,
    /// A domain on both SNI-I and the SNI-IV backup list.
    Sni4,
    /// QUIC to an uncensored domain (the protocol itself is the target).
    Quic,
}

impl Target {
    /// All four targets.
    pub const ALL: [Target; 4] = [Target::Sni1, Target::Sni2, Target::Sni4, Target::Quic];

    /// The domain representing this class in the evaluation.
    pub fn domain(&self) -> &'static str {
        match self {
            Target::Sni1 => "meduza.io",
            Target::Sni2 => "play.google.com",
            Target::Sni4 => "twitter.com",
            Target::Quic => "example.org",
        }
    }

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            Target::Sni1 => "SNI-I",
            Target::Sni2 => "SNI-II",
            Target::Sni4 => "SNI-IV",
            Target::Quic => "QUIC",
        }
    }
}

/// Size of the page the evaluation server returns.
const PAGE_BYTES: usize = 16_000;

/// Source port of every evaluation's client: each runs on its own fork.
const CLIENT_PORT: u16 = 20_001;

/// Evaluates `strategy` against `target` from the named vantage on `lab`,
/// a fresh fork of a Fig. 1 image. Returns true when the client obtained
/// response data — circumvention succeeded.
pub fn evaluate(lab: &mut VantageLab, strategy: Strategy, target: Target, vantage: &str) -> bool {
    let (v_host, v_addr) = {
        let v = lab.vantage(vantage);
        (v.host, v.addr)
    };
    let us_addr = lab.us_main_addr;
    let us_host = lab.us_main;

    if target == Target::Quic {
        // Only the version change applies to the QUIC filter; every other
        // strategy shows the v1 block.
        let version = match strategy {
            Strategy::QuicVersion(version) => version,
            _ => QuicVersion::V1,
        };
        lab.net.set_app(us_host, Box::new(ServerApp::new(us_addr).with_udp_echo(443)));
        let (app, replies, packets) = QuicClient::start(v_addr, CLIENT_PORT, us_addr, version, 3);
        lab.net.set_app(v_host, Box::new(app));
        for packet in packets {
            lab.net.send_from(v_host, packet);
        }
        lab.net.run_until_idle();
        return replies.get() >= 3;
    }

    // Configure the server per strategy. The response is a full
    // "page": big enough that SNI-II's 5–8-packet allowance visibly
    // truncates it (a bare ServerHello would sneak through).
    let behavior = PortBehavior::TlsServerPage(PAGE_BYTES);
    let server_port = match strategy {
        Strategy::ServerSmallWindow(w) => {
            ServerPort::new(443, behavior).small_window(w)
        }
        Strategy::ServerSplitHandshake => {
            ServerPort::new(443, behavior).split_handshake()
        }
        Strategy::ServerCombined(w) => ServerPort::new(443, behavior)
            .split_handshake()
            .small_window(w),
        Strategy::ServerDelayedResponse(d) => {
            ServerPort::new(443, behavior).delayed(d)
        }
        _ => ServerPort::new(443, behavior),
    };
    // Real servers reassemble fragmented IP packets (the TSPU does
    // not — that asymmetry is the point of the fragmentation
    // strategies).
    lab.net.set_app(
        us_host,
        Box::new(ReassemblingApp::new(ServerApp::new(us_addr).with_port(server_port))),
    );

    // Configure the client per strategy.
    let mut builder = ClientHelloBuilder::new(target.domain());
    if let Strategy::ClientPadding(n) = strategy {
        builder = builder.padding(n);
    }
    let mut request = builder.build();
    if strategy == Strategy::ClientPrependRecord {
        let mut with_record = change_cipher_spec_record();
        with_record.extend_from_slice(&request);
        request = with_record;
    }
    let mut shaping = SendShaping::default();
    match strategy {
        Strategy::ClientSegmentation(n) => shaping.segment_bytes = Some(n),
        Strategy::ClientIpFragmentation(n) => shaping.ip_fragment_bytes = Some(n),
        Strategy::ClientTtlDecoy(ttl) => {
            shaping.decoys = vec![(ttl, vec![0xde; 120]), (ttl, vec![0xad; 120])];
        }
        Strategy::ClientPadding(_) => {
            // Padding inflates the record past one MSS so the stack
            // segments naturally.
            shaping.segment_bytes = Some(1460.min(request.len() - 1));
        }
        _ => {}
    }

    let mut config = TcpClientConfig::new(v_addr, CLIENT_PORT, us_addr, 443, request);
    config.shaping = shaping;
    let (app, report, syn) = TcpClient::start(config);
    lab.net.set_app(v_host, Box::new(app));
    lab.net.send_from(v_host, syn);
    lab.net.run_until_idle();
    // Success means the whole page arrived, not just a first packet:
    // SNI-II lets a handful of packets through before the symmetric
    // drops set in.
    report.outcome() == ClientOutcome::GotData
        && report.read().bytes_received >= PAGE_BYTES * 3 / 4
}

/// One row of the evaluation matrix.
#[derive(Debug, Clone)]
pub struct MatrixRow {
    pub strategy: String,
    pub server_side: bool,
    /// (target label, succeeded on symmetric-only, succeeded with an
    /// additional upstream-only device on path).
    pub outcomes: Vec<(&'static str, bool, bool)>,
}

/// Every strategy the paper discusses, in evaluation order.
pub fn all_strategies() -> Vec<Strategy> {
    vec![
        Strategy::None,
        Strategy::ServerSmallWindow(64),
        Strategy::ServerSplitHandshake,
        Strategy::ServerCombined(64),
        Strategy::ServerDelayedResponse(Duration::from_secs(61)),
        Strategy::ClientSegmentation(16),
        Strategy::ClientIpFragmentation(64),
        Strategy::ClientPadding(1400),
        Strategy::ClientPrependRecord,
        Strategy::ClientTtlDecoy(1),
        Strategy::QuicVersion(QuicVersion::Draft29),
        Strategy::QuicVersion(QuicVersion::QuicPing),
    ]
}

/// The two deployment shapes each strategy meets: ER-Telecom's
/// symmetric-only path, then Rostelecom's with an upstream-only second
/// device.
const VANTAGES: [&str; 2] = ["ER-Telecom", "Rostelecom"];

/// TCP strategies are evaluated on TCP targets, QUIC version changes on
/// the QUIC target, and the baseline on every target.
fn relevant(strategy: Strategy, target: Target) -> bool {
    match (strategy, target) {
        (Strategy::QuicVersion(_), t) => t == Target::Quic,
        (Strategy::None, _) => true,
        (_, Target::Quic) => false,
        _ => true,
    }
}

/// A Fig. 1 image under `universe`'s post-March-4 policy (QUIC filter on,
/// throttling off: the policy §8 was written under), every device at
/// `hardening`. No resolvers: an evaluation never asks one, and each fork
/// would copy them.
fn image(universe: &Universe, hardening: Hardening) -> LabImage {
    let policy = policy_from_universe(universe, false, true);
    let mut lab = VantageLab::builder().policy(policy).build();
    let devices: Vec<_> = lab
        .vantages
        .iter()
        .flat_map(|v| std::iter::once(v.sym_device).chain(v.upstream_devices.iter().copied()))
        .collect();
    for device in devices {
        lab.net.middlebox_mut(device).set_hardening(hardening);
    }
    lab.snapshot()
}

/// Runs the full §8 matrix on the campaign kernel: one cell per (strategy,
/// relevant target, vantage of `VANTAGES`), each on a fork of a Fig. 1
/// image whose devices run at `hardening` — [`Hardening::none`] for the
/// 2022 TSPU, [`Hardening::full`] for §8's predicted future ("the TSPU
/// could easily patch these evasion strategies").
pub fn evaluate_matrix(universe: &Universe, hardening: Hardening, pool: &ScanPool) -> Vec<MatrixRow> {
    let strategies = all_strategies();
    let cells: Vec<(usize, Target, &str)> = strategies
        .iter()
        .enumerate()
        .flat_map(|(i, &strategy)| {
            Target::ALL
                .into_iter()
                .filter(move |&target| relevant(strategy, target))
                .flat_map(move |target| VANTAGES.map(|vantage| (i, target, vantage)))
        })
        .collect();
    let image = image(universe, hardening);
    let evaded = pool
        .run_cells(&RunOpts::quick(), &cells, |_| &image, |lab, _, &(i, target, vantage)| {
            evaluate(lab, strategies[i], target, vantage)
        })
        .cells;

    let mut rows: Vec<MatrixRow> = strategies
        .iter()
        .map(|s| MatrixRow { strategy: s.name(), server_side: s.server_side(), outcomes: Vec::new() })
        .collect();
    for (pair, evaded) in cells.chunks(VANTAGES.len()).zip(evaded.chunks(VANTAGES.len())) {
        let (i, target, _) = pair[0];
        rows[i].outcomes.push((target.label(), evaded[0], evaded[1]));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Evaluates one cell on a fresh fork, as the matrix does.
    fn evades(hardening: Hardening, strategy: Strategy, target: Target, vantage: &str) -> bool {
        let mut lab = image(&Universe::generate(3), hardening).fork(0);
        evaluate(&mut lab, strategy, target, vantage)
    }

    fn evades_2022(strategy: Strategy, target: Target, vantage: &str) -> bool {
        evades(Hardening::none(), strategy, target, vantage)
    }

    #[test]
    fn baseline_blocked_everywhere() {
        for target in Target::ALL {
            assert!(!evades_2022(Strategy::None, target, "ER-Telecom"), "{target:?}");
        }
        // And an uncensored domain loads fine (harness sanity).
        let mut lab = image(&Universe::generate(3), Hardening::none()).fork(0);
        let v = lab.vantage("ER-Telecom");
        let (v_host, v_addr) = (v.host, v.addr);
        let us = lab.us_main;
        let us_addr = lab.us_main_addr;
        lab.net.set_app(us, Box::new(ServerApp::https_site(us_addr)));
        let (app, report, syn) = TcpClient::start(TcpClientConfig::new(
            v_addr,
            CLIENT_PORT,
            us_addr,
            443,
            ClientHelloBuilder::new("rust-lang.org").build(),
        ));
        lab.net.set_app(v_host, Box::new(app));
        lab.net.send_from(v_host, syn);
        lab.net.run_until_idle();
        assert_eq!(report.outcome(), ClientOutcome::GotData);
    }

    #[test]
    fn split_handshake_beats_sni1_not_sni4() {
        assert!(evades_2022(Strategy::ServerSplitHandshake, Target::Sni1, "ER-Telecom"));
        assert!(!evades_2022(Strategy::ServerSplitHandshake, Target::Sni4, "ER-Telecom"));
    }

    #[test]
    fn small_window_beats_all_sni_mechanisms() {
        let window = Strategy::ServerSmallWindow(64);
        for target in [Target::Sni1, Target::Sni2, Target::Sni4] {
            assert!(evades_2022(window, target, "ER-Telecom"), "{target:?}");
            assert!(evades_2022(window, target, "Rostelecom"), "{target:?} upstream");
        }
    }

    #[test]
    fn client_segmentation_and_fragmentation_evade() {
        for strategy in [
            Strategy::ClientSegmentation(16),
            Strategy::ClientIpFragmentation(64),
            Strategy::ClientPrependRecord,
        ] {
            for target in [Target::Sni1, Target::Sni2, Target::Sni4] {
                assert!(evades_2022(strategy, target, "ER-Telecom"), "{strategy:?} {target:?}");
            }
        }
    }

    #[test]
    fn ttl_decoys_are_mitigated() {
        // §8: "sending TTL-limited random-looking packets no longer
        // prevents the following ClientHello from triggering".
        assert!(!evades_2022(Strategy::ClientTtlDecoy(1), Target::Sni1, "ER-Telecom"));
    }

    #[test]
    fn delayed_response_waits_out_syn_sent() {
        assert!(evades_2022(
            Strategy::ServerDelayedResponse(Duration::from_secs(61)),
            Target::Sni1,
            "ER-Telecom"
        ));
        // Too short a delay does not help.
        assert!(!evades_2022(
            Strategy::ServerDelayedResponse(Duration::from_secs(30)),
            Target::Sni1,
            "ER-Telecom"
        ));
    }

    #[test]
    fn hardened_devices_close_the_evasions() {
        // §8's prediction, end to end: the patched TSPU defeats every
        // SNI-layer strategy (the QUIC version change survives — patching
        // it needs a new fingerprint, not more resources).
        for strategy in [
            Strategy::ServerSmallWindow(64),
            Strategy::ServerSplitHandshake,
            Strategy::ClientSegmentation(16),
            Strategy::ClientIpFragmentation(64),
            Strategy::ClientPadding(1400),
            Strategy::ClientPrependRecord,
        ] {
            assert!(
                !evades(Hardening::full(), strategy, Target::Sni1, "ER-Telecom"),
                "{strategy:?} must be defeated by full hardening"
            );
        }
        // Version-change still works: the fingerprint is version-keyed.
        let draft29 = Strategy::QuicVersion(QuicVersion::Draft29);
        assert!(evades(Hardening::full(), draft29, Target::Quic, "ER-Telecom"));
    }

    #[test]
    fn quic_version_change_evades() {
        assert!(!evades_2022(Strategy::None, Target::Quic, "ER-Telecom"), "v1 blocked");
        assert!(evades_2022(Strategy::QuicVersion(QuicVersion::Draft29), Target::Quic, "ER-Telecom"));
        assert!(evades_2022(Strategy::QuicVersion(QuicVersion::QuicPing), Target::Quic, "ER-Telecom"));
    }

    #[test]
    fn matrix_rows_pair_both_vantages_per_relevant_target() {
        let rows = evaluate_matrix(&Universe::generate(3), Hardening::none(), &ScanPool::new(2));
        assert_eq!(rows.len(), all_strategies().len());
        for (row, strategy) in rows.iter().zip(all_strategies()) {
            let targets: Vec<&str> = row.outcomes.iter().map(|o| o.0).collect();
            let relevant = Target::ALL.into_iter().filter(|&t| relevant(strategy, t));
            let expected: Vec<&str> = relevant.map(|t| t.label()).collect();
            assert_eq!(targets, expected, "{}", row.strategy);
        }
        // The baseline is blocked on both deployment shapes.
        assert!(rows[0].outcomes.iter().all(|&(_, sym, upstream)| !sym && !upstream));
    }
}
