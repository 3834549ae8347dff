//! A byte-level transcript of the censor engine: one device per shipped
//! profile, unreliable dice (`FailureProfile::uniform(0.3)`) and a fixed
//! seed, driven through `tspu_spec::transcript_ops`, a fixed op list that
//! reaches every trigger, every verdict kind, a policy delta under live
//! verdicts, a restart and the lapse of every residual window. Every
//! emitted packet, the final `DeviceStats` and each flow's ledger are
//! rendered and pinned byte for byte in `tests/golden/device_transcript.txt`;
//! `TSPU_BLESS=1 cargo test -p tspu-core --test device_transcript` rewrites
//! it after an intended change. Under `tspu` the same list is also played
//! against `spec::Device` (`crates/spec/tests/device.rs`).

use std::fmt::Write as _;

use tspu_core::{CensorProfile, DEFAULT_LEDGER_CAP};
use tspu_netsim::{Direction, Middlebox};
use tspu_spec::{transcript_ops, transcript_setup, Op};
use tspu_wire::ipv4::{Ipv4Packet, Protocol};
use tspu_wire::tcp::TcpSegment;

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// One emitted packet: length, TCP flags when it is an unfragmented
/// segment, and a digest of its bytes.
fn describe(packet: &[u8]) -> String {
    let flags = Ipv4Packet::new_checked(packet)
        .ok()
        .filter(|ip| ip.protocol() == Protocol::Tcp && !ip.is_fragment())
        .and_then(|ip| TcpSegment::new_checked(ip.payload()).ok().map(|s| format!(" {:?}", s.flags())))
        .unwrap_or_default();
    format!("{}B{flags} {:016x}", packet.len(), fnv(packet))
}

/// `ops` through the engine under `profile`, rendered.
fn render(profile: CensorProfile, ops: &[Op]) -> String {
    let mut dev = transcript_setup().engine(profile.name, ops).with_censor_profile(profile);
    let mut out = String::new();
    // One packet per flow touched, in first-touch order, for the ledger.
    let mut flows: Vec<(&str, &[u8])> = Vec::new();
    for op in ops {
        match op {
            Op::Note(line) => {
                let _ = writeln!(out, "         -- {line}");
            }
            Op::Send(s) => {
                if !flows.iter().any(|(name, _)| *name == s.flow) {
                    flows.push((&s.flow, &s.packet));
                }
                let emitted = dev.process_owned(s.at, s.direction, s.packet.clone());
                let verdict = match emitted.as_slice() {
                    [] => "drop".to_string(),
                    [only] if *only == s.packet => "pass".to_string(),
                    many => many.iter().map(|p| describe(p)).collect::<Vec<_>>().join(", "),
                };
                let arrow = if s.direction == Direction::LocalToRemote { '>' } else { '<' };
                let at_ms = s.at.as_micros() / 1_000;
                let _ = writeln!(out, "{at_ms:>8} {arrow} {:<14} {:<12} {verdict}", s.flow, s.what);
            }
            Op::Delta(delta) => dev.policy().apply_delta(delta),
            Op::Restart(_) => {}
        }
    }
    let _ = writeln!(out, "stats {:?}", dev.stats());
    // A flow's ledger interleaves the device-wide events (epochs,
    // restarts, GC sweeps); those are rendered once, after the flows.
    let mut device_wide = Vec::new();
    for (flow, packet) in flows {
        let _ = writeln!(out, "ledger {flow}");
        for line in dev.ledger_for_packet(packet, DEFAULT_LEDGER_CAP) {
            if line.contains(" flow=") {
                let _ = writeln!(out, "  {line}");
            } else if !device_wide.contains(&line) {
                device_wide.push(line);
            }
        }
    }
    let _ = writeln!(out, "ledger device");
    for line in device_wide {
        let _ = writeln!(out, "  {line}");
    }
    out
}

#[test]
fn every_profile_replays_its_pinned_transcript() {
    let ops = transcript_ops();
    let mut rendered = String::new();
    for profile in [
        CensorProfile::tspu(),
        CensorProfile::turkmenistan(),
        CensorProfile::india(),
        CensorProfile::legacy_isp(),
    ] {
        let _ = writeln!(rendered, "== {}", profile.name);
        rendered.push_str(&render(profile, &ops));
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/device_transcript.txt");
    if std::env::var_os("TSPU_BLESS").is_some() {
        std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden")).expect("golden dir");
        std::fs::write(path, &rendered).expect("write golden");
    }
    let expected = std::fs::read_to_string(path).expect("golden file");
    assert!(rendered == expected, "{path} differs from this run's transcript:\n{rendered}");
}
