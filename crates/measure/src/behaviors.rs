//! Behavior classification and Fig. 2 trace generation: given a scripted
//! exchange, decide which of the paper's blocking behaviors (if any) was
//! observed.

use std::time::Duration;

use tspu_netsim::Network;
use tspu_wire::tcp::TcpFlags;

use crate::harness::{run_script, ProbeSide, ScriptEnd, ScriptStep};

/// The observable outcomes of a trigger exchange (§5.2's behaviors, as
/// seen from the endpoints).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObservedBehavior {
    /// No interference: everything arrived unmodified.
    Pass,
    /// SNI-I / IP-based signature: response arrived as RST/ACK with the
    /// payload stripped.
    RstAck,
    /// SNI-II signature: the first handful of packets passed, then
    /// symmetric silence. Carries how many post-trigger packets made it.
    DelayedDrop(usize),
    /// SNI-IV / QUIC signature: immediate symmetric drops, including the
    /// trigger itself.
    FullDrop,
    /// SNI-III signature: data flows but at a policed trickle.
    Throttled,
}

/// Volley payload table: packet `i` is `LEN` copies of `base + i`, so each
/// packet in a volley is distinguishable in captures.
const fn volley<const LEN: usize, const N: usize>(base: u8) -> [[u8; LEN]; N] {
    let mut out = [[0u8; LEN]; N];
    let mut i = 0;
    while i < N {
        out[i] = [base + i as u8; LEN];
        i += 1;
    }
    out
}

static REMOTE_VOLLEY: [[u8; 120]; 8] = volley(0xd0);
static LOCAL_VOLLEY: [[u8; 60]; 2] = volley(0xe0);

/// Probes one flow: plays `prefix`, then the `trigger` payload from the
/// local side, then a scripted response volley (8 remote data packets,
/// 2 local data packets), and classifies what the endpoints saw.
///
/// The volley sizes are chosen so every behavior is distinguishable:
/// SNI-II's 5–8 packet allowance is strictly less than the 10 follow-ups.
pub fn classify_behavior(
    net: &mut Network,
    local: ScriptEnd,
    remote: ScriptEnd,
    prefix: &[ScriptStep],
    trigger: Vec<u8>,
) -> ObservedBehavior {
    let mut steps = Vec::with_capacity(prefix.len() + 1 + REMOTE_VOLLEY.len() + LOCAL_VOLLEY.len());
    steps.extend_from_slice(prefix);
    let trigger_marker = trigger.len();
    steps.push(ScriptStep::new(ProbeSide::Local, TcpFlags::PSH_ACK).payload(trigger));
    // Remote "ServerHello"-ish reply plus data volley. The payloads are
    // compile-time constants: a domain sweep replays this volley once per
    // scenario, so they are borrowed, never re-allocated.
    for payload in &REMOTE_VOLLEY {
        steps.push(
            ScriptStep::new(ProbeSide::Remote, TcpFlags::PSH_ACK)
                .payload(&payload[..])
                .after(Duration::from_millis(50)),
        );
    }
    for payload in &LOCAL_VOLLEY {
        steps.push(
            ScriptStep::new(ProbeSide::Local, TcpFlags::PSH_ACK)
                .payload(&payload[..])
                .after(Duration::from_millis(50)),
        );
    }
    let result = run_script(net, local, remote, &steps);

    let trigger_arrived = result
        .at_remote
        .iter()
        .any(|p| p.payload_len == trigger_marker);
    let local_rst = result.at_local.iter().any(|p| p.is_rst_ack && p.payload_len == 0);
    let remote_data_received = result
        .at_local
        .iter()
        .filter(|p| p.payload_len == 120)
        .count();
    let local_data_received = result
        .at_remote
        .iter()
        .filter(|p| p.payload_len == 60)
        .count();

    if !trigger_arrived && remote_data_received == 0 {
        return ObservedBehavior::FullDrop;
    }
    if local_rst {
        return ObservedBehavior::RstAck;
    }
    if remote_data_received == 8 && local_data_received == 2 {
        return ObservedBehavior::Pass;
    }
    // Some packets passed, then silence on both sides: the delayed drop.
    // The count is the post-trigger allowance the paper reports as 5–8.
    ObservedBehavior::DelayedDrop(remote_data_received + local_data_received)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::handshake_prefix;
    use tspu_registry::Universe;
    use tspu_topology::VantageLab;
    use tspu_wire::tls::ClientHelloBuilder;

    fn ends(lab: &VantageLab, port: u16) -> (ScriptEnd, ScriptEnd) {
        let vantage = lab.vantage("ER-Telecom");
        (
            ScriptEnd { host: vantage.host, addr: vantage.addr, port },
            ScriptEnd { host: lab.us_main, addr: lab.us_main_addr, port: 443 },
        )
    }

    /// Reliable lab (no failure dice) for behavior classification.
    fn reliable_lab() -> VantageLab {
        let universe = Universe::generate(3);
        VantageLab::builder().universe(&universe).build()
    }

    #[test]
    fn sni1_classified_rst_ack() {
        let mut lab = reliable_lab();
        let (local, remote) = ends(&lab, 43100);
        let behavior = classify_behavior(
            &mut lab.net,
            local,
            remote,
            &handshake_prefix(),
            ClientHelloBuilder::new("meduza.io").build(),
        );
        assert_eq!(behavior, ObservedBehavior::RstAck);
    }

    #[test]
    fn sni2_classified_delayed_drop() {
        let mut lab = reliable_lab();
        let (local, remote) = ends(&lab, 43101);
        let behavior = classify_behavior(
            &mut lab.net,
            local,
            remote,
            &handshake_prefix(),
            ClientHelloBuilder::new("nordvpn.com").build(),
        );
        match behavior {
            ObservedBehavior::DelayedDrop(n) => assert!((5..=8).contains(&n), "allowance {n}"),
            other => panic!("expected DelayedDrop, got {other:?}"),
        }
    }

    #[test]
    fn sni4_classified_full_drop_on_split_handshake() {
        let mut lab = reliable_lab();
        let (local, remote) = ends(&lab, 43102);
        let prefix = vec![
            ScriptStep::new(ProbeSide::Local, TcpFlags::SYN),
            ScriptStep::new(ProbeSide::Remote, TcpFlags::SYN),
        ];
        let behavior = classify_behavior(
            &mut lab.net,
            local,
            remote,
            &prefix,
            ClientHelloBuilder::new("twitter.com").build(),
        );
        assert_eq!(behavior, ObservedBehavior::FullDrop);
    }

    #[test]
    fn innocuous_passes() {
        let mut lab = reliable_lab();
        let (local, remote) = ends(&lab, 43103);
        let behavior = classify_behavior(
            &mut lab.net,
            local,
            remote,
            &handshake_prefix(),
            ClientHelloBuilder::new("rust-lang.org").build(),
        );
        assert_eq!(behavior, ObservedBehavior::Pass);
    }
}
