//! Every behavioral constant the paper reports for the TSPU, in one place.
//!
//! These are the ground truth the measurement experiments must recover.
//! Where the paper's own estimates disagree between Table 2 and Table 8
//! (both are black-box estimates; the authors note "some states could
//! share the same timeout value"), the reconciliation chosen here is
//! documented next to the constant and in EXPERIMENTS.md.

use std::time::Duration;

// --- Connection-tracking idle timeouts (paper §5.3.3, Tables 2 & 8) ---

/// SYN-SENT: a flow whose only packet is a pure SYN. Table 2 measures 60 s
/// via the `Remote.SYN; SLEEP; …` sequence. (Table 8's `Rs;Lt` row
/// estimates 30 s for the same state; we encode Table 2's value.)
pub const TIMEOUT_SYN_SENT: Duration = Duration::from_secs(60);

/// SYN-RECEIVED: simultaneous open / split handshake — a SYN arrived from
/// the side opposite the current client (Table 2: 105 s).
pub const TIMEOUT_SYN_RECV: Duration = Duration::from_secs(105);

/// ESTABLISHED: SYN answered by a SYN/ACK from the other side (Table 2:
/// 480 s). The TSPU does not wait for the final ACK of the handshake.
pub const TIMEOUT_ESTABLISHED: Duration = Duration::from_secs(480);

/// A flow created by a data-bearing first packet with no handshake
/// (Table 8's bare `Lt` row: 180 s).
pub const TIMEOUT_LOOSE: Duration = Duration::from_secs(180);

/// A flow created by a bare ACK first packet (Table 8's `La;Lt` and
/// `Ra;…` rows: 480 s — the tracker treats it like a connection it missed
/// the start of).
pub const TIMEOUT_ACK_FIRST: Duration = Duration::from_secs(480);

/// A flow created by a bare SYN/ACK first packet — the "unusual but valid
/// prefix" of §7.1.1. Table 8's `Rsa;…` rows estimate 480 s; its
/// `Lsa;Lt → 420 s` row is explained by the SNI-II *block* residual
/// (420 s) clipping the observation, not by the state timeout.
pub const TIMEOUT_SYNACK_FIRST: Duration = Duration::from_secs(480);

/// A flow the tracker gave up on after a protocol-violating packet
/// (e.g. a bare ACK answering a SYN, Table 8's `Ls;Ra;Lt` row: 180 s).
/// Invalid flows are exempt from SNI blocking while tracked.
pub const TIMEOUT_INVALID: Duration = Duration::from_secs(180);

/// UDP flows (tracked for QUIC blocking). Long enough that the QUIC
/// residual (420 s, Table 2) is not clipped by flow expiry.
pub const TIMEOUT_UDP: Duration = Duration::from_secs(480);

// --- Residual blocking durations once triggered (Table 2) ---

/// SNI-I (RST/ACK rewrite) residual: 75 s.
pub const BLOCK_SNI1: Duration = Duration::from_secs(75);
/// SNI-II (delayed symmetric drop) residual: 420 s.
pub const BLOCK_SNI2: Duration = Duration::from_secs(420);
/// SNI-IV (backup full drop) residual: 40 s.
pub const BLOCK_SNI4: Duration = Duration::from_secs(40);
/// QUIC block residual: 420 s.
pub const BLOCK_QUIC: Duration = Duration::from_secs(420);

// --- SNI-II delayed drop (paper §5.2) ---

/// After an SNI-II trigger, "an additional five to eight packets can be
/// delivered from either side" before symmetric drops begin.
pub const SLOW_DROP_ALLOWANCE_MIN: u8 = 5;
pub const SLOW_DROP_ALLOWANCE_MAX: u8 = 8;

// --- QUIC filter (paper §5.2, Fig. 14) ---

/// The filter applies to UDP packets to port 443 only.
pub const QUIC_PORT: u16 = 443;
/// …with at least this many bytes of UDP payload.
pub const QUIC_MIN_PAYLOAD: usize = 1001;

// --- SNI triggers ---

/// SNI inspection applies to TCP packets destined to port 443.
pub const SNI_PORT: u16 = 443;

// --- Non-TSPU censor profiles (PAPERS.md: Turkmenistan, India; legacy ISP gear) ---

/// HTTP Host-header inspection applies to TCP packets destined to port 80
/// (the Turkmenistan HTTP trigger and India's block-page injection point).
pub const HTTP_PORT: u16 = 80;

/// DNS inspection applies to UDP packets destined to port 53
/// (Turkmenistan's DNS trigger).
pub const DNS_PORT: u16 = 53;

/// Residual window of an HTTP-200 block-page verdict (India profile): the
/// studies report per-connection injection rather than a measured residual,
/// so the model keeps the flow poisoned for one conservative state window.
pub const BLOCK_PAGE: Duration = Duration::from_secs(60);

/// Residual drop/RST window for the Turkmenistan profile's triggers. The
/// Turkmenistan study measures bidirectional interference on the flow and
/// follow-up connections for on the order of a minute; the exact figure is
/// a modeling choice documented in EXPERIMENTS.md.
pub const BLOCK_TKM: Duration = Duration::from_secs(60);

/// Residual window of the legacy ISP keyword DPI's HTTP verdict: zero. The
/// pre-TSPU box swallows the matching request and keeps no per-flow
/// memory, so the drop armed at the trigger's instant lapses at the next
/// one and later segments on the flow pass untouched.
pub const LEGACY_HTTP_WINDOW: Duration = Duration::ZERO;

// --- Fragment cache (paper §5.3.1) ---

/// Maximum fragments of one packet buffered before the queue is discarded:
/// "TSPU accepts up to 45 fragments of a single packet". Linux defaults to
/// 64, Cisco 24, Juniper 250 — 45 is the fingerprint (§7.2).
pub const FRAG_QUEUE_LIMIT: usize = 45;

/// Fragment cache timeout: "a short timeout of around 5 seconds".
pub const FRAG_TIMEOUT: Duration = Duration::from_secs(5);

/// Concurrently buffered fragment trains before the oldest is evicted.
/// The paper does not measure this bound, but a real line card's fragment
/// table is fixed-size; 4096 trains × 45 fragments bounds the cache at a
/// few hundred MB worst case instead of growing without limit.
pub const FRAG_MAX_TRAINS: usize = 4096;

// --- Throttling rates (paper §5.2, SNI-III) ---

/// The February–March 2022 hard throttle: "around 600–700 bytes per
/// second". We encode the midpoint.
pub const THROTTLE_RATE_2022: u64 = 650;

/// The March 2021 Twitter throttle: about 130 kbit/s ≈ 16 250 B/s.
pub const THROTTLE_RATE_2021: u64 = 16_250;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeout_ordering_matches_paper() {
        // §5.3.3: "much shorter timeouts for SYN-SENT and ESTABLISHED when
        // compared to Linux and FreeBSD" — and internally, the handshake
        // states must be shorter-lived than established flows.
        assert!(TIMEOUT_SYN_SENT < TIMEOUT_SYN_RECV);
        assert!(TIMEOUT_SYN_RECV < TIMEOUT_ESTABLISHED);
        // Linux: syn_sent 120 s, established 432 000 s (Table 7).
        assert!(TIMEOUT_SYN_SENT < Duration::from_secs(120));
        assert!(TIMEOUT_ESTABLISHED < Duration::from_secs(432_000));
    }

    #[test]
    fn table8_timeout_values_are_few() {
        // Appendix B: "a total of four unique timeout values" in Table 8.
        // Our ground truth exposes {60, 105, 180, 420, 480} through that
        // table's methodology (420 being the SNI-II residual); the paper
        // groups them into four. Assert the grouping stays small.
        let mut values = vec![
            TIMEOUT_LOOSE,
            TIMEOUT_ACK_FIRST,
            TIMEOUT_SYNACK_FIRST,
            TIMEOUT_INVALID,
            TIMEOUT_ESTABLISHED,
            BLOCK_SNI2,
        ];
        values.sort();
        values.dedup();
        assert!(values.len() <= 4, "{values:?}");
    }
}
