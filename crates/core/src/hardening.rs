//! The counter-circumvention upgrades §8 predicts: "The TSPU could easily
//! 'patch' these evasion strategies (server-side or client-side), assuming
//! it is provisioned with enough computation and memory resources."
//!
//! Each knob corresponds to one sentence of that paragraph:
//!
//! * [`Hardening::tcp_reassembly`] — "TCP flow reassembly is a standard
//!   feature for today's DPIs, though it comes with a significantly higher
//!   requirement for resources" — defeats TCP segmentation, the padding
//!   extension, and the server-side small-window strategy.
//! * [`Hardening::ip_reassembly`] — the same at the IP layer, defeating
//!   fragmentation of the ClientHello.
//! * [`Hardening::min_synack_window`] — "the server-side reduced window
//!   size strategy could be countered with a simple restriction that
//!   filters servers' advertised flow control windows".
//! * [`Hardening::strict_roles`] — "handling Simultaneous Open or Split
//!   Handshake simply requires reasoning about the roles of 'Client' and
//!   'Server' in a more ad-hoc way": a ClientHello traveling outward *is*
//!   the client speaking, whatever the handshake looked like.
//! * [`Hardening::scan_multiple_records`] — walk past non-handshake TLS
//!   records instead of inspecting only the first.
//!
//! The resource cost the paper predicts is observable:
//! [`crate::DeviceStats::reassembly_bytes_buffered`] counts the memory the
//! upgrades demand, and the `hardening/*` group of `cargo bench -p tspu-bench
//! --bench ablations` measures the throughput hit.

/// Counter-circumvention configuration. `Default` is the 2022 TSPU:
/// everything off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Hardening {
    /// Reassemble TCP byte streams (per flow, capped) before SNI
    /// inspection.
    pub tcp_reassembly: bool,
    /// Reassemble buffered IP fragments for inspection (forwarding still
    /// happens fragment-by-fragment, like the real device).
    pub ip_reassembly: bool,
    /// Drop remote→local SYN/ACKs advertising a window below this value.
    pub min_synack_window: Option<u16>,
    /// Infer the client from who sends the ClientHello, not from
    /// handshake shape — split handshake, simultaneous open, and the
    /// delayed-response trick stop helping.
    pub strict_roles: bool,
    /// Scan past leading non-handshake records when locating the
    /// ClientHello.
    pub scan_multiple_records: bool,
}

impl Hardening {
    /// The 2022 deployment: no hardening.
    pub fn none() -> Hardening {
        Hardening::default()
    }

    /// Every predicted patch at once.
    pub fn full() -> Hardening {
        Hardening {
            tcp_reassembly: true,
            ip_reassembly: true,
            min_synack_window: Some(256),
            strict_roles: true,
            scan_multiple_records: true,
        }
    }
}

/// Maximum bytes of stream buffered per flow for TCP reassembly. A real
/// DPI bounds this; 16 KiB comfortably covers any ClientHello.
pub const REASSEMBLY_CAP: usize = 16 * 1024;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_2022_behavior() {
        let h = Hardening::none();
        assert!(!h.tcp_reassembly);
        assert!(!h.ip_reassembly);
        assert!(h.min_synack_window.is_none());
        assert!(!h.strict_roles);
        assert!(!h.scan_multiple_records);
    }

    #[test]
    fn full_enables_everything() {
        let h = Hardening::full();
        assert!(h.tcp_reassembly && h.ip_reassembly && h.strict_roles && h.scan_multiple_records);
        assert!(h.min_synack_window.unwrap() >= 64);
    }
}
