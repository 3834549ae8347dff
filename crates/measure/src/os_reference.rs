//! Table 7: connection-state timeout values for open- and closed-source
//! connection-tracking systems, compared against the TSPU's measured
//! values. Static reference data transcribed from the paper's appendix.

/// One reference row: system, state name, timeout in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OsTimeout {
    pub system: &'static str,
    pub state: &'static str,
    pub timeout_secs: u64,
}

/// The full Table 7.
pub const TABLE7: &[OsTimeout] = &[
    OsTimeout { system: "rdp", state: "timeout_inactivity translation", timeout_secs: 86_400 },
    OsTimeout { system: "rdp", state: "timeouts_inactivity tcp_handshake", timeout_secs: 4 },
    OsTimeout { system: "rdp", state: "timeouts_inactivity tcp_active", timeout_secs: 300 },
    OsTimeout { system: "rdp", state: "timeouts_inactivity tcp_final", timeout_secs: 240 },
    OsTimeout { system: "rdp", state: "timeouts_inactivity tcp_reset", timeout_secs: 4 },
    OsTimeout { system: "rdp", state: "timeouts_inactivity tcp_session_active", timeout_secs: 120 },
    OsTimeout { system: "freebsd", state: "tcp.first", timeout_secs: 120 },
    OsTimeout { system: "freebsd", state: "tcp.opening", timeout_secs: 30 },
    OsTimeout { system: "freebsd", state: "tcp.established", timeout_secs: 86_400 },
    OsTimeout { system: "freebsd", state: "tcp.closing", timeout_secs: 900 },
    OsTimeout { system: "freebsd", state: "tcp.finwait", timeout_secs: 45 },
    OsTimeout { system: "freebsd", state: "tcp.closed", timeout_secs: 90 },
    OsTimeout { system: "windows", state: "TCP FIN", timeout_secs: 60 },
    OsTimeout { system: "windows", state: "TCP RST", timeout_secs: 10 },
    OsTimeout { system: "windows", state: "TCP half open", timeout_secs: 30 },
    OsTimeout { system: "windows", state: "TCP idle timeout", timeout_secs: 240 },
    OsTimeout { system: "linux", state: "syn_sent", timeout_secs: 120 },
    OsTimeout { system: "linux", state: "syn_recv", timeout_secs: 60 },
    OsTimeout { system: "linux", state: "established", timeout_secs: 432_000 },
    OsTimeout { system: "linux", state: "time_wait", timeout_secs: 120 },
    OsTimeout { system: "linux", state: "unacknowledged", timeout_secs: 300 },
    OsTimeout { system: "linux", state: "last_ack", timeout_secs: 30 },
    OsTimeout { system: "linux", state: "fin_wait", timeout_secs: 120 },
    OsTimeout { system: "linux", state: "close", timeout_secs: 10 },
    OsTimeout { system: "linux", state: "close_wait", timeout_secs: 60 },
    OsTimeout { system: "rfc 5382", state: "half open", timeout_secs: 240 },
    OsTimeout { system: "rfc 5382", state: "established idle", timeout_secs: 7_200 },
    OsTimeout { system: "rfc 5382", state: "TIME WAIT", timeout_secs: 240 },
    OsTimeout { system: "rfc 7857", state: "partial open idle timeout", timeout_secs: 240 },
    OsTimeout { system: "huawei", state: "TCP session aging time", timeout_secs: 600 },
    OsTimeout { system: "cisco", state: "Tcp-timeout", timeout_secs: 86_400 },
    OsTimeout { system: "juniper", state: "TCP session timeout", timeout_secs: 1_800 },
];

/// The TSPU's measured values (Table 2), for the comparison the paper
/// makes: "the timeout values for the TSPU do not seem to conform to any
/// other OSes with documentation."
pub const TSPU_MEASURED: &[(&str, u64)] =
    &[("SYN_SENT", 60), ("SYN_RCVD", 105), ("ESTABLISHED", 480)];

/// True when some documented system matches all three TSPU values for the
/// comparable states — the paper found none.
pub fn any_system_matches_tspu() -> bool {
    let systems: std::collections::HashSet<&str> = TABLE7.iter().map(|r| r.system).collect();
    systems.iter().any(|system| {
        let find = |fragment: &str| {
            TABLE7
                .iter()
                .find(|r| r.system == *system && r.state.to_ascii_lowercase().contains(fragment))
                .map(|r| r.timeout_secs)
        };
        let syn_sent = find("syn_sent").or_else(|| find("first")).or_else(|| find("half open"));
        let established = find("established").or_else(|| find("active"));
        matches!((syn_sent, established), (Some(60), Some(480)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table7_transcription_sane() {
        assert_eq!(TABLE7.len(), 32);
        let linux_est = TABLE7.iter().find(|r| r.system == "linux" && r.state == "established");
        assert_eq!(linux_est.map(|r| r.timeout_secs), Some(432_000));
    }

    #[test]
    fn tspu_matches_no_documented_system() {
        assert!(!any_system_matches_tspu());
    }

    #[test]
    fn tspu_timeouts_much_shorter_than_linux() {
        // §5.3.3's comparison.
        let linux_syn_sent = 120;
        let linux_established = 432_000;
        // TSPU_MEASURED lists both states asked for here.
        let tspu = |name: &str| TSPU_MEASURED.iter().find(|(n, _)| *n == name).unwrap().1;
        assert!(tspu("SYN_SENT") < linux_syn_sent);
        assert!(tspu("ESTABLISHED") < linux_established / 100);
    }
}
