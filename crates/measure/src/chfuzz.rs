//! ClientHello byte-sensitivity mapping (Fig. 13): fuzz a triggering
//! ClientHello one byte at a time and record which positions change the
//! TSPU's verdict. The paper concludes the TSPU *parses* the record to
//! locate the SNI ("altering values in positions that represent 'type' or
//! 'length' would lead to different censorship behaviors") and ignores
//! other extensions' contents.
//!
//! This experiment runs against a bare device (black-box at the packet
//! interface): topology adds nothing to a per-byte sweep.

use std::net::Ipv4Addr;

use tspu_core::{Policy, PolicyHandle, TspuDevice};
use tspu_netsim::{Direction, Middlebox, Time};
use tspu_wire::ipv4::{Ipv4Repr, Protocol};
use tspu_wire::tcp::{TcpFlags, TcpRepr, TcpSegment};
use tspu_wire::tls::ClientHelloBuilder;

const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 99, 0, 2);
const SERVER: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 99);

/// Classification of one byte position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByteSensitivity {
    /// Mutating this byte still triggers blocking (ignored content).
    Ignored,
    /// Mutating this byte defeats the trigger (structural or SNI bytes).
    Sensitive,
}

/// The Fig. 13 map: per-byte sensitivity plus a region label for
/// human-readable reporting.
#[derive(Debug, Clone)]
pub struct SensitivityMap {
    pub record: Vec<u8>,
    pub sensitivity: Vec<ByteSensitivity>,
}

impl SensitivityMap {
    /// Count of sensitive positions.
    pub fn sensitive_count(&self) -> usize {
        self.sensitivity.iter().filter(|s| **s == ByteSensitivity::Sensitive).count()
    }

    /// Region label for a byte offset, following the record layout the
    /// builder emits (record header, handshake header, version, random,
    /// session id, ciphersuites, compression, extensions).
    pub fn region(&self, offset: usize) -> &'static str {
        region_of(&self.record, offset)
    }
}

/// Identifies the layout region of `offset` inside a builder-emitted
/// ClientHello.
pub fn region_of(record: &[u8], offset: usize) -> &'static str {
    // Fixed prefix: 5 (record hdr) + 4 (handshake hdr) + 2 (version) +
    // 32 (random) + 1 (sid len) + sid + 2 (cs len) + cs + 1 (comp len) +
    // comp + 2 (ext len) + extensions.
    if offset < 1 {
        return "record content-type";
    }
    if offset < 3 {
        return "record version";
    }
    if offset < 5 {
        return "record length";
    }
    if offset < 6 {
        return "handshake type";
    }
    if offset < 9 {
        return "handshake length";
    }
    if offset < 11 {
        return "client version";
    }
    if offset < 43 {
        return "random";
    }
    let sid_len = record[43] as usize;
    if offset == 43 {
        return "session-id length";
    }
    if offset < 44 + sid_len {
        return "session id";
    }
    let cs_off = 44 + sid_len;
    if offset < cs_off + 2 {
        return "ciphersuites length";
    }
    let cs_len = u16::from_be_bytes([record[cs_off], record[cs_off + 1]]) as usize;
    if offset < cs_off + 2 + cs_len {
        return "ciphersuites";
    }
    let comp_off = cs_off + 2 + cs_len;
    if offset == comp_off {
        return "compression length";
    }
    let comp_len = record[comp_off] as usize;
    if offset < comp_off + 1 + comp_len {
        return "compression";
    }
    let ext_off = comp_off + 1 + comp_len;
    if offset < ext_off + 2 {
        return "extensions length";
    }
    "extensions"
}

/// Whether a given ClientHello byte-mutation still triggers SNI blocking,
/// probed against a fresh reliable device.
fn still_triggers(policy: &PolicyHandle, record: &[u8]) -> bool {
    let mut dev = TspuDevice::reliable("fuzz", policy.clone());
    let now = Time::ZERO;
    // Handshake.
    for (dir, flags, src, sp, dst, dp) in [
        (Direction::LocalToRemote, TcpFlags::SYN, CLIENT, 4444u16, SERVER, 443u16),
        (Direction::RemoteToLocal, TcpFlags::SYN_ACK, SERVER, 443, CLIENT, 4444),
        (Direction::LocalToRemote, TcpFlags::ACK, CLIENT, 4444, SERVER, 443),
    ] {
        let seg = TcpRepr::new(sp, dp, flags).build(src, dst);
        let pkt = Ipv4Repr::new(src, dst, Protocol::Tcp, seg.len()).build(&seg);
        dev.process_owned(now, dir, pkt.clone());
    }
    // The (mutated) ClientHello.
    let mut tcp = TcpRepr::new(4444, 443, TcpFlags::PSH_ACK);
    tcp.payload = record.to_vec();
    let seg = tcp.build(CLIENT, SERVER);
    let ch = Ipv4Repr::new(CLIENT, SERVER, Protocol::Tcp, seg.len()).build(&seg);
    dev.process_owned(now, Direction::LocalToRemote, ch.clone());
    // Does the response get rewritten?
    let mut reply = TcpRepr::new(443, 4444, TcpFlags::PSH_ACK);
    reply.payload = vec![0xaa; 64];
    let seg = reply.build(SERVER, CLIENT);
    let response = Ipv4Repr::new(SERVER, CLIENT, Protocol::Tcp, seg.len()).build(&seg);
    let out = dev.process_owned(now, Direction::RemoteToLocal, response.clone());
    out.len() == 1 && {
        let ip = tspu_wire::ipv4::Ipv4Packet::new_unchecked(&out[0][..]);
        TcpSegment::new_unchecked(ip.payload()).flags() == TcpFlags::RST_ACK
    }
}

/// Builds the Fig. 13 sensitivity map for a ClientHello carrying
/// `domain` (which must be SNI-I blocked under `policy`).
pub fn sensitivity_map(policy: &PolicyHandle, domain: &str) -> SensitivityMap {
    let record = ClientHelloBuilder::new(domain).build();
    assert!(still_triggers(policy, &record), "baseline must trigger");
    let mut sensitivity = Vec::with_capacity(record.len());
    for position in 0..record.len() {
        let mut mutated = record.clone();
        mutated[position] ^= 0xff;
        let triggered = still_triggers(policy, &mutated);
        sensitivity.push(if triggered { ByteSensitivity::Ignored } else { ByteSensitivity::Sensitive });
    }
    SensitivityMap { record, sensitivity }
}

/// Default policy for the experiment.
pub fn fuzz_policy() -> PolicyHandle {
    PolicyHandle::new(Policy::example())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structural_bytes_sensitive_content_bytes_ignored() {
        let policy = fuzz_policy();
        let map = sensitivity_map(&policy, "meduza.io");

        // Structural fields are sensitive.
        for (offset, label) in [(0usize, "record content-type"), (5, "handshake type"), (43, "session-id length")] {
            assert_eq!(map.region(offset), label);
            assert_eq!(
                map.sensitivity[offset],
                ByteSensitivity::Sensitive,
                "{label} at {offset}"
            );
        }

        // The random is entirely ignored.
        for offset in 11..43 {
            assert_eq!(map.sensitivity[offset], ByteSensitivity::Ignored, "random byte {offset}");
        }

        // Session-id contents ignored.
        let sid_start = 44;
        for offset in sid_start..sid_start + 8 {
            assert_eq!(map.sensitivity[offset], ByteSensitivity::Ignored, "sid byte {offset}");
        }

        // SNI hostname bytes are sensitive (mutating them changes the
        // matched domain).
        let host_pos = map
            .record
            .windows(b"meduza.io".len())
            .position(|w| w == b"meduza.io")
            // The fuzzed record is a ClientHello for meduza.io.
            .expect("hostname embedded");
        for offset in host_pos..host_pos + 6 {
            assert_eq!(map.sensitivity[offset], ByteSensitivity::Sensitive, "sni byte {offset}");
        }
    }

    #[test]
    fn other_extension_contents_ignored() {
        let policy = fuzz_policy();
        // Build with a fat extra extension and check its body is ignored.
        let record = ClientHelloBuilder::new("meduza.io")
            .extension(0x0010, vec![0x5a; 24])
            .build();
        assert!(still_triggers(&policy, &record));
        // Mutate a byte in the middle of the extra extension body.
        let pos = record.len() - 10;
        let mut mutated = record.clone();
        mutated[pos] ^= 0xff;
        assert!(still_triggers(&policy, &mutated), "extension body must be ignored");
    }

    #[test]
    fn sensitive_fraction_is_small() {
        // Most of a ClientHello is opaque content; only the skeleton and
        // the SNI itself matter.
        let policy = fuzz_policy();
        let map = sensitivity_map(&policy, "meduza.io");
        let fraction = map.sensitive_count() as f64 / map.record.len() as f64;
        assert!(fraction < 0.45, "sensitive fraction {fraction}");
    }
}
