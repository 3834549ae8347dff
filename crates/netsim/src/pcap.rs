//! libpcap-format export of capture logs, so simulator traces open in
//! Wireshark/tcpdump — the paper's workflow ("capturing traffic from both
//! ends for analysis", §3) applied to the reproduction.
//!
//! The format is the classic libpcap file: a 24-byte global header
//! followed by 16-byte-headed records. Packets are raw IPv4
//! (`LINKTYPE_RAW` = 101), exactly what the simulator carries.

use crate::capture::Capture;

/// libpcap magic (microsecond timestamps, little-endian).
const MAGIC: u32 = 0xa1b2_c3d4;
/// LINKTYPE_RAW: packets begin with the IPv4/IPv6 header.
const LINKTYPE_RAW: u32 = 101;

/// Serializes a capture log into libpcap bytes.
pub fn to_pcap_bytes(capture: &Capture) -> Vec<u8> {
    let mut out = Vec::with_capacity(24 + capture.iter().map(|r| 16 + r.bytes.len()).sum::<usize>());
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.extend_from_slice(&2u16.to_le_bytes()); // version major
    out.extend_from_slice(&4u16.to_le_bytes()); // version minor
    out.extend_from_slice(&0i32.to_le_bytes()); // thiszone
    out.extend_from_slice(&0u32.to_le_bytes()); // sigfigs
    out.extend_from_slice(&65_535u32.to_le_bytes()); // snaplen
    out.extend_from_slice(&LINKTYPE_RAW.to_le_bytes());
    for record in capture {
        let micros = record.time.as_micros();
        out.extend_from_slice(&((micros / 1_000_000) as u32).to_le_bytes());
        out.extend_from_slice(&((micros % 1_000_000) as u32).to_le_bytes());
        out.extend_from_slice(&(record.bytes.len() as u32).to_le_bytes());
        out.extend_from_slice(&(record.bytes.len() as u32).to_le_bytes());
        out.extend_from_slice(record.bytes);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::TracePoint;
    use crate::network::HostId;
    use crate::time::Time;

    /// A little-endian field of up to eight bytes.
    fn le(bytes: &[u8]) -> u64 {
        bytes.iter().rev().fold(0, |value, &byte| value << 8 | u64::from(byte))
    }

    /// A log of one host's sends: `(µs, bytes)` each.
    fn capture(packets: &[(u64, &[u8])]) -> Capture {
        let mut capture = Capture::new();
        for &(micros, bytes) in packets {
            capture.push(Time::from_micros(micros), TracePoint::HostTx(HostId(0)), bytes);
        }
        capture
    }

    #[test]
    fn header_layout() {
        let bytes = to_pcap_bytes(&Capture::new());
        assert_eq!(bytes.len(), 24);
        assert_eq!(le(&bytes[0..4]), 0xa1b2_c3d4);
        assert_eq!(le(&bytes[4..6]), 2);
        assert_eq!(le(&bytes[6..8]), 4);
        assert_eq!(le(&bytes[20..24]), 101);
    }

    #[test]
    fn record_layout_and_timestamps() {
        let bytes = to_pcap_bytes(&capture(&[(2_500_123, &[0x45, 0, 0, 20])]));
        let rec = &bytes[24..];
        assert_eq!(le(&rec[0..4]), 2); // sec
        assert_eq!(le(&rec[4..8]), 500_123); // usec
        assert_eq!(le(&rec[8..12]), 4); // incl
        assert_eq!(le(&rec[12..16]), 4); // orig
        assert_eq!(&rec[16..], &[0x45, 0, 0, 20]);
    }

    #[test]
    fn multiple_records_concatenate() {
        let bytes = to_pcap_bytes(&capture(&[(1, &[1; 10]), (2, &[2; 20])]));
        assert_eq!(bytes.len(), 24 + (16 + 10) + (16 + 20));
    }
}
