//! QUIC long-header prefix, as far as the TSPU inspects it.
//!
//! The paper (§5.2, Fig. 14) shows that the TSPU detects QUIC with a
//! minimal fingerprint: a UDP packet to port 443 with ≥ 1001 bytes of
//! payload whose bytes 1–4 equal the QUIC version-1 value `0x00000001`.
//! Nothing else in the packet matters — not even the long-header bit.
//! Other version values (draft-29 `0xff00001d`, quicping `0xbabababa`)
//! escape the filter.

use crate::{Error, Result};

/// QUIC versions relevant to the paper's evasion discussion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QuicVersion {
    /// RFC 9000 version 1: `0x00000001`. The only version the TSPU blocks.
    V1,
    /// draft-29: `0xff00001d`. Evades the filter (paper §5.2).
    Draft29,
    /// quicping probes: `0xbabababa`. Evades the filter (paper §5.2).
    QuicPing,
    /// Any other 32-bit version value.
    Other(u32),
}

impl QuicVersion {
    /// The wire value of this version.
    pub fn to_u32(self) -> u32 {
        match self {
            QuicVersion::V1 => 0x0000_0001,
            QuicVersion::Draft29 => 0xff00_001d,
            QuicVersion::QuicPing => 0xbaba_baba,
            QuicVersion::Other(v) => v,
        }
    }

    /// Classifies a wire value.
    pub fn from_u32(value: u32) -> QuicVersion {
        match value {
            0x0000_0001 => QuicVersion::V1,
            0xff00_001d => QuicVersion::Draft29,
            0xbaba_baba => QuicVersion::QuicPing,
            other => QuicVersion::Other(other),
        }
    }
}

/// Minimum bytes needed to read the version field (flags byte + version).
pub const MIN_HEADER_LEN: usize = 5;

/// A parsed long-header prefix: just the pieces a censor can see in
/// plaintext before decryption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuicHeader {
    /// The first byte (header form / fixed bit / packet type).
    pub first_byte: u8,
    /// The 32-bit version field at offset 1.
    pub version: QuicVersion,
}

impl QuicHeader {
    /// Parses the prefix from a UDP payload.
    pub fn parse(payload: &[u8]) -> Result<QuicHeader> {
        if payload.len() < MIN_HEADER_LEN {
            return Err(Error::Truncated);
        }
        Ok(QuicHeader {
            first_byte: payload[0],
            version: QuicVersion::from_u32(u32::from_be_bytes([
                payload[1], payload[2], payload[3], payload[4],
            ])),
        })
    }

    /// True when the long-header bit is set (bit 7 of the first byte).
    pub fn is_long_header(&self) -> bool {
        self.first_byte & 0x80 != 0
    }
}

/// Builds a QUIC-Initial-shaped UDP payload of `total_len` bytes carrying
/// `version`. The body past the version field is filler — by the paper's
/// findings the TSPU never looks at it.
pub fn initial_payload(version: QuicVersion, total_len: usize) -> Vec<u8> {
    let mut payload = vec![0xffu8; total_len.max(MIN_HEADER_LEN)];
    payload[0] = 0xc0; // long header, fixed bit, Initial type
    payload[1..5].copy_from_slice(&version.to_u32().to_be_bytes());
    payload
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_conversions() {
        for v in [QuicVersion::V1, QuicVersion::Draft29, QuicVersion::QuicPing, QuicVersion::Other(7)] {
            assert_eq!(QuicVersion::from_u32(v.to_u32()), v);
        }
    }

    #[test]
    fn parse_initial() -> Result<()> {
        let payload = initial_payload(QuicVersion::V1, 1200);
        let header = QuicHeader::parse(&payload)?;
        assert!(header.is_long_header());
        assert_eq!(header.version, QuicVersion::V1);
        Ok(())
    }

    #[test]
    fn parse_rejects_tiny_payload() {
        assert_eq!(QuicHeader::parse(&[0xc0, 0, 0]).unwrap_err(), Error::Truncated);
    }

    #[test]
    fn fig14_fingerprint_needs_only_version_bytes() -> Result<()> {
        // The paper's minimal fingerprint packet is 0xff filler with the
        // version at offset 1 — even without the long-header bit.
        let mut payload = vec![0xffu8; 1001];
        payload[1..5].copy_from_slice(&1u32.to_be_bytes());
        let header = QuicHeader::parse(&payload)?;
        assert_eq!(header.version, QuicVersion::V1);
        Ok(())
    }
}
