//! TCP segment view and representation.
//!
//! The TSPU's connection tracker classifies flows by the *flag sequences* it
//! observes (paper §5.3.2, Fig. 4), and its SNI-I / IP-based behaviors
//! rewrite segments in place to RST/ACK with the payload truncated while
//! preserving sequence numbers (paper §5.2). [`TcpFlags`] and the in-place
//! setters here support both.

use std::fmt;
use std::net::Ipv4Addr;

use crate::checksum;
use crate::{Error, Result};

mod field {
    pub const SRC_PORT: core::ops::Range<usize> = 0..2;
    pub const DST_PORT: core::ops::Range<usize> = 2..4;
    pub const SEQ: core::ops::Range<usize> = 4..8;
    pub const ACK: core::ops::Range<usize> = 8..12;
    pub const DATA_OFF: usize = 12;
    pub const FLAGS: usize = 13;
    pub const WINDOW: core::ops::Range<usize> = 14..16;
    pub const CHECKSUM: core::ops::Range<usize> = 16..18;
    pub const URGENT: core::ops::Range<usize> = 18..20;
}

/// Minimum TCP header length (no options).
pub const HEADER_LEN: usize = 20;

/// TCP flag bits. Combination helpers cover the handshake shapes the paper
/// exercises (SYN, SYN/ACK, split handshake, simultaneous open).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    pub const FIN: TcpFlags = TcpFlags(0x01);
    pub const SYN: TcpFlags = TcpFlags(0x02);
    pub const RST: TcpFlags = TcpFlags(0x04);
    pub const PSH: TcpFlags = TcpFlags(0x08);
    pub const ACK: TcpFlags = TcpFlags(0x10);
    pub const URG: TcpFlags = TcpFlags(0x20);

    /// SYN|ACK, the normal second handshake packet.
    pub const SYN_ACK: TcpFlags = TcpFlags(0x12);
    /// RST|ACK, the flag combination the TSPU rewrites blocked responses to.
    pub const RST_ACK: TcpFlags = TcpFlags(0x14);
    /// PSH|ACK, a data segment.
    pub const PSH_ACK: TcpFlags = TcpFlags(0x18);

    pub fn contains(self, other: TcpFlags) -> bool {
        self.0 & other.0 == other.0
    }

    pub fn syn(self) -> bool {
        self.contains(TcpFlags::SYN)
    }

    pub fn ack(self) -> bool {
        self.contains(TcpFlags::ACK)
    }

    pub fn rst(self) -> bool {
        self.contains(TcpFlags::RST)
    }

    pub fn fin(self) -> bool {
        self.contains(TcpFlags::FIN)
    }

    /// True for a pure SYN (no ACK), the packet that normally identifies
    /// the connection's client.
    pub fn is_pure_syn(self) -> bool {
        self.syn() && !self.ack()
    }

    /// True for SYN|ACK regardless of other bits.
    pub fn is_syn_ack(self) -> bool {
        self.syn() && self.ack()
    }
}

impl std::ops::BitOr for TcpFlags {
    type Output = TcpFlags;
    fn bitor(self, rhs: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | rhs.0)
    }
}

impl fmt::Debug for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut names = Vec::new();
        for (bit, name) in [
            (TcpFlags::SYN, "SYN"),
            (TcpFlags::ACK, "ACK"),
            (TcpFlags::RST, "RST"),
            (TcpFlags::FIN, "FIN"),
            (TcpFlags::PSH, "PSH"),
            (TcpFlags::URG, "URG"),
        ] {
            if self.contains(bit) {
                names.push(name);
            }
        }
        if names.is_empty() {
            write!(f, "(none)")
        } else {
            write!(f, "{}", names.join("/"))
        }
    }
}

impl fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A read (and optionally write) view over a TCP segment buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpSegment<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> TcpSegment<T> {
    /// Wraps a buffer without validating it.
    pub fn new_unchecked(buffer: T) -> TcpSegment<T> {
        TcpSegment { buffer }
    }

    /// Wraps a buffer, validating the header fits.
    pub fn new_checked(buffer: T) -> Result<TcpSegment<T>> {
        let segment = Self::new_unchecked(buffer);
        segment.check_len()?;
        Ok(segment)
    }

    /// Validates the header and data offset against the buffer.
    pub fn check_len(&self) -> Result<()> {
        let data = self.buffer.as_ref();
        if data.len() < HEADER_LEN {
            return Err(Error::Truncated);
        }
        let header_len = self.header_len();
        if header_len < HEADER_LEN || header_len > data.len() {
            return Err(Error::Malformed);
        }
        Ok(())
    }

    /// Consumes the view, returning the underlying buffer.
    pub fn into_inner(self) -> T {
        self.buffer
    }

    pub fn src_port(&self) -> u16 {
        let d = self.buffer.as_ref();
        u16::from_be_bytes([d[field::SRC_PORT.start], d[field::SRC_PORT.start + 1]])
    }

    pub fn dst_port(&self) -> u16 {
        let d = self.buffer.as_ref();
        u16::from_be_bytes([d[field::DST_PORT.start], d[field::DST_PORT.start + 1]])
    }

    pub fn seq_number(&self) -> u32 {
        let d = self.buffer.as_ref();
        u32::from_be_bytes([d[4], d[5], d[6], d[7]])
    }

    pub fn ack_number(&self) -> u32 {
        let d = self.buffer.as_ref();
        u32::from_be_bytes([d[8], d[9], d[10], d[11]])
    }

    /// Header length in bytes (data offset × 4).
    pub fn header_len(&self) -> usize {
        usize::from(self.buffer.as_ref()[field::DATA_OFF] >> 4) * 4
    }

    pub fn flags(&self) -> TcpFlags {
        TcpFlags(self.buffer.as_ref()[field::FLAGS] & 0x3f)
    }

    pub fn window(&self) -> u16 {
        let d = self.buffer.as_ref();
        u16::from_be_bytes([d[field::WINDOW.start], d[field::WINDOW.start + 1]])
    }

    pub fn checksum(&self) -> u16 {
        let d = self.buffer.as_ref();
        u16::from_be_bytes([d[field::CHECKSUM.start], d[field::CHECKSUM.start + 1]])
    }

    /// The segment payload after the header.
    pub fn payload(&self) -> &[u8] {
        &self.buffer.as_ref()[self.header_len()..]
    }

    /// Verifies the transport checksum under the IPv4 pseudo-header.
    pub fn verify_checksum(&self, src: Ipv4Addr, dst: Ipv4Addr) -> bool {
        checksum::pseudo_header_verify(src, dst, 6, self.buffer.as_ref())
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> TcpSegment<T> {
    pub fn set_src_port(&mut self, value: u16) {
        self.buffer.as_mut()[field::SRC_PORT].copy_from_slice(&value.to_be_bytes());
    }

    pub fn set_dst_port(&mut self, value: u16) {
        self.buffer.as_mut()[field::DST_PORT].copy_from_slice(&value.to_be_bytes());
    }

    pub fn set_seq_number(&mut self, value: u32) {
        self.buffer.as_mut()[field::SEQ].copy_from_slice(&value.to_be_bytes());
    }

    pub fn set_ack_number(&mut self, value: u32) {
        self.buffer.as_mut()[field::ACK].copy_from_slice(&value.to_be_bytes());
    }

    /// Sets the header length in bytes; must be a multiple of 4.
    pub fn set_header_len(&mut self, bytes: usize) {
        debug_assert_eq!(bytes % 4, 0);
        self.buffer.as_mut()[field::DATA_OFF] = ((bytes / 4) as u8) << 4;
    }

    pub fn set_flags(&mut self, value: TcpFlags) {
        self.buffer.as_mut()[field::FLAGS] = value.0;
    }

    pub fn set_window(&mut self, value: u16) {
        self.buffer.as_mut()[field::WINDOW].copy_from_slice(&value.to_be_bytes());
    }

    pub fn set_urgent(&mut self, value: u16) {
        self.buffer.as_mut()[field::URGENT].copy_from_slice(&value.to_be_bytes());
    }

    /// Recomputes the transport checksum under the IPv4 pseudo-header.
    pub fn fill_checksum(&mut self, src: Ipv4Addr, dst: Ipv4Addr) {
        self.buffer.as_mut()[field::CHECKSUM].copy_from_slice(&[0, 0]);
        let ck = checksum::pseudo_header_checksum(src, dst, 6, self.buffer.as_ref());
        self.buffer.as_mut()[field::CHECKSUM].copy_from_slice(&ck.to_be_bytes());
    }
}

/// An owned representation of a TCP segment (header fields + payload).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpRepr {
    pub src_port: u16,
    pub dst_port: u16,
    pub seq_number: u32,
    pub ack_number: u32,
    pub flags: TcpFlags,
    pub window: u16,
    pub payload: Vec<u8>,
}

impl TcpRepr {
    /// A template segment with empty payload and a default window.
    pub fn new(src_port: u16, dst_port: u16, flags: TcpFlags) -> TcpRepr {
        TcpRepr {
            src_port,
            dst_port,
            seq_number: 0,
            ack_number: 0,
            flags,
            window: 64240,
            payload: Vec::new(),
        }
    }

    /// Parses a representation out of a validated segment view.
    pub fn parse<T: AsRef<[u8]>>(segment: &TcpSegment<T>) -> Result<TcpRepr> {
        segment.check_len()?;
        Ok(TcpRepr {
            src_port: segment.src_port(),
            dst_port: segment.dst_port(),
            seq_number: segment.seq_number(),
            ack_number: segment.ack_number(),
            flags: segment.flags(),
            window: segment.window(),
            payload: segment.payload().to_vec(),
        })
    }

    /// Emitted segment length.
    pub fn segment_len(&self) -> usize {
        HEADER_LEN + self.payload.len()
    }

    /// Builds the segment bytes, computing the checksum for `src`/`dst`.
    pub fn build(&self, src: Ipv4Addr, dst: Ipv4Addr) -> Vec<u8> {
        let mut buffer = vec![0u8; self.segment_len()];
        buffer[HEADER_LEN..].copy_from_slice(&self.payload);
        let mut segment = TcpSegment::new_unchecked(&mut buffer[..]);
        segment.set_src_port(self.src_port);
        segment.set_dst_port(self.dst_port);
        segment.set_seq_number(self.seq_number);
        segment.set_ack_number(self.ack_number);
        segment.set_header_len(HEADER_LEN);
        segment.set_flags(self.flags);
        segment.set_window(self.window);
        segment.set_urgent(0);
        segment.fill_checksum(src, dst);
        buffer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const DST: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    fn repr() -> TcpRepr {
        TcpRepr {
            src_port: 50123,
            dst_port: 443,
            seq_number: 0x01020304,
            ack_number: 0x0a0b0c0d,
            flags: TcpFlags::PSH_ACK,
            window: 29200,
            payload: b"hello".to_vec(),
        }
    }

    #[test]
    fn build_parse_roundtrip() {
        let bytes = repr().build(SRC, DST);
        let segment = TcpSegment::new_checked(&bytes[..]).unwrap();
        assert!(segment.verify_checksum(SRC, DST));
        assert_eq!(TcpRepr::parse(&segment).unwrap(), repr());
    }

    #[test]
    fn flags_helpers() {
        assert!(TcpFlags::SYN.is_pure_syn());
        assert!(!TcpFlags::SYN_ACK.is_pure_syn());
        assert!(TcpFlags::SYN_ACK.is_syn_ack());
        assert!(TcpFlags::RST_ACK.rst());
        assert!(TcpFlags::RST_ACK.ack());
        assert_eq!(TcpFlags::SYN | TcpFlags::ACK, TcpFlags::SYN_ACK);
    }

    #[test]
    fn flags_display() {
        assert_eq!(format!("{}", TcpFlags::SYN_ACK), "SYN/ACK");
        assert_eq!(format!("{}", TcpFlags(0)), "(none)");
    }

    #[test]
    fn rst_ack_rewrite_in_place() {
        // The TSPU SNI-I rewrite: truncate payload, set RST/ACK, keep seq/ack.
        let bytes = repr().build(SRC, DST);
        let mut truncated = bytes[..HEADER_LEN].to_vec();
        let mut segment = TcpSegment::new_unchecked(&mut truncated[..]);
        segment.set_flags(TcpFlags::RST_ACK);
        segment.fill_checksum(SRC, DST);
        let reparsed = TcpSegment::new_checked(&truncated[..]).unwrap();
        assert!(reparsed.verify_checksum(SRC, DST));
        assert_eq!(reparsed.flags(), TcpFlags::RST_ACK);
        assert_eq!(reparsed.seq_number(), 0x01020304);
        assert_eq!(reparsed.ack_number(), 0x0a0b0c0d);
        assert!(reparsed.payload().is_empty());
    }

    #[test]
    fn rejects_bad_data_offset() {
        let mut bytes = repr().build(SRC, DST);
        bytes[12] = 0x20; // header length 8 < 20
        assert_eq!(TcpSegment::new_checked(&bytes[..]).unwrap_err(), Error::Malformed);
    }

    #[test]
    fn rejects_short_buffer() {
        assert_eq!(TcpSegment::new_checked(&[0u8; 8][..]).unwrap_err(), Error::Truncated);
    }
}
