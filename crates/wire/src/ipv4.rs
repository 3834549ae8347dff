//! IPv4 packet view and representation.
//!
//! The fragmentation fields (identification, DF/MF flags, fragment offset)
//! are first-class here because the TSPU's fragment cache keys on the
//! `(src, dst, ident)` tuple and rewrites the TTL of forwarded fragments
//! (paper §5.3.1, Fig. 3).

use std::net::Ipv4Addr;

use crate::checksum;
use crate::{Error, Result};

/// IP protocol numbers used in this workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    Icmp,
    Tcp,
    Udp,
    /// Any protocol number we do not model further.
    Other(u8),
}

impl From<u8> for Protocol {
    fn from(value: u8) -> Self {
        match value {
            1 => Protocol::Icmp,
            6 => Protocol::Tcp,
            17 => Protocol::Udp,
            other => Protocol::Other(other),
        }
    }
}

impl From<Protocol> for u8 {
    fn from(value: Protocol) -> Self {
        match value {
            Protocol::Icmp => 1,
            Protocol::Tcp => 6,
            Protocol::Udp => 17,
            Protocol::Other(other) => other,
        }
    }
}

mod field {
    pub const VER_IHL: usize = 0;
    pub const TOS: usize = 1;
    pub const LENGTH: core::ops::Range<usize> = 2..4;
    pub const IDENT: core::ops::Range<usize> = 4..6;
    pub const FLG_OFF: core::ops::Range<usize> = 6..8;
    pub const TTL: usize = 8;
    pub const PROTOCOL: usize = 9;
    pub const CHECKSUM: core::ops::Range<usize> = 10..12;
    pub const SRC_ADDR: core::ops::Range<usize> = 12..16;
    pub const DST_ADDR: core::ops::Range<usize> = 16..20;
}

/// Minimum (and, absent options, only) IPv4 header length in bytes.
pub const HEADER_LEN: usize = 20;

/// The "more fragments" flag bit within the flags/offset word.
const FLAG_MF: u16 = 0x2000;
/// The "don't fragment" flag bit within the flags/offset word.
const FLAG_DF: u16 = 0x4000;
/// Mask of the 13-bit fragment offset (in 8-byte units).
const OFFSET_MASK: u16 = 0x1fff;

/// A read (and optionally write) view over an IPv4 packet buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ipv4Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Ipv4Packet<T> {
    /// Wraps a buffer without validating it.
    pub fn new_unchecked(buffer: T) -> Ipv4Packet<T> {
        Ipv4Packet { buffer }
    }

    /// Wraps a buffer, validating that the header and total length fit.
    pub fn new_checked(buffer: T) -> Result<Ipv4Packet<T>> {
        let packet = Self::new_unchecked(buffer);
        packet.check_len()?;
        Ok(packet)
    }

    /// Validates header length, version, and the total-length field against
    /// the buffer size.
    pub fn check_len(&self) -> Result<()> {
        let data = self.buffer.as_ref();
        if data.len() < HEADER_LEN {
            return Err(Error::Truncated);
        }
        if data[field::VER_IHL] >> 4 != 4 {
            return Err(Error::Malformed);
        }
        let header_len = self.header_len();
        if header_len < HEADER_LEN || header_len > data.len() {
            return Err(Error::Malformed);
        }
        let total_len = self.total_len();
        if total_len < header_len || total_len > data.len() {
            return Err(Error::Truncated);
        }
        Ok(())
    }

    /// Consumes the view, returning the underlying buffer.
    pub fn into_inner(self) -> T {
        self.buffer
    }

    /// Header length in bytes (IHL × 4).
    pub fn header_len(&self) -> usize {
        usize::from(self.buffer.as_ref()[field::VER_IHL] & 0x0f) * 4
    }

    /// Total datagram length in bytes, from the length field.
    pub fn total_len(&self) -> usize {
        let data = self.buffer.as_ref();
        usize::from(u16::from_be_bytes([data[field::LENGTH][0], data[field::LENGTH.start + 1]]))
    }

    /// The identification field shared by all fragments of a datagram.
    pub fn ident(&self) -> u16 {
        let data = self.buffer.as_ref();
        u16::from_be_bytes([data[field::IDENT.start], data[field::IDENT.start + 1]])
    }

    fn flg_off(&self) -> u16 {
        let data = self.buffer.as_ref();
        u16::from_be_bytes([data[field::FLG_OFF.start], data[field::FLG_OFF.start + 1]])
    }

    /// True when the "more fragments" flag is set.
    pub fn more_fragments(&self) -> bool {
        self.flg_off() & FLAG_MF != 0
    }

    /// True when the "don't fragment" flag is set.
    pub fn dont_fragment(&self) -> bool {
        self.flg_off() & FLAG_DF != 0
    }

    /// Fragment offset in bytes (the field stores 8-byte units).
    pub fn frag_offset(&self) -> usize {
        usize::from(self.flg_off() & OFFSET_MASK) * 8
    }

    /// True when this packet is a fragment of a larger datagram, i.e. it has
    /// a non-zero offset or more fragments follow.
    pub fn is_fragment(&self) -> bool {
        self.more_fragments() || self.frag_offset() != 0
    }

    /// Time-to-live.
    pub fn ttl(&self) -> u8 {
        self.buffer.as_ref()[field::TTL]
    }

    /// Transport protocol.
    pub fn protocol(&self) -> Protocol {
        Protocol::from(self.buffer.as_ref()[field::PROTOCOL])
    }

    /// Source address.
    pub fn src_addr(&self) -> Ipv4Addr {
        let data = self.buffer.as_ref();
        Ipv4Addr::new(
            data[field::SRC_ADDR.start],
            data[field::SRC_ADDR.start + 1],
            data[field::SRC_ADDR.start + 2],
            data[field::SRC_ADDR.start + 3],
        )
    }

    /// Destination address.
    pub fn dst_addr(&self) -> Ipv4Addr {
        let data = self.buffer.as_ref();
        Ipv4Addr::new(
            data[field::DST_ADDR.start],
            data[field::DST_ADDR.start + 1],
            data[field::DST_ADDR.start + 2],
            data[field::DST_ADDR.start + 3],
        )
    }

    /// Verifies the header checksum.
    pub fn verify_checksum(&self) -> bool {
        let header_len = self.header_len();
        checksum::verify(&self.buffer.as_ref()[..header_len])
    }

    /// The transport payload following the header, bounded by `total_len`.
    pub fn payload(&self) -> &[u8] {
        let header_len = self.header_len();
        let total_len = self.total_len().min(self.buffer.as_ref().len());
        &self.buffer.as_ref()[header_len..total_len]
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Ipv4Packet<T> {
    /// Sets version 4 and a header length of `HEADER_LEN` (no options).
    pub fn set_default_header(&mut self) {
        self.buffer.as_mut()[field::VER_IHL] = 0x45;
        self.buffer.as_mut()[field::TOS] = 0;
    }

    /// Sets the total-length field.
    pub fn set_total_len(&mut self, value: u16) {
        self.buffer.as_mut()[field::LENGTH].copy_from_slice(&value.to_be_bytes());
    }

    /// Sets the identification field.
    pub fn set_ident(&mut self, value: u16) {
        self.buffer.as_mut()[field::IDENT].copy_from_slice(&value.to_be_bytes());
    }

    fn set_flg_off(&mut self, value: u16) {
        self.buffer.as_mut()[field::FLG_OFF].copy_from_slice(&value.to_be_bytes());
    }

    /// Sets the "more fragments" flag.
    pub fn set_more_fragments(&mut self, value: bool) {
        let old = u16::from_be_bytes([
            self.buffer.as_ref()[field::FLG_OFF.start],
            self.buffer.as_ref()[field::FLG_OFF.start + 1],
        ]);
        self.set_flg_off(if value { old | FLAG_MF } else { old & !FLAG_MF });
    }

    /// Sets the "don't fragment" flag.
    pub fn set_dont_fragment(&mut self, value: bool) {
        let old = u16::from_be_bytes([
            self.buffer.as_ref()[field::FLG_OFF.start],
            self.buffer.as_ref()[field::FLG_OFF.start + 1],
        ]);
        self.set_flg_off(if value { old | FLAG_DF } else { old & !FLAG_DF });
    }

    /// Sets the fragment offset in bytes; must be a multiple of 8.
    pub fn set_frag_offset(&mut self, bytes: usize) {
        debug_assert_eq!(bytes % 8, 0, "fragment offset must be 8-byte aligned");
        let old = u16::from_be_bytes([
            self.buffer.as_ref()[field::FLG_OFF.start],
            self.buffer.as_ref()[field::FLG_OFF.start + 1],
        ]);
        let units = (bytes / 8) as u16 & OFFSET_MASK;
        self.set_flg_off((old & !OFFSET_MASK) | units);
    }

    /// Sets the TTL. The TSPU rewrites this on buffered fragments.
    pub fn set_ttl(&mut self, value: u8) {
        self.buffer.as_mut()[field::TTL] = value;
    }

    /// Sets the TTL and updates the header checksum to match without
    /// re-summing the header: RFC 1624's incremental update of the one
    /// 16-bit word (TTL, protocol) that changed — what a router does per
    /// hop. Equal to [`Ipv4Packet::set_ttl`] plus
    /// [`Ipv4Packet::fill_checksum`] on a header whose checksum was valid;
    /// a header that arrived with a wrong checksum stays wrong.
    pub fn rewrite_ttl(&mut self, value: u8) {
        let data = self.buffer.as_mut();
        let protocol = data[field::PROTOCOL];
        let old = u16::from_be_bytes([data[field::TTL], protocol]);
        let held = u16::from_be_bytes([data[field::CHECKSUM.start], data[field::CHECKSUM.start + 1]]);
        let ck = checksum::update(held, old, u16::from_be_bytes([value, protocol]));
        data[field::TTL] = value;
        data[field::CHECKSUM].copy_from_slice(&ck.to_be_bytes());
    }

    /// Sets the transport protocol.
    pub fn set_protocol(&mut self, value: Protocol) {
        self.buffer.as_mut()[field::PROTOCOL] = value.into();
    }

    /// Sets the source address.
    pub fn set_src_addr(&mut self, value: Ipv4Addr) {
        self.buffer.as_mut()[field::SRC_ADDR].copy_from_slice(&value.octets());
    }

    /// Sets the destination address.
    pub fn set_dst_addr(&mut self, value: Ipv4Addr) {
        self.buffer.as_mut()[field::DST_ADDR].copy_from_slice(&value.octets());
    }

    /// Recomputes and stores the header checksum.
    pub fn fill_checksum(&mut self) {
        self.buffer.as_mut()[field::CHECKSUM].copy_from_slice(&[0, 0]);
        let header_len = self.header_len();
        let ck = checksum::checksum(&self.buffer.as_ref()[..header_len]);
        self.buffer.as_mut()[field::CHECKSUM].copy_from_slice(&ck.to_be_bytes());
    }
}

/// An owned, high-level representation of an IPv4 header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Repr {
    pub src_addr: Ipv4Addr,
    pub dst_addr: Ipv4Addr,
    pub protocol: Protocol,
    pub ttl: u8,
    pub ident: u16,
    pub dont_fragment: bool,
    pub more_fragments: bool,
    /// Fragment offset in bytes.
    pub frag_offset: usize,
    /// Transport payload length in bytes.
    pub payload_len: usize,
}

impl Ipv4Repr {
    /// A non-fragmented header template with TTL 64.
    pub fn new(src_addr: Ipv4Addr, dst_addr: Ipv4Addr, protocol: Protocol, payload_len: usize) -> Self {
        Ipv4Repr {
            src_addr,
            dst_addr,
            protocol,
            ttl: 64,
            ident: 0,
            dont_fragment: false,
            more_fragments: false,
            frag_offset: 0,
            payload_len,
        }
    }

    /// Parses the representation out of a validated packet view.
    pub fn parse<T: AsRef<[u8]>>(packet: &Ipv4Packet<T>) -> Result<Ipv4Repr> {
        packet.check_len()?;
        Ok(Ipv4Repr {
            src_addr: packet.src_addr(),
            dst_addr: packet.dst_addr(),
            protocol: packet.protocol(),
            ttl: packet.ttl(),
            ident: packet.ident(),
            dont_fragment: packet.dont_fragment(),
            more_fragments: packet.more_fragments(),
            frag_offset: packet.frag_offset(),
            payload_len: packet.total_len() - packet.header_len(),
        })
    }

    /// Total emitted datagram length.
    pub fn total_len(&self) -> usize {
        HEADER_LEN + self.payload_len
    }

    /// Emits the header into `packet` and recomputes the checksum. The
    /// caller fills the payload separately (before or after; the header
    /// checksum does not cover it).
    pub fn emit<T: AsRef<[u8]> + AsMut<[u8]>>(&self, packet: &mut Ipv4Packet<T>) {
        packet.set_default_header();
        packet.set_total_len(self.total_len() as u16);
        packet.set_ident(self.ident);
        // Clear the flags/offset word, then apply.
        packet.set_flg_off(0);
        packet.set_dont_fragment(self.dont_fragment);
        packet.set_more_fragments(self.more_fragments);
        packet.set_frag_offset(self.frag_offset);
        packet.set_ttl(self.ttl);
        packet.set_protocol(self.protocol);
        packet.set_src_addr(self.src_addr);
        packet.set_dst_addr(self.dst_addr);
        packet.fill_checksum();
    }

    /// Builds a full datagram (header + `payload`) as an owned buffer.
    pub fn build(&self, payload: &[u8]) -> Vec<u8> {
        debug_assert_eq!(payload.len(), self.payload_len);
        let mut buffer = vec![0u8; self.total_len()];
        buffer[HEADER_LEN..].copy_from_slice(payload);
        let mut packet = Ipv4Packet::new_unchecked(&mut buffer[..]);
        self.emit(&mut packet);
        buffer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repr() -> Ipv4Repr {
        Ipv4Repr {
            src_addr: Ipv4Addr::new(10, 1, 2, 3),
            dst_addr: Ipv4Addr::new(203, 0, 113, 9),
            protocol: Protocol::Tcp,
            ttl: 61,
            ident: 0xbeef,
            dont_fragment: true,
            more_fragments: false,
            frag_offset: 0,
            payload_len: 4,
        }
    }

    #[test]
    fn emit_parse_roundtrip() -> Result<()> {
        let bytes = repr().build(&[1, 2, 3, 4]);
        let packet = Ipv4Packet::new_checked(&bytes[..])?;
        assert!(packet.verify_checksum());
        assert_eq!(Ipv4Repr::parse(&packet)?, repr());
        assert_eq!(packet.payload(), &[1, 2, 3, 4]);
        Ok(())
    }

    #[test]
    fn fragment_fields_roundtrip() -> Result<()> {
        let mut r = repr();
        r.dont_fragment = false;
        r.more_fragments = true;
        r.frag_offset = 1480;
        let bytes = r.build(&[9, 9, 9, 9]);
        let packet = Ipv4Packet::new_checked(&bytes[..])?;
        assert!(packet.is_fragment());
        assert!(packet.more_fragments());
        assert_eq!(packet.frag_offset(), 1480);
        Ok(())
    }

    #[test]
    fn non_fragment_is_not_fragment() -> Result<()> {
        let bytes = repr().build(&[0; 4]);
        assert!(!Ipv4Packet::new_checked(&bytes[..])?.is_fragment());
        Ok(())
    }

    #[test]
    fn rejects_short_buffer() {
        assert_eq!(Ipv4Packet::new_checked(&[0u8; 10][..]).unwrap_err(), Error::Truncated);
    }

    #[test]
    fn rejects_wrong_version() {
        let mut bytes = repr().build(&[0; 4]);
        bytes[0] = 0x65; // version 6
        assert_eq!(Ipv4Packet::new_checked(&bytes[..]).unwrap_err(), Error::Malformed);
    }

    #[test]
    fn rejects_total_len_past_buffer() {
        let mut bytes = repr().build(&[0; 4]);
        bytes[2..4].copy_from_slice(&100u16.to_be_bytes());
        assert_eq!(Ipv4Packet::new_checked(&bytes[..]).unwrap_err(), Error::Truncated);
    }

    #[test]
    fn ttl_rewrite_preserves_rest() -> Result<()> {
        let bytes = repr().build(&[7; 4]);
        let mut copy = bytes.clone();
        let mut packet = Ipv4Packet::new_unchecked(&mut copy[..]);
        packet.set_ttl(3);
        packet.fill_checksum();
        let reparsed = Ipv4Packet::new_checked(&copy[..])?;
        assert!(reparsed.verify_checksum());
        assert_eq!(reparsed.ttl(), 3);
        assert_eq!(reparsed.src_addr(), Ipv4Addr::new(10, 1, 2, 3));
        assert_eq!(reparsed.payload(), &[7; 4]);
        Ok(())
    }

    #[test]
    fn protocol_conversions() {
        for (num, proto) in [(1u8, Protocol::Icmp), (6, Protocol::Tcp), (17, Protocol::Udp), (89, Protocol::Other(89))] {
            assert_eq!(Protocol::from(num), proto);
            assert_eq!(u8::from(proto), num);
        }
    }
}
