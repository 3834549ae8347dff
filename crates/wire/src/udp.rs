//! UDP datagram view and representation.
//!
//! QUIC rides on UDP; the TSPU's QUIC filter keys on the UDP destination
//! port (443) and the payload length (≥ 1001 bytes) before it even looks at
//! the QUIC header (paper §5.2).

use std::net::Ipv4Addr;

use crate::checksum;
use crate::{Error, Result};

mod field {
    pub const SRC_PORT: core::ops::Range<usize> = 0..2;
    pub const DST_PORT: core::ops::Range<usize> = 2..4;
    pub const LENGTH: core::ops::Range<usize> = 4..6;
    pub const CHECKSUM: core::ops::Range<usize> = 6..8;
}

/// UDP header length.
pub const HEADER_LEN: usize = 8;

/// A read (and optionally write) view over a UDP datagram buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UdpDatagram<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> UdpDatagram<T> {
    /// Wraps a buffer without validating it.
    pub fn new_unchecked(buffer: T) -> UdpDatagram<T> {
        UdpDatagram { buffer }
    }

    /// Wraps a buffer, validating the header and length field.
    pub fn new_checked(buffer: T) -> Result<UdpDatagram<T>> {
        let datagram = Self::new_unchecked(buffer);
        datagram.check_len()?;
        Ok(datagram)
    }

    /// Validates the header and the length field against the buffer.
    pub fn check_len(&self) -> Result<()> {
        let data = self.buffer.as_ref();
        if data.len() < HEADER_LEN {
            return Err(Error::Truncated);
        }
        let len = self.len_field();
        if len < HEADER_LEN || len > data.len() {
            return Err(Error::Truncated);
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

    /// The UDP length field (header + payload).
    pub fn len_field(&self) -> usize {
        let d = self.buffer.as_ref();
        usize::from(u16::from_be_bytes([d[field::LENGTH.start], d[field::LENGTH.start + 1]]))
    }

    /// The datagram payload, bounded by the length field.
    pub fn payload(&self) -> &[u8] {
        &self.buffer.as_ref()[HEADER_LEN..self.len_field().min(self.buffer.as_ref().len())]
    }

    /// Verifies the transport checksum (0 means "no checksum" per RFC 768).
    pub fn verify_checksum(&self, src: Ipv4Addr, dst: Ipv4Addr) -> bool {
        let d = self.buffer.as_ref();
        let stored = u16::from_be_bytes([d[field::CHECKSUM.start], d[field::CHECKSUM.start + 1]]);
        if stored == 0 {
            return true;
        }
        checksum::pseudo_header_verify(src, dst, 17, d)
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> UdpDatagram<T> {
    pub fn set_src_port(&mut self, value: u16) {
        self.buffer.as_mut()[field::SRC_PORT].copy_from_slice(&value.to_be_bytes());
    }

    pub fn set_dst_port(&mut self, value: u16) {
        self.buffer.as_mut()[field::DST_PORT].copy_from_slice(&value.to_be_bytes());
    }

    pub fn set_len_field(&mut self, value: u16) {
        self.buffer.as_mut()[field::LENGTH].copy_from_slice(&value.to_be_bytes());
    }

    /// Recomputes the transport checksum under the IPv4 pseudo-header.
    pub fn fill_checksum(&mut self, src: Ipv4Addr, dst: Ipv4Addr) {
        self.buffer.as_mut()[field::CHECKSUM].copy_from_slice(&[0, 0]);
        let mut ck = checksum::pseudo_header_checksum(src, dst, 17, self.buffer.as_ref());
        // RFC 768: a computed zero checksum is transmitted as all-ones.
        if ck == 0 {
            ck = 0xffff;
        }
        self.buffer.as_mut()[field::CHECKSUM].copy_from_slice(&ck.to_be_bytes());
    }
}

/// An owned representation of a UDP datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UdpRepr {
    pub src_port: u16,
    pub dst_port: u16,
    pub payload: Vec<u8>,
}

impl UdpRepr {
    pub fn new(src_port: u16, dst_port: u16, payload: Vec<u8>) -> UdpRepr {
        UdpRepr { src_port, dst_port, payload }
    }

    /// Parses a representation out of a validated datagram view.
    pub fn parse<T: AsRef<[u8]>>(datagram: &UdpDatagram<T>) -> Result<UdpRepr> {
        datagram.check_len()?;
        Ok(UdpRepr {
            src_port: datagram.src_port(),
            dst_port: datagram.dst_port(),
            payload: datagram.payload().to_vec(),
        })
    }

    /// Emitted datagram length.
    pub fn datagram_len(&self) -> usize {
        HEADER_LEN + self.payload.len()
    }

    /// Builds the datagram bytes, computing the checksum for `src`/`dst`.
    pub fn build(&self, src: Ipv4Addr, dst: Ipv4Addr) -> Vec<u8> {
        let mut buffer = vec![0u8; self.datagram_len()];
        buffer[HEADER_LEN..].copy_from_slice(&self.payload);
        let mut datagram = UdpDatagram::new_unchecked(&mut buffer[..]);
        datagram.set_src_port(self.src_port);
        datagram.set_dst_port(self.dst_port);
        datagram.set_len_field(self.datagram_len() as u16);
        datagram.fill_checksum(src, dst);
        buffer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: Ipv4Addr = Ipv4Addr::new(172, 16, 0, 1);
    const DST: Ipv4Addr = Ipv4Addr::new(172, 16, 0, 2);

    #[test]
    fn build_parse_roundtrip() -> Result<()> {
        let repr = UdpRepr::new(5353, 443, vec![0xab; 32]);
        let bytes = repr.build(SRC, DST);
        let datagram = UdpDatagram::new_checked(&bytes[..])?;
        assert!(datagram.verify_checksum(SRC, DST));
        assert_eq!(UdpRepr::parse(&datagram)?, repr);
        Ok(())
    }

    #[test]
    fn zero_checksum_accepted() -> Result<()> {
        let repr = UdpRepr::new(1, 2, vec![1, 2, 3]);
        let mut bytes = repr.build(SRC, DST);
        bytes[6] = 0;
        bytes[7] = 0;
        let datagram = UdpDatagram::new_checked(&bytes[..])?;
        assert!(datagram.verify_checksum(SRC, DST));
        Ok(())
    }

    #[test]
    fn rejects_length_field_past_buffer() {
        let repr = UdpRepr::new(1, 2, vec![0; 4]);
        let mut bytes = repr.build(SRC, DST);
        bytes[4..6].copy_from_slice(&200u16.to_be_bytes());
        assert_eq!(UdpDatagram::new_checked(&bytes[..]).unwrap_err(), Error::Truncated);
    }

    #[test]
    fn rejects_short_buffer() {
        assert_eq!(UdpDatagram::new_checked(&[0u8; 4][..]).unwrap_err(), Error::Truncated);
    }
}
