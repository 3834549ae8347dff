//! ICMPv4 echo messages.
//!
//! The paper observes that ICMP pings to and from IP-blocked hosts are
//! dropped by the TSPU (§5.2, IP-based blocking); this module provides the
//! echo request/reply the simulator's ping uses, plus TTL-exceeded messages
//! the simulated routers emit for traceroute (§7.2).

use crate::checksum;
use crate::{Error, Result};

/// ICMP message kinds modeled here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Icmpv4Repr {
    EchoRequest { ident: u16, seq_no: u16 },
    EchoReply { ident: u16, seq_no: u16 },
    /// Time exceeded in transit (type 11 code 0), carrying no modeled body.
    TimeExceeded,
    /// Destination unreachable (type 3) with the given code.
    DestUnreachable { code: u8 },
}

/// ICMP header length for the message kinds modeled here.
pub const HEADER_LEN: usize = 8;

mod field {
    pub const TYPE: usize = 0;
    pub const CODE: usize = 1;
    pub const CHECKSUM: core::ops::Range<usize> = 2..4;
    pub const IDENT: core::ops::Range<usize> = 4..6;
    pub const SEQ: core::ops::Range<usize> = 6..8;
}

/// A view over an ICMPv4 message buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Icmpv4Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Icmpv4Packet<T> {
    /// Wraps a buffer without validating it.
    pub fn new_unchecked(buffer: T) -> Icmpv4Packet<T> {
        Icmpv4Packet { buffer }
    }

    /// Wraps a buffer, validating the minimum length.
    pub fn new_checked(buffer: T) -> Result<Icmpv4Packet<T>> {
        let packet = Self::new_unchecked(buffer);
        packet.check_len()?;
        Ok(packet)
    }

    /// Validates the minimum header length.
    pub fn check_len(&self) -> Result<()> {
        if self.buffer.as_ref().len() < HEADER_LEN {
            return Err(Error::Truncated);
        }
        Ok(())
    }

    pub fn msg_type(&self) -> u8 {
        self.buffer.as_ref()[field::TYPE]
    }

    pub fn msg_code(&self) -> u8 {
        self.buffer.as_ref()[field::CODE]
    }

    pub fn ident(&self) -> u16 {
        let d = self.buffer.as_ref();
        u16::from_be_bytes([d[field::IDENT.start], d[field::IDENT.start + 1]])
    }

    pub fn seq_no(&self) -> u16 {
        let d = self.buffer.as_ref();
        u16::from_be_bytes([d[field::SEQ.start], d[field::SEQ.start + 1]])
    }

    /// Verifies the message checksum.
    pub fn verify_checksum(&self) -> bool {
        checksum::verify(self.buffer.as_ref())
    }
}

impl Icmpv4Repr {
    /// Parses the representation from a validated view.
    pub fn parse<T: AsRef<[u8]>>(packet: &Icmpv4Packet<T>) -> Result<Icmpv4Repr> {
        packet.check_len()?;
        match (packet.msg_type(), packet.msg_code()) {
            (8, 0) => Ok(Icmpv4Repr::EchoRequest { ident: packet.ident(), seq_no: packet.seq_no() }),
            (0, 0) => Ok(Icmpv4Repr::EchoReply { ident: packet.ident(), seq_no: packet.seq_no() }),
            (11, 0) => Ok(Icmpv4Repr::TimeExceeded),
            (3, code) => Ok(Icmpv4Repr::DestUnreachable { code }),
            _ => Err(Error::Malformed),
        }
    }

    /// Builds the message bytes with a valid checksum.
    pub fn build(&self) -> Vec<u8> {
        let mut buffer = vec![0u8; HEADER_LEN];
        let (ty, code, ident, seq) = match *self {
            Icmpv4Repr::EchoRequest { ident, seq_no } => (8, 0, ident, seq_no),
            Icmpv4Repr::EchoReply { ident, seq_no } => (0, 0, ident, seq_no),
            Icmpv4Repr::TimeExceeded => (11, 0, 0, 0),
            Icmpv4Repr::DestUnreachable { code } => (3, code, 0, 0),
        };
        buffer[field::TYPE] = ty;
        buffer[field::CODE] = code;
        buffer[field::IDENT].copy_from_slice(&ident.to_be_bytes());
        buffer[field::SEQ].copy_from_slice(&seq.to_be_bytes());
        let ck = checksum::checksum(&buffer);
        buffer[field::CHECKSUM].copy_from_slice(&ck.to_be_bytes());
        buffer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_roundtrip() -> Result<()> {
        for repr in [
            Icmpv4Repr::EchoRequest { ident: 77, seq_no: 3 },
            Icmpv4Repr::EchoReply { ident: 77, seq_no: 3 },
            Icmpv4Repr::TimeExceeded,
            Icmpv4Repr::DestUnreachable { code: 1 },
        ] {
            let bytes = repr.build();
            let packet = Icmpv4Packet::new_checked(&bytes[..])?;
            assert!(packet.verify_checksum());
            assert_eq!(Icmpv4Repr::parse(&packet)?, repr);
        }
        Ok(())
    }

    #[test]
    fn rejects_unknown_type() -> Result<()> {
        let mut bytes = Icmpv4Repr::TimeExceeded.build();
        bytes[0] = 42;
        let packet = Icmpv4Packet::new_checked(&bytes[..])?;
        assert_eq!(Icmpv4Repr::parse(&packet).unwrap_err(), Error::Malformed);
        Ok(())
    }

    #[test]
    fn rejects_short_buffer() {
        assert_eq!(Icmpv4Packet::new_checked(&[8u8, 0][..]).unwrap_err(), Error::Truncated);
    }
}
