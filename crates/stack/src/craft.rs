//! Raw packet construction helpers, shared by the host stacks and by every
//! measurement probe in `tspu-measure`.

use std::net::Ipv4Addr;

use tspu_wire::icmpv4::Icmpv4Repr;
use tspu_wire::ipv4::{Ipv4Repr, Protocol};
use tspu_wire::tcp::{TcpFlags, TcpSegment};
use tspu_wire::udp::UdpRepr;

/// Everything needed to emit one TCP segment inside an IPv4 packet.
#[derive(Debug, Clone)]
pub struct TcpPacketSpec {
    pub src: Ipv4Addr,
    pub src_port: u16,
    pub dst: Ipv4Addr,
    pub dst_port: u16,
    pub flags: TcpFlags,
    pub seq: u32,
    pub ack: u32,
    pub window: u16,
    pub ttl: u8,
    pub ident: u16,
    pub payload: Vec<u8>,
}

impl TcpPacketSpec {
    /// A sensible default: TTL 64, window 64240, seq/ack 0, empty payload.
    pub fn new(src: Ipv4Addr, src_port: u16, dst: Ipv4Addr, dst_port: u16, flags: TcpFlags) -> Self {
        TcpPacketSpec {
            src,
            src_port,
            dst,
            dst_port,
            flags,
            seq: 0,
            ack: 0,
            window: 64240,
            ttl: 64,
            ident: 0,
            payload: Vec::new(),
        }
    }

    /// Sets the payload.
    pub fn payload(mut self, payload: Vec<u8>) -> Self {
        self.payload = payload;
        self
    }

    /// Sets seq and ack numbers.
    pub fn seq_ack(mut self, seq: u32, ack: u32) -> Self {
        self.seq = seq;
        self.ack = ack;
        self
    }

    /// Sets the IP TTL (TTL-limited probing, §7.1).
    pub fn ttl(mut self, ttl: u8) -> Self {
        self.ttl = ttl;
        self
    }

    /// Sets the IP identification (fragmentation probes key on it).
    pub fn ident(mut self, ident: u16) -> Self {
        self.ident = ident;
        self
    }

    /// Sets the advertised window.
    pub fn window(mut self, window: u16) -> Self {
        self.window = window;
        self
    }

    /// Builds the full IPv4 packet bytes.
    pub fn build(&self) -> Vec<u8> {
        self.build_with(&self.payload)
    }

    /// [`TcpPacketSpec::build`] with `payload` in place of `self.payload`:
    /// one buffer allocation, headers and checksums written in place. The
    /// probe hot path crafts thousands of volley packets per scan, so the
    /// spec borrows the scripted payload instead of owning a copy.
    pub fn build_with(&self, payload: &[u8]) -> Vec<u8> {
        let mut buffer = Vec::new();
        self.build_into(payload, &mut buffer);
        buffer
    }

    /// [`TcpPacketSpec::build_with`] into a caller-provided buffer, so scan
    /// loops can recycle packet allocations. The buffer is cleared and
    /// refilled; every byte of the result is written.
    pub fn build_into(&self, payload: &[u8], buffer: &mut Vec<u8>) {
        self.build_appending(payload.len(), |out| out.extend_from_slice(payload), buffer);
    }

    /// [`TcpPacketSpec::build_into`] with the payload appended to the
    /// buffer by `append`, which is told to expect `len` bytes: each
    /// payload byte is written once, straight into the packet that carries
    /// it. Only the headers are zeroed before they are written.
    pub(crate) fn build_appending(
        &self,
        len: usize,
        append: impl FnOnce(&mut Vec<u8>),
        buffer: &mut Vec<u8>,
    ) {
        use tspu_wire::{ipv4, tcp};
        const HEADERS: usize = ipv4::HEADER_LEN + tcp::HEADER_LEN;
        buffer.clear();
        buffer.reserve(HEADERS + len);
        buffer.resize(HEADERS, 0);
        append(buffer);
        let tcp_len = buffer.len() - ipv4::HEADER_LEN;
        {
            let mut segment = TcpSegment::new_unchecked(&mut buffer[ipv4::HEADER_LEN..]);
            segment.set_src_port(self.src_port);
            segment.set_dst_port(self.dst_port);
            segment.set_seq_number(self.seq);
            segment.set_ack_number(self.ack);
            segment.set_header_len(tcp::HEADER_LEN);
            segment.set_flags(self.flags);
            segment.set_window(self.window);
            segment.set_urgent(0);
            segment.fill_checksum(self.src, self.dst);
        }
        let mut ip = Ipv4Repr::new(self.src, self.dst, Protocol::Tcp, tcp_len);
        ip.ttl = self.ttl;
        ip.ident = self.ident;
        let mut packet = tspu_wire::ipv4::Ipv4Packet::new_unchecked(&mut buffer[..]);
        ip.emit(&mut packet);
    }
}

/// Builds a UDP datagram inside an IPv4 packet.
pub fn udp_packet(
    src: Ipv4Addr,
    src_port: u16,
    dst: Ipv4Addr,
    dst_port: u16,
    payload: &[u8],
) -> Vec<u8> {
    let datagram = UdpRepr::new(src_port, dst_port, payload.to_vec()).build(src, dst);
    Ipv4Repr::new(src, dst, Protocol::Udp, datagram.len()).build(&datagram)
}

/// Builds an ICMP echo request inside an IPv4 packet.
pub fn icmp_echo_request(src: Ipv4Addr, dst: Ipv4Addr, ident: u16, seq_no: u16) -> Vec<u8> {
    let icmp = Icmpv4Repr::EchoRequest { ident, seq_no }.build();
    Ipv4Repr::new(src, dst, Protocol::Icmp, icmp.len()).build(&icmp)
}

/// Builds an ICMP echo reply inside an IPv4 packet.
pub fn icmp_echo_reply(src: Ipv4Addr, dst: Ipv4Addr, ident: u16, seq_no: u16) -> Vec<u8> {
    let icmp = Icmpv4Repr::EchoReply { ident, seq_no }.build();
    Ipv4Repr::new(src, dst, Protocol::Icmp, icmp.len()).build(&icmp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tspu_wire::ipv4::Ipv4Packet;
    use tspu_wire::tcp::TcpSegment;
    use tspu_wire::udp::UdpDatagram;

    const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    #[test]
    fn tcp_spec_builds_valid_packet() -> tspu_wire::Result<()> {
        let bytes = TcpPacketSpec::new(A, 1234, B, 443, TcpFlags::SYN)
            .seq_ack(100, 0)
            .ttl(3)
            .window(512)
            .payload(b"x".to_vec())
            .build();
        let ip = Ipv4Packet::new_checked(&bytes[..])?;
        assert!(ip.verify_checksum());
        assert_eq!(ip.ttl(), 3);
        let tcp = TcpSegment::new_checked(ip.payload())?;
        assert!(tcp.verify_checksum(A, B));
        assert_eq!(tcp.src_port(), 1234);
        assert_eq!(tcp.window(), 512);
        assert_eq!(tcp.payload(), b"x");
        Ok(())
    }

    #[test]
    fn udp_builds_valid_packet() -> tspu_wire::Result<()> {
        let bytes = udp_packet(A, 5000, B, 443, &[0xaa; 1200]);
        let ip = Ipv4Packet::new_checked(&bytes[..])?;
        let udp = UdpDatagram::new_checked(ip.payload())?;
        assert!(udp.verify_checksum(A, B));
        assert_eq!(udp.payload().len(), 1200);
        Ok(())
    }

    #[test]
    fn icmp_builders() -> tspu_wire::Result<()> {
        for bytes in [icmp_echo_request(A, B, 7, 1), icmp_echo_reply(B, A, 7, 1)] {
            let ip = Ipv4Packet::new_checked(&bytes[..])?;
            assert!(ip.verify_checksum());
            assert_eq!(u8::from(ip.protocol()), 1);
        }
        Ok(())
    }
}
