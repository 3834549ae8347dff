//! Carrier-grade NAT as a middlebox.
//!
//! Roskomnadzor's installation guideline puts TSPU devices *before* (on
//! the subscriber side of) CG-NAT (§7.1), and the paper's remote
//! fragmentation scan explicitly cannot see devices behind a NAT (§7.3's
//! limitations: measured deployment counts are a lower bound). This NAT
//! model makes that limitation reproducible:
//!
//! * outbound TCP/UDP flows get (address, port) translations from a
//!   public pool, inbound packets are reverse-translated;
//! * unsolicited inbound packets are dropped (endpoint-independent
//!   filtering would be more permissive; subscriber NATs reject);
//! * **non-first fragments are dropped** — they carry no transport
//!   header, so a NAT that does not reassemble cannot translate them
//!   (the common CG-NAT behavior, and the precise reason fragmented
//!   probes die at the NAT boundary).

use std::collections::HashMap;
use std::net::Ipv4Addr;

use tspu_wire::ipv4::{Ipv4Packet, Protocol};
use tspu_wire::tcp::TcpSegment;
use tspu_wire::udp::UdpDatagram;

use crate::middlebox::{Direction, Middlebox, Verdict};
use crate::time::Time;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct InnerKey {
    addr: Ipv4Addr,
    port: u16,
    proto: u8,
}

/// The CG-NAT box.
pub struct Cgnat {
    public_addr: Ipv4Addr,
    next_port: u16,
    outbound: HashMap<InnerKey, u16>,
    inbound: HashMap<(u16, u8), InnerKey>,
    /// Fragments dropped (the §7.3 observable).
    pub fragments_dropped: u64,
    /// Unsolicited inbound packets dropped.
    pub unsolicited_dropped: u64,
}

impl Cgnat {
    /// Creates a NAT translating to `public_addr`.
    pub fn new(public_addr: Ipv4Addr) -> Cgnat {
        Cgnat {
            public_addr,
            next_port: 10_000,
            outbound: HashMap::new(),
            inbound: HashMap::new(),
            fragments_dropped: 0,
            unsolicited_dropped: 0,
        }
    }

    /// The public address of this NAT.
    pub fn public_addr(&self) -> Ipv4Addr {
        self.public_addr
    }

    /// Active translations.
    pub fn sessions(&self) -> usize {
        self.outbound.len()
    }

    fn allocate(&mut self, key: InnerKey) -> u16 {
        if let Some(&port) = self.outbound.get(&key) {
            return port;
        }
        let port = self.next_port;
        self.next_port = self.next_port.wrapping_add(1).max(10_000);
        self.outbound.insert(key, port);
        self.inbound.insert((port, key.proto), key);
        port
    }

    fn translate_out(&mut self, packet: &[u8]) -> Option<Vec<u8>> {
        let mut bytes = packet.to_vec();
        let view = Ipv4Packet::new_unchecked(&bytes[..]);
        let (src, dst, proto) = (view.src_addr(), view.dst_addr(), view.protocol());
        let header_len = view.header_len();
        match proto {
            Protocol::Tcp => {
                let seg = TcpSegment::new_checked(&bytes[header_len..]).ok()?;
                let key = InnerKey { addr: src, port: seg.src_port(), proto: 6 };
                let public_port = self.allocate(key);
                let mut seg = TcpSegment::new_unchecked(&mut bytes[header_len..]);
                seg.set_src_port(public_port);
                seg.fill_checksum(self.public_addr, dst);
            }
            Protocol::Udp => {
                let datagram = UdpDatagram::new_checked(&bytes[header_len..]).ok()?;
                let key = InnerKey { addr: src, port: datagram.src_port(), proto: 17 };
                let public_port = self.allocate(key);
                let mut datagram = UdpDatagram::new_unchecked(&mut bytes[header_len..]);
                datagram.set_src_port(public_port);
                datagram.fill_checksum(self.public_addr, dst);
            }
            _ => return None, // ICMP & friends: not translated here
        }
        let mut ip = Ipv4Packet::new_unchecked(&mut bytes[..]);
        ip.set_src_addr(self.public_addr);
        ip.fill_checksum();
        Some(bytes)
    }

    fn translate_in(&mut self, packet: &[u8]) -> Option<Vec<u8>> {
        let mut bytes = packet.to_vec();
        let view = Ipv4Packet::new_unchecked(&bytes[..]);
        let header_len = view.header_len();
        let src = view.src_addr();
        let (public_port, proto) = match view.protocol() {
            Protocol::Tcp => {
                let seg = TcpSegment::new_checked(&bytes[header_len..]).ok()?;
                (seg.dst_port(), 6u8)
            }
            Protocol::Udp => {
                let datagram = UdpDatagram::new_checked(&bytes[header_len..]).ok()?;
                (datagram.dst_port(), 17u8)
            }
            _ => return None,
        };
        let key = *self.inbound.get(&(public_port, proto))?;
        match proto {
            6 => {
                let mut seg = TcpSegment::new_unchecked(&mut bytes[header_len..]);
                seg.set_dst_port(key.port);
                seg.fill_checksum(src, key.addr);
            }
            _ => {
                let mut datagram = UdpDatagram::new_unchecked(&mut bytes[header_len..]);
                datagram.set_dst_port(key.port);
                datagram.fill_checksum(src, key.addr);
            }
        }
        let mut ip = Ipv4Packet::new_unchecked(&mut bytes[..]);
        ip.set_dst_addr(key.addr);
        ip.fill_checksum();
        Some(bytes)
    }
}

impl Middlebox for Cgnat {
    fn process(&mut self, _now: Time, direction: Direction, packet: &mut Vec<u8>) -> Verdict {
        let Ok(view) = Ipv4Packet::new_checked(&packet[..]) else {
            return Verdict::Pass;
        };
        if view.is_fragment() {
            // No transport header (or unmatchable train): untranslatable.
            self.fragments_dropped += 1;
            return Verdict::Drop;
        }
        match direction {
            Direction::LocalToRemote => match self.translate_out(packet) {
                Some(translated) => Verdict::Replace(translated),
                None => Verdict::Pass,
            },
            Direction::RemoteToLocal => match self.translate_in(packet) {
                Some(translated) => Verdict::Replace(translated),
                None => {
                    self.unsolicited_dropped += 1;
                    Verdict::Drop
                }
            },
        }
    }

    fn label(&self) -> String {
        format!("cgnat({})", self.public_addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tspu_wire::ipv4::Ipv4Repr;
    use tspu_wire::tcp::{TcpFlags, TcpRepr};

    const INNER: Ipv4Addr = Ipv4Addr::new(100, 64, 5, 2);
    const PUBLIC: Ipv4Addr = Ipv4Addr::new(5, 18, 0, 1);
    const SERVER: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 3);

    fn tcp(src: Ipv4Addr, sp: u16, dst: Ipv4Addr, dp: u16, flags: TcpFlags) -> Vec<u8> {
        let seg = TcpRepr::new(sp, dp, flags).build(src, dst);
        Ipv4Repr::new(src, dst, Protocol::Tcp, seg.len()).build(&seg)
    }

    #[test]
    fn outbound_translation_and_return_path() -> Result<(), tspu_wire::Error> {
        let mut nat = Cgnat::new(PUBLIC);
        let syn = tcp(INNER, 40_000, SERVER, 443, TcpFlags::SYN);
        let out = nat.process_owned(Time::ZERO, Direction::LocalToRemote, syn.clone());
        assert_eq!(out.len(), 1);
        let view = Ipv4Packet::new_checked(&out[0][..])?;
        assert_eq!(view.src_addr(), PUBLIC);
        assert!(view.verify_checksum());
        let seg = TcpSegment::new_checked(view.payload())?;
        let public_port = seg.src_port();
        assert!(seg.verify_checksum(PUBLIC, SERVER));

        // Reply to the translated port returns to the inner host.
        let synack = tcp(SERVER, 443, PUBLIC, public_port, TcpFlags::SYN_ACK);
        let back = nat.process_owned(Time::ZERO, Direction::RemoteToLocal, synack.clone());
        assert_eq!(back.len(), 1);
        let view = Ipv4Packet::new_checked(&back[0][..])?;
        assert_eq!(view.dst_addr(), INNER);
        let seg = TcpSegment::new_checked(view.payload())?;
        assert_eq!(seg.dst_port(), 40_000);
        assert!(seg.verify_checksum(SERVER, INNER));
        assert_eq!(nat.sessions(), 1);
        Ok(())
    }

    #[test]
    fn mapping_is_stable_per_flow() {
        let mut nat = Cgnat::new(PUBLIC);
        let pkt = tcp(INNER, 40_001, SERVER, 443, TcpFlags::SYN);
        let a = nat.process_owned(Time::ZERO, Direction::LocalToRemote, pkt.clone());
        let b = nat.process_owned(Time::ZERO, Direction::LocalToRemote, pkt.clone());
        let port = |bytes: &Vec<u8>| {
            let view = Ipv4Packet::new_unchecked(&bytes[..]);
            TcpSegment::new_unchecked(view.payload()).src_port()
        };
        assert_eq!(port(&a[0]), port(&b[0]));
    }

    #[test]
    fn unsolicited_inbound_dropped() {
        let mut nat = Cgnat::new(PUBLIC);
        let probe = tcp(SERVER, 5555, PUBLIC, 40_404, TcpFlags::SYN);
        assert!(nat.process_owned(Time::ZERO, Direction::RemoteToLocal, probe.clone()).is_empty());
        assert_eq!(nat.unsolicited_dropped, 1);
    }

    #[test]
    fn fragments_die_at_the_nat() -> Result<(), tspu_wire::Error> {
        // §7.3: the fragmentation scan cannot cross a NAT.
        let mut nat = Cgnat::new(PUBLIC);
        let mut tcp_syn = TcpRepr::new(1234, 443, TcpFlags::SYN);
        tcp_syn.payload = vec![0xaa; 256];
        let seg = tcp_syn.build(SERVER, PUBLIC);
        let packet = Ipv4Repr::new(SERVER, PUBLIC, Protocol::Tcp, seg.len()).build(&seg);
        for fragment in tspu_wire::frag::fragment(&packet, 64)? {
            assert!(nat.process_owned(Time::ZERO, Direction::RemoteToLocal, fragment.clone()).is_empty());
        }
        assert!(nat.fragments_dropped >= 4);
        Ok(())
    }

    #[test]
    fn distinct_inner_hosts_get_distinct_ports() {
        let mut nat = Cgnat::new(PUBLIC);
        let other = Ipv4Addr::new(100, 64, 5, 3);
        let a = nat.process_owned(Time::ZERO, Direction::LocalToRemote, tcp(INNER, 40_000, SERVER, 443, TcpFlags::SYN));
        let b = nat.process_owned(Time::ZERO, Direction::LocalToRemote, tcp(other, 40_000, SERVER, 443, TcpFlags::SYN));
        let port = |bytes: &Vec<u8>| {
            let view = Ipv4Packet::new_unchecked(&bytes[..]);
            TcpSegment::new_unchecked(view.payload()).src_port()
        };
        assert_ne!(port(&a[0]), port(&b[0]));
        assert_eq!(nat.sessions(), 2);
    }
}
