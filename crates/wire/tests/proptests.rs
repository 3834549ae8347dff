//! Property-based tests over the wire formats: roundtrips, fragmentation
//! invariants, and parser robustness on arbitrary bytes.

use proptest::prelude::*;
use std::net::Ipv4Addr;
use tspu_wire::dns::{DnsQuery, DnsResponse};
use tspu_wire::frag;
use tspu_wire::http::{HttpRequest, HttpResponse};
use tspu_wire::icmpv4::{Icmpv4Packet, Icmpv4Repr};
use tspu_wire::ipv4::{Ipv4Packet, Ipv4Repr, Protocol};
use tspu_wire::quic::QuicHeader;
use tspu_wire::tcp::{TcpFlags, TcpRepr, TcpSegment};
use tspu_wire::tls::{extract_sni, ClientHello, ClientHelloBuilder, SniOutcome};
use tspu_wire::udp::{UdpDatagram, UdpRepr};

/// Up to 512 arbitrary bytes, the input of the parsers' never-panic properties.
fn arb_bytes() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..512)
}

fn arb_addr() -> impl Strategy<Value = Ipv4Addr> {
    any::<u32>().prop_map(Ipv4Addr::from)
}

proptest! {
    #[test]
    fn ipv4_roundtrip(src in arb_addr(), dst in arb_addr(), ttl in 1u8..=255,
                      ident in any::<u16>(), payload in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut repr = Ipv4Repr::new(src, dst, Protocol::Tcp, payload.len());
        repr.ttl = ttl;
        repr.ident = ident;
        let bytes = repr.build(&payload);
        let packet = Ipv4Packet::new_checked(&bytes[..]).unwrap();
        prop_assert!(packet.verify_checksum());
        prop_assert_eq!(Ipv4Repr::parse(&packet).unwrap(), repr);
        prop_assert_eq!(packet.payload(), &payload[..]);
    }

    /// A TTL rewrite updates the header checksum incrementally (RFC 1624)
    /// to exactly what re-summing the header gives, options and all. Half
    /// the cases pick the ident that makes the new checksum 0x0000: the
    /// one value an incremental update can get wrong (RFC 1141's form
    /// yields 0xffff there), and one a random header hits once in 65,535.
    #[test]
    fn ttl_rewrite_equals_a_full_recompute(
        header in proptest::collection::vec(any::<u8>(), 20..=60),
        ttls in (any::<u8>(), any::<u8>()),
        aim_at_zero in any::<bool>(),
    ) {
        let mut header = header;
        header.truncate(header.len() / 4 * 4);
        header[0] = 0x40 | (header.len() / 4) as u8;
        let checksum = |bytes: &[u8]| u16::from_be_bytes([bytes[10], bytes[11]]);
        let mut resummed = header.clone();
        let mut view = Ipv4Packet::new_unchecked(&mut resummed[..]);
        view.set_ttl(ttls.1);
        if aim_at_zero {
            view.set_ident(0);
        }
        view.fill_checksum();
        if aim_at_zero {
            // With ident 0 the header sums to !c; ident c tops the sum up
            // to 0xffff, whose checksum is 0.
            let c = checksum(&resummed);
            let mut view = Ipv4Packet::new_unchecked(&mut resummed[..]);
            view.set_ident(c);
            view.fill_checksum();
            prop_assert_eq!(checksum(&resummed), 0);
        }

        let mut rewritten = resummed.clone();
        let mut view = Ipv4Packet::new_unchecked(&mut rewritten[..]);
        view.set_ttl(ttls.0);
        view.fill_checksum();
        view.rewrite_ttl(ttls.1);
        prop_assert_eq!(rewritten, resummed);
    }

    #[test]
    fn ipv4_parse_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = Ipv4Packet::new_checked(&bytes[..]);
    }

    #[test]
    fn tcp_roundtrip(sp in any::<u16>(), dp in any::<u16>(), seq in any::<u32>(),
                     ack in any::<u32>(), flags in 0u8..=0x3f, window in any::<u16>(),
                     payload in proptest::collection::vec(any::<u8>(), 0..256)) {
        let src = Ipv4Addr::new(10, 0, 0, 1);
        let dst = Ipv4Addr::new(10, 0, 0, 2);
        let repr = TcpRepr {
            src_port: sp, dst_port: dp, seq_number: seq, ack_number: ack,
            flags: TcpFlags(flags), window, payload,
        };
        let bytes = repr.build(src, dst);
        let segment = TcpSegment::new_checked(&bytes[..]).unwrap();
        prop_assert!(segment.verify_checksum(src, dst));
        prop_assert_eq!(TcpRepr::parse(&segment).unwrap(), repr);
    }

    #[test]
    fn udp_roundtrip(sp in any::<u16>(), dp in any::<u16>(),
                     payload in proptest::collection::vec(any::<u8>(), 0..1200)) {
        let src = Ipv4Addr::new(192, 0, 2, 1);
        let dst = Ipv4Addr::new(192, 0, 2, 2);
        let repr = UdpRepr::new(sp, dp, payload);
        let bytes = repr.build(src, dst);
        let datagram = UdpDatagram::new_checked(&bytes[..]).unwrap();
        prop_assert!(datagram.verify_checksum(src, dst));
        prop_assert_eq!(UdpRepr::parse(&datagram).unwrap(), repr);
    }

    #[test]
    fn fragment_reassemble_identity(payload_len in 64usize..2048, mtu in 16usize..512) {
        let payload: Vec<u8> = (0..payload_len).map(|i| (i * 7 % 256) as u8).collect();
        let mut repr = Ipv4Repr::new(
            Ipv4Addr::new(10, 1, 1, 1), Ipv4Addr::new(10, 2, 2, 2),
            Protocol::Udp, payload.len());
        repr.ident = 0x1234;
        let original = repr.build(&payload);
        let fragments = frag::fragment(&original, mtu).unwrap();
        // Every fragment is individually a valid IPv4 packet.
        for f in &fragments {
            prop_assert!(Ipv4Packet::new_checked(&f[..]).is_ok());
        }
        prop_assert_eq!(frag::reassemble(&fragments).unwrap(), original);
    }

    #[test]
    fn fragment_into_exact(payload_len in 512usize..4096, n in 2usize..48) {
        let payload: Vec<u8> = vec![0xaa; payload_len];
        let mut repr = Ipv4Repr::new(
            Ipv4Addr::new(10, 1, 1, 1), Ipv4Addr::new(10, 2, 2, 2),
            Protocol::Tcp, payload.len());
        repr.ident = 1;
        let original = repr.build(&payload);
        match frag::fragment_into(&original, n) {
            Ok(fragments) => {
                prop_assert_eq!(fragments.len(), n);
                prop_assert_eq!(frag::reassemble(&fragments).unwrap(), original);
            }
            Err(_) => {
                // Only legal when the payload genuinely cannot be split into
                // n nonempty 8-byte-aligned pieces.
                prop_assert!(8 * (n - 1) >= payload_len);
            }
        }
    }

    #[test]
    fn extract_sni_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = extract_sni(&bytes);
    }

    #[test]
    fn sni_roundtrip_any_hostname(name in "[a-z0-9.-]{1,60}") {
        let record = ClientHelloBuilder::new(&name).build();
        prop_assert_eq!(extract_sni(&record), SniOutcome::Sni(name.into()));
    }

    #[test]
    fn client_hello_roundtrips_every_field(
        name in "[A-Za-z0-9.-]{1,60}",
        random in proptest::collection::vec(any::<u8>(), 32),
        session_id in proptest::collection::vec(any::<u8>(), 0..=32),
        suites in proptest::collection::vec(any::<u16>(), 0..24),
        extensions in proptest::collection::vec(
            (1u16..=0xffff, proptest::collection::vec(any::<u8>(), 0..64)),
            0..4,
        ),
        padding in (any::<bool>(), 0usize..600),
    ) {
        let mut builder = ClientHelloBuilder::new(&name)
            .random(random.clone().try_into().expect("32 bytes"))
            .session_id(session_id.clone())
            .cipher_suites(suites.clone());
        for (ext_type, body) in &extensions {
            builder = builder.extension(*ext_type, body.clone());
        }
        if padding.0 {
            builder = builder.padding(padding.1);
        }
        let record = builder.build();

        let lower = name.to_ascii_lowercase();
        prop_assert_eq!(extract_sni(&record), SniOutcome::Sni(lower.as_str().into()));
        let hello = ClientHello::parse(&record).expect("a built ClientHello parses");
        prop_assert_eq!(hello.sni(), Some(lower));
        prop_assert_eq!(hello.client_version, 0x0303);
        prop_assert_eq!(&hello.random[..], &random[..]);
        prop_assert_eq!(hello.session_id, session_id);
        prop_assert_eq!(hello.cipher_suites, suites);
        prop_assert_eq!(hello.compression_methods, vec![0]);
        // server_name, the two defaults, the appended ones, then padding.
        let types: Vec<u16> = hello.extensions.iter().map(|e| e.ext_type).collect();
        let mut expected = vec![0x0000, 0x002b, 0x000a];
        expected.extend(extensions.iter().map(|(ext_type, _)| *ext_type));
        if padding.0 {
            expected.push(0x0015);
        }
        prop_assert_eq!(types, expected);
        for (parsed, (_, body)) in hello.extensions[3..].iter().zip(&extensions) {
            prop_assert_eq!(&parsed.body, body);
        }
        if padding.0 {
            prop_assert_eq!(&hello.extensions[hello.extensions.len() - 1].body, &vec![0u8; padding.1]);
        }
    }

    #[test]
    fn tcp_parse_never_panics(bytes in arb_bytes()) {
        if let Ok(segment) = TcpSegment::new_checked(&bytes[..]) {
            let _ = TcpRepr::parse(&segment);
        }
    }

    #[test]
    fn udp_parse_never_panics(bytes in arb_bytes()) {
        if let Ok(datagram) = UdpDatagram::new_checked(&bytes[..]) {
            let _ = UdpRepr::parse(&datagram);
        }
    }

    #[test]
    fn icmpv4_parse_never_panics(bytes in arb_bytes()) {
        if let Ok(packet) = Icmpv4Packet::new_checked(&bytes[..]) {
            let _ = Icmpv4Repr::parse(&packet);
        }
    }

    #[test]
    fn dns_parse_never_panics(bytes in arb_bytes()) {
        let _ = DnsQuery::parse(&bytes);
        let _ = DnsResponse::parse(&bytes);
    }

    #[test]
    fn http_parse_never_panics(bytes in arb_bytes()) {
        let _ = HttpRequest::parse(&bytes);
        let _ = HttpResponse::parse(&bytes);
    }

    #[test]
    fn quic_header_parse_never_panics(bytes in arb_bytes()) {
        let _ = QuicHeader::parse(&bytes);
    }

    #[test]
    fn client_hello_parse_never_panics(bytes in arb_bytes()) {
        let _ = ClientHello::parse(&bytes);
    }

    #[test]
    fn single_byte_mutation_never_panics(seed in any::<u8>(), pos_frac in 0.0f64..1.0) {
        let record = ClientHelloBuilder::new("example.com").build();
        let mut mutated = record.clone();
        let pos = ((record.len() - 1) as f64 * pos_frac) as usize;
        mutated[pos] ^= seed | 1;
        let _ = extract_sni(&mutated);
    }
}
