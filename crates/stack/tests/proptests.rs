//! Property-based tests for the endpoint TCP state machine: two stacks
//! wired back-to-back must establish and exchange data under arbitrary
//! handshake modes, window sizes, MSS values, and payloads — and every
//! packet the connection emits must equal, byte for byte, what the
//! two-step build it replaced (`TcpRepr::build`, then `Ipv4Repr::build`
//! around it) produces, which is kept here as the reference.

use proptest::prelude::*;
use std::net::Ipv4Addr;
use std::sync::Arc;

use tspu_stack::conn::{incrementing, HandshakeMode, TcpConnection, TcpState};
use tspu_stack::craft::TcpPacketSpec;
use tspu_wire::ipv4::{Ipv4Packet, Ipv4Repr, Protocol};
use tspu_wire::tcp::{TcpFlags, TcpRepr, TcpSegment};

const C: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const S: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 1);

/// The reference emission: the segment in one buffer, then the packet in a
/// second one around it.
fn two_step_packet(repr: &TcpRepr, src: Ipv4Addr, dst: Ipv4Addr, ident: u16) -> Vec<u8> {
    let segment = repr.build(src, dst);
    let mut ip = Ipv4Repr::new(src, dst, Protocol::Tcp, segment.len());
    ip.ident = ident;
    ip.build(&segment)
}

/// `len` deterministic bytes; distinct seeds give distinct streams.
fn body(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 24) as u8
        })
        .collect()
}

/// One endpoint, twice: `sink` is drained as finished packets, `reprs` as
/// segment representations wrapped by the reference. Both are fed the
/// same calls, so any disagreement between the two views of the one
/// segmentation routine shows at the first segment that differs.
struct Endpoint {
    sink: TcpConnection,
    reprs: TcpConnection,
    ident: u16,
    /// Sequence number the next data segment received must carry.
    expect_seq: Option<u32>,
    received: Vec<u8>,
}

impl Endpoint {
    fn new(local: Ipv4Addr, local_port: u16, peer: Ipv4Addr, peer_port: u16, ident: u16) -> Endpoint {
        Endpoint {
            sink: TcpConnection::new(local, local_port, peer, peer_port),
            reprs: TcpConnection::new(local, local_port, peer, peer_port),
            ident,
            expect_seq: None,
            received: Vec::new(),
        }
    }

    fn both(&mut self, f: impl Fn(&mut TcpConnection)) {
        f(&mut self.sink);
        f(&mut self.reprs);
    }

    /// Queues `bytes` through `send_shared` or `send`.
    fn queue(&mut self, bytes: &[u8], shared: bool) {
        let shared_body: Arc<[u8]> = Arc::from(bytes);
        self.both(|conn| {
            if shared {
                conn.send_shared(shared_body.clone());
            } else {
                conn.send(bytes);
            }
        });
    }

    /// Drains both views and returns the packets, having checked that they
    /// agree segment for segment, idents incrementing from `self.ident`.
    fn poll(&mut self) -> Vec<Vec<u8>> {
        let (src, dst) = (self.sink.local_addr, self.sink.peer_addr);
        let first = self.ident;
        let mut packets = Vec::new();
        self.sink.poll_packets(incrementing(&mut self.ident), |packet| packets.push(packet));
        let reprs = self.reprs.poll_output();
        assert_eq!(packets.len(), reprs.len(), "the two views emit the same number of segments");
        for (index, (packet, repr)) in packets.iter().zip(&reprs).enumerate() {
            let ident = first.wrapping_add(index as u16 + 1);
            assert_eq!(packet, &two_step_packet(repr, src, dst, ident), "segment {index}");
        }
        packets
    }

    /// Delivers one packet to both views; records the payload and checks
    /// that data arrives with contiguous sequence numbers.
    fn receive(&mut self, packet: &[u8]) {
        let ip = Ipv4Packet::new_checked(packet).expect("valid packet");
        assert!(ip.verify_checksum());
        let segment = TcpSegment::new_checked(ip.payload()).expect("valid segment");
        assert!(segment.verify_checksum(ip.src_addr(), ip.dst_addr()));
        let data = self.sink.on_segment(&segment);
        assert_eq!(data, self.reprs.on_segment(&segment));
        if !data.is_empty() {
            if let Some(expected) = self.expect_seq {
                assert_eq!(segment.seq_number(), expected, "data sequence numbers are contiguous");
            }
            self.expect_seq = Some(segment.seq_number().wrapping_add(data.len() as u32));
            self.received.extend_from_slice(data);
        }
    }
}

/// Shuttles packets until both sides go quiet; returns false if they never
/// quiesce (which would itself be a bug).
fn pump(a: &mut Endpoint, b: &mut Endpoint) -> bool {
    for _ in 0..256 {
        let from_a = a.poll();
        let from_b = b.poll();
        if from_a.is_empty() && from_b.is_empty() {
            return true;
        }
        for packet in &from_a {
            b.receive(packet);
        }
        for packet in &from_b {
            a.receive(packet);
        }
    }
    false
}

/// `(length, content seed, queue with send_shared)` of one body: mostly
/// small ones, so segments straddle bodies, with page-sized ones between.
fn bodies(count: std::ops::Range<usize>) -> impl Strategy<Value = Vec<(usize, u64, bool)>> {
    let length = prop_oneof![0usize..64, 0usize..3000, 0usize..=(256 << 10)];
    proptest::collection::vec((length, any::<u64>(), any::<bool>()), count)
}

proptest! {
    /// The in-place packet writer equals the two-step build for any header
    /// and any payload up to a full segment.
    #[test]
    fn packet_writer_matches_two_step_build(
        ports in (any::<u16>(), any::<u16>()),
        flags in any::<u8>(),
        seq_ack in (any::<u32>(), any::<u32>()),
        window in any::<u16>(),
        ident in any::<u16>(),
        payload in (0usize..=1460, any::<u64>()),
    ) {
        let payload = body(payload.0, payload.1);
        let repr = TcpRepr {
            src_port: ports.0,
            dst_port: ports.1,
            seq_number: seq_ack.0,
            ack_number: seq_ack.1,
            flags: TcpFlags(flags),
            window,
            payload: payload.clone(),
        };
        let spec = TcpPacketSpec::new(C, ports.0, S, ports.1, TcpFlags(flags))
            .seq_ack(seq_ack.0, seq_ack.1)
            .window(window)
            .ident(ident);
        prop_assert_eq!(spec.build_with(&payload), two_step_packet(&repr, C, S, ident));
    }

    /// Any (mode, window, mss, bodies) combination establishes and
    /// delivers the exact bytes, in order, both directions — bodies queued
    /// before and after establishment, copied or shared — and the packet
    /// sink and `poll_output` agree on every segment on the way.
    #[test]
    fn stream_delivery_exact(
        split in any::<bool>(),
        window in 32u16..4096,
        mss in 8usize..2000,
        idents in (any::<u16>(), any::<u16>()),
        early in bodies(0..3),
        requests in bodies(1..3),
        responses in bodies(1..3),
    ) {
        let mut client = Endpoint::new(C, 40_000, S, 443, idents.0);
        let mut server = Endpoint::new(S, 443, C, 40_000, idents.1);
        server.both(|conn| {
            if split {
                conn.set_mode(HandshakeMode::SplitHandshake);
            }
            conn.set_local_window(window);
            conn.listen();
        });
        client.both(|conn| {
            conn.set_mss(mss);
            conn.connect();
        });
        let mut sent_by_client = Vec::new();
        let mut sent_by_server = Vec::new();
        // Queued before the handshake: held back until established.
        for &(len, seed, shared) in &early {
            let bytes = body(len, seed);
            client.queue(&bytes, shared);
            sent_by_client.extend_from_slice(&bytes);
        }
        prop_assert!(pump(&mut client, &mut server));
        prop_assert_eq!(client.sink.state(), TcpState::Established);
        prop_assert_eq!(server.sink.state(), TcpState::Established);

        for &(len, seed, shared) in &requests {
            let bytes = body(len, seed);
            client.queue(&bytes, shared);
            sent_by_client.extend_from_slice(&bytes);
        }
        for &(len, seed, shared) in &responses {
            let bytes = body(len, seed);
            server.queue(&bytes, shared);
            sent_by_server.extend_from_slice(&bytes);
        }
        prop_assert!(pump(&mut client, &mut server));
        prop_assert!(server.received == sent_by_client, "the server received the client's bytes");
        prop_assert!(client.received == sent_by_server, "the client received the server's bytes");

        // Segmentation honored the MSS and the advertised window.
        client.sink.send(&body(4000, 7));
        for seg in client.sink.poll_output() {
            prop_assert!(seg.payload.len() <= mss.max(1));
            prop_assert!(seg.payload.len() <= usize::from(window.max(1)));
        }
    }

    /// A body queued with filler arrives as itself and then its last byte
    /// repeated, whatever the MSS and the window cut, with segments
    /// running from one body into the next; the packet sink and
    /// `poll_output` agree on every segment on the way.
    #[test]
    fn filled_bodies_deliver_exact(
        window in 32u16..4096,
        mss in 8usize..2000,
        queued in proptest::collection::vec(
            (0usize..64, any::<u64>(), prop_oneof![0usize..8, 0usize..5000]),
            1..5,
        ),
    ) {
        let mut client = Endpoint::new(C, 40_000, S, 443, 0);
        let mut server = Endpoint::new(S, 443, C, 40_000, 0);
        server.both(|conn| {
            conn.set_local_window(window);
            conn.listen();
        });
        client.both(|conn| {
            conn.set_mss(mss);
            conn.connect();
        });
        prop_assert!(pump(&mut client, &mut server));
        let mut expected = Vec::new();
        for &(len, seed, filler) in &queued {
            let bytes = body(len, seed);
            let shared: Arc<[u8]> = Arc::from(&bytes[..]);
            client.both(|conn| conn.send_filled(shared.clone(), filler));
            expected.extend_from_slice(&bytes);
            if let Some(&last) = bytes.last() {
                expected.resize(expected.len() + filler, last);
            }
        }
        prop_assert!(pump(&mut client, &mut server));
        prop_assert!(server.received == expected, "the server received the bodies and their filler");
    }

    /// The connection state machine never panics on arbitrary segment
    /// bytes.
    #[test]
    fn on_segment_never_panics(bytes in proptest::collection::vec(any::<u8>(), 20..80)) {
        let mut conn = TcpConnection::new(C, 1, S, 2);
        conn.connect();
        if let Ok(segment) = TcpSegment::new_checked(&bytes[..]) {
            conn.on_segment(&segment);
        }
        let _ = conn.poll_output();
    }

    /// Simultaneous open always converges.
    #[test]
    fn simultaneous_open_always_establishes(port in 1024u16..65000) {
        let mut a = Endpoint::new(C, port, S, 443, 0);
        let mut b = Endpoint::new(S, 443, C, port, 0);
        a.both(TcpConnection::connect);
        b.both(TcpConnection::connect);
        prop_assert!(pump(&mut a, &mut b));
        prop_assert_eq!(a.sink.state(), TcpState::Established);
        prop_assert_eq!(b.sink.state(), TcpState::Established);
    }
}
