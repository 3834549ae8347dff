//! A sans-IO TCP connection state machine.
//!
//! Handles every handshake shape from the paper: normal three-way, split
//! handshake (§8: server answers a SYN with a bare SYN; an *unmodified*
//! client then SYN/ACKs), and simultaneous open. Data transfer respects
//! the peer's advertised window and the MSS — which is how the server-side
//! "small window" strategy (§8) forces an unmodified client to segment its
//! ClientHello.

use std::collections::VecDeque;
use std::net::Ipv4Addr;
use std::sync::Arc;

use tspu_wire::tcp::{TcpFlags, TcpRepr, TcpSegment};

use crate::craft::TcpPacketSpec;

/// Connection states (endpoint view, not the TSPU's).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpState {
    Closed,
    Listen,
    /// We sent a SYN, waiting for the peer.
    SynSent,
    /// We received a SYN and answered (with SYN/ACK, or with a bare SYN in
    /// split-handshake mode), waiting for the final confirmation.
    SynReceived,
    Established,
    /// The peer reset the connection.
    Reset,
}

/// How this endpoint behaves during the handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandshakeMode {
    /// RFC 793 behavior.
    Normal,
    /// Server-side split handshake (§8): answer a SYN with a bare SYN.
    SplitHandshake,
}

/// State changes surfaced to the application layer. Received data is not
/// an event: [`TcpConnection::on_segment`] returns it, borrowed from the
/// segment it arrived in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnEvent {
    Established,
    ResetReceived,
}

/// A queued body and how far into it segmentation has got: shared,
/// immutable bytes, then their last byte `repeat` more times. A server
/// queues the same answer on every connection without copying it, and a
/// page of one repeated byte costs that byte once.
///
/// The counts are `u32`, which keeps the cursor at 24 bytes: a body is at
/// most 4 GiB, and [`TcpConnection::send_filled`] queues longer filler as
/// several cursors over one body.
#[derive(Debug)]
struct Cursor {
    body: Arc<[u8]>,
    /// Bytes of `body` segmented so far.
    sent: u32,
    /// Repeats of `body`'s last byte still to segment.
    repeat: u32,
}

impl Cursor {
    /// Bytes still to segment.
    fn len(&self) -> usize {
        self.body.len() - self.sent as usize + self.repeat as usize
    }

    /// Appends the next `n` bytes, `n` at most [`Cursor::len`], to `out`:
    /// the shared ones copied, the repeated ones written, each once.
    fn append(&self, n: usize, out: &mut Vec<u8>) {
        let shared = &self.body[self.sent as usize..];
        let copied = n.min(shared.len());
        out.extend_from_slice(&shared[..copied]);
        if let Some(&last) = self.body.last() {
            out.resize(out.len() + (n - copied), last);
        }
    }

    /// Skips the next `n` bytes, `n` at most [`Cursor::len`].
    fn advance(&mut self, n: usize) {
        let shared = n.min(self.body.len() - self.sent as usize);
        // Both fit: `sent + shared` is at most the body's length, which
        // `send_filled` checked, and `n - shared` is at most `repeat`.
        self.sent += shared as u32;
        self.repeat -= (n - shared) as u32;
    }
}

/// One data segment's payload where it sits in the send queue: the first
/// `len` bytes of the front body and of the bodies behind it.
struct Payload<'a> {
    front: Option<&'a Cursor>,
    behind: Option<&'a VecDeque<Cursor>>,
    len: usize,
}

impl Payload<'_> {
    /// A payload-less segment's.
    const NONE: Payload<'static> = Payload { front: None, behind: None, len: 0 };

    /// Appends the payload to `out`, straight from the bodies it spans.
    fn append_to(&self, out: &mut Vec<u8>) {
        let mut left = self.len;
        for cursor in self.front.into_iter().chain(self.behind.into_iter().flatten()) {
            let n = left.min(cursor.len());
            cursor.append(n, out);
            left -= n;
            if left == 0 {
                break;
            }
        }
    }
}

/// A segment header as the connection queues it: what a handshake step,
/// an ACK or a data segment sets beyond the connection's own ports.
#[derive(Debug, Clone, Copy)]
struct Head {
    flags: TcpFlags,
    seq: u32,
    ack: u32,
    window: u16,
}

/// What a connection rarely holds, boxed on its first use so that the
/// common connection stays small: the payload-less segments, bodies and
/// events queued behind the one of each the connection keeps inline. An
/// application polls after every segment it feeds in, so there is almost
/// always at most one of each; only a caller that feeds several segments
/// (or queues several bodies) between polls spills here. Each poll or
/// take empties its part of the box.
#[derive(Debug, Default)]
struct Spill {
    heads: Vec<Head>,
    bodies: VecDeque<Cursor>,
    events: Vec<ConnEvent>,
}

/// The connection. Feed it segments with [`TcpConnection::on_segment`],
/// queue app data with [`TcpConnection::send`] or
/// [`TcpConnection::send_shared`], and drain what it has to transmit as
/// finished IPv4 packets with [`TcpConnection::poll_packets`] (or as
/// [`TcpRepr`]s with [`TcpConnection::poll_output`]).
///
/// 80 bytes: the endpoints, the sequence state and the first pending
/// segment, body and event inline, everything queued behind those in one
/// box allocated on first use. Neither an ACK per received segment nor
/// an idle connection costs an allocation.
#[derive(Debug)]
pub struct TcpConnection {
    pub local_addr: Ipv4Addr,
    pub local_port: u16,
    pub peer_addr: Ipv4Addr,
    pub peer_port: u16,
    state: TcpState,
    mode: HandshakeMode,
    /// Next sequence number we will send.
    snd_nxt: u32,
    /// Next sequence number we expect from the peer.
    rcv_nxt: u32,
    /// The peer's last advertised window.
    peer_window: u16,
    /// Our advertised window.
    local_window: u16,
    /// At most 65535: a segment never exceeds the peer's 16-bit window.
    mss: u16,
    /// The first pending payload-less segment (handshake step or ACK);
    /// later ones wait in `spill`.
    head: Option<Head>,
    /// The body being segmented; bodies queued behind it wait in `spill`.
    /// It is dropped the moment its last byte leaves, so an idle
    /// connection holds no payload memory.
    body: Option<Cursor>,
    /// The first state change not yet taken; later ones wait in `spill`.
    event: Option<ConnEvent>,
    spill: Option<Box<Spill>>,
}

/// Default MSS used by endpoints.
pub const DEFAULT_MSS: usize = 1460;

/// The IP-identification policy of the scripted clients, for
/// [`TcpConnection::poll_packets`]: every packet takes the next value of
/// the caller's counter.
pub fn incrementing(counter: &mut u16) -> impl FnMut() -> u16 + '_ {
    move || {
        *counter = counter.wrapping_add(1);
        *counter
    }
}

impl TcpConnection {
    /// Creates a closed connection between the given endpoints.
    pub fn new(
        local_addr: Ipv4Addr,
        local_port: u16,
        peer_addr: Ipv4Addr,
        peer_port: u16,
    ) -> TcpConnection {
        TcpConnection {
            local_addr,
            local_port,
            peer_addr,
            peer_port,
            state: TcpState::Closed,
            mode: HandshakeMode::Normal,
            snd_nxt: 0x1000_0000u32.wrapping_add(u32::from(local_port) << 8),
            rcv_nxt: 0,
            peer_window: 64240,
            local_window: 64240,
            mss: DEFAULT_MSS as u16,
            head: None,
            body: None,
            event: None,
            spill: None,
        }
    }

    /// Sets the handshake mode (server-side strategies).
    pub fn set_mode(&mut self, mode: HandshakeMode) {
        self.mode = mode;
    }

    /// Sets the window this endpoint advertises (server-side small-window
    /// strategy).
    pub fn set_local_window(&mut self, window: u16) {
        self.local_window = window;
    }

    /// Overrides the MSS.
    pub fn set_mss(&mut self, mss: usize) {
        self.mss = mss.clamp(1, usize::from(u16::MAX)) as u16;
    }

    /// Current state.
    pub fn state(&self) -> TcpState {
        self.state
    }

    /// Starts listening (server role).
    pub fn listen(&mut self) {
        self.state = TcpState::Listen;
    }

    /// Actively opens the connection (client role), emitting a SYN.
    pub fn connect(&mut self) {
        self.state = TcpState::SynSent;
        let mut syn = self.segment(TcpFlags::SYN);
        syn.ack = 0;
        self.snd_nxt = self.snd_nxt.wrapping_add(1); // SYN occupies one seq
        self.push_head(syn);
    }

    /// Queues a copy of `data` for transmission once established.
    pub fn send(&mut self, data: &[u8]) {
        self.send_shared(Arc::from(data));
    }

    /// Queues `body` for transmission once established, without copying
    /// it. The connection drops its reference as soon as the last byte
    /// has been segmented.
    pub fn send_shared(&mut self, body: Arc<[u8]>) {
        self.send_filled(body, 0);
    }

    /// [`TcpConnection::send_shared`] followed by `filler` more copies of
    /// `body`'s last byte, which are written into the packets that carry
    /// them and never held: a page of filler costs no memory. An empty
    /// `body` queues nothing.
    ///
    /// # Panics
    ///
    /// If `body` is longer than 4 GiB (`u32::MAX` bytes). Filler is not
    /// limited.
    pub fn send_filled(&mut self, body: Arc<[u8]>, filler: usize) {
        let Ok(len) = u32::try_from(body.len()) else {
            panic!("a queued body is at most u32::MAX bytes, not {}", body.len());
        };
        if len == 0 {
            return;
        }
        let most = u32::MAX as usize;
        let (mut sent, mut repeat, mut rest) = (0, filler.min(most), filler.saturating_sub(most));
        // Filler past 4 GiB continues in cursors whose shared bytes are
        // already sent.
        while rest > 0 {
            self.push_body(Cursor { body: body.clone(), sent, repeat: repeat as u32 });
            (sent, repeat, rest) = (len, rest.min(most), rest.saturating_sub(most));
        }
        self.push_body(Cursor { body, sent, repeat: repeat as u32 });
    }

    fn push_body(&mut self, cursor: Cursor) {
        if self.body.is_none() {
            self.body = Some(cursor);
        } else {
            self.spill().bodies.push_back(cursor);
        }
    }

    /// Drains pending state changes for the application.
    pub fn take_events(&mut self) -> Vec<ConnEvent> {
        let spilled = self.spill.as_mut().map(|spill| std::mem::take(&mut spill.events));
        self.event.take().into_iter().chain(spilled.into_iter().flatten()).collect()
    }

    /// The box behind the inline segment, body and event, allocated now if
    /// this is its first use.
    fn spill(&mut self) -> &mut Spill {
        self.spill.get_or_insert_with(Box::default)
    }

    fn push_head(&mut self, head: Head) {
        if self.head.is_none() {
            self.head = Some(head);
        } else {
            self.spill().heads.push(head);
        }
    }

    fn push_event(&mut self, event: ConnEvent) {
        if self.event.is_none() {
            self.event = Some(event);
        } else {
            self.spill().events.push(event);
        }
    }

    /// Drains everything there is to transmit as finished IPv4 packets,
    /// one buffer per segment with headers, payload and both checksums
    /// written in place. `ident` supplies each packet's IP identification.
    pub fn poll_packets(&mut self, mut ident: impl FnMut() -> u16, mut sink: impl FnMut(Vec<u8>)) {
        let mut spec = TcpPacketSpec::new(
            self.local_addr,
            self.local_port,
            self.peer_addr,
            self.peer_port,
            TcpFlags::ACK,
        );
        self.drain_segments(|head, payload| {
            spec.flags = head.flags;
            spec.seq = head.seq;
            spec.ack = head.ack;
            spec.window = head.window;
            spec.ident = ident();
            let mut packet = Vec::new();
            spec.build_appending(payload.len, |out| payload.append_to(out), &mut packet);
            sink(packet);
        });
    }

    /// Drains everything there is to transmit as sequenced segment
    /// representations: the same segments [`TcpConnection::poll_packets`]
    /// would emit, for callers that build the bytes themselves.
    pub fn poll_output(&mut self) -> Vec<TcpRepr> {
        let (src_port, dst_port) = (self.local_port, self.peer_port);
        let mut reprs = Vec::new();
        self.drain_segments(|head, payload| {
            let mut bytes = Vec::with_capacity(payload.len);
            payload.append_to(&mut bytes);
            reprs.push(TcpRepr {
                src_port,
                dst_port,
                seq_number: head.seq,
                ack_number: head.ack,
                flags: head.flags,
                window: head.window,
                payload: bytes,
            });
        });
        reprs
    }

    fn segment(&self, flags: TcpFlags) -> Head {
        Head { flags, seq: self.snd_nxt, ack: self.rcv_nxt, window: self.local_window }
    }

    /// The one segmentation routine: hands `sink` every pending segment
    /// as a payload-less header plus the payload it carries — first the
    /// queued handshake steps and ACKs, then, once established, all queued
    /// data cut to the MSS and the peer's advertised window (clamped per
    /// flight, not tracked in flight: the simulator acks every round
    /// trip). The payload is handed over where it sits in the queue, and
    /// a segment that runs past its front body takes the rest from the
    /// bodies behind.
    fn drain_segments(&mut self, mut sink: impl FnMut(Head, Payload<'_>)) {
        if let Some(head) = self.head.take() {
            sink(head, Payload::NONE);
        }
        if let Some(spill) = &mut self.spill {
            for head in std::mem::take(&mut spill.heads) {
                sink(head, Payload::NONE);
            }
        }
        if self.state != TcpState::Established {
            return;
        }
        let limit = usize::from(self.mss.min(self.peer_window.max(1)));
        while let Some(front) = &self.body {
            let head = self.segment(TcpFlags::PSH_ACK);
            let behind = self.spill.as_deref().map(|spill| &spill.bodies);
            let mut len = front.len().min(limit);
            for cursor in behind.into_iter().flatten() {
                if len == limit {
                    break;
                }
                len += cursor.len().min(limit - len);
            }
            sink(head, Payload { front: Some(front), behind, len });
            self.snd_nxt = self.snd_nxt.wrapping_add(len as u32);
            self.consume(len);
        }
    }

    /// Advances the send queue by `sent` bytes, dropping every body whose
    /// last byte that covers.
    fn consume(&mut self, mut sent: usize) {
        while let Some(front) = self.body.as_mut().filter(|_| sent > 0) {
            let step = sent.min(front.len());
            front.advance(step);
            sent -= step;
            if front.len() == 0 {
                self.body = self.spill.as_mut().and_then(|spill| spill.bodies.pop_front());
            }
        }
    }

    /// Processes one incoming segment and returns the in-order payload it
    /// delivered to the application (empty when it carried none), borrowed
    /// from `segment`. Replies (if any) are queued for the next poll.
    pub fn on_segment<'a, T: AsRef<[u8]>>(&mut self, segment: &'a TcpSegment<T>) -> &'a [u8] {
        let flags = segment.flags();
        self.peer_window = segment.window();

        if flags.rst() {
            self.state = TcpState::Reset;
            self.push_event(ConnEvent::ResetReceived);
            return &[];
        }

        match self.state {
            TcpState::Listen => {
                if flags.is_pure_syn() {
                    self.rcv_nxt = segment.seq_number().wrapping_add(1);
                    match self.mode {
                        HandshakeMode::Normal => {
                            let synack = self.segment(TcpFlags::SYN_ACK);
                            self.snd_nxt = self.snd_nxt.wrapping_add(1);
                            self.push_head(synack);
                            self.state = TcpState::SynReceived;
                        }
                        HandshakeMode::SplitHandshake => {
                            // §8: strip the ACK flag — send a bare SYN.
                            let mut syn = self.segment(TcpFlags::SYN);
                            syn.ack = 0;
                            self.snd_nxt = self.snd_nxt.wrapping_add(1);
                            self.push_head(syn);
                            self.state = TcpState::SynReceived;
                        }
                    }
                }
            }
            TcpState::SynSent => {
                if flags.is_syn_ack() {
                    // Normal step 2: ACK and establish.
                    self.rcv_nxt = segment.seq_number().wrapping_add(1);
                    let ack = self.segment(TcpFlags::ACK);
                    self.push_head(ack);
                    self.establish();
                } else if flags.is_pure_syn() {
                    // Split handshake or simultaneous open: an unmodified
                    // client answers the bare SYN with a SYN/ACK
                    // (re-using its initial sequence number).
                    self.rcv_nxt = segment.seq_number().wrapping_add(1);
                    let mut synack = self.segment(TcpFlags::SYN_ACK);
                    synack.seq = self.snd_nxt.wrapping_sub(1);
                    self.push_head(synack);
                    self.state = TcpState::SynReceived;
                }
            }
            TcpState::SynReceived => {
                if flags.is_syn_ack() {
                    // Split handshake server receiving the client's
                    // SYN/ACK: confirm with an ACK and establish.
                    self.rcv_nxt = segment.seq_number().wrapping_add(1);
                    let ack = self.segment(TcpFlags::ACK);
                    self.push_head(ack);
                    self.establish();
                } else if flags.ack() {
                    self.establish();
                    return self.deliver_payload(segment);
                }
            }
            TcpState::Established => return self.deliver_payload(segment),
            TcpState::Closed | TcpState::Reset => {}
        }
        &[]
    }

    fn establish(&mut self) {
        if self.state != TcpState::Established {
            self.state = TcpState::Established;
            self.push_event(ConnEvent::Established);
        }
    }

    fn deliver_payload<'a, T: AsRef<[u8]>>(&mut self, segment: &'a TcpSegment<T>) -> &'a [u8] {
        let payload = segment.payload();
        if !payload.is_empty() {
            self.rcv_nxt = segment.seq_number().wrapping_add(payload.len() as u32);
            // Acknowledge data promptly (no delayed ACK).
            let ack = self.segment(TcpFlags::ACK);
            self.push_head(ack);
        }
        payload
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type TestResult = Result<(), Box<dyn std::error::Error>>;

    const C: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const S: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 1);

    /// Shuttles segments between two connections until both go quiet.
    /// Returns the bytes each side's application received.
    fn pump(a: &mut TcpConnection, b: &mut TcpConnection) -> tspu_wire::Result<(Vec<u8>, Vec<u8>)> {
        let (mut at_a, mut at_b) = (Vec::new(), Vec::new());
        for _ in 0..64 {
            let from_a = a.poll_output();
            let from_b = b.poll_output();
            if from_a.is_empty() && from_b.is_empty() {
                return Ok((at_a, at_b));
            }
            for repr in from_a {
                let bytes = repr.build(a.local_addr, a.peer_addr);
                at_b.extend_from_slice(b.on_segment(&TcpSegment::new_checked(&bytes[..])?));
            }
            for repr in from_b {
                let bytes = repr.build(b.local_addr, b.peer_addr);
                at_a.extend_from_slice(a.on_segment(&TcpSegment::new_checked(&bytes[..])?));
            }
        }
        panic!("connections did not quiesce");
    }

    fn pair() -> (TcpConnection, TcpConnection) {
        let mut client = TcpConnection::new(C, 40000, S, 443);
        let mut server = TcpConnection::new(S, 443, C, 40000);
        server.listen();
        client.connect();
        (client, server)
    }

    #[test]
    fn normal_handshake_and_data() -> TestResult {
        let (mut client, mut server) = pair();
        pump(&mut client, &mut server)?;
        assert_eq!(client.state(), TcpState::Established);
        assert_eq!(server.state(), TcpState::Established);

        assert_eq!(client.take_events(), [ConnEvent::Established]);
        client.send(b"hello over tcp");
        let (_, at_server) = pump(&mut client, &mut server)?;
        assert_eq!(at_server, b"hello over tcp");
        Ok(())
    }

    #[test]
    fn split_handshake_with_unmodified_client() -> TestResult {
        let mut client = TcpConnection::new(C, 40001, S, 443);
        let mut server = TcpConnection::new(S, 443, C, 40001);
        server.set_mode(HandshakeMode::SplitHandshake);
        server.listen();
        client.connect();
        pump(&mut client, &mut server)?;
        assert_eq!(client.state(), TcpState::Established);
        assert_eq!(server.state(), TcpState::Established);

        // Data flows both ways afterwards.
        client.send(b"request");
        server.send(b"response");
        let (at_client, at_server) = pump(&mut client, &mut server)?;
        assert_eq!(at_client, b"response");
        assert_eq!(at_server, b"request");
        Ok(())
    }

    #[test]
    fn simultaneous_open() -> TestResult {
        let mut a = TcpConnection::new(C, 40002, S, 443);
        let mut b = TcpConnection::new(S, 443, C, 40002);
        a.connect();
        b.connect();
        pump(&mut a, &mut b)?;
        assert_eq!(a.state(), TcpState::Established);
        assert_eq!(b.state(), TcpState::Established);
        Ok(())
    }

    #[test]
    fn small_window_forces_segmentation() -> TestResult {
        let mut client = TcpConnection::new(C, 40003, S, 443);
        let mut server = TcpConnection::new(S, 443, C, 40003);
        server.set_local_window(64); // brdgrd-style (§8)
        server.listen();
        client.connect();
        pump(&mut client, &mut server)?;

        client.send(&[0xab; 300]);
        let segments = client.poll_output();
        let data_segments: Vec<_> = segments.iter().filter(|s| !s.payload.is_empty()).collect();
        assert!(data_segments.len() >= 5, "expected ≥5 segments, got {}", data_segments.len());
        assert!(data_segments.iter().all(|s| s.payload.len() <= 64));
        Ok(())
    }

    #[test]
    fn rst_resets_connection() -> TestResult {
        let (mut client, mut server) = pair();
        pump(&mut client, &mut server)?;
        let mut rst = TcpRepr::new(443, 40000, TcpFlags::RST_ACK);
        rst.seq_number = 1;
        let bytes = rst.build(S, C);
        client.on_segment(&TcpSegment::new_checked(&bytes[..])?);
        assert_eq!(client.state(), TcpState::Reset);
        assert!(client.take_events().contains(&ConnEvent::ResetReceived));
        let _ = server;
        Ok(())
    }

    #[test]
    fn sequence_numbers_advance_with_data() -> TestResult {
        let (mut client, mut server) = pair();
        pump(&mut client, &mut server)?;
        client.send(b"abcd");
        let seg1 = client.poll_output().pop().ok_or("no segment")?;
        {
            let repr = &seg1;
            let bytes = repr.build(C, S);
            server.on_segment(&TcpSegment::new_checked(&bytes[..])?);
        }
        client.send(b"efgh");
        let seg2 = client.poll_output().pop().ok_or("no segment")?;
        assert_eq!(seg2.seq_number, seg1.seq_number.wrapping_add(4));
        Ok(())
    }

    #[test]
    fn a_connection_fits_in_80_bytes() {
        // Every endpoint a country scan generates holds a few of these.
        let size = std::mem::size_of::<TcpConnection>();
        assert!(size <= 80, "TcpConnection is {size} bytes (bound 80)");
    }

    #[test]
    fn spilled_segments_bodies_and_events_keep_their_order() {
        // Three segments queued between polls, the first inline and two
        // spilled; two bodies; two events: all come out in order.
        let (mut client, mut server) = pair();
        let syn = client.poll_output().remove(0).build(C, S);
        server.on_segment(&TcpSegment::new_unchecked(&syn[..]));
        let synack = server.poll_output().remove(0).build(S, C);
        client.on_segment(&TcpSegment::new_unchecked(&synack[..]));
        let mut data = TcpRepr::new(443, 40000, TcpFlags::PSH_ACK);
        data.seq_number = server.snd_nxt;
        data.ack_number = client.snd_nxt;
        for chunk in [&b"ab"[..], b"cd"] {
            data.payload = chunk.to_vec();
            let bytes = data.build(S, C);
            client.on_segment(&TcpSegment::new_unchecked(&bytes[..]));
            data.seq_number = data.seq_number.wrapping_add(2);
        }
        client.send(b"xyz");
        client.send(b"uvw");
        let out = client.poll_output();
        let acks: Vec<u32> = out.iter().map(|s| s.ack_number).collect();
        let payloads: Vec<&[u8]> = out.iter().map(|s| &s.payload[..]).collect();
        assert_eq!(acks[..3], [acks[0], acks[0] + 2, acks[0] + 4]);
        assert_eq!(payloads, [&b""[..], b"", b"", b"xyzuvw"]);
        let rst = TcpRepr::new(443, 40000, TcpFlags::RST).build(S, C);
        client.on_segment(&TcpSegment::new_unchecked(&rst[..]));
        assert_eq!(client.take_events(), [ConnEvent::Established, ConnEvent::ResetReceived]);
        assert!(client.take_events().is_empty());
    }

    #[test]
    fn a_filled_body_is_its_bytes_then_its_last_byte_repeated() -> TestResult {
        let (mut client, mut server) = pair();
        pump(&mut client, &mut server)?;
        client.send_filled(Arc::from(&b"hello"[..]), 3000);
        client.send(b"!");
        let (_, at_server) = pump(&mut client, &mut server)?;
        let mut expected = b"hello".to_vec();
        expected.resize(5 + 3000, b'o');
        expected.push(b'!');
        assert!(at_server == expected, "received {} bytes, expected {}", at_server.len(), expected.len());
        assert!(client.body.is_none(), "a finished body is dropped");
        Ok(())
    }

    #[test]
    fn filler_past_4_gib_is_queued_whole() {
        // Nothing is sent: the queue alone shows that the filler neither
        // wrapped nor was cut short.
        let mut conn = TcpConnection::new(C, 40005, S, 443);
        let filler = u32::MAX as usize + 2;
        conn.send_filled(Arc::from(&[7u8][..]), filler);
        let behind = conn.spill.as_ref().map_or(0, |spill| spill.bodies.iter().map(Cursor::len).sum());
        assert_eq!(conn.body.as_ref().map(Cursor::len), Some(1 + u32::MAX as usize));
        assert_eq!(behind, 2);
    }

    #[test]
    fn data_before_establishment_is_not_sent() {
        let mut client = TcpConnection::new(C, 40004, S, 443);
        client.connect();
        client.send(b"early");
        let out = client.poll_output();
        // Only the SYN; the data waits for establishment.
        assert_eq!(out.len(), 1);
        assert!(out[0].flags.is_pure_syn());
    }
}
