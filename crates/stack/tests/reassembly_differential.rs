//! Differential property test: the endpoint's streaming reassembly
//! against the receiver it replaced.
//!
//! [`ReassemblingApp`] copies each fragment once, into the datagram being
//! rebuilt, and tries a datagram once, at its first MF = 0 fragment. The
//! reference is the endpoint as it was before, kept verbatim below: every
//! fragment buffered as its own `Vec` in a SipHash map, the train scanned
//! for an MF = 0 fragment after each arrival, and the whole train handed
//! to the old collect-sort-concatenate `reassemble`. Both get the same
//! generated streams one packet at a time — permutations, duplicates,
//! fragments overlapping a neighbour, gaps, flipped MF flags, the MF = 0
//! fragment first or mid-train, more fragments than `frag_limit`, two
//! datagrams interleaved, fragments left over from an earlier round,
//! headers with options and packets that do not parse as IPv4 — and must
//! hand their inner application the same bytes after every packet. TTL
//! and DF vary per packet, so a rebuilt header shows which arrival it
//! came from.
//!
//! ## Seeded mutation
//!
//! `tests/mutants/reassembly_accepts_duplicate.patch` lets
//! `Reassembly::finish` skip a fragment that repeats the one before it;
//! this suite must fail on it.

use std::collections::{HashMap, VecDeque};
use std::net::Ipv4Addr;
use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use tspu_netsim::{Application, Output, Time};
use tspu_stack::server::ReassemblingApp;
use tspu_wire::ipv4::{Ipv4Packet, Ipv4Repr, Protocol};
use tspu_wire::{Error, Result};

const SRC: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 7);
const DST: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 80);

/// `tspu_wire::frag::reassemble` before streaming reassembly.
fn naive_reassemble(fragments: &[Vec<u8>]) -> Result<Vec<u8>> {
    if fragments.is_empty() {
        return Err(Error::Truncated);
    }
    let first = Ipv4Packet::new_checked(&fragments[0][..])?;
    let key = (first.src_addr(), first.dst_addr(), first.ident());

    let mut pieces: Vec<(usize, bool, Vec<u8>)> = Vec::with_capacity(fragments.len());
    for buf in fragments {
        let packet = Ipv4Packet::new_checked(&buf[..])?;
        if (packet.src_addr(), packet.dst_addr(), packet.ident()) != key {
            return Err(Error::Malformed);
        }
        pieces.push((packet.frag_offset(), packet.more_fragments(), packet.payload().to_vec()));
    }
    pieces.sort_by_key(|(off, _, _)| *off);

    // Validate contiguity: each fragment must start exactly where the
    // previous one ended, the first at 0, the last with MF clear.
    let mut expected = 0usize;
    for (i, (off, more, payload)) in pieces.iter().enumerate() {
        if *off != expected {
            return Err(Error::Malformed);
        }
        expected += payload.len();
        let is_last = i == pieces.len() - 1;
        if is_last == *more {
            return Err(Error::Malformed);
        }
    }

    let mut payload = Vec::with_capacity(expected);
    for (_, _, piece) in &pieces {
        payload.extend_from_slice(piece);
    }
    let mut repr = Ipv4Repr::parse(&first)?;
    repr.more_fragments = false;
    repr.frag_offset = 0;
    repr.payload_len = payload.len();
    Ok(repr.build(&payload))
}

/// `ReassemblingApp` before streaming reassembly, reduced to what it
/// handed its inner application.
struct NaiveEndpoint {
    pending: HashMap<(Ipv4Addr, Ipv4Addr, u16), Vec<Vec<u8>>>,
    frag_limit: usize,
}

impl NaiveEndpoint {
    fn on_packet(&mut self, packet: &[u8]) -> Option<Vec<u8>> {
        let Ok(view) = Ipv4Packet::new_checked(packet) else {
            return None;
        };
        if !view.is_fragment() {
            return Some(packet.to_vec());
        }
        let key = (view.src_addr(), view.dst_addr(), view.ident());
        let train = self.pending.entry(key).or_default();
        train.push(packet.to_vec());
        if train.len() > self.frag_limit {
            self.pending.remove(&key);
            return None;
        }
        // Attempt reassembly whenever the last fragment is present.
        let have_last = train.iter().any(|p| !Ipv4Packet::new_unchecked(&p[..]).more_fragments());
        if !have_last {
            return None;
        }
        let train = self.pending.remove(&key).expect("train exists");
        naive_reassemble(&train).ok()
    }
}

/// An inner application that keeps what it is handed.
struct Inner(Arc<Mutex<Vec<Vec<u8>>>>);

impl Application for Inner {
    fn on_packet(&mut self, _now: Time, packet: &[u8]) -> Vec<Output> {
        self.0.lock().expect("no other thread").push(packet.to_vec());
        Vec::new()
    }
}

/// One datagram's share of a round: its fragments' payload sizes in
/// 8-byte units (the last also carries `tail` bytes more), the swaps that
/// permute them, and `(position, kind, target)` edits applied after.
#[derive(Debug, Clone)]
struct DatagramPlan {
    units: Vec<usize>,
    tail: usize,
    swaps: Vec<(usize, usize)>,
    edits: Vec<(usize, u8, usize)>,
}

fn arb_plan() -> impl Strategy<Value = DatagramPlan> {
    (
        proptest::collection::vec(1usize..4, 1..10),
        0usize..8,
        proptest::collection::vec((any::<usize>(), any::<usize>()), 0..10),
        proptest::collection::vec((any::<usize>(), 0u8..8, any::<usize>()), 0..4),
    )
        .prop_map(|(units, tail, swaps, edits)| DatagramPlan { units, tail, swaps, edits })
}

/// One packet of a round, before it is built.
#[derive(Debug, Clone, Copy, Default)]
struct Piece {
    /// Which fragment of the datagram.
    index: usize,
    /// Starts 8 bytes early, over its predecessor.
    early: bool,
    /// Ends 8 bytes late, over its successor.
    late: bool,
    flip_mf: bool,
    /// A 24-byte header: four NOP option bytes.
    options: bool,
    /// Does not parse as IPv4.
    garbage: bool,
}

impl DatagramPlan {
    /// The fragments in sending order.
    fn order(&self) -> Vec<Piece> {
        let mut order: Vec<Piece> =
            (0..self.units.len()).map(|index| Piece { index, ..Piece::default() }).collect();
        for &(a, b) in &self.swaps {
            let n = order.len();
            order.swap(a % n, b % n);
        }
        for &(at, kind, to) in &self.edits {
            if order.is_empty() {
                break;
            }
            let at = at % order.len();
            let to = to % (order.len() + 1);
            match kind {
                0 => {
                    let copy = order[at];
                    order.insert(to, copy);
                }
                1 => {
                    order.remove(at);
                }
                2 => order[at].early = true,
                3 => order[at].late = true,
                4 => order[at].flip_mf = true,
                5 => order[at].options = true,
                6 => {
                    let bad = Piece { garbage: true, ..order[at] };
                    order.insert(to, bad);
                }
                _ => {
                    // The MF = 0 fragment first.
                    let last = self.units.len() - 1;
                    if let Some(at) = order.iter().position(|piece| piece.index == last) {
                        let piece = order.remove(at);
                        order.insert(0, piece);
                    }
                }
            }
        }
        order
    }

    /// The packet for `piece` of datagram `which`, sent `nth` in its round.
    fn build(&self, which: usize, piece: Piece, nth: usize) -> Vec<u8> {
        let start = 8 * self.units[..piece.index].iter().sum::<usize>();
        let last = piece.index + 1 == self.units.len();
        let mut offset = start;
        let mut end = start + 8 * self.units[piece.index] + if last { self.tail } else { 0 };
        if piece.early {
            offset = start.saturating_sub(8);
        }
        if piece.late {
            end += 8;
        }
        let payload: Vec<u8> = (offset..end).map(|i| (i * 7 + which * 101) as u8).collect();
        let mut repr = Ipv4Repr::new(SRC, DST, Protocol::Udp, payload.len());
        repr.ident = 0x5150 + which as u16;
        repr.ttl = 20 + (nth % 200) as u8;
        repr.dont_fragment = nth.is_multiple_of(3);
        repr.frag_offset = offset;
        repr.more_fragments = last == piece.flip_mf;
        let mut packet = repr.build(&payload);
        if piece.options {
            packet = with_options(&packet);
        }
        if piece.garbage {
            if nth.is_multiple_of(2) {
                packet.truncate(12);
            } else {
                packet[0] = 0x65;
            }
        }
        packet
    }
}

/// `packet` with four NOP option bytes after its 20-byte header.
fn with_options(packet: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(packet.len() + 4);
    out.extend_from_slice(&packet[..20]);
    out.extend_from_slice(&[1; 4]);
    out.extend_from_slice(&packet[20..]);
    out[0] = 0x46;
    let total = out.len() as u16;
    let mut view = Ipv4Packet::new_unchecked(&mut out[..]);
    view.set_total_len(total);
    view.fill_checksum();
    out
}

/// A round's packets: the two datagrams' fragments interleaved,
/// `interleave` choosing the sender while both have fragments left.
fn stream(plans: [DatagramPlan; 2], interleave: &[bool]) -> Vec<Vec<u8>> {
    let mut queues: [VecDeque<Piece>; 2] = [plans[0].order().into(), plans[1].order().into()];
    let mut picks = interleave.iter().copied();
    let mut packets = Vec::new();
    loop {
        let which = match (queues[0].is_empty(), queues[1].is_empty()) {
            (true, true) => break,
            (false, true) => 0,
            (true, false) => 1,
            (false, false) => usize::from(picks.next().unwrap_or(false)),
        };
        let piece = queues[which].pop_front().expect("the queue has a fragment");
        packets.push(plans[which].build(which, piece, packets.len()));
    }
    packets
}

proptest! {
    #[test]
    fn streaming_reassembly_matches_the_naive_receiver(
        frag_limit in prop_oneof![Just(64usize), 0usize..12],
        rounds in proptest::collection::vec(
            (arb_plan(), arb_plan(), proptest::collection::vec(any::<bool>(), 0..24)),
            4,
        ),
    ) {
        let handed = Arc::new(Mutex::new(Vec::new()));
        let mut endpoint = ReassemblingApp::new(Inner(Arc::clone(&handed)));
        endpoint.frag_limit = frag_limit;
        let mut naive = NaiveEndpoint { pending: HashMap::new(), frag_limit };
        // One endpoint across the rounds: a datagram a round leaves
        // incomplete is still pending when the next round reuses its ident.
        for (round, (first, second, interleave)) in rounds.into_iter().enumerate() {
            let packets = stream([first, second], &interleave);
            for (i, packet) in packets.iter().enumerate() {
                endpoint.on_packet(Time::ZERO, packet);
                let got = std::mem::take(&mut *handed.lock().expect("no other thread"));
                let want: Vec<Vec<u8>> = naive.on_packet(packet).into_iter().collect();
                prop_assert_eq!(got, want, "round {}, packet {} of {}", round, i, packets.len());
            }
        }
    }
}
