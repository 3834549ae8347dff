//! IPv4 fragmentation and reassembly helpers.
//!
//! Endpoints and measurement probes need to *produce* fragment trains —
//! including deliberately pathological ones (overlaps, duplicates, > 45
//! pieces) that exercise the TSPU fragment cache (§5.3.1) — and receivers
//! need standards-compliant reassembly to verify delivery.

use crate::ipv4::{Ipv4Packet, Ipv4Repr, HEADER_LEN};
use crate::{Error, Result};

/// Splits an IPv4 datagram (`bytes` must be a complete, non-fragmented
/// packet) into fragments whose payloads are at most `mtu_payload` bytes.
/// `mtu_payload` is rounded down to a multiple of 8 as the offset field
/// requires. Each fragment gets a fresh header with the same
/// (src, dst, ident, protocol) and the original TTL.
pub fn fragment(bytes: &[u8], mtu_payload: usize) -> Result<Vec<Vec<u8>>> {
    let packet = Ipv4Packet::new_checked(bytes)?;
    if packet.is_fragment() {
        return Err(Error::Malformed);
    }
    let repr = Ipv4Repr::parse(&packet)?;
    let payload = packet.payload();
    let chunk = (mtu_payload / 8).max(1) * 8;
    let mut fragments = Vec::new();
    let mut offset = 0;
    while offset < payload.len() {
        let end = (offset + chunk).min(payload.len());
        let piece = &payload[offset..end];
        let mut frag_repr = repr;
        frag_repr.frag_offset = offset;
        frag_repr.more_fragments = end < payload.len();
        frag_repr.dont_fragment = false;
        frag_repr.payload_len = piece.len();
        fragments.push(frag_repr.build(piece));
        offset = end;
    }
    if fragments.is_empty() {
        // Zero-payload datagram: one "fragment" that is the packet itself.
        fragments.push(bytes.to_vec());
    }
    Ok(fragments)
}

/// Splits a datagram into exactly `n` fragments of roughly equal size.
/// Used by the fragment-queue-limit fingerprint probe (45 vs 46 pieces,
/// §7.2). Fails if the payload cannot be cut into `n` non-empty 8-byte
/// aligned pieces.
pub fn fragment_into(bytes: &[u8], n: usize) -> Result<Vec<Vec<u8>>> {
    if n == 0 {
        return Err(Error::Malformed);
    }
    let packet = Ipv4Packet::new_checked(bytes)?;
    if packet.is_fragment() {
        return Err(Error::Malformed);
    }
    let repr = Ipv4Repr::parse(&packet)?;
    let payload = packet.payload();
    if n == 1 {
        return Ok(vec![bytes.to_vec()]);
    }
    // All fragments except the last must carry a multiple of 8 bytes.
    // Use a balanced base size for the first n-1 pieces; the last piece
    // absorbs the remainder.
    let mut base = ((payload.len() / n) / 8 * 8).max(8);
    while base > 8 && base * (n - 1) >= payload.len() {
        base -= 8;
    }
    if base * (n - 1) >= payload.len() {
        return Err(Error::Malformed);
    }
    let mut fragments = Vec::with_capacity(n);
    for i in 0..n {
        let offset = i * base;
        let end = if i == n - 1 { payload.len() } else { offset + base };
        let piece = &payload[offset..end];
        let mut frag_repr = repr;
        frag_repr.frag_offset = offset;
        frag_repr.more_fragments = i != n - 1;
        frag_repr.dont_fragment = false;
        frag_repr.payload_len = piece.len();
        fragments.push(frag_repr.build(piece));
    }
    Ok(fragments)
}

/// Room reserved for a datagram being reassembled: the 576 bytes RFC 791
/// requires every host to accept, so a typical train never regrows it.
const DATAGRAM_RESERVE: usize = 576;

/// Room reserved for the piece list: Linux's 64 fragments per datagram.
const PIECES_RESERVE: usize = 64;

/// One datagram being reassembled as its fragments arrive. Each piece's
/// payload is copied once, to its offset in the datagram being rebuilt, so
/// finishing writes a header and allocates nothing.
///
/// The strict-receiver rules, for [`reassemble`] and endpoints alike: the
/// datagram takes its header from the first fragment to *arrive*; sorted by
/// offset (ties in arrival order), the pieces must tile `[0, end)` with no
/// gap and no overlap, and only the last may have MF = 0, so a duplicate or
/// an overlap fails the datagram (per RFC 5722's spirit). When to finish
/// and how many pieces to take are the caller's.
#[derive(Debug)]
pub struct Reassembly {
    /// The first arrival's header.
    repr: Ipv4Repr,
    /// `HEADER_LEN` bytes of room for the rebuilt header, then the payload.
    datagram: Vec<u8>,
    /// `(offset, len, more fragments)` per piece, in arrival order.
    pieces: Vec<(usize, usize, bool)>,
}

impl Reassembly {
    /// Starts a datagram on its first-arriving fragment, whose header it
    /// keeps, and takes that fragment as its first piece.
    pub fn new<T: AsRef<[u8]>>(first: &Ipv4Packet<T>) -> Result<Reassembly> {
        let mut datagram = Reassembly {
            repr: Ipv4Repr::parse(first)?,
            datagram: Vec::with_capacity(DATAGRAM_RESERVE),
            pieces: Vec::with_capacity(PIECES_RESERVE),
        };
        datagram.push(first);
        Ok(datagram)
    }

    /// Pieces taken so far.
    pub fn pieces(&self) -> usize {
        self.pieces.len()
    }

    /// Copies one more fragment's payload into place. Overlapping pieces
    /// overwrite each other here; [`Reassembly::finish`] then fails the
    /// datagram.
    pub fn push<T: AsRef<[u8]>>(&mut self, fragment: &Ipv4Packet<T>) {
        let offset = fragment.frag_offset();
        let payload = fragment.payload();
        let start = HEADER_LEN + offset;
        let end = start + payload.len();
        if self.datagram.len() < end {
            self.datagram.resize(end, 0);
        }
        self.datagram[start..end].copy_from_slice(payload);
        self.pieces.push((offset, payload.len(), fragment.more_fragments()));
    }

    /// The whole datagram, or `Malformed` when the pieces break the rules.
    pub fn finish(mut self) -> Result<Vec<u8>> {
        // Stable: pieces at one offset keep their arrival order.
        self.pieces.sort_by_key(|&(offset, _, _)| offset);
        let last = self.pieces.len() - 1;
        let mut end = 0;
        for (i, &(offset, len, more)) in self.pieces.iter().enumerate() {
            if offset != end || more == (i == last) {
                return Err(Error::Malformed);
            }
            end += len;
        }
        let mut repr = self.repr;
        repr.more_fragments = false;
        repr.frag_offset = 0;
        repr.payload_len = end;
        self.datagram.truncate(HEADER_LEN + end);
        repr.emit(&mut Ipv4Packet::new_unchecked(&mut self.datagram[..]));
        Ok(self.datagram)
    }
}

/// Reassembles the collected fragments of one datagram into the original
/// packet bytes, by [`Reassembly`]'s rules; they may come in any order. All
/// fragments must share (src, dst, ident).
pub fn reassemble(fragments: &[Vec<u8>]) -> Result<Vec<u8>> {
    let Some((first, rest)) = fragments.split_first() else {
        return Err(Error::Truncated);
    };
    let first = Ipv4Packet::new_checked(&first[..])?;
    let key = (first.src_addr(), first.dst_addr(), first.ident());
    let mut datagram = Reassembly::new(&first)?;
    for buf in rest {
        let packet = Ipv4Packet::new_checked(&buf[..])?;
        if (packet.src_addr(), packet.dst_addr(), packet.ident()) != key {
            return Err(Error::Malformed);
        }
        datagram.push(&packet);
    }
    datagram.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipv4::Protocol;
    use std::net::Ipv4Addr;

    fn datagram(payload_len: usize) -> Vec<u8> {
        let payload: Vec<u8> = (0..payload_len).map(|i| (i % 251) as u8).collect();
        let mut repr = Ipv4Repr::new(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            Protocol::Tcp,
            payload.len(),
        );
        repr.ident = 0x4242;
        repr.build(&payload)
    }

    #[test]
    fn fragment_reassemble_roundtrip() -> Result<()> {
        let original = datagram(1000);
        let fragments = fragment(&original, 256)?;
        assert_eq!(fragments.len(), 4);
        assert!(Ipv4Packet::new_unchecked(&fragments[0][..]).more_fragments());
        assert!(!Ipv4Packet::new_unchecked(&fragments[3][..]).more_fragments());
        let rebuilt = reassemble(&fragments)?;
        assert_eq!(rebuilt, original);
        Ok(())
    }

    #[test]
    fn reassemble_out_of_order() -> Result<()> {
        let original = datagram(600);
        let mut fragments = fragment(&original, 128)?;
        fragments.reverse();
        assert_eq!(reassemble(&fragments)?, original);
        Ok(())
    }

    #[test]
    fn fragment_into_exact_counts() -> Result<()> {
        let original = datagram(1480);
        for n in [2usize, 10, 45, 46] {
            let fragments = fragment_into(&original, n)?;
            assert_eq!(fragments.len(), n, "n={n}");
            assert_eq!(reassemble(&fragments)?, original);
        }
        Ok(())
    }

    #[test]
    fn fragment_into_too_many_pieces_fails() {
        // 24-byte payload cannot make 5 nonempty 8-byte-aligned pieces.
        let original = datagram(24);
        assert!(fragment_into(&original, 5).is_err());
    }

    #[test]
    fn reassemble_rejects_gap() -> Result<()> {
        let original = datagram(1000);
        let mut fragments = fragment(&original, 256)?;
        fragments.remove(1);
        assert!(reassemble(&fragments).is_err());
        Ok(())
    }

    #[test]
    fn reassemble_rejects_duplicate() -> Result<()> {
        let original = datagram(1000);
        let mut fragments = fragment(&original, 256)?;
        let dup = fragments[1].clone();
        fragments.push(dup);
        assert!(reassemble(&fragments).is_err());
        Ok(())
    }

    #[test]
    fn reassemble_rejects_mixed_idents() -> Result<()> {
        let a = fragment(&datagram(512), 128)?;
        let mut b_src = datagram(512);
        {
            let mut p = Ipv4Packet::new_unchecked(&mut b_src[..]);
            p.set_ident(0x9999);
            p.fill_checksum();
        }
        let b = fragment(&b_src, 128)?;
        let mixed = vec![a[0].clone(), b[1].clone(), a[2].clone(), a[3].clone()];
        assert!(reassemble(&mixed).is_err());
        Ok(())
    }

    #[test]
    fn fragmenting_a_fragment_fails() -> Result<()> {
        let original = datagram(1000);
        let fragments = fragment(&original, 256)?;
        assert!(fragment(&fragments[0], 64).is_err());
        Ok(())
    }

    #[test]
    fn small_payload_single_fragment() -> Result<()> {
        let original = datagram(40);
        let fragments = fragment(&original, 1400)?;
        assert_eq!(fragments.len(), 1);
        assert!(!Ipv4Packet::new_unchecked(&fragments[0][..]).is_fragment());
        assert_eq!(reassemble(&fragments)?, original);
        Ok(())
    }
}
