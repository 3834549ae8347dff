//! The internet checksum (RFC 1071) and the TCP/UDP pseudo-header sum.

use std::net::Ipv4Addr;

/// Computes the ones-complement sum of `data` a 64-bit word at a time,
/// starting from an `initial` partial sum (use 0 when summing a single
/// buffer). Each word is big-endian, the tail zero-padded, and a carry
/// out of the top bit is added back in (the end-around carry). Because
/// 2^16 ≡ 1 modulo 0xffff, the sum folds to the RFC 1071 sum of 16-bit
/// words, and it is zero only when `data` is.
fn ones_complement_sum(initial: u64, data: &[u8]) -> u64 {
    let mut sum = initial;
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        // `chunks_exact(8)`: every chunk is eight bytes.
        sum = add(sum, u64::from_be_bytes(word.try_into().unwrap_or_default()));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut padded = [0u8; 8];
        padded[..tail.len()].copy_from_slice(tail);
        sum = add(sum, u64::from_be_bytes(padded));
    }
    sum
}

/// Ones-complement addition of two 64-bit words.
fn add(a: u64, b: u64) -> u64 {
    let (sum, carry) = a.overflowing_add(b);
    sum + u64::from(carry)
}

/// Folds a partial sum into the final 16-bit internet checksum.
fn fold(mut sum: u64) -> u16 {
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

/// Computes the internet checksum over `data`.
///
/// The checksum field inside `data` must be zeroed by the caller before
/// computing, as usual for IP-family protocols.
pub fn checksum(data: &[u8]) -> u16 {
    fold(ones_complement_sum(0, data))
}

/// Verifies that `data` (with its embedded checksum field left in place)
/// sums to zero, i.e. the checksum is valid.
pub fn verify(data: &[u8]) -> bool {
    fold(ones_complement_sum(0, data)) == 0
}

/// Computes the TCP/UDP checksum of `payload` (the full transport header +
/// data) under the IPv4 pseudo-header for `src`/`dst` and `protocol`.
pub fn pseudo_header_checksum(src: Ipv4Addr, dst: Ipv4Addr, protocol: u8, payload: &[u8]) -> u16 {
    let mut sum = ones_complement_sum(0, &src.octets());
    sum = ones_complement_sum(sum, &dst.octets());
    sum = add(sum, u64::from(protocol));
    sum = add(sum, payload.len() as u64);
    fold(ones_complement_sum(sum, payload))
}

/// The checksum after one 16-bit word it covers changes from `old` to
/// `new`, without re-summing the data: RFC 1624 eqn. 3,
/// `HC' = ~(~HC + ~m + m')`. Over a valid checksum of data that is not all
/// zero this equals a full recompute, including the case RFC 1141's
/// `HC + m + ~m'` gets wrong (it yields 0xffff where the sum gives 0). A
/// wrong checksum stays wrong by the same amount.
pub fn update(checksum: u16, old: u16, new: u16) -> u16 {
    fold(u64::from(!checksum) + u64::from(!old) + u64::from(new))
}

/// Verifies a transport checksum embedded in `payload` under the
/// pseudo-header, returning `true` when valid.
pub fn pseudo_header_verify(src: Ipv4Addr, dst: Ipv4Addr, protocol: u8, payload: &[u8]) -> bool {
    pseudo_header_checksum(src, dst, protocol, payload) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc1071_example() {
        // Worked example from RFC 1071 §3: {00 01, f2 03, f4 f5, f6 f7}.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        // Partial sum is 0x2ddf0 -> folded 0xddf2 -> complement 0x220d.
        assert_eq!(checksum(&data), 0x220d);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        assert_eq!(checksum(&[0xff]), checksum(&[0xff, 0x00]));
    }

    #[test]
    fn verify_roundtrip() {
        let mut data = vec![0x45, 0x00, 0x00, 0x1c, 0xab, 0xcd, 0x00, 0x00, 0x40, 0x06, 0x00,
                            0x00, 0x0a, 0x00, 0x00, 0x01, 0x0a, 0x00, 0x00, 0x02];
        let ck = checksum(&data);
        data[10..12].copy_from_slice(&ck.to_be_bytes());
        assert!(verify(&data));
        data[4] ^= 0x01;
        assert!(!verify(&data));
    }

    #[test]
    fn pseudo_header_roundtrip() {
        let src = Ipv4Addr::new(10, 0, 0, 1);
        let dst = Ipv4Addr::new(192, 168, 1, 1);
        let mut seg = vec![0u8; 24];
        seg[0..2].copy_from_slice(&443u16.to_be_bytes());
        seg[2..4].copy_from_slice(&1234u16.to_be_bytes());
        let ck = pseudo_header_checksum(src, dst, 6, &seg);
        seg[16..18].copy_from_slice(&ck.to_be_bytes());
        assert!(pseudo_header_verify(src, dst, 6, &seg));
        // A different address (not a src/dst swap — the sum commutes)
        // must break verification.
        assert!(!pseudo_header_verify(src, Ipv4Addr::new(192, 168, 1, 2), 6, &seg));
    }

    /// The 16-bit-word sum of RFC 1071, as the reference for the wide one.
    fn sum_by_halfwords(data: &[u8]) -> u16 {
        let mut sum: u64 = 0;
        for pair in data.chunks(2) {
            sum += u64::from(u16::from_be_bytes([pair[0], pair.get(1).copied().unwrap_or(0)]));
        }
        fold(sum)
    }

    #[test]
    fn word_sum_equals_the_halfword_sum_at_every_length() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for len in 0..=67 {
            for fill in [0x00, 0xff, 0x80] {
                assert_eq!(checksum(&vec![fill; len]), sum_by_halfwords(&vec![fill; len]), "len {len}");
            }
            let data: Vec<u8> = (0..len)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state as u8
                })
                .collect();
            assert_eq!(checksum(&data), sum_by_halfwords(&data), "len {len}");
        }
    }

    #[test]
    fn all_zero_buffer_checksums_to_ffff() {
        assert_eq!(checksum(&[0u8; 20]), 0xffff);
    }
}
