//! A fast, deterministic, non-cryptographic hasher for the packet path.
//!
//! The standard library's default `HashMap` hasher (SipHash-1-3) is
//! keyed and DoS-resistant — properties a simulator's per-packet flow
//! lookup does not need and pays ~2-3× lookup latency for. This is the
//! word-at-a-time multiply-rotate scheme used by the Rust compiler's own
//! hash tables ("FxHash"), finished with the rotate rustc-hash 2 adopted
//! (see [`FxHasher::finish`]) and implemented in-repo because the build is
//! offline. Unkeyed and deterministic: the same map contents iterate the
//! same way in every run, which the simulator's reproducibility relies on.
//!
//! Use [`FxHashMap`]/[`FxHashSet`] as drop-in map types, or
//! [`FxBuildHasher`] with `HashMap::with_hasher`.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from the compiler's implementation: a 64-bit value with
/// good bit dispersion (derived from the golden ratio).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The FxHash state: one 64-bit word, folded with rotate-xor-multiply.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    /// The state rotated left by 26. A multiply carries only upwards, so
    /// the state's low bits depend only on the last word's low bits (for an
    /// `Ipv4Addr`, a native-endian `u32`, on x86 its first two octets), and
    /// hashbrown takes a home bucket from the low bits: unrotated, a whole
    /// /16 would share one. The rotate brings the multiply's well-mixed
    /// middle bits down and keeps the top seven (hashbrown's tag) mixed.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            // `chunks_exact(8)`: every chunk is eight bytes.
            self.add_to_hash(u64::from_le_bytes(word.try_into().unwrap_or_default()));
        }
        let mut tail = words.remainder();
        if let Some((half, rest)) = tail.split_first_chunk::<4>() {
            self.add_to_hash(u64::from(u32::from_le_bytes(*half)));
            tail = rest;
        }
        for &b in tail {
            self.add_to_hash(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }
}

/// `BuildHasher` producing [`FxHasher`]s (stateless).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// `HashMap` keyed with FxHash.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// `HashSet` keyed with FxHash.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;
    use std::hash::{BuildHasher, Hash};
    use std::net::Ipv4Addr;

    use super::*;

    fn hash_of(bytes: &[u8]) -> u64 {
        let mut h = FxHasher::default();
        h.write(bytes);
        h.finish()
    }

    #[test]
    fn deterministic_across_instances() {
        assert_eq!(hash_of(b"twitter.com"), hash_of(b"twitter.com"));
        assert_ne!(hash_of(b"twitter.com"), hash_of(b"twitter.co"));
    }

    #[test]
    fn word_and_byte_paths_disperse() {
        // Adjacent integers must land far apart (the multiply disperses).
        let a = {
            let mut h = FxHasher::default();
            h.write_u64(1);
            h.finish()
        };
        let b = {
            let mut h = FxHasher::default();
            h.write_u64(2);
            h.finish()
        };
        assert!(a.abs_diff(b) > 1 << 32);
    }

    #[test]
    fn map_roundtrip() {
        let mut map: FxHashMap<String, u32> = FxHashMap::default();
        for i in 0..1000u32 {
            map.insert(format!("flow-{i}"), i);
        }
        assert_eq!(map.len(), 1000);
        assert_eq!(map.get("flow-457"), Some(&457));
    }

    #[test]
    fn low_collision_rate_over_flow_like_keys() {
        let mut seen = std::collections::HashSet::new();
        for a in 0..64u64 {
            for p in 0..512u64 {
                let mut h = FxHasher::default();
                h.write_u64(a << 32 | p);
                seen.insert(h.finish());
            }
        }
        assert_eq!(seen.len(), 64 * 512, "distinct keys must not collide");
    }

    /// 16,384 keys of each shape the simulator's tables hold must spread
    /// over the low 14 bits (hashbrown's home bucket in a table of up to
    /// 16,384 buckets) and the top 7 (its tag). Without the rotate in
    /// `finish`, a /16 of addresses takes 1 home bucket, the clusters 2 and
    /// the fragment keys 1,024.
    #[test]
    fn address_shaped_keys_spread_over_home_buckets() {
        fn spread<K: Hash>(keys: impl Iterator<Item = K>) -> (usize, usize) {
            let (mut home, mut tag) = (BTreeSet::new(), BTreeSet::new());
            for key in keys {
                let hash = FxBuildHasher::default().hash_one(key);
                home.insert(hash & 0x3fff);
                tag.insert(hash >> 57);
            }
            (home.len(), tag.len())
        }
        let keys = || 0..1u32 << 14;
        let addr = Ipv4Addr::from;
        let scanner = Ipv4Addr::new(198, 51, 100, 8);
        let shapes = [
            ("one /16", spread(keys().map(|i| addr(0x0512_0000 + i)))),
            ("5.b.c.(2+j) clusters", spread(keys().map(|i| addr(0x0500_0000 + (i >> 5 << 8) + 2 + (i & 31))))),
            ("(u32, u32) host pairs", spread(keys().map(|i| (i >> 7, i & 127)))),
            (
                "FlowKey-shaped",
                spread(keys().map(|i| (scanner, 49_152 + (i & 1023) as u16, addr(0x0512_0000 + i), 443u16, 6u8))),
            ),
            ("(src, dst, ident, proto)", spread(keys().map(|i| (scanner, addr(0x0512_0000 + i), (i & 7) as u16, 1u8)))),
        ];
        for (shape, (home, tag)) in shapes {
            assert!(home >= 8_000, "{shape}: 16,384 keys took {home} home buckets");
            assert!(tag >= 120, "{shape}: 16,384 keys took {tag} tags");
        }
    }
}
