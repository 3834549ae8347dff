//! The generated universe, pinned by digest.
//!
//! Every campaign and benchmark set-up starts from `Universe::generate`,
//! so a change to how it builds its names or orders its lists must leave
//! each of them byte for byte as it was. The digest is an FNV-1a written
//! here (no hasher whose output a toolchain may change) over:
//!
//! - every domain's name, category, list, added day and Russian flag, in
//!   list order (Tranco + CLBL, then the registry sample);
//! - each SNI block set, sorted;
//! - each ISP resolver list, sorted, the ISPs in name order.
//!
//! The constants were recorded from the generator that sorted the whole
//! registry sample by (added day, name) with one comparison sort.
//!
//! ## Seeded mutation
//!
//! `universe_day_order_unsorted` (`tests/mutants/`): the stale resolver
//! prefixes keep each day's names in sample order instead of sorting them.
//! Each ISP still covers as many recent names, so the coverage counts of
//! the unit tests hold; only these digests see which names.

use tspu_registry::{Domain, ListKind, Universe};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Fnv1a {
        Fnv1a(FNV_OFFSET)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// A string with its length first, so that no two sequences of strings
    /// feed the same bytes.
    fn str(&mut self, s: &str) {
        self.bytes(&(s.len() as u64).to_le_bytes());
        self.bytes(s.as_bytes());
    }

    fn domain(&mut self, d: &Domain) {
        self.str(&d.name);
        self.str(d.category.name());
        self.bytes(&[match d.list {
            ListKind::Tranco => 0,
            ListKind::RegistrySample => 1,
        }]);
        match d.registry_added_day {
            None => self.bytes(&[0]),
            Some(day) => {
                self.bytes(&[1]);
                self.bytes(&day.to_le_bytes());
            }
        }
        self.bytes(&[u8::from(d.russian)]);
    }

    fn sorted<'a>(&mut self, set: impl IntoIterator<Item = &'a String>) {
        let mut names: Vec<&str> = set.into_iter().map(String::as_str).collect();
        names.sort_unstable();
        self.bytes(&(names.len() as u64).to_le_bytes());
        for name in names {
            self.str(name);
        }
    }
}

/// The digest of everything `Universe::generate(seed)` returns.
fn universe_digest(seed: u64) -> u64 {
    let u = Universe::generate(seed);
    let mut h = Fnv1a::new();
    for d in u.all_domains() {
        h.domain(d);
    }
    h.sorted(&u.blocks.sni_rst);
    h.sorted(&u.blocks.sni_slow);
    h.sorted(&u.blocks.sni_throttle);
    h.sorted(&u.blocks.sni_backup);
    let mut isps: Vec<&String> = u.blocks.isp_resolver.keys().collect();
    isps.sort_unstable();
    for isp in isps {
        h.str(isp);
        h.sorted(&u.blocks.isp_resolver[isp]);
    }
    h.0
}

#[test]
fn universe_seed_1_is_unchanged() {
    assert_eq!(
        universe_digest(1),
        0x8c3f_07a3_c439_fdb0,
        "Universe::generate(1) digest moved"
    );
}

#[test]
fn universe_seed_2022_is_unchanged() {
    assert_eq!(
        universe_digest(2022),
        0x7f66_b9bf_5fef_d72b,
        "Universe::generate(2022) digest moved"
    );
}
