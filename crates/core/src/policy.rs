//! The central censorship policy and its distribution model.
//!
//! Roskomnadzor "orders, distributes, and controls" TSPU devices (§5.1);
//! the defining property the paper exploits to attribute blocking to the
//! TSPU is *uniformity*: every device in the country enforces the same
//! blocklists at the same moment, including "out-registry" resources that
//! individual ISPs do not block. We model this with a single [`Policy`]
//! value behind a shared [`PolicyHandle`]; every [`crate::TspuDevice`]
//! clones the handle, so a central update (e.g. the March 4, 2022 switch
//! from throttling to RST blocking) is observed by all devices at once.

use std::collections::hash_map::Entry;
use std::collections::HashSet;
use std::net::Ipv4Addr;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard};

use tspu_obs::{MetricValue, Snapshot};

use crate::constants;
use crate::fasthash::FxHashMap;

/// Base of the polynomial suffix hash. Chosen so the hash of any suffix
/// of a hostname can be extended one byte leftward in O(1) — the property
/// [`DomainSet::matches_normalized`] uses to hash every candidate suffix
/// in a single backward pass.
const SUFFIX_HASH_BASE: u64 = 0x0100_0000_01b3;

/// Rolling-hash state while scanning a hostname right to left.
#[derive(Clone, Copy)]
struct SuffixHash {
    hash: u64,
    pow: u64,
}

impl SuffixHash {
    fn new() -> SuffixHash {
        SuffixHash { hash: 0, pow: 1 }
    }

    /// Extends the hashed suffix one byte to the left.
    #[inline]
    fn prepend(&mut self, byte: u8) {
        // +1 so a byte value of zero still advances the polynomial.
        self.hash = self.hash.wrapping_add(self.pow.wrapping_mul(u64::from(byte) + 1));
        self.pow = self.pow.wrapping_mul(SUFFIX_HASH_BASE);
    }
}

/// The suffix hash of a whole byte string (what [`SuffixHash`] yields
/// after prepending every byte right-to-left).
fn suffix_hash_of(bytes: &[u8]) -> u64 {
    let mut state = SuffixHash::new();
    for &b in bytes.iter().rev() {
        state.prepend(b);
    }
    state.hash
}

/// A hostname normalized the way [`DomainSet`] stores entries: ASCII
/// lowercase, one trailing dot stripped. Normalization happens once per
/// packet into a fixed stack buffer (no heap allocation for hostnames up
/// to 256 bytes — longer than any SNI the TSPU would see; a rare longer
/// name spills to the heap), and the result is shared by every list the
/// device consults via [`DomainSet::matches_normalized`].
pub struct NormalizedHost {
    stack: [u8; Self::STACK_CAPACITY],
    /// Heap fallback for hostnames longer than the stack buffer.
    spill: Option<Vec<u8>>,
    len: usize,
}

impl NormalizedHost {
    /// Longest hostname the stack buffer holds without heap fallback.
    pub const STACK_CAPACITY: usize = 256;

    /// Normalizes `hostname` (lowercase, one trailing dot stripped).
    pub fn new(hostname: &str) -> NormalizedHost {
        let src = hostname.as_bytes();
        let src = match src.split_last() {
            Some((b'.', head)) => head,
            _ => src,
        };
        if src.len() <= Self::STACK_CAPACITY {
            let mut stack = [0u8; Self::STACK_CAPACITY];
            for (dst, &b) in stack.iter_mut().zip(src) {
                *dst = b.to_ascii_lowercase();
            }
            NormalizedHost { stack, spill: None, len: src.len() }
        } else {
            let spill = src.iter().map(u8::to_ascii_lowercase).collect();
            NormalizedHost { stack: [0u8; Self::STACK_CAPACITY], spill: Some(spill), len: src.len() }
        }
    }

    /// The normalized bytes.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        match &self.spill {
            Some(v) => v,
            None => &self.stack[..self.len],
        }
    }

    /// The normalized hostname as a string slice.
    pub fn as_str(&self) -> &str {
        // ASCII-lowercasing touches only bytes < 0x80, so the bytes stay
        // exactly as valid as the input `&str` they came from.
        std::str::from_utf8(self.as_bytes()).expect("lowercased UTF-8 stays valid")
    }
}

/// A hash bucket: its first entry is held inline, and it spills to a
/// `Vec` only when a second entry shares the first's hash — which for
/// [`suffix_hash_of`] takes a deliberate collision, so a listed name costs
/// its own copy and no bucket allocation.
#[derive(Debug, Clone)]
enum Bucket<T> {
    One(T),
    Many(Vec<T>),
}

impl<T> Bucket<T> {
    fn push(&mut self, item: T) {
        *self = match std::mem::replace(self, Bucket::Many(Vec::new())) {
            Bucket::One(first) => Bucket::Many(vec![first, item]),
            Bucket::Many(mut items) => {
                items.push(item);
                Bucket::Many(items)
            }
        };
    }

    /// Removes entry `pos`, moving the last entry into its place. False
    /// when `pos` was the bucket's last entry: a bucket cannot be empty, so
    /// the caller drops the whole bucket instead.
    fn swap_remove(&mut self, pos: usize) -> bool {
        match self {
            Bucket::One(_) => false,
            Bucket::Many(items) => {
                items.swap_remove(pos);
                !items.is_empty()
            }
        }
    }
}

impl<T> std::ops::Deref for Bucket<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        match self {
            Bucket::One(item) => std::slice::from_ref(item),
            Bucket::Many(items) => items,
        }
    }
}

impl<T> std::ops::DerefMut for Bucket<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        match self {
            Bucket::One(item) => std::slice::from_mut(item),
            Bucket::Many(items) => items,
        }
    }
}

/// Adds `item` to the bucket at `hash`, opening the bucket if need be.
fn push_at<T>(buckets: &mut FxHashMap<u64, Bucket<T>>, hash: u64, item: T) {
    match buckets.entry(hash) {
        Entry::Occupied(bucket) => bucket.into_mut().push(item),
        Entry::Vacant(slot) => {
            slot.insert(Bucket::One(item));
        }
    }
}

/// Names bucketed by their [`suffix_hash_of`] value.
type NameBuckets = FxHashMap<u64, Bucket<Box<str>>>;

fn holds_name(buckets: &NameBuckets, hash: u64, name: &[u8]) -> bool {
    buckets.get(&hash).is_some_and(|bucket| bucket.iter().any(|e| e.as_bytes() == name))
}

/// Removes `name` from its bucket (dropping a bucket it empties); true if
/// it was there.
fn take_name(buckets: &mut NameBuckets, hash: u64, name: &[u8]) -> bool {
    let Some(bucket) = buckets.get_mut(&hash) else { return false };
    let Some(pos) = bucket.iter().position(|e| e.as_bytes() == name) else { return false };
    if !bucket.swap_remove(pos) {
        buckets.remove(&hash);
    }
    true
}

/// A set of domain names with suffix matching: `web.facebook.com` matches
/// an entry for `facebook.com` (the paper's blocklists name registrable
/// domains while SNIs carry full hostnames).
///
/// Entries are stored in buckets keyed by their `suffix_hash_of` value,
/// so a lookup walks the hostname once, right to left, hashing each
/// candidate suffix incrementally — no per-call allocation and no
/// re-scanning of the tail for each label level.
///
/// A set taken from a [`PolicyHistory`] additionally reads one version of
/// a shared, immutable table: its own buckets then hold only what was
/// inserted since, and a tombstone map what was removed since, so such a
/// set costs nothing per name to create, clone or drop. A set built any
/// other way has no shared table and pays one never-taken branch for it.
#[derive(Debug, Clone, Default)]
pub struct DomainSet {
    buckets: NameBuckets,
    len: usize,
    shared: Option<SharedNames>,
}

/// One version of a [`ListHistory`], minus the names removed since.
#[derive(Debug, Clone)]
struct SharedNames {
    history: Arc<ListHistory>,
    version: usize,
    /// Names live in `history` at `version` that this set has removed.
    tombstones: NameBuckets,
}

impl SharedNames {
    /// Whether the shared table lists `name` at this version, removed
    /// since or not.
    fn lists(&self, hash: u64, name: &[u8]) -> bool {
        self.history.lists(self.version, hash, name)
    }

    #[inline]
    fn contains(&self, hash: u64, name: &[u8]) -> bool {
        self.lists(hash, name) && !holds_name(&self.tombstones, hash, name)
    }

    fn iter(&self) -> impl Iterator<Item = &str> {
        self.history.buckets.iter().flat_map(move |(&hash, bucket)| {
            bucket
                .iter()
                .filter(move |l| {
                    l.listed.contains(&self.version)
                        && !holds_name(&self.tombstones, hash, l.name.as_bytes())
                })
                .map(|l| &*l.name)
        })
    }
}

impl DomainSet {
    /// An empty set.
    pub fn new() -> DomainSet {
        DomainSet::default()
    }

    /// Builds a set from an iterator of domain names.
    pub fn from_names<I: IntoIterator<Item = S>, S: AsRef<str>>(domains: I) -> DomainSet {
        let mut set = DomainSet::new();
        for d in domains {
            set.insert(d);
        }
        set
    }

    /// Inserts a domain (normalized to lowercase, trailing dot stripped).
    /// The name is normalized on the stack and probed by reference, so
    /// only a name that actually lands is copied to the heap.
    pub fn insert<S: AsRef<str>>(&mut self, domain: S) {
        let d = NormalizedHost::new(domain.as_ref());
        let hash = suffix_hash_of(d.as_bytes());
        if let Some(shared) = &mut self.shared {
            if shared.lists(hash, d.as_bytes()) {
                // Already an entry unless removed since: then re-list it.
                if take_name(&mut shared.tombstones, hash, d.as_bytes()) {
                    self.len += 1;
                }
                return;
            }
        }
        if !holds_name(&self.buckets, hash, d.as_bytes()) {
            push_at(&mut self.buckets, hash, d.as_str().into());
            self.len += 1;
        }
    }

    /// Removes a domain (normalized like [`DomainSet::insert`], so a
    /// delisting with a trailing dot still finds the stored entry).
    pub fn remove(&mut self, domain: &str) {
        let d = NormalizedHost::new(domain);
        let hash = suffix_hash_of(d.as_bytes());
        if take_name(&mut self.buckets, hash, d.as_bytes()) {
            self.len -= 1;
        } else if let Some(shared) = &mut self.shared {
            if shared.contains(hash, d.as_bytes()) {
                push_at(&mut shared.tombstones, hash, d.as_str().into());
                self.len -= 1;
            }
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True if `hostname` equals an entry or is a subdomain of one.
    /// Never matches a bare TLD-style parent it does not contain.
    pub fn matches(&self, hostname: &str) -> bool {
        if self.len == 0 {
            return false;
        }
        self.matches_normalized(&NormalizedHost::new(hostname))
    }

    /// [`matches`](DomainSet::matches) against an already-normalized host
    /// — lets one normalization serve several list checks on the packet
    /// path.
    pub fn matches_normalized(&self, host: &NormalizedHost) -> bool {
        if self.len == 0 {
            return false;
        }
        let bytes = host.as_bytes();
        if bytes.is_empty() {
            return self.contains_suffix(SuffixHash::new().hash, bytes);
        }
        let mut state = SuffixHash::new();
        let mut dots_in_suffix = 0usize;
        let mut i = bytes.len();
        while i > 0 {
            i -= 1;
            let byte = bytes[i];
            state.prepend(byte);
            if byte == b'.' {
                dots_in_suffix += 1;
            }
            let at_label_boundary = i == 0 || bytes[i - 1] == b'.';
            if at_label_boundary {
                // Candidates are the full host plus every dotted suffix at
                // a label boundary; a bare final label ("com") is never a
                // candidate — the walk the HashSet version did explicitly.
                let qualifies = i == 0 || dots_in_suffix >= 1;
                if qualifies && self.contains_suffix(state.hash, &bytes[i..]) {
                    return true;
                }
            }
        }
        false
    }

    #[inline]
    fn contains_suffix(&self, hash: u64, suffix: &[u8]) -> bool {
        holds_name(&self.buckets, hash, suffix)
            || self.shared.as_ref().is_some_and(|shared| shared.contains(hash, suffix))
    }

    /// Iterates over the entries.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        let shared = self.shared.iter().flat_map(SharedNames::iter);
        self.buckets.values().flat_map(|bucket| bucket.iter()).map(|s| &**s).chain(shared)
    }
}

/// Set equality: the same entries, however each side stores them.
impl PartialEq for DomainSet {
    fn eq(&self, other: &DomainSet) -> bool {
        self.len == other.len
            && self
                .iter()
                .all(|e| other.contains_suffix(suffix_hash_of(e.as_bytes()), e.as_bytes()))
    }
}

/// Token-bucket parameters for the SNI-III throttling behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThrottleConfig {
    /// Sustained rate in bytes per second.
    pub rate_bytes_per_sec: u64,
    /// Bucket depth in bytes (must fit at least one MTU-sized packet for
    /// anything to pass at all).
    pub burst_bytes: u64,
}

impl ThrottleConfig {
    /// The Feb 26 – Mar 4, 2022 hard throttle (≈ 650 B/s).
    pub fn hard_2022() -> ThrottleConfig {
        ThrottleConfig { rate_bytes_per_sec: constants::THROTTLE_RATE_2022, burst_bytes: 1600 }
    }
}

/// The complete censorship policy a TSPU device enforces.
#[derive(Debug, Clone, PartialEq)]
pub struct Policy {
    /// SNI-I: RST/ACK response rewriting — "the vast majority of blocking".
    pub sni_rst: DomainSet,
    /// SNI-II: delayed symmetric drop; out-registry domains such as
    /// `play.google.com` and `nordvpn.com`.
    pub sni_slow: DomainSet,
    /// SNI-III: throttling (active only while `throttle_active`).
    pub sni_throttle: DomainSet,
    /// SNI-IV: backup full drop for a select subset of SNI-I targets
    /// (Facebook/Twitter/Instagram domains).
    pub sni_backup: DomainSet,
    /// Whether the QUIC version-1 filter is on (deployed March 4, 2022).
    pub quic_filter: bool,
    /// Out-registry IP blocking (Tor entry nodes, VPN endpoints, …).
    pub blocked_ips: HashSet<Ipv4Addr>,
    /// Throttle parameters for SNI-III.
    pub throttle: ThrottleConfig,
    /// Whether SNI-III throttling is currently in force (it was replaced
    /// by SNI-I RST blocking on March 4, 2022).
    pub throttle_active: bool,
    /// Monotone version counter, bumped on every registry update (each
    /// [`Policy::apply_delta`] and each [`PolicyHandle::update`]). Flow
    /// verdicts record the epoch they were installed under, so conntrack
    /// entries still enforcing a pre-delta decision can be audited.
    pub epoch: u64,
}

impl Default for Policy {
    fn default() -> Policy {
        Policy {
            sni_rst: DomainSet::new(),
            sni_slow: DomainSet::new(),
            sni_throttle: DomainSet::new(),
            sni_backup: DomainSet::new(),
            quic_filter: true,
            blocked_ips: HashSet::new(),
            throttle: ThrottleConfig::hard_2022(),
            throttle_active: false,
            epoch: 0,
        }
    }
}

impl Policy {
    /// An empty policy (blocks nothing, QUIC filter off).
    pub fn permissive() -> Policy {
        Policy { quic_filter: false, ..Policy::default() }
    }

    /// A small policy exercising every mechanism — used throughout tests
    /// and examples. Domain choices mirror Table 3.
    pub fn example() -> Policy {
        let mut policy = Policy::default();
        for d in [
            "twitter.com", "facebook.com", "instagram.com", "t.co", "twimg.com",
            "dw.com", "meduza.io", "bbc.com", "tor.eff.org", "theins.ru",
        ] {
            policy.sni_rst.insert(d);
        }
        for d in ["play.google.com", "news.google.com", "nordvpn.com", "nordaccount.com"] {
            policy.sni_slow.insert(d);
        }
        for d in ["twitter.com", "t.co", "twimg.com", "fbcdn.net"] {
            policy.sni_throttle.insert(d);
        }
        for d in ["twitter.com", "t.co", "twimg.com", "web.facebook.com", "cdninstagram.com", "messenger.com"] {
            policy.sni_backup.insert(d);
        }
        policy.blocked_ips.insert(Ipv4Addr::new(198, 51, 100, 7)); // "Tor entry node"
        policy
    }

    /// Applies a batched registry update in place and bumps the epoch.
    ///
    /// Each entry goes through the same [`DomainSet::insert`]/
    /// [`DomainSet::remove`] bucket maintenance a full compile would use,
    /// so matcher semantics are identical to rebuilding from scratch —
    /// the `policy_delta_differential` proptest pins this — but the cost
    /// is proportional to the delta, not to the ~100k domains already
    /// loaded (the `churn/delta_apply_ns` bench shows the gap).
    pub fn apply_delta(&mut self, delta: &PolicyDelta) {
        self.apply_delta_ops(delta);
        self.epoch = self.epoch.wrapping_add(1);
    }

    /// The mutation half of [`Policy::apply_delta`], without the epoch
    /// bump — for callers (like [`PolicyHandle::update`]) that account
    /// for the epoch themselves.
    fn apply_delta_ops(&mut self, delta: &PolicyDelta) {
        for (list, names) in [
            (&mut self.sni_rst, &delta.add_rst),
            (&mut self.sni_slow, &delta.add_slow),
            (&mut self.sni_throttle, &delta.add_throttle),
            (&mut self.sni_backup, &delta.add_backup),
        ] {
            list.buckets.reserve(names.len());
            for name in names {
                list.insert(name);
            }
        }
        for (list, names) in [
            (&mut self.sni_rst, &delta.remove_rst),
            (&mut self.sni_slow, &delta.remove_slow),
            (&mut self.sni_throttle, &delta.remove_throttle),
            (&mut self.sni_backup, &delta.remove_backup),
        ] {
            for name in names {
                list.remove(name);
            }
        }
        for ip in &delta.block_ips {
            self.blocked_ips.insert(*ip);
        }
        for ip in &delta.unblock_ips {
            self.blocked_ips.remove(ip);
        }
        if let Some(on) = delta.quic_filter {
            self.quic_filter = on;
        }
        if let Some(on) = delta.throttle_active {
            self.throttle_active = on;
        }
    }
}

/// One batched, incremental registry update — the unit Roskomnadzor
/// distributes when the blocklist registry churns (§5's add/remove
/// batches). Applying a delta touches only the named entries; the rest of
/// the compiled policy (all its suffix-hash buckets) stays in place.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PolicyDelta {
    /// Domains added to SNI-I (RST/ACK rewrite).
    pub add_rst: Vec<String>,
    /// Domains removed from SNI-I.
    pub remove_rst: Vec<String>,
    /// Domains added to SNI-II (delayed symmetric drop).
    pub add_slow: Vec<String>,
    /// Domains removed from SNI-II.
    pub remove_slow: Vec<String>,
    /// Domains added to SNI-III (throttling).
    pub add_throttle: Vec<String>,
    /// Domains removed from SNI-III.
    pub remove_throttle: Vec<String>,
    /// Domains added to SNI-IV (backup full drop).
    pub add_backup: Vec<String>,
    /// Domains removed from SNI-IV.
    pub remove_backup: Vec<String>,
    /// IPs added to the address blocklist.
    pub block_ips: Vec<Ipv4Addr>,
    /// IPs removed from the address blocklist.
    pub unblock_ips: Vec<Ipv4Addr>,
    /// Toggles the QUIC version-1 filter when set.
    pub quic_filter: Option<bool>,
    /// Toggles SNI-III throttling when set.
    pub throttle_active: Option<bool>,
}

impl PolicyDelta {
    /// An empty delta (applying it only bumps the epoch).
    pub fn new() -> PolicyDelta {
        PolicyDelta::default()
    }

    /// A delta that moves `domains` onto the SNI-I RST blocklist — the
    /// most common registry event the paper observes.
    pub fn add_rst_batch<I, S>(domains: I) -> PolicyDelta
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        PolicyDelta {
            add_rst: domains.into_iter().map(Into::into).collect(),
            ..PolicyDelta::default()
        }
    }

    /// True when the delta carries no operations at all.
    pub fn is_empty(&self) -> bool {
        self.op_count() == 0 && self.quic_filter.is_none() && self.throttle_active.is_none()
    }

    /// Number of list/IP operations carried (toggles not counted).
    pub fn op_count(&self) -> usize {
        self.add_rst.len()
            + self.remove_rst.len()
            + self.add_slow.len()
            + self.remove_slow.len()
            + self.add_throttle.len()
            + self.remove_throttle.len()
            + self.add_backup.len()
            + self.remove_backup.len()
            + self.block_ips.len()
            + self.unblock_ips.len()
    }
}

/// "Not delisted yet" as the end of a listed range.
const STILL_LISTED: usize = usize::MAX;

/// One stay of a name on a list, live at the versions in `listed`.
#[derive(Debug)]
struct Listing {
    name: Box<str>,
    listed: Range<usize>,
}

impl Listing {
    /// Whether this is `name`'s current, not yet delisted, stay.
    fn is_open(&self, name: &[u8]) -> bool {
        self.listed.end == STILL_LISTED && self.name.as_bytes() == name
    }
}

/// Every version of one name list in a single suffix-hash table: a name
/// delisted and listed again has two [`Listing`]s in its bucket.
#[derive(Debug)]
struct ListHistory {
    buckets: FxHashMap<u64, Bucket<Listing>>,
    /// Entries live at each version, `0..=` the deltas compiled.
    live: Vec<usize>,
}

impl ListHistory {
    fn new() -> ListHistory {
        ListHistory { buckets: FxHashMap::default(), live: vec![0] }
    }

    /// Records the delta that produces `version`: additions first, then
    /// removals, as [`Policy::apply_delta`] orders them.
    fn apply(&mut self, version: usize, adds: &[String], removes: &[String]) {
        let mut live = self.live[version - 1];
        self.buckets.reserve(adds.len());
        for name in adds {
            let name = NormalizedHost::new(name);
            let hash = suffix_hash_of(name.as_bytes());
            let bucket = self.buckets.get(&hash);
            if !bucket.is_some_and(|b| b.iter().any(|l| l.is_open(name.as_bytes()))) {
                let listing = Listing { name: name.as_str().into(), listed: version..STILL_LISTED };
                push_at(&mut self.buckets, hash, listing);
                live += 1;
            }
        }
        for name in removes {
            let name = NormalizedHost::new(name);
            let hash = suffix_hash_of(name.as_bytes());
            let Some(bucket) = self.buckets.get_mut(&hash) else { continue };
            if let Some(pos) = bucket.iter().position(|l| l.is_open(name.as_bytes())) {
                live -= 1;
                if bucket[pos].listed.start != version {
                    bucket[pos].listed.end = version;
                } else if !bucket.swap_remove(pos) {
                    // Added by this same delta, live at no version, and
                    // the bucket's last listing.
                    self.buckets.remove(&hash);
                }
            }
        }
        self.live.push(live);
    }

    #[inline]
    fn lists(&self, version: usize, hash: u64, name: &[u8]) -> bool {
        self.buckets.get(&hash).is_some_and(|bucket| {
            bucket.iter().any(|l| l.listed.contains(&version) && l.name.as_bytes() == name)
        })
    }
}

/// A delta sequence compiled once so that the policy after any prefix of
/// it is a value to take, not a replay to run — the registry as
/// Roskomnadzor distributed it day by day, held once.
///
/// Version `v` is [`Policy::permissive`] with the first `v` deltas
/// applied. [`PolicyHistory::as_of`] returns it as an ordinary [`Policy`]
/// whose four [`DomainSet`]s read this history's tables at `v`; taking
/// one costs no per-name work, and whatever is later applied to it lands
/// in the policy's own overlay, never in the tables other versions share.
#[derive(Debug)]
pub struct PolicyHistory {
    /// SNI-I…IV, in [`Policy`] field order.
    lists: [Arc<ListHistory>; 4],
    /// Each address with the versions it is blocked at.
    ips: Vec<(Ipv4Addr, Range<usize>)>,
    /// `(quic_filter, throttle_active)` at each version.
    toggles: Vec<(bool, bool)>,
}

impl PolicyHistory {
    /// Walks `deltas` once, in order.
    pub fn compile<I>(deltas: I) -> PolicyHistory
    where
        I: IntoIterator,
        I::Item: std::borrow::Borrow<PolicyDelta>,
    {
        use std::borrow::Borrow;

        let start = Policy::permissive();
        let mut lists = [(); 4].map(|()| ListHistory::new());
        let mut ips: Vec<(Ipv4Addr, Range<usize>)> = Vec::new();
        let mut blocked: FxHashMap<Ipv4Addr, usize> = FxHashMap::default();
        let mut toggles = vec![(start.quic_filter, start.throttle_active)];
        for (index, delta) in deltas.into_iter().enumerate() {
            let (delta, version) = (delta.borrow(), index + 1);
            let ops = [
                (&delta.add_rst, &delta.remove_rst),
                (&delta.add_slow, &delta.remove_slow),
                (&delta.add_throttle, &delta.remove_throttle),
                (&delta.add_backup, &delta.remove_backup),
            ];
            for (list, (adds, removes)) in lists.iter_mut().zip(ops) {
                list.apply(version, adds, removes);
            }
            for &ip in &delta.block_ips {
                blocked.entry(ip).or_insert_with(|| {
                    ips.push((ip, version..STILL_LISTED));
                    ips.len() - 1
                });
            }
            for ip in &delta.unblock_ips {
                if let Some(at) = blocked.remove(ip) {
                    ips[at].1.end = version;
                }
            }
            let (quic, throttle) = toggles[index];
            toggles.push((
                delta.quic_filter.unwrap_or(quic),
                delta.throttle_active.unwrap_or(throttle),
            ));
        }
        PolicyHistory { lists: lists.map(Arc::new), ips, toggles }
    }

    /// Deltas compiled: [`PolicyHistory::as_of`] answers `0..=versions()`.
    pub fn versions(&self) -> usize {
        self.toggles.len() - 1
    }

    /// The policy after the first `version` deltas, with `epoch ==
    /// version`; `None` past the last compiled delta — a policy that was
    /// never distributed has no honest stand-in, so the caller decides.
    pub fn as_of(&self, version: usize) -> Option<Policy> {
        let &(quic_filter, throttle_active) = self.toggles.get(version)?;
        let list = |index: usize| {
            let history = &self.lists[index];
            DomainSet {
                buckets: NameBuckets::default(),
                len: history.live[version],
                shared: Some(SharedNames {
                    history: Arc::clone(history),
                    version,
                    tombstones: NameBuckets::default(),
                }),
            }
        };
        Some(Policy {
            sni_rst: list(0),
            sni_slow: list(1),
            sni_throttle: list(2),
            sni_backup: list(3),
            quic_filter,
            blocked_ips: self
                .ips
                .iter()
                .filter(|(_, blocked)| blocked.contains(&version))
                .map(|&(ip, _)| ip)
                .collect(),
            throttle_active,
            epoch: version as u64,
            ..Policy::permissive()
        })
    }
}

/// A shared handle to the centrally controlled policy.
///
/// Cloning the handle models Roskomnadzor distributing the same list to
/// another device; mutating through any handle updates every device.
///
/// Backed by `Arc<RwLock<…>>` so the handle — and every device holding it —
/// is `Send`: parallel sweep workers each run their own simulation against
/// one shared, read-mostly policy without rebuilding the blocklists.
///
/// Every mutation through the handle — [`PolicyHandle::update`],
/// [`PolicyHandle::apply_delta`], the March 4 transition, chaos
/// hot-reloads — bumps [`Policy::epoch`] and moves the shared
/// `policy.delta_applies` counter / `policy.epoch` gauge, so central
/// updates are visible to metrics without any device cooperation.
#[derive(Clone)]
pub struct PolicyHandle {
    inner: Arc<RwLock<Policy>>,
    /// Mirror of [`Policy::epoch`], readable without the lock. The packet
    /// path validates per-flow verdict caches against the live epoch on
    /// every packet, so this must not cost a read-lock acquisition.
    epoch: Arc<AtomicU64>,
    /// Updates applied through this handle or any clone of it. Bumped
    /// (`Release`) after the epoch store it counts, so an export that
    /// reads it (`Acquire`) non-zero also reads that epoch.
    delta_applies: Arc<AtomicU64>,
}

impl PolicyHandle {
    /// Wraps a policy for central distribution.
    pub fn new(policy: Policy) -> PolicyHandle {
        let epoch = policy.epoch;
        PolicyHandle {
            inner: Arc::new(RwLock::new(policy)),
            epoch: Arc::new(AtomicU64::new(epoch)),
            delta_applies: Arc::default(),
        }
    }

    /// Reads the current policy.
    pub fn read(&self) -> RwLockReadGuard<'_, Policy> {
        self.inner.read().unwrap_or_else(|e| e.into_inner())
    }

    /// The current policy epoch (lock-free).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Applies a centrally coordinated update — visible to all devices
    /// holding this handle, at once. Bumps the policy epoch and the
    /// `policy.delta_applies` counter (one bump per `update` call, however
    /// much the closure changes).
    pub fn update<F: FnOnce(&mut Policy)>(&self, f: F) {
        let epoch = {
            let mut policy = self.inner.write().unwrap_or_else(|e| e.into_inner());
            f(&mut policy);
            policy.epoch = policy.epoch.wrapping_add(1);
            policy.epoch
        };
        self.epoch.store(epoch, Ordering::Release);
        self.delta_applies.fetch_add(1, Ordering::Release);
    }

    /// Applies one incremental [`PolicyDelta`] through the shared handle:
    /// one write-lock hold, one epoch bump, one `policy.delta_applies`
    /// increment — the distribution event the churn engine replays.
    pub fn apply_delta(&self, delta: &PolicyDelta) {
        let epoch = {
            let mut policy = self.inner.write().unwrap_or_else(|e| e.into_inner());
            policy.apply_delta(delta);
            policy.epoch
        };
        self.epoch.store(epoch, Ordering::Release);
        self.delta_applies.fetch_add(1, Ordering::Release);
    }

    /// The handle's export, merged into lab-level snapshots alongside the
    /// per-device scopes: `policy.delta_applies`, and `policy.epoch` — the
    /// epoch the last update left, so a handle nothing updated exports
    /// none. A last-value gauge (merges keep the later cell's epoch, not
    /// the max), omitted at 0 like every gauge.
    pub fn obs_snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::new();
        let applies = self.delta_applies.load(Ordering::Acquire);
        let epoch = self.epoch();
        if applies != 0 {
            snap.insert("policy.delta_applies", MetricValue::Counter(applies));
            if epoch != 0 {
                snap.insert("policy.epoch", MetricValue::GaugeLast(epoch as i64));
            }
        }
        snap
    }

    /// The March 4, 2022 transition observed in §5.2: throttling (SNI-III)
    /// stops, the affected domains move to RST blocking (SNI-I), and the
    /// QUIC filter turns on.
    pub fn march_4_2022_transition(&self) {
        self.update(|p| {
            p.throttle_active = false;
            p.quic_filter = true;
            let Policy { sni_throttle, sni_rst, .. } = p;
            for d in sni_throttle.iter() {
                sni_rst.insert(d);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    #[test]
    fn domain_set_exact_and_suffix() {
        let set = DomainSet::from_names(["facebook.com", "t.co"]);
        assert!(set.matches("facebook.com"));
        assert!(set.matches("web.facebook.com"));
        assert!(set.matches("x.y.facebook.com"));
        assert!(set.matches("T.CO"));
        assert!(!set.matches("notfacebook.com"));
        assert!(!set.matches("facebook.com.evil.org"));
        assert!(!set.matches("com"));
        assert!(!set.matches(""));
    }

    #[test]
    fn domain_set_normalizes() {
        let mut set = DomainSet::new();
        set.insert("Example.COM.");
        assert!(set.matches("example.com"));
        assert!(set.matches("example.com."));
        assert_eq!(set.len(), 1);
        set.remove("example.com");
        assert!(set.is_empty());
    }

    #[test]
    fn suffix_match_stops_above_registrable_len() {
        // "co" must not be reachable as a parent of "t.co" matching "x.co":
        let set = DomainSet::from_names(["t.co"]);
        assert!(!set.matches("x.co"));
        assert!(set.matches("a.t.co"));
    }

    #[test]
    fn shared_policy_updates_are_uniform() {
        let handle_a = PolicyHandle::new(Policy::example());
        let handle_b = handle_a.clone(); // a second "device"
        assert!(!handle_b.read().sni_rst.matches("navalny.com"));
        handle_a.update(|p| p.sni_rst.insert("navalny.com"));
        assert!(handle_b.read().sni_rst.matches("navalny.com"));
    }

    #[test]
    fn march_4_transition_moves_throttled_to_rst() {
        let handle = PolicyHandle::new(Policy {
            throttle_active: true,
            quic_filter: false,
            ..Policy::example()
        });
        assert!(handle.read().throttle_active);
        assert!(!handle.read().sni_rst.matches("fbcdn.net"));
        handle.march_4_2022_transition();
        let policy = handle.read();
        assert!(!policy.throttle_active);
        assert!(policy.quic_filter);
        assert!(policy.sni_rst.matches("fbcdn.net"));
        assert!(policy.sni_rst.matches("cdn.fbcdn.net"));
    }

    #[test]
    fn apply_delta_matches_insert_remove_semantics() {
        let mut policy = Policy::example();
        let before = policy.epoch;
        let delta = PolicyDelta {
            add_rst: vec!["Navalny.COM.".into(), "ovdinfo.org".into()],
            remove_rst: vec!["dw.com".into()],
            block_ips: vec![Ipv4Addr::new(203, 0, 113, 9)],
            quic_filter: Some(false),
            ..PolicyDelta::default()
        };
        policy.apply_delta(&delta);
        assert_eq!(policy.epoch, before + 1);
        // Normalization matches DomainSet::insert (lowercase, trailing dot).
        assert!(policy.sni_rst.matches("www.navalny.com"));
        assert!(policy.sni_rst.matches("ovdinfo.org"));
        assert!(!policy.sni_rst.matches("dw.com"));
        assert!(policy.blocked_ips.contains(&Ipv4Addr::new(203, 0, 113, 9)));
        assert!(!policy.quic_filter);
    }

    #[test]
    fn delta_op_count_and_emptiness() {
        assert!(PolicyDelta::new().is_empty());
        let delta = PolicyDelta::add_rst_batch(["a.com", "b.com"]);
        assert!(!delta.is_empty());
        assert_eq!(delta.op_count(), 2);
        let toggle = PolicyDelta { throttle_active: Some(true), ..PolicyDelta::default() };
        assert!(!toggle.is_empty());
        assert_eq!(toggle.op_count(), 0);
    }

    #[test]
    fn handle_update_bumps_epoch_once_per_call() {
        let handle = PolicyHandle::new(Policy::example());
        assert_eq!(handle.epoch(), 0);
        handle.update(|p| {
            p.sni_rst.insert("one.example");
            p.sni_rst.insert("two.example");
        });
        assert_eq!(handle.epoch(), 1);
        handle.apply_delta(&PolicyDelta::add_rst_batch(["three.example"]));
        assert_eq!(handle.epoch(), 2);
        handle.march_4_2022_transition();
        assert_eq!(handle.epoch(), 3);
    }

    #[test]
    fn handle_exports_its_updates() {
        let handle = PolicyHandle::new(Policy::example());
        assert_eq!(handle.obs_snapshot(), Snapshot::new());
        let clone = handle.clone(); // a second "device" shares the counter
        clone.apply_delta(&PolicyDelta::add_rst_batch(["x.example"]));
        handle.update(|p| p.quic_filter = false);
        let snap = handle.obs_snapshot();
        assert_eq!(snap.counter("policy.delta_applies"), 2);
        assert_eq!(snap.gauge("policy.epoch"), Some(2));
    }

    fn sorted(set: &DomainSet) -> Vec<&str> {
        let mut names: Vec<&str> = set.iter().collect();
        names.sort_unstable();
        names
    }

    /// Five versions of SNI-I: list a parent, its subdomain and a
    /// throttled name; delist the parent; list it again; a delta that
    /// adds and removes one name.
    fn small_history() -> PolicyHistory {
        PolicyHistory::compile([
            PolicyDelta {
                add_rst: vec!["Example.COM.".into(), "sub.example.com".into()],
                add_throttle: vec!["fbcdn.net".into()],
                block_ips: vec![Ipv4Addr::new(198, 51, 100, 7)],
                throttle_active: Some(true),
                ..PolicyDelta::default()
            },
            PolicyDelta { remove_rst: vec!["example.com".into()], ..PolicyDelta::default() },
            PolicyDelta {
                add_rst: vec!["example.com".into()],
                unblock_ips: vec![Ipv4Addr::new(198, 51, 100, 7)],
                ..PolicyDelta::default()
            },
            PolicyDelta {
                add_rst: vec!["fleeting.org".into()],
                remove_rst: vec!["FLEETING.org.".into()],
                ..PolicyDelta::default()
            },
        ])
    }

    #[test]
    fn history_answers_every_compiled_version_and_none_beyond() {
        let history = small_history();
        assert_eq!(history.versions(), 4);
        assert_eq!(history.as_of(0), Some(Policy::permissive()));
        assert!(history.as_of(4).is_some());
        assert!(history.as_of(5).is_none());
        assert!(history.as_of(usize::MAX).is_none());
        assert_eq!(PolicyHistory::compile([] as [PolicyDelta; 0]).versions(), 0);

        let day1 = history.as_of(1).expect("compiled");
        assert_eq!(day1.epoch, 1);
        assert!(day1.throttle_active && !day1.quic_filter);
        assert!(day1.blocked_ips.contains(&Ipv4Addr::new(198, 51, 100, 7)));
        assert_eq!(sorted(&day1.sni_rst), ["example.com", "sub.example.com"]);
        assert!(history.as_of(3).expect("compiled").blocked_ips.is_empty());
    }

    #[test]
    fn delisted_parent_leaves_its_listed_subdomain_blocked() {
        let history = small_history();
        // Delisted by the history itself (version 2) …
        let compiled = history.as_of(2).expect("compiled");
        // … and by a tombstone on top of version 1.
        let mut overlaid = history.as_of(1).expect("compiled");
        overlaid.sni_rst.remove("example.com.");
        for set in [&compiled.sni_rst, &overlaid.sni_rst] {
            assert_eq!(sorted(set), ["sub.example.com"]);
            assert_eq!(set.len(), 1);
            assert!(set.matches("sub.example.com"));
            assert!(set.matches("deep.SUB.example.com."));
            assert!(!set.matches("example.com"));
            assert!(!set.matches("other.example.com"));
        }
        // Listed again at version 3: a second listing of the same name.
        let relisted = history.as_of(3).expect("compiled");
        assert!(relisted.sni_rst.matches("other.example.com"));
        assert_eq!(relisted.sni_rst.len(), 2);
    }

    #[test]
    fn overlay_relists_what_it_delisted() {
        let history = small_history();
        let mut policy = history.as_of(1).expect("compiled");
        policy.sni_rst.remove("example.com");
        policy.sni_rst.remove("example.com"); // already gone: no second tombstone
        assert_eq!(policy.sni_rst.len(), 1);
        policy.sni_rst.insert("EXAMPLE.com");
        assert_eq!(policy.sni_rst.len(), 2);
        assert!(policy.sni_rst.matches("www.example.com"));
        assert_eq!(policy.sni_rst, history.as_of(1).expect("compiled").sni_rst);
        // Inserting a name the shared table already lists changes nothing.
        policy.sni_rst.insert("sub.example.com");
        assert_eq!(sorted(&policy.sni_rst), ["example.com", "sub.example.com"]);
        // Nothing above reached the table the other versions read.
        assert_eq!(history.as_of(1).expect("compiled").sni_rst.len(), 2);
        assert!(history.as_of(2).expect("compiled").sni_rst.matches("sub.example.com"));
    }

    #[test]
    fn removing_a_name_the_history_never_held_is_a_no_op() {
        let history = small_history();
        let mut policy = history.as_of(2).expect("compiled");
        policy.sni_rst.remove("never-listed.org");
        policy.sni_rst.remove("example.com"); // held once, not at this version
        assert_eq!(sorted(&policy.sni_rst), ["sub.example.com"]);
        assert_eq!(policy.sni_rst.len(), 1);
        // An overlay entry comes and goes without touching the shared one.
        policy.sni_rst.insert("fresh.org");
        policy.sni_rst.remove("fresh.org");
        assert_eq!(policy.sni_rst, history.as_of(2).expect("compiled").sni_rst);
    }

    #[test]
    fn add_and_remove_in_one_delta_ends_absent() {
        let history = small_history();
        // Compiled: version 4's delta adds and removes `fleeting.org`.
        let compiled = history.as_of(4).expect("compiled");
        assert!(!compiled.sni_rst.matches("fleeting.org"));
        assert_eq!(compiled.sni_rst.len(), 2);
        // Applied: the same delta onto version 3 through the overlay, and
        // one that adds and removes a name the history lists.
        let mut applied = history.as_of(3).expect("compiled");
        applied.apply_delta(&PolicyDelta {
            add_rst: vec!["fleeting.org".into(), "example.com".into()],
            remove_rst: vec!["fleeting.org".into(), "example.com".into()],
            ..PolicyDelta::default()
        });
        assert_eq!(sorted(&applied.sni_rst), ["sub.example.com"]);
        assert_eq!(applied.sni_rst.len(), 1);
        assert_eq!(applied.epoch, 4);
    }

    #[test]
    fn march_4_transition_reads_and_writes_history_backed_lists() {
        let handle = PolicyHandle::new(small_history().as_of(1).expect("compiled"));
        assert!(!handle.read().sni_rst.matches("cdn.fbcdn.net"));
        handle.march_4_2022_transition();
        let policy = handle.read();
        assert!(!policy.throttle_active && policy.quic_filter);
        assert_eq!(policy.epoch, 2);
        assert!(policy.sni_rst.matches("cdn.fbcdn.net"));
        assert_eq!(sorted(&policy.sni_rst), ["example.com", "fbcdn.net", "sub.example.com"]);
        assert_eq!(sorted(&policy.sni_throttle), ["fbcdn.net"]);
    }

    /// Two names whose suffix hashes collide: 1,024-byte Thue–Morse
    /// strings over `{a, b}` and their complement. The hash difference is
    /// `∏ (1 − B^(2^j))` for `j < 10`; factor `j` is divisible by
    /// `2^(j + 2)` (by 2 for `j = 0`), so the product vanishes modulo
    /// 2^64 (at 512 bytes it need not, and does not). The shared
    /// `.example.ru` only scales the difference.
    fn colliding_pair() -> (String, String) {
        let thue_morse = |i: usize| (i.count_ones() % 2) as u8;
        let a: String = (0..1024).map(|i| char::from(b'a' + thue_morse(i))).collect();
        let b: String = (0..1024).map(|i| char::from(b'b' - thue_morse(i))).collect();
        (format!("{a}.example.ru"), format!("{b}.example.ru"))
    }

    /// `set` holds exactly `model`, by count, by iteration and by match
    /// (of each colliding name and of a subdomain of it).
    fn agrees(set: &DomainSet, model: &BTreeSet<&str>, names: [&str; 2]) {
        assert_eq!(set.len(), model.len());
        assert_eq!(set.iter().collect::<BTreeSet<_>>(), *model);
        for name in names {
            let listed = model.contains(name);
            assert_eq!(set.matches(name), listed, "{}…", &name[..16]);
            assert_eq!(set.matches(&format!("www.{name}")), listed, "www.{}…", &name[..16]);
        }
    }

    #[test]
    fn colliding_names_share_a_bucket_and_stay_distinct() {
        let (x, y) = colliding_pair();
        assert_ne!(x, y);
        assert_eq!(suffix_hash_of(x.as_bytes()), suffix_hash_of(y.as_bytes()));
        let names = [x.as_str(), y.as_str()];

        // A plain set: the second name spills the bucket.
        let mut set = DomainSet::new();
        let mut model = BTreeSet::new();
        for name in [&x, &y, &x] {
            set.insert(name);
            model.insert(name.as_str());
            agrees(&set, &model, names);
        }
        set.remove(&x);
        model.remove(x.as_str());
        agrees(&set, &model, names);
        set.insert(&x);
        model.insert(&x);
        agrees(&set, &model, names);
        set.remove(&y);
        set.remove(&x);
        agrees(&set, &BTreeSet::new(), names);

        // A history that lists and drops `y` within one delta (out of a
        // spilled table bucket), then lists `y` and delists `x`.
        let history = PolicyHistory::compile([
            PolicyDelta {
                add_rst: vec![x.clone(), y.clone()],
                remove_rst: vec![y.clone()],
                ..PolicyDelta::default()
            },
            PolicyDelta {
                add_rst: vec![y.clone()],
                remove_rst: vec![x.clone()],
                ..PolicyDelta::default()
            },
        ]);
        // Each version: tombstone the name the table lists, overlay-insert
        // the other, re-list the first, drop the overlay entry.
        for (version, listed, other) in [(1, &x, &y), (2, &y, &x)] {
            let mut set = history.as_of(version).expect("compiled").sni_rst;
            agrees(&set, &BTreeSet::from([listed.as_str()]), names);
            set.remove(listed);
            agrees(&set, &BTreeSet::new(), names);
            set.insert(other);
            agrees(&set, &BTreeSet::from([other.as_str()]), names);
            set.insert(listed);
            agrees(&set, &BTreeSet::from(names), names);
            set.remove(other);
            agrees(&set, &BTreeSet::from([listed.as_str()]), names);
        }
    }

    #[test]
    fn example_policy_shapes() {
        let policy = Policy::example();
        assert!(policy.sni_rst.matches("twitter.com"));
        assert!(policy.sni_backup.matches("twitter.com"));
        assert!(policy.sni_slow.matches("play.google.com"));
        // SNI-IV is a subset of SNI-I targets for the shared domains.
        assert!(policy.sni_rst.matches("web.facebook.com"));
    }
}
