//! Builds the central TSPU policy from a generated domain universe, and
//! the per-ISP censoring resolvers from the same universe's per-ISP lists.

use std::collections::HashSet;
use std::net::Ipv4Addr;

use tspu_core::policy::DomainSet;
use tspu_core::{Policy, PolicyHandle, ThrottleConfig};
use tspu_registry::Universe;

/// The Tor entry node's address (Fig. 1's Paris data-center pair). Its IP
/// is "out-registry" blocked by the TSPU since December 2021 (§3).
pub const TOR_ENTRY_NODE: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 7);

/// Additional out-registry blocked IPs the paper mentions (§5.2: "six
/// additional IPs … including IPs from VPN providers and Google services").
pub const EXTRA_BLOCKED_IPS: [Ipv4Addr; 6] = [
    Ipv4Addr::new(198, 51, 100, 21),
    Ipv4Addr::new(198, 51, 100, 22),
    Ipv4Addr::new(198, 51, 100, 23),
    Ipv4Addr::new(203, 0, 113, 188),
    Ipv4Addr::new(203, 0, 113, 189),
    Ipv4Addr::new(203, 0, 113, 190),
];

/// Builds the centrally distributed policy for a universe, with the given
/// epoch toggles (see `tspu_registry::PolicyTimeline`).
pub fn policy_from_universe(universe: &Universe, throttle_active: bool, quic_filter: bool) -> PolicyHandle {
    let mut policy = Policy::default();
    for name in &universe.blocks.sni_rst {
        policy.sni_rst.insert(name);
    }
    for name in &universe.blocks.sni_slow {
        policy.sni_slow.insert(name);
    }
    for name in &universe.blocks.sni_throttle {
        policy.sni_throttle.insert(name);
    }
    for name in &universe.blocks.sni_backup {
        policy.sni_backup.insert(name);
    }
    policy.blocked_ips.insert(TOR_ENTRY_NODE);
    for addr in EXTRA_BLOCKED_IPS {
        policy.blocked_ips.insert(addr);
    }
    policy.quic_filter = quic_filter;
    policy.throttle_active = throttle_active;
    policy.throttle = ThrottleConfig::hard_2022();
    PolicyHandle::new(policy)
}

/// What a resolver answered for a name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// The real address (resolution untouched).
    Normal(Ipv4Addr),
    /// The ISP's blockpage address was substituted.
    Blockpage(Ipv4Addr),
}

impl Resolution {
    /// The address a client would connect to.
    pub fn addr(self) -> Ipv4Addr {
        match self {
            Resolution::Normal(a) | Resolution::Blockpage(a) => a,
        }
    }

    /// True if this resolution was censored.
    pub fn is_blocked(self) -> bool {
        matches!(self, Resolution::Blockpage(_))
    }
}

/// A residential ISP's censoring resolver.
///
/// "ISPs' DNS resolvers would return IPs pointing to the ISP's blockpage,
/// which is different from ISP to ISP" (§6.2) — hence the per-ISP
/// `blockpage_addr`. The paper also finds resolvers answer identically to
/// queries from inside and outside the ISP, which holds here trivially:
/// resolution does not depend on the querier.
#[derive(Clone)]
pub struct IspResolver {
    isp: String,
    blocklist: DomainSet,
    blockpage_addr: Ipv4Addr,
}

impl IspResolver {
    /// Creates a resolver for `isp` with its own blocklist snapshot and
    /// blockpage address.
    pub fn new(isp: &str, blocklist: HashSet<String>, blockpage_addr: Ipv4Addr) -> IspResolver {
        IspResolver {
            isp: isp.to_string(),
            blocklist: DomainSet::from_names(blocklist),
            blockpage_addr,
        }
    }

    /// The ISP's name.
    pub fn isp(&self) -> &str {
        &self.isp
    }

    /// The blockpage address this ISP uses.
    pub fn blockpage_addr(&self) -> Ipv4Addr {
        self.blockpage_addr
    }

    /// Number of names on this ISP's list.
    pub fn blocklist_len(&self) -> usize {
        self.blocklist.len()
    }

    /// True if the ISP's snapshot lists `name` (exact or parent domain,
    /// like the registry's own matching). Delegates to the shared
    /// allocation-free suffix matcher.
    pub fn lists(&self, name: &str) -> bool {
        self.blocklist.matches(name)
    }

    /// Resolves `name`, substituting the blockpage for listed names.
    pub fn resolve(&self, name: &str, real_addr: Ipv4Addr) -> Resolution {
        if self.lists(name) {
            Resolution::Blockpage(self.blockpage_addr)
        } else {
            Resolution::Normal(real_addr)
        }
    }
}

/// Builds the three vantage-point ISP resolvers of the paper from a
/// universe's per-ISP lists, with distinct blockpage addresses.
pub fn vantage_resolvers(universe: &Universe) -> Vec<IspResolver> {
    let blockpages = [
        ("Rostelecom", Ipv4Addr::new(95, 165, 1, 80)),
        ("ER-Telecom", Ipv4Addr::new(93, 120, 2, 80)),
        ("OBIT", Ipv4Addr::new(85, 93, 3, 80)),
    ];
    blockpages
        .into_iter()
        .map(|(isp, addr)| {
            let list = universe
                .blocks
                .isp_resolver
                .get(isp)
                .cloned()
                .unwrap_or_default();
            IspResolver::new(isp, list, addr)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_mirrors_universe() {
        let universe = Universe::generate(1);
        let handle = policy_from_universe(&universe, false, true);
        let policy = handle.read();
        assert!(policy.sni_rst.matches("twitter.com"));
        assert!(policy.sni_slow.matches("play.google.com"));
        assert!(policy.blocked_ips.contains(&TOR_ENTRY_NODE));
        assert_eq!(policy.blocked_ips.len(), 7);
        assert!(policy.quic_filter);
        assert!(!policy.throttle_active);
        assert!(policy.sni_rst.len() >= 9_899);
    }


    const REAL: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 77);

    fn resolver() -> IspResolver {
        let mut list = HashSet::new();
        list.insert("blocked.ru".to_string());
        list.insert("casino-site.com".to_string());
        IspResolver::new("TestISP", list, Ipv4Addr::new(10, 10, 10, 10))
    }

    #[test]
    fn blocked_name_gets_blockpage() {
        let r = resolver();
        let res = r.resolve("blocked.ru", REAL);
        assert!(res.is_blocked());
        assert_eq!(res.addr(), Ipv4Addr::new(10, 10, 10, 10));
    }

    #[test]
    fn subdomain_of_listed_name_blocked() {
        let r = resolver();
        assert!(r.resolve("www.blocked.ru", REAL).is_blocked());
        assert!(!r.resolve("notblocked.ru", REAL).is_blocked());
    }

    #[test]
    fn unlisted_name_resolves_normally() {
        let r = resolver();
        let res = r.resolve("kernel.org", REAL);
        assert!(!res.is_blocked());
        assert_eq!(res.addr(), REAL);
    }

    #[test]
    fn vantage_resolvers_have_distinct_blockpages_and_stale_lists() {
        let universe = Universe::generate(1);
        let resolvers = vantage_resolvers(&universe);
        assert_eq!(resolvers.len(), 3);
        let mut addrs: Vec<_> = resolvers.iter().map(|r| r.blockpage_addr()).collect();
        addrs.dedup();
        assert_eq!(addrs.len(), 3, "each ISP uses its own blockpage");
        // Staleness ordering from §6.3: Rostelecom < OBIT on recent names.
        let blocked_recent = |r: &IspResolver| {
            universe
                .registry_sample
                .iter()
                .filter(|d| r.lists(&d.name))
                .count()
        };
        let rostelecom = blocked_recent(&resolvers[0]);
        let obit = blocked_recent(&resolvers[2]);
        assert!(rostelecom < obit, "{rostelecom} vs {obit}");
    }

    #[test]
    fn resolution_is_querier_independent() {
        // §6.2: "We find no difference in responses between the two cases"
        // (queries from inside the ISP vs from the US). Resolution here is
        // a pure function of the name — assert the API admits no such
        // dependence by resolving twice.
        let r = resolver();
        assert_eq!(r.resolve("blocked.ru", REAL), r.resolve("blocked.ru", REAL));
    }
}
