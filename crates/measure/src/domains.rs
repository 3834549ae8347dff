//! Domain testing (§6): what the TSPU blocks versus what each ISP's
//! resolver blocks, over the Tranco-style list and the registry sample.
//! Produces Fig. 6's set relations, Fig. 7's category histogram, and
//! Table 3's behavior classification.

use std::collections::{BTreeMap, HashSet};

use tspu_registry::{classifier, Category, Universe};
use tspu_topology::VantageLab;
use tspu_wire::tcp::TcpFlags;
use tspu_wire::tls::ClientHelloBuilder;

use crate::behaviors::{classify_behavior, ObservedBehavior};
use crate::harness::{handshake_prefix, ProbeSide, ScriptEnd, ScriptStep};

/// How one domain was (or wasn't) censored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DomainVerdict {
    Open,
    Sni1,
    Sni2,
    Sni4,
    Throttled,
}

/// Results of the §6 campaign for one list.
#[derive(Debug, Default)]
pub struct DomainCampaign {
    /// Domain → TSPU verdict.
    pub tspu: BTreeMap<String, DomainVerdict>,
    /// ISP name → set of domains its resolver blockpages.
    pub isp_blocked: BTreeMap<String, HashSet<String>>,
}

impl DomainCampaign {
    /// Domains the TSPU blocks by any mechanism.
    pub fn tspu_blocked(&self) -> HashSet<String> {
        self.tspu
            .iter()
            .filter(|(_, v)| **v != DomainVerdict::Open)
            .map(|(d, _)| d.clone())
            .collect()
    }

    /// Domains blocked by the TSPU but by no ISP resolver — the
    /// "out-registry" wedge of Fig. 6 (plus any resolver lag).
    pub fn tspu_only(&self) -> HashSet<String> {
        let union: HashSet<&String> = self.isp_blocked.values().flatten().collect();
        let mut only = self.tspu_blocked();
        only.retain(|d| !union.contains(d));
        only
    }
}

/// Tests one domain against the TSPU from a vantage, via the full behavior
/// classification, including the split-handshake follow-up that exposes
/// SNI-IV membership (§6.2: "the measurement machines were configured to
/// respond to a SYN with a SYN to start a split handshake").
///
/// On the Fig. 1 lab the probing client is the ER-Telecom vantage; on a
/// generated topology it is client `port as usize % clients` — sweep
/// drivers pass index-derived ports, so scenarios spread across clients
/// deterministically. Use [`test_domain_from`] to pick the client
/// explicitly.
pub fn test_domain(lab: &mut VantageLab, domain: &str, port: u16) -> DomainVerdict {
    let (host, addr) = match &lab.gen {
        Some(gen) => {
            let c = &gen.clients[port as usize % gen.clients.len()];
            (c.host, c.addr)
        }
        None => {
            let vantage = lab.vantage("ER-Telecom");
            (vantage.host, vantage.addr)
        }
    };
    test_domain_from(lab, host, addr, domain, port)
}

/// [`test_domain`] from an explicit local endpoint — the form generated
/// topologies and tomography probes use, where the client is a scenario
/// coordinate rather than a fixed vantage.
pub fn test_domain_from(
    lab: &mut VantageLab,
    local_host: tspu_netsim::HostId,
    local_addr: std::net::Ipv4Addr,
    domain: &str,
    port: u16,
) -> DomainVerdict {
    let local = ScriptEnd { host: local_host, addr: local_addr, port };
    let remote = ScriptEnd { host: lab.us_main, addr: lab.us_main_addr, port: 443 };
    let behavior = classify_behavior(
        &mut lab.net,
        local,
        remote,
        &handshake_prefix(),
        ClientHelloBuilder::new(domain).build(),
    );
    match behavior {
        ObservedBehavior::Pass => DomainVerdict::Open,
        ObservedBehavior::DelayedDrop(_) => DomainVerdict::Sni2,
        ObservedBehavior::Throttled => DomainVerdict::Throttled,
        ObservedBehavior::FullDrop => DomainVerdict::Sni4,
        ObservedBehavior::RstAck => {
            // RST-blocked: check for SNI-IV membership with the split
            // handshake (which evades SNI-I).
            let local = ScriptEnd { host: local_host, addr: local_addr, port: port ^ 0x8000 };
            let remote = ScriptEnd { host: lab.us_main, addr: lab.us_main_addr, port: 443 };
            let split = vec![
                ScriptStep::new(ProbeSide::Local, TcpFlags::SYN),
                ScriptStep::new(ProbeSide::Remote, TcpFlags::SYN),
            ];
            let follow = classify_behavior(
                &mut lab.net,
                local,
                remote,
                &split,
                ClientHelloBuilder::new(domain).build(),
            );
            if follow == ObservedBehavior::FullDrop {
                DomainVerdict::Sni4
            } else {
                DomainVerdict::Sni1
            }
        }
    }
}

/// Fig. 7: category histogram over the registry sample — fetch each
/// domain's page from outside Russia, classify, and tally all vs blocked.
#[derive(Debug, Default)]
pub struct CategoryHistogram {
    /// Category → (all classified, blocked by TSPU).
    pub rows: BTreeMap<&'static str, (usize, usize)>,
    pub failed_tcp: usize,
    pub bad_html: usize,
}

/// Builds Fig. 7 for a subset of the registry sample. `blocked` is the
/// TSPU-blocked set from the campaign (or the ground-truth list for
/// full-scale runs).
pub fn category_histogram(
    universe: &Universe,
    blocked: &HashSet<String>,
    limit: usize,
    fetch_seed: u64,
) -> CategoryHistogram {
    let mut hist = CategoryHistogram::default();
    for category in Category::ALL {
        hist.rows.insert(category.name(), (0, 0));
    }
    for domain in universe.registry_sample.iter().take(limit) {
        match classifier::fetch(domain, fetch_seed) {
            classifier::FetchOutcome::FailedTcp => hist.failed_tcp += 1,
            classifier::FetchOutcome::BadHtml => hist.bad_html += 1,
            classifier::FetchOutcome::Html(html) => {
                if let Some(category) = classifier::classify_html(&html) {
                    let row = hist.rows.entry(category.name()).or_default();
                    row.0 += 1;
                    if blocked.contains(&domain.name) {
                        row.1 += 1;
                    }
                }
            }
        }
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lab_and_universe() -> (Universe, VantageLab) {
        let universe = Universe::generate(3);
        let lab = VantageLab::builder().universe(&universe).table1().build();
        (universe, lab)
    }

    #[test]
    fn verdicts_match_table3_anchors() {
        let (_u, mut lab) = lab_and_universe();
        assert_eq!(test_domain(&mut lab, "meduza.io", 3001), DomainVerdict::Sni1);
        assert_eq!(test_domain(&mut lab, "play.google.com", 3003), DomainVerdict::Sni2);
        assert_eq!(test_domain(&mut lab, "twitter.com", 3005), DomainVerdict::Sni4);
        assert_eq!(test_domain(&mut lab, "wikipedia.org", 3007), DomainVerdict::Open);
    }

    #[test]
    fn campaign_over_sample_shows_tspu_superset() {
        let universe = Universe::generate(3);
        // A slice of the registry sample: TSPU coverage must exceed the
        // stale Rostelecom resolver's.
        let names = universe.registry_sample.iter().take(60).map(|d| d.name.as_str());
        let campaign = crate::sweep::registry_campaign(&universe, names, &crate::ScanPool::new(2));
        let tspu = campaign.tspu_blocked();
        let rostelecom = &campaign.isp_blocked["Rostelecom"];
        assert!(tspu.len() > rostelecom.len(), "tspu {} vs rostelecom {}", tspu.len(), rostelecom.len());
        // Uniformity: the TSPU list is identical from any vantage by
        // construction (central policy); resolvers differ per ISP.
        let obit = &campaign.isp_blocked["OBIT"];
        assert!(rostelecom.len() <= obit.len());
    }

    #[test]
    fn histogram_counts_and_exclusions() {
        let (universe, _lab) = lab_and_universe();
        let blocked: HashSet<String> = universe.blocks.sni_rst.iter().cloned().collect();
        let hist = category_histogram(&universe, &blocked, 2000, 42);
        let total: usize = hist.rows.values().map(|(all, _)| all).sum();
        assert!(total > 1000, "classified {total}");
        assert!(hist.failed_tcp > 150, "failed {}", hist.failed_tcp);
        assert!(hist.bad_html > 350, "bad {}", hist.bad_html);
        // Gambling and media dominate (Fig. 7's shape).
        let gambling = hist.rows["Gambling"].0;
        let circumvention = hist.rows["Circumvention"].0;
        assert!(gambling > circumvention * 3);
    }
}
