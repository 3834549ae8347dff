//! DifferentialCampaign: the same domain universe probed against every
//! [`CensorProfile`] (DESIGN.md §12).
//!
//! Each (profile × domain) cell runs on the campaign kernel
//! ([`ScanPool::run_cells`]), on a lab forked from that profile's warm
//! [`LabImage`], and sends three volleys from the same vantage — a TLS
//! ClientHello, an HTTP GET, and a DNS A-query — then classifies what the
//! endpoints saw into a per-protocol verdict. The cells land in a
//! [`ProfileMatrix`] in (profile-major, domain-minor) order, a pure
//! function of the campaign spec: byte-identical at every thread count.
//! With `check_oracle`, every cell's capture is replayed through the
//! trace-invariant oracle with the per-profile audit, so a profile whose
//! engine departs from its declared semantics fails the campaign naming
//! the offending packet and profile.

use std::fmt;

use tspu_core::{CensorProfile, PolicyHandle};
use tspu_obs::Snapshot;
use tspu_stack::craft::udp_packet;
use tspu_topology::{LabImage, VantageLab};
use tspu_wire::dns::{DnsQuery, DnsResponse, QTYPE_A};
use tspu_wire::http::{HttpRequest, HttpResponse};
use tspu_wire::tcp::TcpFlags;
use tspu_wire::tls::ClientHelloBuilder;

use crate::harness::{handshake_prefix, run_script, ProbeSide, ScriptEnd, ScriptStep};
use crate::sweep::{scenario_port, PoolReport, RunOpts, ScanPool};

/// The vantage every differential cell probes from — the single-device
/// ER-Telecom path, so per-profile verdicts reflect exactly one middlebox.
const VANTAGE: &str = "ER-Telecom";

/// What the TLS ClientHello volley provoked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlsVerdict {
    /// Everything arrived unmodified.
    Pass,
    /// The response came back as RST/ACK; local→remote data still reached
    /// the remote — the TSPU's unidirectional SNI-I.
    RstLocal,
    /// RST/ACKs observed at *both* endpoints — the Turkmenistan
    /// chokepoint shape.
    RstBidirectional,
    /// Some post-trigger packets passed, then symmetric silence (SNI-II).
    DelayedDrop,
    /// The trigger itself and everything after it vanished (SNI-IV).
    FullDrop,
}

/// What the HTTP GET volley provoked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HttpVerdict {
    /// The origin's response arrived untouched.
    Ok,
    /// The censor's HTTP 200 block page arrived in place of the origin
    /// response (India).
    BlockPage,
    /// The response came back as RST/ACK (Turkmenistan's Host trigger).
    Reset,
    /// Neither response nor reset arrived.
    Dropped,
}

/// What the DNS A-query provoked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DnsVerdict {
    /// The response made it back.
    Answered,
    /// Query or response was consumed in flight (Turkmenistan's residual
    /// DNS drop).
    Dropped,
}

/// One (profile × domain) cell of the matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileCell {
    pub profile: &'static str,
    pub domain: String,
    pub tls: TlsVerdict,
    pub http: HttpVerdict,
    pub dns: DnsVerdict,
    /// Rendered oracle violations; empty means the cell's capture was
    /// clean under the profile's own audit.
    pub oracle_violations: Vec<String>,
}

/// The campaign specification: one policy universe, several country
/// profiles, one domain list.
#[derive(Clone)]
pub struct DifferentialCampaign {
    pub policy: PolicyHandle,
    pub profiles: Vec<CensorProfile>,
    pub domains: Vec<String>,
    /// Capture every cell and replay it through the per-profile oracle.
    pub check_oracle: bool,
}

/// The campaign result: cells in (profile-major, domain-minor) order plus
/// the merged observability snapshot (present iff [`RunOpts::observe`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileMatrix {
    pub cells: Vec<ProfileCell>,
    pub profiles: Vec<&'static str>,
    pub domains: Vec<String>,
    pub snapshot: Option<Snapshot>,
}

impl ProfileMatrix {
    /// The cell for (`profile`, `domain`).
    ///
    /// # Panics
    /// Panics if the matrix holds no such cell.
    pub fn cell(&self, profile: &str, domain: &str) -> &ProfileCell {
        self.cells
            .iter()
            .find(|c| c.profile == profile && c.domain == domain)
            // The documented panic: callers name a pair of the matrix.
            .expect("known (profile, domain) pair")
    }

    /// Every rendered oracle violation across the matrix.
    pub fn oracle_violations(&self) -> Vec<&str> {
        self.cells
            .iter()
            .flat_map(|c| c.oracle_violations.iter().map(String::as_str))
            .collect()
    }

    /// True when no cell's capture violated its profile's invariants.
    pub fn oracle_clean(&self) -> bool {
        self.cells.iter().all(|c| c.oracle_violations.is_empty())
    }
}

impl fmt::Display for ProfileMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "domain × profile verdicts (tls/http/dns):")?;
        for domain in &self.domains {
            write!(f, "  {domain}:")?;
            for profile in &self.profiles {
                let cell = self.cell(profile, domain);
                write!(f, " {profile}={:?}/{:?}/{:?}", cell.tls, cell.http, cell.dns)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Volley payload sizes — chosen so every packet class is recognizable by
/// length alone in endpoint summaries, and SNI-II's 5–8 allowance is
/// strictly less than the follow-up count.
const REMOTE_DATA_LEN: usize = 120;
const LOCAL_DATA_LEN: usize = 60;
const REMOTE_VOLLEY_N: usize = 8;
const LOCAL_VOLLEY_N: usize = 2;
static REMOTE_DATA: [u8; REMOTE_DATA_LEN] = [0xb0; REMOTE_DATA_LEN];
static LOCAL_DATA: [u8; LOCAL_DATA_LEN] = [0xc0; LOCAL_DATA_LEN];

impl DifferentialCampaign {
    /// The standard three-country campaign — TSPU, Turkmenistan, India —
    /// against one shared policy universe.
    pub fn three_country(policy: PolicyHandle, domains: Vec<String>) -> DifferentialCampaign {
        DifferentialCampaign {
            policy,
            profiles: vec![
                CensorProfile::tspu(),
                CensorProfile::turkmenistan(),
                CensorProfile::india(),
            ],
            domains,
            check_oracle: true,
        }
    }

    /// Number of cells in the matrix.
    pub fn len(&self) -> usize {
        self.profiles.len() * self.domains.len()
    }

    /// True when the matrix is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Runs the matrix on the pool. One warm [`LabImage`] per profile is
    /// built up front; a cell is a pure function of (profile, domain,
    /// index), so the reassembled matrix is byte-identical at every thread
    /// count.
    pub fn run(&self, pool: &ScanPool, opts: &RunOpts) -> (ProfileMatrix, Option<PoolReport>) {
        let images: Vec<LabImage> = self
            .profiles
            .iter()
            .map(|profile| {
                VantageLab::builder()
                    .policy(self.policy.clone())
                    .censor_profile(profile.clone())
                    .image()
            })
            .collect();
        let cells: Vec<(usize, usize)> = (0..self.profiles.len())
            .flat_map(|pi| (0..self.domains.len()).map(move |di| (pi, di)))
            .collect();
        let run = pool.run_cells(
            opts,
            &cells,
            |&(pi, _)| &images[pi],
            |lab, index, &(pi, di)| self.cell(lab, index, &self.profiles[pi], &self.domains[di]),
        );
        let matrix = ProfileMatrix {
            cells: run.cells,
            profiles: self.profiles.iter().map(|p| p.name).collect(),
            domains: self.domains.clone(),
            snapshot: run.snapshot,
        };
        (matrix, run.report)
    }

    /// One cell: three volleys, optional oracle audit.
    fn cell(
        &self,
        lab: &mut VantageLab,
        index: usize,
        profile: &CensorProfile,
        domain: &str,
    ) -> ProfileCell {
        if self.check_oracle {
            lab.net.set_capture(true);
        }
        let port = scenario_port(index);
        let page_len = profile.block_page_bytes().map(<[u8]>::len);

        let tls = probe_tls(lab, port, domain);
        let http = probe_http(lab, port, domain, page_len);
        let dns = probe_dns(lab, port, domain);

        let oracle_violations = if self.check_oracle {
            lab.oracle_audit().violations.iter().map(|v| v.to_string()).collect()
        } else {
            Vec::new()
        };
        ProfileCell { profile: profile.name, domain: domain.to_string(), tls, http, dns, oracle_violations }
    }
}

fn ends(lab: &VantageLab, local_port: u16, remote_port: u16) -> (ScriptEnd, ScriptEnd) {
    let vantage = lab.vantage(VANTAGE);
    (
        ScriptEnd { host: vantage.host, addr: vantage.addr, port: local_port },
        ScriptEnd { host: lab.us_main, addr: lab.us_main_addr, port: remote_port },
    )
}

/// TLS volley: handshake, ClientHello for `domain`, 8 remote + 2 local
/// data packets.
fn probe_tls(lab: &mut VantageLab, port: u16, domain: &str) -> TlsVerdict {
    let (local, remote) = ends(lab, port, 443);
    let hello = ClientHelloBuilder::new(domain).build();
    let hello_len = hello.len();
    let mut steps = handshake_prefix();
    steps.push(ScriptStep::new(ProbeSide::Local, TcpFlags::PSH_ACK).payload(hello));
    for _ in 0..REMOTE_VOLLEY_N {
        steps.push(ScriptStep::new(ProbeSide::Remote, TcpFlags::PSH_ACK).payload(&REMOTE_DATA[..]));
    }
    for _ in 0..LOCAL_VOLLEY_N {
        steps.push(ScriptStep::new(ProbeSide::Local, TcpFlags::PSH_ACK).payload(&LOCAL_DATA[..]));
    }
    let result = run_script(&mut lab.net, local, remote, &steps);

    let local_rst = result.at_local.iter().any(|p| p.is_rst_ack && p.payload_len == 0);
    let remote_rst = result.at_remote.iter().any(|p| p.is_rst_ack && p.payload_len == 0);
    let trigger_arrived = result.at_remote.iter().any(|p| p.payload_len == hello_len);
    let remote_data = result.at_local.iter().filter(|p| p.payload_len == REMOTE_DATA_LEN).count();
    let local_data = result.at_remote.iter().filter(|p| p.payload_len == LOCAL_DATA_LEN).count();

    if local_rst && remote_rst {
        TlsVerdict::RstBidirectional
    } else if local_rst {
        TlsVerdict::RstLocal
    } else if !trigger_arrived && remote_data == 0 {
        TlsVerdict::FullDrop
    } else if remote_data == REMOTE_VOLLEY_N && local_data == LOCAL_VOLLEY_N {
        TlsVerdict::Pass
    } else {
        TlsVerdict::DelayedDrop
    }
}

/// HTTP volley: handshake, GET with `Host: domain`, the origin's scripted
/// response, one local follow-up.
fn probe_http(lab: &mut VantageLab, port: u16, domain: &str, page_len: Option<usize>) -> HttpVerdict {
    let (local, remote) = ends(lab, port, 80);
    let request = HttpRequest::get(domain, "/").build();
    let origin = HttpResponse::ok(b"origin-content-ok").build();
    let origin_len = origin.len();
    let mut steps = handshake_prefix();
    steps.push(ScriptStep::new(ProbeSide::Local, TcpFlags::PSH_ACK).payload(request));
    steps.push(ScriptStep::new(ProbeSide::Remote, TcpFlags::PSH_ACK).payload(origin));
    steps.push(ScriptStep::new(ProbeSide::Local, TcpFlags::PSH_ACK).payload(&LOCAL_DATA[..]));
    let result = run_script(&mut lab.net, local, remote, &steps);

    if page_len.is_some_and(|len| result.at_local.iter().any(|p| p.payload_len == len)) {
        HttpVerdict::BlockPage
    } else if result.at_local.iter().any(|p| p.is_rst_ack && p.payload_len == 0) {
        HttpVerdict::Reset
    } else if result.at_local.iter().any(|p| p.payload_len == origin_len) {
        HttpVerdict::Ok
    } else {
        HttpVerdict::Dropped
    }
}

/// DNS volley: one A-query for `domain` from the vantage, one scripted
/// answer from the remote. UDP, so it bypasses the TCP script harness.
fn probe_dns(lab: &mut VantageLab, port: u16, domain: &str) -> DnsVerdict {
    let vantage = lab.vantage(VANTAGE);
    let (v_host, v_addr) = (vantage.host, vantage.addr);
    let (r_host, r_addr) = (lab.us_main, lab.us_main_addr);
    let _ = lab.net.take_inbox(v_host);
    let _ = lab.net.take_inbox(r_host);

    let query = DnsQuery { id: 0x5021, qname: domain.to_string(), qtype: QTYPE_A };
    lab.net.send_from(v_host, udp_packet(v_addr, port, r_addr, 53, &query.build()));
    lab.net.run_for(std::time::Duration::from_millis(200));
    let _ = lab.net.take_inbox(r_host);

    // The scripted answer goes out whether or not the query arrived —
    // exactly like the TCP scripts, so the *response path* is probed too
    // (Turkmenistan's residual drop consumes it even when re-sent).
    let answer = DnsResponse::answer(&query, &[std::net::Ipv4Addr::new(93, 184, 216, 34)]).build();
    lab.net.send_from(r_host, udp_packet(r_addr, 53, v_addr, port, &answer));
    lab.net.run_for(std::time::Duration::from_millis(500));

    if lab.net.take_inbox(v_host).is_empty() {
        DnsVerdict::Dropped
    } else {
        DnsVerdict::Answered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tspu_registry::Universe;
    use tspu_topology::policy_from_universe;

    #[test]
    fn three_country_verdicts_differ_on_a_blocked_domain() {
        let universe = Universe::generate(3);
        let policy = policy_from_universe(&universe, false, true);
        let campaign = DifferentialCampaign::three_country(
            policy,
            vec!["meduza.io".into(), "rust-lang.org".into()],
        );
        let (matrix, _) = campaign.run(&ScanPool::single_thread(), &RunOpts::quick());
        assert!(matrix.oracle_clean(), "{:?}", matrix.oracle_violations());

        // meduza.io sits on the sni_rst list: each country enforces it in
        // its own shape.
        let tspu = matrix.cell("tspu", "meduza.io");
        assert_eq!(tspu.tls, TlsVerdict::RstLocal);
        assert_eq!(tspu.http, HttpVerdict::Ok, "the TSPU has no HTTP Host trigger");
        assert_eq!(tspu.dns, DnsVerdict::Answered);

        let tkm = matrix.cell("turkmenistan", "meduza.io");
        assert_eq!(tkm.tls, TlsVerdict::RstBidirectional);
        assert_eq!(tkm.http, HttpVerdict::Reset);
        assert_eq!(tkm.dns, DnsVerdict::Dropped);

        let india = matrix.cell("india", "meduza.io");
        assert_eq!(india.tls, TlsVerdict::Pass, "India leaves TLS alone");
        assert_eq!(india.http, HttpVerdict::BlockPage);
        assert_eq!(india.dns, DnsVerdict::Answered);

        // The innocuous control is untouched everywhere.
        for profile in ["tspu", "turkmenistan", "india"] {
            let cell = matrix.cell(profile, "rust-lang.org");
            assert_eq!(cell.tls, TlsVerdict::Pass, "{profile}");
            assert_eq!(cell.http, HttpVerdict::Ok, "{profile}");
            assert_eq!(cell.dns, DnsVerdict::Answered, "{profile}");
        }

        // Per-profile verdict counts are counts over the cells, which come
        // back profile-major in profile order.
        let count = |profile: &str, hit: fn(&ProfileCell) -> bool| {
            matrix.cells.iter().filter(|c| c.profile == profile && hit(c)).count()
        };
        let order: Vec<&str> = matrix.cells.iter().map(|c| c.profile).collect();
        assert_eq!(order, ["tspu", "tspu", "turkmenistan", "turkmenistan", "india", "india"]);
        for profile in ["tspu", "turkmenistan", "india"] {
            assert_eq!(count(profile, |c| c.oracle_violations.is_empty()), 2, "{profile}");
        }
        assert_eq!(count("tspu", |c| c.tls == TlsVerdict::RstLocal), 1);
        assert_eq!(count("turkmenistan", |c| c.tls == TlsVerdict::RstBidirectional), 1);
        assert_eq!(count("turkmenistan", |c| c.dns == DnsVerdict::Dropped), 1);
        assert_eq!(count("india", |c| c.http == HttpVerdict::BlockPage), 1);
        assert_eq!(count("india", |c| c.tls == TlsVerdict::Pass), 2);
    }
}
