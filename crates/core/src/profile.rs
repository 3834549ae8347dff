//! Declarative censor profiles: everything country-specific about a
//! middlebox, factored out of the enforcement engine.
//!
//! [`crate::device::TspuDevice`] is now a general censor engine: conntrack,
//! fragment cache, policer, failure dice, and the trigger/verdict plumbing
//! are shared machinery, while a [`CensorProfile`] declares *which*
//! triggers fire (SNI, QUIC fingerprint, DNS qname, HTTP Host) and *how*
//! verdicts act (unidirectional vs bidirectional RST, silent drop,
//! HTTP-200 block-page injection, throttling) plus the residual-window
//! semantics. Four profiles ship:
//!
//! * [`CensorProfile::tspu`] — the paper's device, byte-identical to the
//!   pre-refactor model (held to the paper's §5 model by
//!   `crates/spec/tests/device.rs`).
//! * [`CensorProfile::turkmenistan`] — few centralized chokepoints firing
//!   **bidirectional** RSTs on SNI and HTTP-Host triggers and residually
//!   dropping DNS flows that queried a blocked name (PAPERS.md:
//!   "Measuring and Evading Turkmenistan's Internet Censorship").
//! * [`CensorProfile::india`] — per-ISP middleboxes answering HTTP
//!   requests for blocked hosts with an injected HTTP 200 block page
//!   (PAPERS.md: India censorship study); SNI and QUIC untouched, no IP
//!   blocklist.
//! * [`CensorProfile::legacy_isp`] — the pre-TSPU keyword DPI some Russian
//!   ISPs ran in path (§2): it silently swallows a plaintext HTTP request
//!   whose Host is listed and remembers nothing afterwards. Blind to
//!   HTTPS, and per-ISP — the non-uniformity §5.1 uses to tell ISP
//!   blocking apart from the TSPU.
//!
//! All profiles interpret the same [`crate::policy::Policy`] domain lists,
//! so a differential campaign probes one universe against every country.

use std::sync::Arc;
use std::time::Duration;

use tspu_wire::http::HttpResponse;

use crate::behaviors::{BlockKind, EnforceDirections};
use crate::constants;

/// How (and whether) the profile inspects TLS ClientHello SNIs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SniMode {
    /// No SNI inspection at all.
    Disabled,
    /// The TSPU's four-list engine (sni_rst / sni_slow / sni_throttle /
    /// sni_backup with role-dependent precedence, §5.2).
    TspuLists,
    /// A single blocklist (the policy's `sni_rst` list) arming one verdict
    /// kind with one residual window — the shape of a centralized
    /// chokepoint censor.
    SingleList { kind: BlockKind, window: Duration },
}

/// DNS-query trigger: a UDP/53 query whose qname is on the blocklist arms
/// a residual full-drop on the flow (and eats the query itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DnsFilter {
    /// Residual window of the installed drop verdict.
    pub window: Duration,
}

/// HTTP Host-header trigger: a TCP/80 request whose Host is on the
/// blocklist arms `kind` on the flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HttpHostFilter {
    pub kind: BlockKind,
    /// Residual window of the installed verdict.
    pub window: Duration,
}

/// Everything country-specific about a censoring middlebox. Pure data plus
/// the block-page bytes; the engine in `device.rs` interprets it.
#[derive(Debug, Clone, PartialEq)]
pub struct CensorProfile {
    /// Name used in oracle audits, verdict matrices, and reports.
    pub name: &'static str,
    /// TLS SNI inspection mode.
    pub sni: SniMode,
    /// Whether the QUIC initial-packet fingerprint filter runs (it is
    /// additionally gated by the policy's own `quic_filter` flag, which
    /// models the filter's 2021 activation date).
    pub quic_filter: bool,
    /// DNS qname trigger, if any.
    pub dns: Option<DnsFilter>,
    /// HTTP Host-header trigger, if any.
    pub http_host: Option<HttpHostFilter>,
    /// Which directions injection verdicts (RST rewrite) fire in.
    pub rst_directions: EnforceDirections,
    /// The HTTP 200 block page injected by `BlockKind::BlockPage`
    /// verdicts, as full response bytes (status line + headers + body).
    pub block_page: Option<Arc<[u8]>>,
    /// Whether the stateless IP blocklist is enforced.
    pub ip_blocking: bool,
}

impl CensorProfile {
    /// The paper's TSPU. Every field reproduces the pre-refactor device:
    /// the differential proptest pins this profile byte-for-byte against
    /// a reference reimplementation.
    pub fn tspu() -> CensorProfile {
        CensorProfile {
            name: "tspu",
            sni: SniMode::TspuLists,
            quic_filter: true,
            dns: None,
            http_host: None,
            rst_directions: EnforceDirections::ToLocal,
            block_page: None,
            ip_blocking: true,
        }
    }

    /// Turkmenistan: centralized chokepoints, bidirectional RST injection
    /// on SNI and HTTP-Host triggers, residual drops on DNS flows that
    /// queried a blocked name. No QUIC fingerprint filter.
    pub fn turkmenistan() -> CensorProfile {
        CensorProfile {
            name: "turkmenistan",
            sni: SniMode::SingleList { kind: BlockKind::RstRewrite, window: constants::BLOCK_TKM },
            quic_filter: false,
            dns: Some(DnsFilter { window: constants::BLOCK_TKM }),
            http_host: Some(HttpHostFilter {
                kind: BlockKind::RstRewrite,
                window: constants::BLOCK_TKM,
            }),
            rst_directions: EnforceDirections::Both,
            block_page: None,
            ip_blocking: true,
        }
    }

    /// India: heterogeneous per-ISP middleboxes injecting an HTTP 200
    /// block page in place of the server's response for blocked Hosts.
    /// No SNI engine, no QUIC filter, no IP blocklist — which is exactly
    /// what makes censorship leak across ISPs when one ISP's middlebox
    /// sits on another ISP's transit path.
    pub fn india() -> CensorProfile {
        CensorProfile {
            name: "india",
            sni: SniMode::Disabled,
            quic_filter: false,
            dns: None,
            http_host: Some(HttpHostFilter {
                kind: BlockKind::BlockPage,
                window: constants::BLOCK_PAGE,
            }),
            rst_directions: EnforceDirections::ToLocal,
            block_page: Some(india_block_page().into()),
            ip_blocking: false,
        }
    }

    /// Legacy per-ISP keyword DPI: a port-80 request whose Host is on the
    /// ISP's list is dropped, and only that request — the zero residual
    /// window lapses at the next instant. No SNI engine, no QUIC filter, no
    /// DNS trigger, no IP blocklist, no block page.
    pub fn legacy_isp() -> CensorProfile {
        CensorProfile {
            name: "legacy_isp",
            sni: SniMode::Disabled,
            quic_filter: false,
            dns: None,
            http_host: Some(HttpHostFilter {
                kind: BlockKind::FullDrop,
                window: constants::LEGACY_HTTP_WINDOW,
            }),
            rst_directions: EnforceDirections::ToLocal,
            block_page: None,
            ip_blocking: false,
        }
    }

    /// The profile's block page as a byte slice, if it injects one.
    pub fn block_page_bytes(&self) -> Option<&[u8]> {
        self.block_page.as_deref()
    }
}

/// The canonical India block page (the DoT notice text the study observes,
/// served as a complete HTTP 200 response).
pub fn india_block_page() -> Vec<u8> {
    HttpResponse::ok(
        b"<html><head><title>Blocked</title></head><body>\
          Your requested URL has been blocked as per the directions \
          received from Department of Telecommunications, Government \
          of India.</body></html>",
    )
    .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tspu_profile_matches_pre_refactor_defaults() {
        let p = CensorProfile::tspu();
        assert_eq!(p.sni, SniMode::TspuLists);
        assert!(p.quic_filter && p.ip_blocking);
        assert!(p.dns.is_none() && p.http_host.is_none() && p.block_page.is_none());
        assert_eq!(p.rst_directions, EnforceDirections::ToLocal);
    }

    #[test]
    fn turkmenistan_is_bidirectional_on_three_triggers() {
        let p = CensorProfile::turkmenistan();
        assert_eq!(p.rst_directions, EnforceDirections::Both);
        assert!(matches!(p.sni, SniMode::SingleList { kind: BlockKind::RstRewrite, .. }));
        assert!(p.dns.is_some(), "DNS trigger");
        assert_eq!(p.http_host.unwrap().kind, BlockKind::RstRewrite);
        assert!(!p.quic_filter);
    }

    #[test]
    fn india_injects_a_parseable_block_page() {
        let p = CensorProfile::india();
        assert_eq!(p.http_host.unwrap().kind, BlockKind::BlockPage);
        let page = p.block_page_bytes().unwrap();
        let parsed = HttpResponse::parse(page).unwrap();
        assert_eq!(parsed.status, 200);
        assert!(String::from_utf8_lossy(&parsed.body).contains("Department of Telecommunications"));
        assert!(!p.ip_blocking, "leakage comes from transit, not address lists");
    }
}
