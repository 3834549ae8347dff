//! # tspu
//!
//! Umbrella crate for the reproduction of *TSPU: Russia's Decentralized
//! Censorship System* (IMC 2022). Re-exports every workspace crate; see
//! the README for the architecture and DESIGN.md for the experiment
//! index.
//!
//! * [`wire`] — wire formats (IPv4/TCP/UDP/ICMP/TLS/QUIC)
//! * [`netsim`] — deterministic discrete-event network simulator
//! * [`core`] — the TSPU device model
//! * [`stack`] — endpoint host stacks
//! * [`registry`] — domain universe, blocklists, policy timeline
//! * [`topology`] — vantage lab and country-scale RuNet
//! * [`measure`] — the paper's measurement techniques
//! * [`circumvent`] — §8 circumvention strategies
//!
//! ## Example
//!
//! ```
//! use tspu::registry::Universe;
//! use tspu::stack::{ClientOutcome, ServerApp, TcpClient, TcpClientConfig};
//! use tspu::topology::VantageLab;
//! use tspu::wire::tls::ClientHelloBuilder;
//!
//! // The paper's Fig. 1 setup, generated deterministically.
//! let universe = Universe::generate(2022);
//! let mut lab = VantageLab::builder().universe(&universe).table1().build();
//! lab.net.set_app(lab.us_main, Box::new(ServerApp::https_site(lab.us_main_addr)));
//!
//! // Fetch a blocked domain from the ER-Telecom vantage point.
//! let (host, addr) = {
//!     let v = lab.vantage("ER-Telecom");
//!     (v.host, v.addr)
//! };
//! let (app, report, syn) = TcpClient::start(TcpClientConfig::new(
//!     addr, 40_000, lab.us_main_addr, 443,
//!     ClientHelloBuilder::new("twitter.com").build(),
//! ));
//! lab.net.set_app(host, Box::new(app));
//! lab.net.send_from(host, syn);
//! lab.net.run_until_idle();
//!
//! // The TSPU rewrote the response to RST/ACK (behavior SNI-I).
//! assert_eq!(report.outcome(), ClientOutcome::Reset);
//! ```

pub use tspu_circumvent as circumvent;
pub use tspu_core as core;
pub use tspu_measure as measure;
pub use tspu_netsim as netsim;
pub use tspu_registry as registry;
pub use tspu_stack as stack;
pub use tspu_topology as topology;
pub use tspu_wire as wire;
