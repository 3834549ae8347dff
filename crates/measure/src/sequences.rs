//! TCP trigger-sequence exploration (Fig. 4, §5.3.2): exhaustively play
//! every flag sequence up to length 3 as a prefix, append a triggering
//! ClientHello, and record which prefixes arm which blocking mechanism.

use tspu_core::PolicyHandle;
use tspu_topology::VantageLab;
use tspu_wire::tcp::TcpFlags;
use tspu_wire::tls::ClientHelloBuilder;

use crate::behaviors::{classify_behavior, ObservedBehavior};
use crate::harness::{ProbeSide, ScriptEnd, ScriptStep};
use crate::sweep::{fig1_cells, ScanPool};

/// Source ports of a Fig. 4 cell's two probes: the SNI-I-only domain's,
/// then the SNI-IV domain's. Every cell is a fresh fork, so each reuses
/// them.
const SNI1_PORT: u16 = 10_001;
const SNI4_PORT: u16 = 10_002;

/// The probe alphabet: who sends, with which flags. The paper modulates
/// SYN/SYN-ACK/ACK from both endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Symbol {
    pub from: ProbeSide,
    pub flags: TcpFlags,
}

impl Symbol {
    /// The six symbols (L/R × SYN, SYN/ACK, ACK).
    pub fn alphabet() -> [Symbol; 6] {
        [
            Symbol { from: ProbeSide::Local, flags: TcpFlags::SYN },
            Symbol { from: ProbeSide::Local, flags: TcpFlags::SYN_ACK },
            Symbol { from: ProbeSide::Local, flags: TcpFlags::ACK },
            Symbol { from: ProbeSide::Remote, flags: TcpFlags::SYN },
            Symbol { from: ProbeSide::Remote, flags: TcpFlags::SYN_ACK },
            Symbol { from: ProbeSide::Remote, flags: TcpFlags::ACK },
        ]
    }

    /// Short notation as in Table 8: `Ls`, `Rsa`, `La`, …
    pub fn notation(&self) -> String {
        let side = match self.from {
            ProbeSide::Local => "L",
            ProbeSide::Remote => "R",
        };
        let flags = if self.flags == TcpFlags::SYN {
            "s"
        } else if self.flags == TcpFlags::SYN_ACK {
            "sa"
        } else {
            "a"
        };
        format!("{side}{flags}")
    }
}

/// One explored sequence and what it armed.
#[derive(Debug, Clone)]
pub struct SequenceVerdict {
    pub notation: String,
    /// Behavior with a domain only on the SNI-I list.
    pub sni1_behavior: ObservedBehavior,
    /// Behavior with a domain on both SNI-I and SNI-IV lists.
    pub sni4_behavior: ObservedBehavior,
}

impl SequenceVerdict {
    /// "Valid prefix": the sequence arms SNI-I blocking.
    pub fn sni1_valid(&self) -> bool {
        self.sni1_behavior == ObservedBehavior::RstAck
    }

    /// "Green" node (Fig. 4): evades SNI-I but not SNI-IV.
    pub fn green(&self) -> bool {
        !self.sni1_valid() && self.sni4_behavior == ObservedBehavior::FullDrop
    }
}

/// Fig. 4 on the campaign kernel: every sequence of length ≤ `max_len`,
/// shortest first, one cell per sequence on a fork of a reliable Fig. 1
/// image enforcing `policy`, probed from the named vantage.
pub fn explore(
    policy: &PolicyHandle,
    max_len: usize,
    vantage: &str,
    pool: &ScanPool,
) -> Vec<SequenceVerdict> {
    let mut sequences: Vec<Vec<Symbol>> = vec![Vec::new()];
    let mut frontier: Vec<Vec<Symbol>> = vec![Vec::new()];
    for _ in 0..max_len {
        let mut next = Vec::new();
        for seq in &frontier {
            for &sym in &Symbol::alphabet() {
                let mut extended = seq.clone();
                extended.push(sym);
                next.push(extended.clone());
                sequences.push(extended);
            }
        }
        frontier = next;
    }
    fig1_cells(policy, &sequences, pool, |lab, seq| classify_sequence(lab, vantage, seq))
}

/// One Fig. 4 cell: `seq` as a prefix before a ClientHello for a domain on
/// the SNI-I list only (meduza.io), then before one on both the SNI-I and
/// SNI-IV lists (twitter.com).
fn classify_sequence(lab: &mut VantageLab, vantage: &str, seq: &[Symbol]) -> SequenceVerdict {
    let notation: Vec<String> = seq.iter().map(Symbol::notation).collect();
    let notation = if notation.is_empty() { "∅".to_string() } else { notation.join(";") };
    let prefix: Vec<ScriptStep> = seq.iter().map(|sym| ScriptStep::new(sym.from, sym.flags)).collect();

    let vantage_info = lab.vantage(vantage);
    let (v_host, v_addr) = (vantage_info.host, vantage_info.addr);
    let us = ScriptEnd { host: lab.us_main, addr: lab.us_main_addr, port: 443 };
    let mut behavior = |port, domain| {
        let local = ScriptEnd { host: v_host, addr: v_addr, port };
        classify_behavior(&mut lab.net, local, us, &prefix, ClientHelloBuilder::new(domain).build())
    };
    let sni1_behavior = behavior(SNI1_PORT, "meduza.io");
    let sni4_behavior = behavior(SNI4_PORT, "twitter.com");
    SequenceVerdict { notation, sni1_behavior, sni4_behavior }
}

/// Summary counts over an exploration (the Fig. 4 statistics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SequenceSummary {
    pub total: usize,
    pub sni1_valid: usize,
    pub green: usize,
    pub inert: usize,
}

/// Summarizes verdicts.
pub fn summarize(verdicts: &[SequenceVerdict]) -> SequenceSummary {
    let sni1_valid = verdicts.iter().filter(|v| v.sni1_valid()).count();
    let green = verdicts.iter().filter(|v| v.green()).count();
    SequenceSummary {
        total: verdicts.len(),
        sni1_valid,
        green,
        inert: verdicts.len() - sni1_valid - green,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tspu_registry::Universe;
    use tspu_topology::policy_from_universe;

    /// Length ≤ 2 exploration asserts the paper's three headline findings.
    #[test]
    fn exploration_matches_fig4_claims() {
        let policy = policy_from_universe(&Universe::generate(3), false, true);
        let verdicts = explore(&policy, 2, "ER-Telecom", &ScanPool::new(2));

        // Exploration to length 2 yields every sequence named below.
        let by_notation = |n: &str| verdicts.iter().find(|v| v.notation == n).unwrap();

        // Remote-first sequences are never valid prefixes.
        for n in ["Rs", "Rsa", "Ra", "Rs;Ls", "Ra;Lsa"] {
            let v = by_notation(n);
            assert!(!v.sni1_valid(), "{n} must not arm SNI-I");
            assert!(!v.green(), "{n} must not arm SNI-IV either");
        }

        // Local-first with a later remote SYN: green (SNI-I evaded,
        // SNI-IV armed).
        let v = by_notation("Ls;Rs");
        assert!(v.green(), "Ls;Rs is a green node: {v:?}");

        // The normal client openings are valid prefixes.
        for n in ["Ls", "Ls;Rsa", "Lsa"] {
            assert!(by_notation(n).sni1_valid(), "{n} arms SNI-I");
        }

        // The empty prefix: a bare triggering ClientHello is blocked.
        assert!(by_notation("∅").sni1_valid());
    }

    #[test]
    fn notation_formatting() {
        let syms = Symbol::alphabet();
        let notations: Vec<String> = syms.iter().map(Symbol::notation).collect();
        assert_eq!(notations, vec!["Ls", "Lsa", "La", "Rs", "Rsa", "Ra"]);
    }
}
