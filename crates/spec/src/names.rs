//! The registry's name matching (§5.1): a listed name blocks itself and
//! every name under it, but a bare TLD is never reached by walking up.
//!
//! [`RefDomainSet`] is the seed's `HashSet<String>` matcher, kept as the
//! reference the engine's bucketed rolling-hash `DomainSet` is held to
//! (`crates/core/tests/differential.rs`) and the list `spec::Device`
//! consults.

use std::collections::HashSet;

/// The suffix matcher: lowercase, strip one trailing dot, walk
/// `split_once('.')` suffixes, never descend to a bare TLD.
#[derive(Debug, Clone, Default)]
pub struct RefDomainSet {
    pub entries: HashSet<String>,
}

/// A name as the registry stores it: lowercase, one trailing dot dropped.
fn normalize(domain: &str) -> String {
    let mut d = domain.to_ascii_lowercase();
    if d.ends_with('.') {
        d.pop();
    }
    d
}

impl RefDomainSet {
    /// The set of `names`.
    pub fn from_names<'a>(names: impl IntoIterator<Item = &'a str>) -> RefDomainSet {
        let mut set = RefDomainSet::default();
        for name in names {
            set.insert(name);
        }
        set
    }

    pub fn insert(&mut self, domain: &str) {
        self.entries.insert(normalize(domain));
    }

    /// Delists `domain`, spelled any way `insert` accepts.
    pub fn remove(&mut self, domain: &str) {
        self.entries.remove(&normalize(domain));
    }

    pub fn matches(&self, hostname: &str) -> bool {
        let host = normalize(hostname);
        let mut rest = host.as_str();
        loop {
            if self.entries.contains(rest) {
                return true;
            }
            match rest.split_once('.') {
                Some((_, parent)) if parent.contains('.') => rest = parent,
                _ => return false,
            }
        }
    }
}
