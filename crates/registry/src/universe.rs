//! Deterministic generation of the domain universe and the block lists
//! derived from it.

use std::collections::HashSet;

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::stats;

/// Content categories, merged to the 11 of Fig. 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    Circumvention,
    Provocative,
    Technology,
    Pornography,
    Service,
    Streaming,
    Pirating,
    Finance,
    Gambling,
    Drugs,
    InformativeMedia,
}

impl Category {
    /// All categories, in Fig. 7's display order.
    pub const ALL: [Category; 11] = [
        Category::Circumvention,
        Category::Provocative,
        Category::Technology,
        Category::Pornography,
        Category::Service,
        Category::Streaming,
        Category::Pirating,
        Category::Finance,
        Category::Gambling,
        Category::Drugs,
        Category::InformativeMedia,
    ];

    /// Display name as in Fig. 7.
    pub fn name(self) -> &'static str {
        match self {
            Category::Circumvention => "Circumvention",
            Category::Provocative => "Provocative",
            Category::Technology => "Technology",
            Category::Pornography => "Pornography",
            Category::Service => "Service",
            Category::Streaming => "Streaming",
            Category::Pirating => "Pirating",
            Category::Finance => "Finance",
            Category::Gambling => "Gambling",
            Category::Drugs => "Drugs",
            Category::InformativeMedia => "Informative Media",
        }
    }

    /// Characteristic vocabulary used to synthesize page content and to
    /// classify it back (the LDA stand-in).
    pub fn keywords(self) -> &'static [&'static str] {
        match self {
            Category::Circumvention => &["vpn", "proxy", "tor", "bypass", "tunnel", "unblock"],
            Category::Provocative => &["protest", "rights", "freedom", "activist", "corruption"],
            Category::Technology => &["software", "cloud", "developer", "hardware", "code"],
            Category::Pornography => &["adult", "explicit", "cam", "xxx", "mature"],
            Category::Service => &["account", "login", "support", "delivery", "booking"],
            Category::Streaming => &["video", "stream", "music", "movie", "episode", "player"],
            Category::Pirating => &["torrent", "crack", "keygen", "warez", "magnet"],
            Category::Finance => &["bank", "crypto", "exchange", "loan", "invest"],
            Category::Gambling => &["casino", "bet", "poker", "slots", "jackpot", "odds"],
            Category::Drugs => &["pharma", "pills", "dose", "shop24", "substances"],
            Category::InformativeMedia => &["news", "report", "journal", "blog", "media", "press"],
        }
    }

    /// Weight of this category inside the registry sample (shaped after
    /// Fig. 7: gambling, media and streaming dominate).
    fn registry_weight(self) -> u32 {
        match self {
            Category::Gambling => 26,
            Category::InformativeMedia => 24,
            Category::Streaming => 14,
            Category::Drugs => 8,
            Category::Finance => 8,
            Category::Pirating => 6,
            Category::Pornography => 5,
            Category::Service => 4,
            Category::Technology => 2,
            Category::Provocative => 2,
            Category::Circumvention => 1,
        }
    }

    /// Weight inside the Tranco list (popular global sites).
    fn tranco_weight(self) -> u32 {
        match self {
            Category::Service => 22,
            Category::Technology => 20,
            Category::InformativeMedia => 18,
            Category::Streaming => 14,
            Category::Finance => 10,
            Category::Pornography => 6,
            Category::Circumvention => 4,
            Category::Provocative => 3,
            Category::Gambling => 1,
            Category::Pirating => 1,
            Category::Drugs => 1,
        }
    }
}

/// Which list a domain came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ListKind {
    /// Tranco top list (plus CLBL additions).
    Tranco,
    /// Registry sample (added since 2022-01-01).
    RegistrySample,
}

/// One domain in the universe.
#[derive(Debug, Clone)]
pub struct Domain {
    pub name: String,
    pub category: Category,
    pub list: ListKind,
    /// Day (since 2022-01-01) the domain entered the blocking registry;
    /// `None` for domains not in the registry at all.
    pub registry_added_day: Option<u32>,
    /// Primary language is Russian (affects the classifier pipeline).
    pub russian: bool,
}

/// The derived block lists: what each enforcement point targets.
#[derive(Debug, Clone, Default)]
pub struct BlockSets {
    /// SNI-I RST/ACK blocking (TSPU).
    pub sni_rst: HashSet<String>,
    /// SNI-II delayed-drop (TSPU, out-registry).
    pub sni_slow: HashSet<String>,
    /// SNI-III throttling (TSPU, while active).
    pub sni_throttle: HashSet<String>,
    /// SNI-IV backup (TSPU).
    pub sni_backup: HashSet<String>,
    /// Per-ISP resolver blocklists (blockpage-based), keyed by ISP name.
    pub isp_resolver: std::collections::HashMap<String, HashSet<String>>,
}

/// The generated universe.
pub struct Universe {
    pub tranco: Vec<Domain>,
    pub registry_sample: Vec<Domain>,
    pub blocks: BlockSets,
}

fn synth_name(rng: &mut SmallRng, category: Category, russian: bool, serial: usize) -> String {
    const SYLLABLES: [&str; 16] = [
        "ra", "ve", "to", "mi", "ska", "lon", "dar", "pex", "zu", "qui", "nor", "bel", "tu",
        "gri", "ost", "fan",
    ];
    let tld = if russian {
        *["ru", "su", "рф", "net", "com"].choose(rng).unwrap()
    } else {
        *["com", "net", "org", "io", "tv"].choose(rng).unwrap()
    };
    let stem = category.keywords()[serial % category.keywords().len()];
    let a = SYLLABLES[rng.gen_range(0..SYLLABLES.len())];
    let b = SYLLABLES[rng.gen_range(0..SYLLABLES.len())];
    format!("{stem}-{a}{b}{serial}.{tld}")
}

fn pick_category(rng: &mut SmallRng, weights: &[(Category, u32)]) -> Category {
    let total: u32 = weights.iter().map(|(_, w)| w).sum();
    let mut roll = rng.gen_range(0..total);
    for (category, weight) in weights {
        if roll < *weight {
            return *category;
        }
        roll -= weight;
    }
    weights[0].0
}

impl Universe {
    /// Generates the full universe deterministically from a seed.
    pub fn generate(seed: u64) -> Universe {
        let mut rng = SmallRng::seed_from_u64(seed);

        let tranco_weights: Vec<(Category, u32)> =
            Category::ALL.iter().map(|&c| (c, c.tranco_weight())).collect();
        let registry_weights: Vec<(Category, u32)> =
            Category::ALL.iter().map(|&c| (c, c.registry_weight())).collect();

        // --- Tranco + CLBL (11,325) ---
        let mut tranco = Vec::with_capacity(stats::TRANCO_TOTAL);
        // A handful of real, recognizable anchors from the paper's tables.
        let anchors: [(&str, Category); 12] = [
            ("twitter.com", Category::InformativeMedia),
            ("facebook.com", Category::InformativeMedia),
            ("instagram.com", Category::InformativeMedia),
            ("t.co", Category::Service),
            ("twimg.com", Category::Service),
            ("dw.com", Category::InformativeMedia),
            ("bbc.com", Category::InformativeMedia),
            ("meduza.io", Category::InformativeMedia),
            ("tor.eff.org", Category::Circumvention),
            ("nordvpn.com", Category::Circumvention),
            ("play.google.com", Category::Service),
            ("news.google.com", Category::InformativeMedia),
        ];
        for (name, category) in anchors {
            tranco.push(Domain {
                name: name.to_string(),
                category,
                list: ListKind::Tranco,
                registry_added_day: None,
                russian: false,
            });
        }
        while tranco.len() < stats::TRANCO_TOTAL {
            let category = pick_category(&mut rng, &tranco_weights);
            let russian = rng.gen_bool(0.06);
            let serial = tranco.len();
            tranco.push(Domain {
                name: synth_name(&mut rng, category, russian, serial),
                category,
                list: ListKind::Tranco,
                registry_added_day: None,
                russian,
            });
        }

        // --- Registry sample (10,000; added day 0..130) ---
        let mut registry_sample = Vec::with_capacity(stats::REGISTRY_SAMPLE);
        for serial in 0..stats::REGISTRY_SAMPLE {
            let category = pick_category(&mut rng, &registry_weights);
            let russian = rng.gen_bool(0.8);
            registry_sample.push(Domain {
                name: synth_name(&mut rng, category, russian, serial + 100_000),
                category,
                list: ListKind::RegistrySample,
                registry_added_day: Some(rng.gen_range(0..130)),
                russian,
            });
        }

        // --- Block sets ---
        let mut blocks = BlockSets::default();

        // TSPU SNI-I over the registry sample: 9,655 of 10,000.
        let mut reg_names: Vec<&Domain> = registry_sample.iter().collect();
        reg_names.shuffle(&mut rng);
        for domain in reg_names.iter().take(stats::TSPU_BLOCKED_REGISTRY) {
            blocks.sni_rst.insert(domain.name.clone());
        }

        // Tranco-side SNI-I: 94 in-registry anchors + generated, 150
        // out-registry (google services, circumvention, news, porn).
        let mut tranco_blockable: Vec<usize> = tranco
            .iter()
            .enumerate()
            .filter(|(_, d)| {
                matches!(
                    d.category,
                    Category::Circumvention
                        | Category::InformativeMedia
                        | Category::Pornography
                        | Category::Provocative
                        | Category::Pirating
                )
            })
            .map(|(i, _)| i)
            .collect();
        tranco_blockable.shuffle(&mut rng);
        let take = stats::SNI1_TRANCO.min(tranco_blockable.len());
        for (n, &idx) in tranco_blockable[..take].iter().enumerate() {
            blocks.sni_rst.insert(tranco[idx].name.clone());
            if n < stats::SNI1_TRANCO_IN_REGISTRY {
                // These are also registry entries (added pre-2022).
                tranco[idx].registry_added_day = Some(0);
            }
        }

        // Exact paper lists for SNI-II, SNI-III, SNI-IV.
        for name in stats::SNI2_DOMAINS {
            blocks.sni_slow.insert(name.to_string());
        }
        for name in stats::SNI3_DOMAINS {
            blocks.sni_throttle.insert(name.to_string());
        }
        for name in stats::SNI4_DOMAINS {
            blocks.sni_backup.insert(name.to_string());
            // SNI-IV targets are also SNI-I targets (§6.3).
            blocks.sni_rst.insert(name.to_string());
        }
        // The social-media anchors are registry-listed SNI-I targets.
        for name in ["twitter.com", "facebook.com", "instagram.com", "dw.com", "bbc.com", "meduza.io", "tor.eff.org"] {
            blocks.sni_rst.insert(name.to_string());
        }

        // Per-ISP resolver lists: full coverage of old registry entries,
        // partial on recent ones (§6.3).
        let recent: Vec<&Domain> = registry_sample.iter().collect();
        for (isp, coverage) in [
            ("Rostelecom", stats::RESOLVER_COVERAGE_ROSTELECOM),
            ("OBIT", stats::RESOLVER_COVERAGE_OBIT),
            ("ER-Telecom", stats::RESOLVER_COVERAGE_ERTELECOM),
        ] {
            let mut list = HashSet::new();
            // Old registry entries (tranco side) are well covered.
            for domain in tranco.iter().filter(|d| d.registry_added_day.is_some()) {
                if rng.gen_bool(0.93) {
                    list.insert(domain.name.clone());
                }
            }
            // Recent entries: only the first `coverage` by added-day order
            // (stale list = old snapshot of the registry).
            let mut by_day: Vec<&&Domain> = recent.iter().collect();
            by_day.sort_by_key(|d| (d.registry_added_day, d.name.clone()));
            for domain in by_day.into_iter().take(coverage) {
                list.insert(domain.name.clone());
            }
            blocks.isp_resolver.insert(isp.to_string(), list);
        }

        Universe { tranco, registry_sample, blocks }
    }

    /// All domains across both lists.
    pub fn all_domains(&self) -> impl Iterator<Item = &Domain> {
        self.tranco.iter().chain(self.registry_sample.iter())
    }

    /// Looks up a domain by name.
    pub fn find(&self, name: &str) -> Option<&Domain> {
        self.all_domains().find(|d| d.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = Universe::generate(7);
        let b = Universe::generate(7);
        assert_eq!(a.tranco.len(), b.tranco.len());
        assert_eq!(a.tranco[500].name, b.tranco[500].name);
        assert_eq!(a.blocks.sni_rst.len(), b.blocks.sni_rst.len());
    }

    #[test]
    fn list_sizes_match_paper() {
        let u = Universe::generate(1);
        assert_eq!(u.tranco.len(), 11_325);
        assert_eq!(u.registry_sample.len(), 10_000);
    }

    #[test]
    fn sni1_covers_9655_registry_domains() {
        let u = Universe::generate(1);
        let blocked_registry = u
            .registry_sample
            .iter()
            .filter(|d| u.blocks.sni_rst.contains(&d.name))
            .count();
        assert_eq!(blocked_registry, 9_655);
    }

    #[test]
    fn sni1_total_close_to_table3() {
        let u = Universe::generate(1);
        // 9,899 plus the handful of named anchors we force in.
        assert!((9_899..=9_920).contains(&u.blocks.sni_rst.len()), "{}", u.blocks.sni_rst.len());
    }

    #[test]
    fn exact_paper_lists_present() {
        let u = Universe::generate(3);
        assert_eq!(u.blocks.sni_slow.len(), 4);
        assert!(u.blocks.sni_slow.contains("play.google.com"));
        assert_eq!(u.blocks.sni_backup.len(), 7);
        assert!(u.blocks.sni_backup.contains("web.facebook.com"));
        assert!(u.blocks.sni_rst.contains("twitter.com"));
    }

    #[test]
    fn resolver_coverage_ordering() {
        let u = Universe::generate(1);
        let recent = |isp: &str| {
            u.registry_sample
                .iter()
                .filter(|d| u.blocks.isp_resolver[isp].contains(&d.name))
                .count()
        };
        let rostelecom = recent("Rostelecom");
        let obit = recent("OBIT");
        let ertelecom = recent("ER-Telecom");
        assert_eq!(rostelecom, 1_302);
        assert_eq!(obit, 3_943);
        assert!(ertelecom > obit);
    }

    #[test]
    fn registry_days_in_2022_window() {
        let u = Universe::generate(1);
        assert!(u
            .registry_sample
            .iter()
            .all(|d| matches!(d.registry_added_day, Some(day) if day < 130)));
    }

    #[test]
    fn anchors_findable() {
        let u = Universe::generate(1);
        assert!(u.find("twitter.com").is_some());
        assert!(u.find("no-such-domain.example").is_none());
    }

    #[test]
    fn category_mix_shaped_like_fig7() {
        let u = Universe::generate(1);
        let count = |cat| u.registry_sample.iter().filter(|d| d.category == cat).count();
        let gambling = count(Category::Gambling);
        let media = count(Category::InformativeMedia);
        let circumvention = count(Category::Circumvention);
        assert!(gambling > 2_000, "gambling {gambling}");
        assert!(media > 1_800, "media {media}");
        assert!(circumvention < 300, "circumvention {circumvention}");
    }
}
