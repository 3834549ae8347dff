//! The LDA stand-in: synthesize keyword-bag "HTML" for a domain from its
//! latent category, and classify pages back into categories by keyword
//! scoring. This reproduces the *pipeline* of §6.1 (fetch → cluster →
//! label) with a deterministic, dependency-free classifier whose error
//! modes (failed fetches, unparseable pages, misclassification noise)
//! match the paper's exclusion counts.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::universe::{Category, Domain};

/// What "fetching" a domain from the US measurement machine yielded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FetchOutcome {
    /// A parseable HTML page.
    Html(String),
    /// TCP to the origin failed (dead domain, parked, firewalled).
    FailedTcp,
    /// Connected but the body was empty or unparseable (error pages,
    /// geoblocks, parking pages).
    BadHtml,
}

/// Simulates fetching `domain`'s front page. Outcome probabilities are
/// calibrated to Fig. 7's exclusions: 1,398/10,000 failed TCP and
/// 2,680/10,000 bad HTML for the registry sample.
pub fn fetch(domain: &Domain, seed: u64) -> FetchOutcome {
    let mut rng = SmallRng::seed_from_u64(seed ^ hash_name(&domain.name));
    match domain.list {
        crate::universe::ListKind::RegistrySample => {
            let roll: f64 = rng.gen();
            if roll < 0.1398 {
                FetchOutcome::FailedTcp
            } else if roll < 0.1398 + 0.2680 {
                FetchOutcome::BadHtml
            } else {
                FetchOutcome::Html(synthesize_html(domain, rng.gen()))
            }
        }
        crate::universe::ListKind::Tranco => {
            // Popular domains almost always resolve and serve content.
            if rng.gen_bool(0.02) {
                FetchOutcome::BadHtml
            } else {
                FetchOutcome::Html(synthesize_html(domain, rng.gen()))
            }
        }
    }
}

fn hash_name(name: &str) -> u64 {
    // FNV-1a, good enough for deterministic per-domain seeds.
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in name.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    hash
}

/// Synthesizes a page: mostly the domain's own category vocabulary with
/// some cross-category noise, wrapped in minimal HTML.
pub fn synthesize_html(domain: &Domain, seed: u64) -> String {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut words = Vec::new();
    for _ in 0..60 {
        let from_own = rng.gen_bool(0.75);
        // Indexed as `choose` would, drawing the same numbers from `rng`.
        let category = if from_own {
            domain.category
        } else {
            Category::ALL[rng.gen_range(0..Category::ALL.len())]
        };
        let keywords = category.keywords();
        words.push(keywords[rng.gen_range(0..keywords.len())]);
    }
    let lang = if domain.russian { "ru" } else { "en" };
    format!(
        "<html lang=\"{lang}\"><head><title>{}</title></head><body><p>{}</p></body></html>",
        domain.name,
        words.join(" ")
    )
}

/// Classifies a page by keyword-count argmax — the topic-model stand-in.
/// Returns `None` for pages with no category vocabulary at all.
pub fn classify_html(html: &str) -> Option<Category> {
    let lowered = html.to_ascii_lowercase();
    let mut best: Option<(Category, usize)> = None;
    for category in Category::ALL {
        let score: usize = category
            .keywords()
            .iter()
            .map(|kw| lowered.matches(kw).count())
            .sum();
        if score > 0 && best.map(|(_, s)| score > s).unwrap_or(true) {
            best = Some((category, score));
        }
    }
    best.map(|(category, _)| category)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::{ListKind, Universe};

    fn sample_domain(category: Category) -> Domain {
        Domain {
            name: format!("{}-test.example", category.name().to_ascii_lowercase()),
            category,
            list: ListKind::RegistrySample,
            registry_added_day: Some(10),
            russian: false,
        }
    }

    #[test]
    fn classifier_recovers_latent_category_mostly() {
        let mut correct = 0;
        let mut total = 0;
        for category in Category::ALL {
            let domain = sample_domain(category);
            for seed in 0..50u64 {
                let html = synthesize_html(&domain, seed);
                if classify_html(&html) == Some(category) {
                    correct += 1;
                }
                total += 1;
            }
        }
        let accuracy = correct as f64 / total as f64;
        assert!(accuracy > 0.85, "accuracy {accuracy}");
    }

    #[test]
    fn classify_garbage_returns_none() {
        assert_eq!(classify_html("<html><body>zzz qqq</body></html>"), None);
        assert_eq!(classify_html(""), None);
    }

    #[test]
    fn fetch_outcome_rates_match_fig7_exclusions() {
        let universe = Universe::generate(5);
        let mut failed = 0;
        let mut bad = 0;
        for domain in &universe.registry_sample {
            match fetch(domain, 99) {
                FetchOutcome::FailedTcp => failed += 1,
                FetchOutcome::BadHtml => bad += 1,
                FetchOutcome::Html(_) => {}
            }
        }
        // Within sampling error of 1,398 and 2,680 per 10,000.
        assert!((1_250..=1_550).contains(&failed), "failed {failed}");
        assert!((2_500..=2_900).contains(&bad), "bad {bad}");
    }

    #[test]
    fn fetch_is_deterministic_per_domain() {
        let universe = Universe::generate(5);
        let d = &universe.registry_sample[42];
        assert_eq!(fetch(d, 7), fetch(d, 7));
    }

    #[test]
    fn html_carries_language() {
        let mut domain = sample_domain(Category::Gambling);
        domain.russian = true;
        assert!(synthesize_html(&domain, 1).contains("lang=\"ru\""));
    }
}
