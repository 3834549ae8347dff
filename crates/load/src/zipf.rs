//! Zipf-distributed index sampling over a fixed universe.
//!
//! Web request popularity is famously heavy-tailed: a handful of domains
//! absorb most connections while a long tail sees a trickle. The load
//! generator reproduces that shape so the device's flow table and SNI
//! matcher are exercised the way a real TSPU's would be — hot entries hit
//! constantly while the tail churns through creation and expiry.
//!
//! Sampling is inverse-CDF over a precomputed cumulative table: `O(n)`
//! memory once, `O(log n)` per sample, and — unlike rejection samplers —
//! exactly one RNG draw per sample, which keeps the generator's output a
//! pure function of the seed regardless of the exponent.

use rand::rngs::SmallRng;
use rand::Rng;

/// Inverse-CDF sampler for `P(i) ∝ 1 / (i+1)^s` over `0..n`.
pub struct ZipfSampler {
    /// `cdf[i]` = P(index ≤ i), normalized so `cdf[n-1] == 1.0`.
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Builds the table for a universe of `n` items with exponent `s`.
    /// `s = 0` degenerates to uniform; `s ≈ 1` is the classic web-traffic
    /// shape.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize, s: f64) -> ZipfSampler {
        assert!(n > 0, "zipf universe must be non-empty");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        // Guard against floating-point shortfall at the top end.
        if let Some(top) = cdf.last_mut() {
            *top = 1.0;
        }
        ZipfSampler { cdf }
    }

    /// Number of items in the universe.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True when the universe has exactly one item (never empty).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Draws one index. Exactly one `rng` call, so sample streams are
    /// reproducible from the seed alone.
    pub fn sample(&self, rng: &mut SmallRng) -> usize {
        let u: f64 = rng.gen();
        // partition_point: first index whose cdf is >= u.
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn head_is_hot_and_tail_is_covered() {
        let sampler = ZipfSampler::new(10_000, 1.02);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut counts = vec![0u32; 10_000];
        let draws = 200_000;
        for _ in 0..draws {
            counts[sampler.sample(&mut rng)] += 1;
        }
        // Rank 0 must dominate any mid-tail rank by a wide margin.
        assert!(counts[0] > 100 * counts[5_000].max(1));
        // The head carries a disproportionate share…
        let head: u32 = counts[..100].iter().sum();
        assert!(head as f64 > 0.4 * draws as f64, "head share too small: {head}");
        // …but the tail is still being visited.
        let tail_hit = counts[5_000..].iter().filter(|&&c| c > 0).count();
        assert!(tail_hit > 500, "tail barely sampled: {tail_hit}");
    }

    #[test]
    fn deterministic_across_runs() {
        let sampler = ZipfSampler::new(1_000, 0.9);
        let a: Vec<usize> = {
            let mut rng = SmallRng::seed_from_u64(42);
            (0..256).map(|_| sampler.sample(&mut rng)).collect()
        };
        let b: Vec<usize> = {
            let mut rng = SmallRng::seed_from_u64(42);
            (0..256).map(|_| sampler.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn uniform_exponent_spreads() {
        let sampler = ZipfSampler::new(100, 0.0);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut counts = vec![0u32; 100];
        for _ in 0..100_000 {
            counts[sampler.sample(&mut rng)] += 1;
        }
        let (min, max) = counts.iter().fold((u32::MAX, 0), |(min, max), &c| (min.min(c), max.max(c)));
        assert!(max < 2 * min, "uniform draw skewed: min {min} max {max}");
    }
}
