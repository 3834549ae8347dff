//! # tspu-bench
//!
//! The regeneration harness: one function per table and figure of the
//! paper's evaluation, each returning a printable report comparing paper
//! values with what the reproduction measures. The `experiments` bench
//! target (`cargo bench -p tspu-bench --bench experiments`) runs them all;
//! the `ablations` target holds the criterion single-layer ablations, and
//! end-to-end performance is `benchmark/`'s (a package of its own).
//!
//! Scaling knobs (environment variables):
//!
//! | var | default | effect |
//! |---|---|---|
//! | `TSPU_TRIALS` | 20000 | Table 1 trials per cell (the paper uses 20,000) |
//! | `TSPU_SCALE` | 0.004 | RuNet endpoint scale (1.0 = the paper's 4 M) |
//! | `TSPU_DOMAIN_LIMIT` | 25000 | domains tested per list in §6 (covers both full lists) |
//! | `TSPU_SEQ_LEN` | 3 | Fig. 4 sequence length bound (the paper uses 3) |
//! | `TSPU_ONLY` | — | comma-separated experiment ids to run |

pub mod experiments;

pub use experiments::{run_all, ExperimentReport};

/// Reads a numeric environment knob.
pub fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Reads an integer environment knob.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}
