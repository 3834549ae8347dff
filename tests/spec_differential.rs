//! The engine against the paper's §5 model (`crates/spec`), quick: the
//! transcript's op list, then sixteen random device-level and sixteen
//! random tracker-level op lists. `cargo test -p tspu-spec --release` runs
//! the full differentials, which shrink a failure to a minimal op list.

use proptest::strategy::{Source, Strategy};
use tspu_spec::{differential, tracker, transcript_ops, transcript_setup};

/// The `n` values `strategy` draws from seeds `0..n`.
fn cases<S: Strategy>(strategy: S, n: u64) -> impl Iterator<Item = (u64, S::Value)> {
    (0..n).map(move |seed| (seed, strategy.generate(&mut Source::new(Some(seed), Vec::new()))))
}

#[test]
fn the_transcript_runs_as_the_spec_says() {
    differential::play(&transcript_setup(), &transcript_ops());
}

#[test]
fn sixteen_random_devices_run_as_the_spec_says() {
    for (seed, (setup, ops)) in cases((differential::setups(), differential::ops()), 16) {
        eprintln!("device case {seed}: {} ops", ops.len());
        differential::play(&setup, &ops);
    }
}

#[test]
fn sixteen_random_trackers_match_the_model() {
    for (seed, ops) in cases(tracker::ops(), 16) {
        eprintln!("tracker case {seed}: {} ops", ops.len());
        tracker::play(&ops, seed % 2 == 1);
    }
}
