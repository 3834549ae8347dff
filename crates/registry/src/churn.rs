//! Registry churn: the blocklist as a *sequence of updates* rather than a
//! static snapshot.
//!
//! The paper's §5 deployment analysis rests on Roskomnadzor's registry
//! changing over time — domains are added (and occasionally delisted) in
//! daily batches, and TSPU devices converge on the new entries centrally
//! while per-ISP DPI lags behind its last registry dump. A
//! [`ChurnSchedule`] turns the universe's per-domain
//! `registry_added_day` stamps and the [`crate::timeline`] policy toggles
//! into an ordered list of [`ChurnBatch`]es, each stamped with the
//! *virtual* instant it should hit the wire, so a simulation can replay
//! weeks of registry history in seconds of virtual time.
//!
//! This module deliberately speaks only plain types (names, days,
//! `Duration` offsets): converting a batch into a `tspu_core::PolicyDelta`
//! is the consumer's one-liner, keeping the registry crate a leaf.

use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::timeline::{day, PolicyTimeline};
use crate::universe::Universe;

/// How a churn replay is derived from the universe.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnConfig {
    /// First registry day (since 2022-01-01) included in the replay.
    pub start_day: u32,
    /// One-past-the-last registry day included.
    pub end_day: u32,
    /// Virtual time allotted to one registry day. Weeks of history
    /// compress into however little virtual time the campaign wants.
    pub day_duration: Duration,
    /// Fraction of each day's additions that are later delisted (the
    /// registry's observed churn is not append-only: court orders expire
    /// and sites comply).
    pub removal_fraction: f64,
    /// Days between a domain's addition and its delisting, when delisted.
    pub removal_lag_days: u32,
    /// Seed for the (deterministic) delisting selection.
    pub seed: u64,
}

impl ChurnConfig {
    /// The February–March 2022 escalation window (§2, §5.2): Feb 24
    /// through a week past the March 14 Instagram block, one registry day
    /// per 200 ms of virtual time, 5 % of additions delisted after 10
    /// days.
    pub fn escalation_2022() -> ChurnConfig {
        ChurnConfig {
            start_day: day::FEB_24,
            end_day: day::MAR_14 + 7,
            day_duration: Duration::from_millis(200),
            removal_fraction: 0.05,
            removal_lag_days: 10,
            seed: 0,
        }
    }
}

/// One batch of registry churn: everything that lands on a single
/// registry day, stamped with its virtual application instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnBatch {
    /// Registry day (since 2022-01-01) this batch replays.
    pub day: u32,
    /// Virtual offset from replay start at which the batch applies.
    pub at: Duration,
    /// Domains entering SNI-I blocking.
    pub add: Vec<String>,
    /// Domains delisted from SNI-I blocking.
    pub remove: Vec<String>,
    /// QUIC-filter toggle crossing this day (Mar 4), if any.
    pub quic_filter: Option<bool>,
    /// SNI-III throttle toggle crossing this day (Feb 26 / Mar 4), if any.
    pub throttle_active: Option<bool>,
}

impl ChurnBatch {
    /// Number of list operations the batch carries.
    pub fn op_count(&self) -> usize {
        self.add.len() + self.remove.len()
    }
}

/// The full replay: batches ordered by virtual timestamp.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChurnSchedule {
    batches: Vec<ChurnBatch>,
}

impl ChurnSchedule {
    /// Derives the schedule from a universe: each registry day inside the
    /// config window becomes one batch of that day's
    /// `registry_added_day` additions (in generation order — itself
    /// deterministic), a seeded subset of which is scheduled for
    /// delisting `removal_lag_days` later; policy-toggle flips from the
    /// [`PolicyTimeline`] ride on the batch of the day they cross.
    pub fn from_universe(universe: &Universe, config: &ChurnConfig) -> ChurnSchedule {
        assert!(config.start_day < config.end_day, "empty churn window");
        let timeline = PolicyTimeline::new(universe);
        let days = (config.end_day - config.start_day) as usize;
        let mut adds: Vec<Vec<String>> = vec![Vec::new(); days];
        let mut removes: Vec<Vec<String>> = vec![Vec::new(); days];

        for domain in &universe.registry_sample {
            let Some(added) = domain.registry_added_day else { continue };
            if added < config.start_day || added >= config.end_day {
                continue;
            }
            adds[(added - config.start_day) as usize].push(domain.name.clone());
        }

        // Deterministic delisting: an independent RNG stream per day, so
        // the selection for one day never depends on how many domains
        // another day added.
        for (day_index, day_adds) in adds.iter_mut().enumerate() {
            day_adds.sort_unstable();
            if config.removal_fraction <= 0.0 {
                continue;
            }
            let removal_day = day_index + config.removal_lag_days as usize;
            if removal_day >= days {
                continue;
            }
            let mut rng = SmallRng::seed_from_u64(
                config.seed ^ (day_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            let delisted: Vec<String> =
                day_adds.iter().filter(|_| rng.gen_bool(config.removal_fraction)).cloned().collect();
            removes[removal_day].extend(delisted);
        }

        let mut batches = Vec::new();
        for day_index in 0..days {
            let day_number = config.start_day + day_index as u32;
            // The day before the window's first day still anchors the
            // comparison, so a flip landing exactly on `start_day` is kept.
            let previous = timeline.epoch(day_number.saturating_sub(1));
            let current = timeline.epoch(day_number);
            let quic_filter =
                (current.quic_filter != previous.quic_filter).then_some(current.quic_filter);
            let throttle_active = (current.throttle_active != previous.throttle_active)
                .then_some(current.throttle_active);
            let mut remove = std::mem::take(&mut removes[day_index]);
            remove.sort_unstable();
            let batch = ChurnBatch {
                day: day_number,
                at: config.day_duration * day_index as u32,
                add: std::mem::take(&mut adds[day_index]),
                remove,
                quic_filter,
                throttle_active,
            };
            if batch.op_count() > 0 || batch.quic_filter.is_some() || batch.throttle_active.is_some()
            {
                batches.push(batch);
            }
        }
        ChurnSchedule { batches }
    }

    /// The batches, ordered by virtual timestamp.
    pub fn batches(&self) -> &[ChurnBatch] {
        &self.batches
    }

    /// The batches, moved out (ordered by virtual timestamp).
    pub fn into_batches(self) -> Vec<ChurnBatch> {
        self.batches
    }

    /// Number of batches.
    pub fn len(&self) -> usize {
        self.batches.len()
    }

    /// True when the window produced no batches.
    pub fn is_empty(&self) -> bool {
        self.batches.is_empty()
    }

    /// Total domains added across the replay.
    pub fn total_adds(&self) -> usize {
        self.batches.iter().map(|b| b.add.len()).sum()
    }

    /// Total domains delisted across the replay.
    pub fn total_removes(&self) -> usize {
        self.batches.iter().map(|b| b.remove.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule() -> ChurnSchedule {
        let universe = Universe::generate(1);
        ChurnSchedule::from_universe(&universe, &ChurnConfig::escalation_2022())
    }

    #[test]
    fn derivation_is_deterministic() {
        assert_eq!(schedule(), schedule());
    }

    #[test]
    fn batches_are_time_ordered_and_day_stamped() {
        let sched = schedule();
        assert!(!sched.is_empty());
        for pair in sched.batches().windows(2) {
            assert!(pair[0].at < pair[1].at);
            assert!(pair[0].day < pair[1].day);
        }
        let config = ChurnConfig::escalation_2022();
        for batch in sched.batches() {
            let index = batch.day - config.start_day;
            assert_eq!(batch.at, config.day_duration * index);
        }
    }

    #[test]
    fn covers_the_expected_share_of_the_registry() {
        let universe = Universe::generate(1);
        let config = ChurnConfig::escalation_2022();
        let sched = ChurnSchedule::from_universe(&universe, &config);
        let expected = universe
            .registry_sample
            .iter()
            .filter(|d| {
                d.registry_added_day
                    .is_some_and(|day| (config.start_day..config.end_day).contains(&day))
            })
            .count();
        assert_eq!(sched.total_adds(), expected);
        // ~5 % of a ~25-day window's additions get delisted (only those
        // whose lag lands inside the window).
        assert!(sched.total_removes() > 0);
        assert!(sched.total_removes() < expected / 10);
    }

    #[test]
    fn removals_only_name_previously_added_domains() {
        let sched = schedule();
        let mut seen = std::collections::HashSet::new();
        for batch in sched.batches() {
            for name in &batch.add {
                seen.insert(name.clone());
            }
            for name in &batch.remove {
                assert!(seen.contains(name), "delisted {name} before adding it");
            }
        }
    }

    #[test]
    fn toggle_flips_ride_the_crossing_day() {
        let sched = schedule();
        let mar4 = sched.batches().iter().find(|b| b.day == day::MAR_4).expect("Mar 4 batch");
        assert_eq!(mar4.quic_filter, Some(true));
        assert_eq!(mar4.throttle_active, Some(false));
        let feb26 = sched.batches().iter().find(|b| b.day == day::FEB_26).expect("Feb 26 batch");
        assert_eq!(feb26.throttle_active, Some(true));
        // No other day flips the QUIC filter.
        let flips = sched.batches().iter().filter(|b| b.quic_filter.is_some()).count();
        assert_eq!(flips, 1);
    }

    #[test]
    fn zero_removal_fraction_is_append_only() {
        let universe = Universe::generate(1);
        let config = ChurnConfig { removal_fraction: 0.0, ..ChurnConfig::escalation_2022() };
        let sched = ChurnSchedule::from_universe(&universe, &config);
        assert_eq!(sched.total_removes(), 0);
    }
}
