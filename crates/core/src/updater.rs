//! The central policy updater as a simulated actor: Roskomnadzor's
//! distribution pipe, scheduled in virtual time.
//!
//! A [`PolicyUpdater`] holds a sorted list of `(offset, Arc<PolicyDelta>)`
//! pairs and a shared [`crate::PolicyHandle`]. Installed on a host (any
//! host — it never sends packets) and bootstrapped with one
//! `Network::arm_timer` call, it wakes at each delta's virtual offset,
//! applies the delta through the handle (one epoch bump, one
//! `policy.delta_applies` increment), and records the application in a
//! shared [`DeltaApplication`] log the campaign reads back afterwards.
//!
//! Because every TSPU device holds a clone of the same handle, a delta is
//! visible to the whole country within the same virtual instant — the
//! centralized half of the paper's update-lag contrast. ISP DPI lag is
//! modeled separately (`tspu_measure::churn::UpdateLag`).

use std::sync::{Arc, Mutex};
use std::time::Duration;

use tspu_netsim::{Application, Output, Time};

use crate::policy::{PolicyDelta, PolicyHandle};

/// One applied delta, as recorded by the updater.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaApplication {
    /// Virtual instant the delta was applied.
    pub at: Time,
    /// The policy epoch after application.
    pub epoch: u64,
    /// Number of list/IP operations the delta carried.
    pub ops: usize,
}

/// Shared, append-only log of applied deltas.
pub type UpdateLog = Arc<Mutex<Vec<DeltaApplication>>>;

/// A netsim [`Application`] that fires policy deltas at scheduled virtual
/// offsets (measured from simulation start).
pub struct PolicyUpdater {
    policy: PolicyHandle,
    /// Sorted by offset. Shared, so campaign cells replaying one registry
    /// day hand every updater the same delta.
    schedule: Vec<(Duration, Arc<PolicyDelta>)>,
    next: usize,
    log: UpdateLog,
}

impl PolicyUpdater {
    /// Builds an updater over `schedule` (offset from simulation start →
    /// delta). The schedule is sorted by offset; ties apply in the given
    /// order within one timer tick.
    pub fn new<D: Into<Arc<PolicyDelta>>>(
        policy: PolicyHandle,
        schedule: Vec<(Duration, D)>,
    ) -> PolicyUpdater {
        let mut schedule: Vec<(Duration, Arc<PolicyDelta>)> =
            schedule.into_iter().map(|(offset, delta)| (offset, delta.into())).collect();
        schedule.sort_by_key(|(offset, _)| *offset);
        PolicyUpdater { policy, schedule, next: 0, log: Arc::new(Mutex::new(Vec::new())) }
    }

    /// The shared application log — clone before installing the updater
    /// into a network, read after the run.
    pub fn log(&self) -> UpdateLog {
        Arc::clone(&self.log)
    }

    /// The virtual offset of the first scheduled delta — what to
    /// `Network::arm_timer` with after `set_app`.
    pub fn first_offset(&self) -> Option<Duration> {
        self.schedule.first().map(|(offset, _)| *offset)
    }

    /// Number of deltas not yet applied.
    pub fn pending(&self) -> usize {
        self.schedule.len() - self.next
    }
}

impl Application for PolicyUpdater {
    fn on_packet(&mut self, _now: Time, _packet: &[u8]) -> Vec<Output> {
        Vec::new()
    }

    fn on_timer(&mut self, now: Time) -> Vec<Output> {
        let due = now.since(Time::ZERO);
        while let Some((offset, delta)) = self.schedule.get(self.next) {
            if *offset > due {
                break;
            }
            self.policy.apply_delta(delta);
            let record = DeltaApplication { at: now, epoch: self.policy.epoch(), ops: delta.op_count() };
            self.log.lock().unwrap_or_else(|e| e.into_inner()).push(record);
            self.next += 1;
        }
        match self.schedule.get(self.next) {
            Some((offset, _)) => vec![Output::Timer { delay: *offset - due }],
            None => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Policy;

    #[test]
    fn applies_deltas_in_offset_order() {
        let handle = PolicyHandle::new(Policy::permissive());
        let schedule = vec![
            (Duration::from_millis(400), PolicyDelta::add_rst_batch(["late.example"])),
            (Duration::from_millis(100), PolicyDelta::add_rst_batch(["early.example"])),
        ];
        let mut updater = PolicyUpdater::new(handle.clone(), schedule);
        let log = updater.log();
        assert_eq!(updater.first_offset(), Some(Duration::from_millis(100)));

        // First wake: only the early delta is due; the updater re-arms.
        let outputs = updater.on_timer(Time::ZERO + Duration::from_millis(100));
        assert_eq!(outputs, vec![Output::Timer { delay: Duration::from_millis(300) }]);
        assert!(handle.read().sni_rst.matches("early.example"));
        assert!(!handle.read().sni_rst.matches("late.example"));
        assert_eq!(updater.pending(), 1);

        // Second wake: done, no more timers.
        let outputs = updater.on_timer(Time::ZERO + Duration::from_millis(400));
        assert!(outputs.is_empty());
        assert!(handle.read().sni_rst.matches("late.example"));

        let log = log.lock().unwrap();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].at, Time::ZERO + Duration::from_millis(100));
        assert_eq!(log[0].epoch, 1);
        assert_eq!(log[1].epoch, 2);
    }

    #[test]
    fn packets_are_ignored() {
        let schedule: Vec<(Duration, PolicyDelta)> = Vec::new();
        let mut updater = PolicyUpdater::new(PolicyHandle::new(Policy::permissive()), schedule);
        assert!(updater.on_packet(Time::ZERO, &[0u8; 20]).is_empty());
        assert_eq!(updater.first_offset(), None);
    }
}
