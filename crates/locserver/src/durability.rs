//! The degraded-mode durability state machine.
//!
//! A location server would rather serve stale-bounded answers than refuse
//! them: when the write-ahead journal's disk starts failing, the service
//! keeps applying frames to the in-memory trackers and only *flags* the lost
//! durability instead of erroring every ingest. `DurabilityControl` is the
//! small lock-free state block that tracks which regime the service is in:
//!
//! * [`DurabilityState::Durable`] — every applied frame is in the journal.
//! * [`DurabilityState::Degraded`] — a journal append failed persistently;
//!   serving continues, but applied frames are counted in
//!   `degraded_frames` instead of journaled. A crash in this window loses
//!   exactly those frames (the paper's dead-reckoning staleness bounds still
//!   hold for everything the server *answers* — only replay completeness is
//!   at risk).
//! * [`DurabilityState::Recovered`] — a re-probe
//!   ([`crate::LocationService::probe_durability`]) found the disk writable
//!   again, repaired the journal tail ([`mbdr_journal::Journal::repair_and_sync`])
//!   and installed a forced snapshot of the *current* tracker state, which
//!   re-establishes the durability floor above the un-journaled window.
//!   `Recovered` journals appends exactly like `Durable`; it is a distinct
//!   state so operators can see that a degradation happened and healed.
//!
//! Transitions are monotone within one incident (`Durable`/`Recovered` →
//! `Degraded` → `Recovered`) but the machine is re-entrant: a recovered
//! service that hits the disk again re-degrades, and both transition
//! counters keep counting. All fields are relaxed atomics — the state read
//! on the ingest hot path is a single `AtomicU8` load.

use mbdr_core::DurabilityState;
use std::sync::atomic::{AtomicU8, Ordering};

mbdr_journal::counters! {
    /// The monotone counters of one [`DurabilityControl`].
    pub(crate) struct DurabilityCounters {
        /// Frames applied to trackers *without* being journaled while
        /// degraded — the exact count of applies a crash in the degraded
        /// window would lose.
        degraded_frames,
        /// Durable/Recovered → Degraded transitions (distinct disk incidents).
        degraded_transitions,
        /// Degraded → Recovered transitions (healed incidents).
        recovered_transitions,
        /// Re-probe attempts made while degraded (successful or not).
        probe_attempts,
    }
    /// Point-in-time copy of a service's `DurabilityControl` (surfaced through
    /// `mbdr-net`'s `ServerStatsSnapshot`).
    pub snapshot DurabilityStatsSnapshot {
        /// Current durability regime.
        pub state: DurabilityState,
    }
}

/// Live durability state + counters for one [`crate::LocationService`].
///
/// Updated from the ingest path ([`DurabilityControl::enter_degraded`],
/// [`DurabilityControl::note_degraded_frame`]) and the re-probe path
/// ([`DurabilityControl::note_probe_attempt`],
/// [`DurabilityControl::mark_recovered`]); read via
/// [`DurabilityControl::snapshot`].
#[derive(Debug, Default)]
pub(crate) struct DurabilityControl {
    /// Current [`DurabilityState`], stored as its wire byte (see
    /// [`DurabilityState::to_wire`]) so the hot-path check is one atomic load.
    state: AtomicU8,
    counters: DurabilityCounters,
}

impl DurabilityControl {
    /// The current state.
    pub(crate) fn state(&self) -> DurabilityState {
        // Only `to_wire` values are ever stored, so the fallback is dead code
        // kept for panic-freedom.
        DurabilityState::from_wire(self.state.load(Ordering::Relaxed))
            .unwrap_or(DurabilityState::Degraded)
    }

    /// Is the service currently in the degraded (non-journaling) regime?
    /// Single relaxed load — cheap enough for the ingest hot path.
    pub(crate) fn is_degraded(&self) -> bool {
        self.state.load(Ordering::Relaxed) == DurabilityState::Degraded.to_wire()
    }

    /// Flips to [`DurabilityState::Degraded`]. Counts a transition only when
    /// the previous state was not already degraded, so concurrent shard
    /// failures in one incident count once.
    pub(crate) fn enter_degraded(&self) {
        let prev = self.state.swap(DurabilityState::Degraded.to_wire(), Ordering::Relaxed);
        if prev != DurabilityState::Degraded.to_wire() {
            self.counters.degraded_transitions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts one frame applied without journaling while degraded.
    pub(crate) fn note_degraded_frame(&self) {
        self.counters.degraded_frames.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one re-probe attempt.
    pub(crate) fn note_probe_attempt(&self) {
        self.counters.probe_attempts.fetch_add(1, Ordering::Relaxed);
    }

    /// Flips to [`DurabilityState::Recovered`] after a successful re-probe.
    /// Counts a transition only when the previous state was degraded.
    pub(crate) fn mark_recovered(&self) {
        let prev = self.state.swap(DurabilityState::Recovered.to_wire(), Ordering::Relaxed);
        if prev == DurabilityState::Degraded.to_wire() {
            self.counters.recovered_transitions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Copies state + counters into a plain-value snapshot.
    pub(crate) fn snapshot(&self) -> DurabilityStatsSnapshot {
        DurabilityStatsSnapshot { state: self.state(), ..self.counters.snapshot() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transitions_count_incidents_not_calls() {
        let control = DurabilityControl::default();
        assert_eq!(control.state(), DurabilityState::Durable);
        assert!(!control.is_degraded());

        control.enter_degraded();
        control.enter_degraded(); // same incident, counted once
        assert!(control.is_degraded());
        assert_eq!(control.snapshot().degraded_transitions, 1);

        control.note_degraded_frame();
        control.note_degraded_frame();
        control.note_probe_attempt();
        control.mark_recovered();
        control.mark_recovered(); // already recovered: no second healing
        assert_eq!(control.state(), DurabilityState::Recovered);
        assert!(!control.is_degraded());

        // Re-entrant: a recovered service can degrade again.
        control.enter_degraded();
        control.mark_recovered();
        let snap = control.snapshot();
        assert_eq!(snap.state, DurabilityState::Recovered);
        assert_eq!(snap.degraded_frames, 2);
        assert_eq!(snap.degraded_transitions, 2);
        assert_eq!(snap.recovered_transitions, 2);
        assert_eq!(snap.probe_attempts, 1);
    }

    #[test]
    fn default_snapshot_is_durable_and_zeroed() {
        assert_eq!(DurabilityStatsSnapshot::default().state, DurabilityState::Durable);
        assert_eq!(DurabilityControl::default().snapshot(), DurabilityStatsSnapshot::default());
    }
}
