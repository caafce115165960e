//! The server-side tracker: the location server's view of one mobile object.

// Panic-free by construction: device-sent state reaches this code off the
// wire, so it answers bad input with typed errors, never with a panic.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::predictor::Predictor;
use crate::state::{ObjectState, Update};
use mbdr_geo::Point;
use std::sync::Arc;

/// Server-side replica for one tracked object.
///
/// The server stores the last reported object state and answers position
/// queries with `pred(last reported state, t)` — the same prediction function
/// the source uses, which is what makes the accuracy bound `u_s` hold between
/// updates (paper, Section 2).
#[derive(Clone)]
pub struct ServerTracker {
    predictor: Arc<dyn Predictor>,
    last: Option<ObjectState>,
    updates_applied: u64,
    bytes_received: u64,
    /// Highest sequence number seen (stale updates are ignored).
    last_sequence: Option<u64>,
}

impl std::fmt::Debug for ServerTracker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerTracker")
            .field("predictor", &self.predictor.name())
            .field("last", &self.last)
            .field("updates_applied", &self.updates_applied)
            .field("bytes_received", &self.bytes_received)
            .finish()
    }
}

impl ServerTracker {
    /// Creates a tracker that uses the given (shared) prediction function.
    pub fn new(predictor: Arc<dyn Predictor>) -> Self {
        ServerTracker {
            predictor,
            last: None,
            updates_applied: 0,
            bytes_received: 0,
            last_sequence: None,
        }
    }

    /// Applies an update received from the source.
    ///
    /// Freshness is decided by the report timestamp first and the sequence
    /// number as the tiebreak: an update is applied iff its timestamp is
    /// strictly newer than the applied state's, or equal with a higher
    /// sequence number. Within one source run the two orders agree (sequence
    /// and timestamp both increase), so reordered and duplicated deliveries
    /// are rejected exactly as under a sequence-only check — but a restarted
    /// source (sequence reset to 0, timestamps still advancing) is accepted
    /// again instead of being dropped forever, and pre-restart stragglers
    /// (high sequence, old timestamp) cannot roll the state back.
    pub fn apply(&mut self, update: &Update) {
        // A non-finite timestamp (possible via garbage bytes that happen to
        // decode) would poison the freshness comparison forever — e.g. a NaN
        // first report makes every later `>` test false. Reject it outright.
        if !update.state.timestamp.is_finite() {
            return;
        }
        if let (Some(seq), Some(last)) = (self.last_sequence, self.last.as_ref()) {
            let fresher = update.state.timestamp > last.timestamp
                || (update.state.timestamp == last.timestamp && update.sequence > seq);
            if !fresher {
                return;
            }
        }
        self.last_sequence = Some(update.sequence);
        self.last = Some(update.state);
        self.updates_applied += 1;
        self.bytes_received += update.encoded_len() as u64;
    }

    /// The position the server reports for the object at time `t`, or `None`
    /// if no update has been received yet.
    pub fn position_at(&self, t: f64) -> Option<Point> {
        self.last.as_ref().map(|s| self.predictor.predict(s, t))
    }

    /// The last reported state, if any.
    pub fn last_state(&self) -> Option<&ObjectState> {
        self.last.as_ref()
    }

    /// Sequence number of the last applied update, if any. Together with
    /// [`ServerTracker::last_state`] this is exactly the state a durability
    /// snapshot must capture for the staleness check to resume unchanged.
    pub fn last_sequence(&self) -> Option<u64> {
        self.last_sequence
    }

    /// Reinstates tracker state from a durability snapshot, bypassing the
    /// freshness check: the snapshot is authoritative for its point in time.
    /// Journal-tail frames replayed afterwards go through [`ServerTracker::apply`]
    /// and are accepted or rejected by the normal staleness rules, so a
    /// restore followed by replay converges on the live tracker's state.
    ///
    /// The non-finite-timestamp guard is kept: a snapshot can only contain a
    /// state that `apply` once accepted, so a non-finite timestamp here means
    /// the snapshot bytes did not come from this codebase's encoder.
    pub fn restore(&mut self, update: &Update, updates_applied: u64, bytes_received: u64) {
        if !update.state.timestamp.is_finite() {
            return;
        }
        self.last_sequence = Some(update.sequence);
        self.last = Some(update.state);
        self.updates_applied = updates_applied;
        self.bytes_received = bytes_received;
    }

    /// Number of updates applied so far.
    pub fn updates_applied(&self) -> u64 {
        self.updates_applied
    }

    /// Total payload bytes of the applied updates, each counted at its
    /// standalone message encoding ([`Update::encoded_len`], the paper's
    /// per-message cost), not at the bytes it took inside a frame: a frame
    /// codes each update against the one before it, so that size depends on
    /// its neighbours, not on the update. Counting the message keeps the
    /// counter — and the snapshots that store it — the same whichever frames
    /// the updates arrived in.
    pub fn bytes_received(&self) -> u64 {
        self.bytes_received
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::LinearPredictor;
    use crate::state::UpdateKind;

    fn update(seq: u64, t: f64, x: f64) -> Update {
        Update {
            sequence: seq,
            state: ObjectState::basic(Point::new(x, 0.0), 10.0, std::f64::consts::FRAC_PI_2, t),
            kind: UpdateKind::DeviationBound,
        }
    }

    #[test]
    fn empty_tracker_knows_nothing() {
        let t = ServerTracker::new(Arc::new(LinearPredictor));
        assert!(t.position_at(10.0).is_none());
        assert_eq!(t.updates_applied(), 0);
        assert_eq!(t.predictor.name(), "linear");
    }

    #[test]
    fn tracker_predicts_forward_from_the_last_update() {
        let mut t = ServerTracker::new(Arc::new(LinearPredictor));
        t.apply(&update(0, 100.0, 0.0));
        let p = t.position_at(110.0).unwrap();
        assert!((p.x - 100.0).abs() < 1e-9, "10 s at 10 m/s eastwards");
        assert_eq!(t.updates_applied(), 1);
        assert!(t.bytes_received() > 0);
    }

    #[test]
    fn newer_updates_replace_older_ones() {
        let mut t = ServerTracker::new(Arc::new(LinearPredictor));
        t.apply(&update(0, 100.0, 0.0));
        t.apply(&update(1, 200.0, 500.0));
        let p = t.position_at(200.0).unwrap();
        assert!((p.x - 500.0).abs() < 1e-9);
        assert_eq!(t.updates_applied(), 2);
    }

    #[test]
    fn stale_updates_are_ignored() {
        let mut t = ServerTracker::new(Arc::new(LinearPredictor));
        t.apply(&update(5, 200.0, 500.0));
        t.apply(&update(3, 100.0, 0.0)); // arrives late, must be dropped
        assert_eq!(t.updates_applied(), 1);
        assert_eq!(t.last_state().unwrap().position.x, 500.0);
        // A re-delivered duplicate (same sequence, same timestamp) is dropped.
        t.apply(&update(5, 200.0, 999.0));
        assert_eq!(t.updates_applied(), 1);
        assert_eq!(t.last_state().unwrap().position.x, 500.0);
    }

    #[test]
    fn non_finite_timestamps_cannot_poison_the_tracker() {
        let mut t = ServerTracker::new(Arc::new(LinearPredictor));
        t.apply(&update(0, f64::NAN, 123.0));
        assert_eq!(t.updates_applied(), 0, "NaN first report is rejected");
        t.apply(&update(1, f64::INFINITY, 123.0));
        assert_eq!(t.updates_applied(), 0);
        // Ordinary tracking proceeds unharmed afterwards.
        t.apply(&update(2, 10.0, 0.0));
        t.apply(&update(3, 20.0, 50.0));
        assert_eq!(t.updates_applied(), 2);
        assert_eq!(t.last_state().unwrap().position.x, 50.0);
    }

    #[test]
    fn restarted_source_with_reset_sequence_is_tracked_again() {
        // Regression: a sequence-only staleness check bricked the tracker
        // after a source restart (sequence reset to 0) — every later update
        // had a "stale" sequence and was dropped forever.
        let mut t = ServerTracker::new(Arc::new(LinearPredictor));
        t.apply(&update(41, 200.0, 500.0));
        // The source reboots and starts a fresh stream at sequence 0 with a
        // strictly newer timestamp: must be accepted.
        t.apply(&update(0, 300.0, 800.0));
        assert_eq!(t.updates_applied(), 2);
        assert_eq!(t.last_state().unwrap().position.x, 800.0);
        // The tracker adopted the new stream: its next sequences apply...
        t.apply(&update(1, 310.0, 900.0));
        assert_eq!(t.updates_applied(), 3);
        // ...while leftovers of the pre-restart stream (older timestamps,
        // whatever their sequence) are still rejected.
        t.apply(&update(40, 190.0, 0.0));
        assert_eq!(t.updates_applied(), 3);
        assert_eq!(t.last_state().unwrap().position.x, 900.0);
    }
}
