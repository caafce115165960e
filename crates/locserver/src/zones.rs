//! Zone subscriptions: enter/leave notifications for rectangular areas.
//!
//! Location-aware services often want to be told when an object enters or
//! leaves an area ("address all users that are currently inside a department
//! of a store") rather than polling. [`ZoneWatcher`] evaluates the registered
//! zones against the service's predicted positions and emits the transitions
//! since its previous evaluation.
//!
//! ## Hot-path discipline
//!
//! Zone names are interned once at registration time as `Arc<str>`: emitting
//! an event clones a pointer, never a `String`. Events also carry the dense
//! [`ZoneEvent::zone_index`] handed out by [`ZoneWatcher::add_zone`], so
//! per-poll consumers (the TCP serving layer maps zones back to wire ids on
//! every poll) can use an array lookup instead of hashing the name. The
//! evaluation itself reuses the watcher's internal query scratch and
//! membership sets — in steady state a poll allocates nothing beyond what the
//! emitted event `Vec` needs.

use crate::service::{LocationService, ObjectId, PositionReport, QueryScratch};
use mbdr_geo::Aabb;
use std::collections::HashSet;
use std::sync::Arc;

/// Whether the object entered or left the zone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZoneEventKind {
    /// The object was outside at the previous evaluation and is now inside.
    Entered,
    /// The object was inside at the previous evaluation and is now outside.
    Left,
}

/// A zone transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZoneEvent {
    /// Name of the zone (as registered; a cheap `Arc` clone, not a fresh
    /// `String`).
    pub zone: Arc<str>,
    /// Dense index of the zone, as returned by [`ZoneWatcher::add_zone`] —
    /// the allocation-free way to map an event back to caller-side zone
    /// state.
    pub zone_index: usize,
    /// The object that crossed the boundary.
    pub object: ObjectId,
    /// Entered or left.
    pub kind: ZoneEventKind,
}

/// One registered zone and the objects inside it at the last evaluation.
struct Zone {
    name: Arc<str>,
    area: Aabb,
    inside: HashSet<ObjectId>,
}

/// Watches a set of named rectangular zones over a [`LocationService`].
pub struct ZoneWatcher {
    zones: Vec<Zone>,
    /// Reusable rect-query scratch (candidate keys + result buffer).
    scratch: QueryScratch,
    reports: Vec<PositionReport>,
    /// Reusable membership scratch, swapped with a zone's `inside` set per
    /// evaluation.
    now_inside: HashSet<ObjectId>,
}

impl Default for ZoneWatcher {
    fn default() -> Self {
        Self::new()
    }
}

impl ZoneWatcher {
    /// Creates a watcher with no zones.
    pub fn new() -> Self {
        ZoneWatcher {
            zones: Vec::new(),
            scratch: QueryScratch::default(),
            reports: Vec::new(),
            now_inside: HashSet::new(),
        }
    }

    /// Registers a named zone and returns its dense index (echoed in every
    /// event as [`ZoneEvent::zone_index`]). Names need not be unique, but
    /// distinct names make the emitted events easier to interpret.
    pub fn add_zone(&mut self, name: impl Into<Arc<str>>, area: Aabb) -> usize {
        self.zones.push(Zone { name: name.into(), area, inside: HashSet::new() });
        self.zones.len() - 1
    }

    /// Immediately removes `object` from every zone's membership set,
    /// returning one `Left` event per zone it was inside.
    ///
    /// Call this when an object is deregistered from the service: `evaluate`
    /// does emit `Left` for objects that disappeared, but only at the next
    /// evaluation — and if the object re-registers and re-enters the zone
    /// before then, the disappearance is invisible to `evaluate` and the
    /// membership would silently carry over. Purging on deregistration closes
    /// that window (and guarantees the `inside` sets never retain departed
    /// objects).
    pub fn purge_object(&mut self, object: ObjectId) -> Vec<ZoneEvent> {
        let mut events = Vec::new();
        for (index, zone) in self.zones.iter_mut().enumerate() {
            if zone.inside.remove(&object) {
                events.push(ZoneEvent {
                    zone: Arc::clone(&zone.name),
                    zone_index: index,
                    object,
                    kind: ZoneEventKind::Left,
                });
            }
        }
        events
    }

    /// Evaluates all zones at time `t` and returns the transitions since the
    /// previous evaluation. The first evaluation reports an `Entered` event
    /// for every object already inside a zone.
    ///
    /// An object that disappeared from the service (deregistered, or never
    /// reported again) is reported as `Left` because it no longer shows up in
    /// the range query — so zone membership cannot leak past an evaluation.
    /// For the stronger guarantee (a deregistration immediately followed by a
    /// re-registration inside the zone still produces `Left` + `Entered`),
    /// call [`ZoneWatcher::purge_object`] at deregistration time.
    pub fn evaluate(&mut self, service: &LocationService, t: f64) -> Vec<ZoneEvent> {
        let mut events = Vec::new();
        self.evaluate_into(service, t, &mut events);
        events
    }

    /// Like [`ZoneWatcher::evaluate`], but appends the transitions to a
    /// caller-provided buffer (cleared first) — the reusable-buffer form the
    /// serving layer polls with.
    #[expect(clippy::indexing_slicing, reason = "left_start <= events.len()")]
    pub fn evaluate_into(
        &mut self,
        service: &LocationService,
        t: f64,
        events: &mut Vec<ZoneEvent>,
    ) {
        events.clear();
        for (index, zone) in self.zones.iter_mut().enumerate() {
            service.objects_in_rect_into(&zone.area, t, &mut self.scratch, &mut self.reports);
            self.now_inside.clear();
            self.now_inside.extend(self.reports.iter().map(|r| r.object));
            // The reports are sorted by id, so `Entered` events come out in
            // ascending object order without an extra sort; `Left` events are
            // collected and sorted (the membership set iterates hash-ordered).
            for report in &self.reports {
                if !zone.inside.contains(&report.object) {
                    events.push(ZoneEvent {
                        zone: Arc::clone(&zone.name),
                        zone_index: index,
                        object: report.object,
                        kind: ZoneEventKind::Entered,
                    });
                }
            }
            let left_start = events.len();
            for &object in zone.inside.iter() {
                if !self.now_inside.contains(&object) {
                    events.push(ZoneEvent {
                        zone: Arc::clone(&zone.name),
                        zone_index: index,
                        object,
                        kind: ZoneEventKind::Left,
                    });
                }
            }
            events[left_start..].sort_unstable_by_key(|e| e.object);
            std::mem::swap(&mut zone.inside, &mut self.now_inside);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbdr_core::{LinearPredictor, ObjectState, Update, UpdateKind};
    use mbdr_geo::Point;
    use std::sync::Arc;

    fn moving_east_service() -> LocationService {
        let s = LocationService::new();
        s.register(ObjectId(1), Arc::new(LinearPredictor));
        // Heading east at 10 m/s from x = 0 at t = 0.
        s.apply_update(
            ObjectId(1),
            &Update {
                sequence: 0,
                state: ObjectState::basic(
                    Point::new(0.0, 0.0),
                    10.0,
                    std::f64::consts::FRAC_PI_2,
                    0.0,
                ),
                kind: UpdateKind::Initial,
            },
        );
        s
    }

    #[test]
    fn object_entering_and_leaving_a_zone_is_reported_once_each() {
        let service = moving_east_service();
        let mut watcher = ZoneWatcher::new();
        let index =
            watcher.add_zone("mall", Aabb::new(Point::new(100.0, -50.0), Point::new(200.0, 50.0)));
        assert_eq!(index, 0);
        assert_eq!(watcher.zones.len(), 1);

        // t = 5 s: at x = 50, outside.
        assert!(watcher.evaluate(&service, 5.0).is_empty());
        // t = 12 s: at x = 120, inside → one Entered event.
        let events = watcher.evaluate(&service, 12.0);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, ZoneEventKind::Entered);
        assert_eq!(&*events[0].zone, "mall");
        assert_eq!(events[0].zone_index, 0);
        // Still inside: no repeated event.
        assert!(watcher.evaluate(&service, 15.0).is_empty());
        // t = 25 s: at x = 250, outside → one Left event.
        let events = watcher.evaluate(&service, 25.0);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, ZoneEventKind::Left);
    }

    #[test]
    fn deregistered_object_emits_left_and_does_not_linger() {
        // Regression test: an object that disappears from the service must
        // not stay in a zone's `inside` set without ever emitting `Left`.
        let service = moving_east_service();
        let mut watcher = ZoneWatcher::new();
        watcher.add_zone("mall", Aabb::new(Point::new(100.0, -50.0), Point::new(200.0, 50.0)));
        // t = 12 s: inside → Entered.
        let events = watcher.evaluate(&service, 12.0);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, ZoneEventKind::Entered);
        // The object vanishes from the service entirely.
        assert!(service.deregister(ObjectId(1)));
        // Still at a time where it *would* be inside if it existed: the next
        // evaluation must emit Left, and the membership set must be empty.
        let events = watcher.evaluate(&service, 13.0);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, ZoneEventKind::Left);
        assert_eq!(events[0].object, ObjectId(1));
        assert!(watcher.evaluate(&service, 14.0).is_empty(), "no repeated Left");
    }

    #[test]
    fn purge_emits_left_immediately_and_enables_reentry_detection() {
        let service = moving_east_service();
        let mut watcher = ZoneWatcher::new();
        watcher.add_zone("mall", Aabb::new(Point::new(100.0, -50.0), Point::new(200.0, 50.0)));
        assert_eq!(watcher.evaluate(&service, 12.0).len(), 1, "Entered");
        // Deregister + purge: Left is reported synchronously, without waiting
        // for the next evaluation.
        service.deregister(ObjectId(1));
        let events = watcher.purge_object(ObjectId(1));
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, ZoneEventKind::Left);
        assert_eq!(events[0].zone_index, 0);
        assert!(watcher.purge_object(ObjectId(1)).is_empty(), "purge is idempotent");
        // The object re-registers and reports from inside the zone: without
        // the purge this would be invisible (membership carried over); with it
        // the watcher reports a fresh Entered.
        service.register(ObjectId(1), Arc::new(LinearPredictor));
        service.apply_update(
            ObjectId(1),
            &Update {
                sequence: 0,
                state: ObjectState::basic(Point::new(150.0, 0.0), 0.0, 0.0, 13.0),
                kind: UpdateKind::Initial,
            },
        );
        let events = watcher.evaluate(&service, 13.0);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, ZoneEventKind::Entered);
    }

    #[test]
    fn multiple_zones_are_evaluated_independently() {
        let service = moving_east_service();
        let mut watcher = ZoneWatcher::new();
        watcher.add_zone("west", Aabb::new(Point::new(-10.0, -10.0), Point::new(60.0, 10.0)));
        let east =
            watcher.add_zone("east", Aabb::new(Point::new(140.0, -10.0), Point::new(260.0, 10.0)));
        assert_eq!(east, 1);
        // t = 0: inside "west" only.
        let events = watcher.evaluate(&service, 0.0);
        assert_eq!(events.len(), 1);
        assert_eq!(&*events[0].zone, "west");
        // t = 20: left "west", entered "east".
        let events = watcher.evaluate(&service, 20.0);
        assert_eq!(events.len(), 2);
        assert!(events
            .iter()
            .any(|e| &*e.zone == "west" && e.zone_index == 0 && e.kind == ZoneEventKind::Left));
        assert!(events
            .iter()
            .any(|e| &*e.zone == "east" && e.zone_index == 1 && e.kind == ZoneEventKind::Entered));
    }

    #[test]
    fn evaluate_into_reuses_the_event_buffer() {
        let service = moving_east_service();
        let mut watcher = ZoneWatcher::new();
        watcher.add_zone("mall", Aabb::new(Point::new(100.0, -50.0), Point::new(200.0, 50.0)));
        let mut events = Vec::new();
        watcher.evaluate_into(&service, 12.0, &mut events);
        assert_eq!(events.len(), 1);
        // A later empty evaluation clears the stale contents.
        watcher.evaluate_into(&service, 15.0, &mut events);
        assert!(events.is_empty());
    }

    #[test]
    fn many_entered_events_come_out_in_ascending_object_order() {
        let service = LocationService::new();
        for id in [5u64, 1, 9, 3] {
            service.register(ObjectId(id), Arc::new(LinearPredictor));
            service.apply_update(
                ObjectId(id),
                &Update {
                    sequence: 0,
                    state: ObjectState::basic(Point::new(id as f64, 0.0), 0.0, 0.0, 0.0),
                    kind: UpdateKind::Initial,
                },
            );
        }
        let mut watcher = ZoneWatcher::new();
        watcher.add_zone("all", Aabb::new(Point::new(-1.0, -1.0), Point::new(20.0, 1.0)));
        let entered: Vec<u64> =
            watcher.evaluate(&service, 0.0).iter().map(|e| e.object.0).collect();
        assert_eq!(entered, vec![1, 3, 5, 9]);
        // Everyone deregisters: Left events are sorted too.
        for id in [5u64, 1, 9, 3] {
            service.deregister(ObjectId(id));
        }
        let left: Vec<u64> = watcher.evaluate(&service, 1.0).iter().map(|e| e.object.0).collect();
        assert_eq!(left, vec![1, 3, 5, 9]);
    }
}
