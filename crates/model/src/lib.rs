//! # mbdr-model — the reference every answer-level test checks against
//!
//! The location service promises that each answer — where an object is, who
//! is inside an area, who is nearest — is bit-identical to a full scan over
//! every object's tracker, whatever its configuration. [`Model`] is that
//! scan, written from the service's documentation alone; it has no
//! configuration, because every `ServiceConfig` must answer alike.
//! [`assert_answers`] compares a service with it through [`bits`], and
//! [`run`] drives both through [`Op`]s such as [`seeded_ops`] draws.
//! Only test targets depend on this crate.

#![forbid(unsafe_code)]

use mbdr_core::{
    ArcPredictor, DecodeError, Frame, LinearPredictor, ObjectState, PositionRecord, Predictor,
    ServerTracker, StaticPredictor, Update, UpdateKind,
};
use mbdr_geo::rng::SplitMix64;
use mbdr_geo::{Aabb, Point};
use mbdr_locserver::{LocationService, ObjectId, PositionReport, QueryScratch, ServiceConfig};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The location service as a full scan over one tracker per registered
/// object.
#[derive(Default)]
pub struct Model {
    trackers: BTreeMap<ObjectId, ServerTracker>,
}

impl Model {
    /// Registers `object` with a fresh tracker; registering it again resets
    /// its tracker, as the service does.
    pub fn register(&mut self, object: ObjectId, predictor: Arc<dyn Predictor>) {
        self.trackers.insert(object, ServerTracker::new(predictor));
    }

    /// Removes `object`; `true` if it was registered.
    pub fn deregister(&mut self, object: ObjectId) -> bool {
        self.trackers.remove(&object).is_some()
    }

    /// Hands `update` to the object's tracker, which drops it if it is
    /// stale; `true` iff the object is registered.
    pub fn apply_update(&mut self, object: ObjectId, update: &Update) -> bool {
        let Some(tracker) = self.trackers.get_mut(&object) else {
            return false;
        };
        tracker.apply(update);
        true
    }

    /// Decodes a frame and applies its updates to the source's tracker:
    /// the frame's update count if the source is registered, else 0, and
    /// the codec's error for bytes that are no frame.
    pub fn apply_frame_bytes(&mut self, bytes: &[u8]) -> Result<usize, DecodeError> {
        let frame = Frame::decode(bytes)?;
        let object = ObjectId(frame.source);
        Ok(frame.updates.iter().filter(|u| self.apply_update(object, u)).count())
    }

    /// Registered objects.
    pub fn object_count(&self) -> usize {
        self.trackers.len()
    }

    /// Updates the trackers accepted, summed over the registered objects.
    pub fn total_updates(&self) -> u64 {
        self.trackers.values().map(ServerTracker::updates_applied).sum()
    }

    /// The object's predicted position at `t`, aged `(t − last report's
    /// timestamp).max(0)`; `None` if it is unknown or has not reported.
    pub fn position_of(&self, object: ObjectId, t: f64) -> Option<PositionReport> {
        report(object, self.trackers.get(&object)?, t)
    }

    /// Every object whose predicted position at `t` lies in `area`, in id
    /// order; empty for a non-finite `t`.
    pub fn objects_in_rect(&self, area: &Aabb, t: f64) -> Vec<PositionReport> {
        if !t.is_finite() {
            return Vec::new();
        }
        self.reports(t).filter(|r| area.contains(&r.position)).collect()
    }

    /// The `k` objects whose predicted positions at `t` are nearest to
    /// `from`, by (distance, id); empty for `k = 0` or a non-finite `from`
    /// or `t`.
    pub fn nearest_objects(&self, from: &Point, t: f64, k: usize) -> Vec<PositionReport> {
        if k == 0 || !from.is_finite() || !t.is_finite() {
            return Vec::new();
        }
        let mut near: Vec<(f64, PositionReport)> =
            self.reports(t).map(|r| (from.distance(&r.position), r)).collect();
        near.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.object.cmp(&b.1.object)));
        near.into_iter().take(k).map(|(_, r)| r).collect()
    }

    /// Every reporting object's answer at `t`, in id order.
    fn reports(&self, t: f64) -> impl Iterator<Item = PositionReport> + '_ {
        self.trackers.iter().filter_map(move |(&object, tracker)| report(object, tracker, t))
    }
}

fn report(object: ObjectId, tracker: &ServerTracker, t: f64) -> Option<PositionReport> {
    let position = tracker.position_at(t)?;
    let age = tracker.last_state().map_or(0.0, |s| (t - s.timestamp).max(0.0));
    Some(PositionReport { object, position, information_age: age })
}

/// A position answer, in process or off the wire.
pub trait Answer {
    /// Id, x, y and age as bits.
    fn bits(&self) -> (u64, u64, u64, u64);
}

impl Answer for PositionReport {
    fn bits(&self) -> (u64, u64, u64, u64) {
        let (x, y) = (self.position.x.to_bits(), self.position.y.to_bits());
        (self.object.0, x, y, self.information_age.to_bits())
    }
}

impl Answer for PositionRecord {
    fn bits(&self) -> (u64, u64, u64, u64) {
        let (x, y) = (self.position.x.to_bits(), self.position.y.to_bits());
        (self.object, x, y, self.information_age.to_bits())
    }
}

/// The answers' id, x, y and age bits, for `assert_eq!`: `==` on the
/// floats would let `-0.0` match `0.0`.
pub fn bits<A: Answer>(answers: &[A]) -> Vec<(u64, u64, u64, u64)> {
    answers.iter().map(Answer::bits).collect()
}

/// Asserts that `service` answers like `model` at `t`, bit for bit: the
/// rect query over each of `areas`, the nearest query from each of `points`
/// for each of `ks` (both through one reused [`QueryScratch`]),
/// `position_of` for every registered object, and the object and update
/// counts. `what` leads every failure message.
pub fn assert_answers(
    service: &LocationService,
    model: &Model,
    t: f64,
    areas: &[Aabb],
    points: &[Point],
    ks: &[usize],
    what: &str,
) {
    let (mut scratch, mut got) = (QueryScratch::default(), Vec::new());
    for area in areas {
        service.objects_in_rect_into(area, t, &mut scratch, &mut got);
        assert_eq!(bits(&got), bits(&model.objects_in_rect(area, t)), "{what}: t {t}, {area:?}");
    }
    for from in points {
        for &k in ks {
            service.nearest_objects_into(from, t, k, &mut scratch, &mut got);
            let expect = model.nearest_objects(from, t, k);
            assert_eq!(bits(&got), bits(&expect), "{what}: t {t}, nearest {from:?}, k {k}");
        }
    }
    for &object in model.trackers.keys() {
        let (got, expect) = (service.position_of(object, t), model.position_of(object, t));
        assert_eq!(bits(got.as_slice()), bits(expect.as_slice()), "{what}: t {t}, {object:?}");
    }
    assert_eq!(service.object_count(), model.object_count(), "{what}: objects");
    assert_eq!(service.total_updates(), model.total_updates(), "{what}: total updates");
}

/// One step of a differential run: a mutation both sides apply, or a query
/// both answer.
#[derive(Clone)]
pub enum Op {
    /// `register(object, predictor)`.
    Register(ObjectId, Arc<dyn Predictor>),
    /// `deregister(object)`.
    Deregister(ObjectId),
    /// `apply_update(object, update)`.
    Update(ObjectId, Update),
    /// `apply_frame_bytes(bytes)`: an encoded frame, or a damaged one.
    FrameBytes(Vec<u8>),
    /// `objects_in_rect(area, t)`.
    Rect(Aabb, f64),
    /// `nearest_objects(from, t, k)`.
    Nearest(Point, f64, usize),
    /// `position_of(object, t)`.
    PositionOf(ObjectId, f64),
}

/// Applies `ops` in order to `service` and `model` and asserts that every
/// step returns the same on both sides; a query step is an
/// [`assert_answers`] at its instant.
pub fn run(service: &LocationService, model: &mut Model, ops: &[Op]) {
    for (i, op) in ops.iter().enumerate() {
        let what = || format!("op {i}");
        match op {
            Op::Register(object, predictor) => {
                service.register(*object, Arc::clone(predictor));
                model.register(*object, Arc::clone(predictor));
            }
            Op::Deregister(object) => {
                let removed = service.deregister(*object);
                assert_eq!(removed, model.deregister(*object), "op {i}: deregister {object:?}");
            }
            Op::Update(object, update) => {
                let known = service.apply_update(*object, update);
                assert_eq!(known, model.apply_update(*object, update), "op {i}: {update:?}");
            }
            Op::FrameBytes(bytes) => {
                let applied = service.apply_frame_bytes(bytes);
                assert_eq!(applied, model.apply_frame_bytes(bytes), "op {i}: frame {bytes:?}");
            }
            Op::Rect(area, t) => assert_answers(service, model, *t, &[*area], &[], &[], &what()),
            Op::Nearest(from, t, k) => {
                assert_answers(service, model, *t, &[], &[*from], &[*k], &what())
            }
            Op::PositionOf(object, t) => {
                let (got, expect) =
                    (service.position_of(*object, *t), model.position_of(*object, *t));
                assert_eq!(bits(got.as_slice()), bits(expect.as_slice()), "op {i}: {object:?}");
            }
        }
    }
}

/// Static, linear and arc predictors in turn, by `index`.
pub fn predictor_for(index: usize) -> Arc<dyn Predictor> {
    match index % 3 {
        0 => Arc::new(StaticPredictor),
        1 => Arc::new(LinearPredictor),
        _ => Arc::new(ArcPredictor),
    }
}

/// One seeded case: a random shard count, cell size and horizon, and ops
/// over 2 to 19 objects with mixed predictors. Up to 119 reports (a third
/// of them batched into frames of up to three updates, some frames cut
/// short), a deterministic subset deregistered, then up to 23 rounds of a
/// rect, a nearest and a `position_of` query at instants up to 600 s (far
/// past most validity horizons), a quarter of the rounds ingesting another
/// report. Sequence numbers rise per object in draw order; timestamps are
/// random, so the trackers drop some reports as stale.
pub fn seeded_ops(rng: &mut SplitMix64) -> (ServiceConfig, Vec<Op>) {
    let objects = 2 + rng.below(18);
    let config = ServiceConfig {
        shards: 1 + rng.below(8) as usize,
        cell_size_m: rng.range(50.0, 600.0),
        horizon_s: rng.range(2.0, 40.0),
        slack_m: 25.0,
    };
    let mut ops: Vec<Op> =
        (0..objects).map(|i| Op::Register(ObjectId(i), predictor_for(i as usize))).collect();
    let mut sequences = vec![0u64; objects as usize];
    let mut report = |rng: &mut SplitMix64| {
        let object = rng.below(objects);
        let sequence = &mut sequences[object as usize];
        if rng.below(3) != 0 {
            return Op::Update(ObjectId(object), seeded_update(rng, sequence));
        }
        let mut frame = Frame::new(object);
        for _ in 0..1 + rng.below(3) {
            frame.push(seeded_update(rng, sequence));
        }
        let mut bytes = frame.encode().expect("seeded updates encode");
        if rng.below(8) == 0 {
            bytes.pop();
        }
        Op::FrameBytes(bytes)
    };
    for _ in 0..1 + rng.below(119) {
        ops.push(report(rng));
    }
    for i in (0..objects).step_by(2 + rng.below(5) as usize) {
        ops.push(Op::Deregister(ObjectId(i)));
    }
    for _ in 0..1 + rng.below(23) {
        let from = Point::new(rng.range(-2_500.0, 2_500.0), rng.range(-2_500.0, 2_500.0));
        let (extent, t) = (rng.range(10.0, 1_500.0), rng.range(0.0, 600.0));
        let k = (extent as usize % (objects as usize + 2)).max(1);
        ops.push(Op::Rect(Aabb::around(from, extent), t));
        ops.push(Op::Nearest(from, t, k));
        ops.push(Op::PositionOf(ObjectId(rng.below(objects)), t));
        if rng.below(4) == 0 {
            ops.push(report(rng));
        }
    }
    (config, ops)
}

/// A report anywhere within 2 km of the origin at up to 40 m/s, turning,
/// stamped between 0 and 200 s, numbered `sequence` (then incremented).
fn seeded_update(rng: &mut SplitMix64, sequence: &mut u64) -> Update {
    let position = Point::new(rng.range(-2_000.0, 2_000.0), rng.range(-2_000.0, 2_000.0));
    let (speed, heading) = (rng.range(0.0, 40.0), rng.range(0.0, std::f64::consts::TAU));
    let mut state = ObjectState::basic(position, speed, heading, rng.range(0.0, 200.0));
    state.turn_rate = rng.range(-0.1, 0.1);
    *sequence += 1;
    Update { sequence: *sequence - 1, state, kind: UpdateKind::DeviationBound }
}
