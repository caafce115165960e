//! The index-refactor contract: the sharded, spatially-indexed service must
//! return **exactly** the same query answers as the seed implementation — a
//! full scan over every tracker under one global lock. That full scan is
//! `mbdr_model::Model`, fed the same registrations and updates; the tests
//! drive both through dense clusters, hostile rects, times and speeds, and
//! seeded registrations, updates, frames, deregistrations and queries
//! (including query times far past the index staleness horizon, which
//! exercise the lazy re-grow path).

use mbdr_core::{LinearPredictor, ObjectState, Predictor, StaticPredictor, Update, UpdateKind};
use mbdr_geo::rng::{for_each_seed, SplitMix64};
use mbdr_geo::{Aabb, Point};
use mbdr_locserver::{LocationService, ObjectId, ServiceConfig};
use mbdr_model::{assert_answers, predictor_for, run, seeded_ops, Model, Op};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

/// Thousands of objects in the grid cell `[-cell, 0)²` on a uniform
/// background with an empty block at `[2 km, 3 km)²`, half parked, half
/// moving, linear and static predictors mixed; every mover re-reports once
/// at `t = 5`. Queries on cell corners, negative-coordinate boundaries,
/// inside the cluster and in empty cells, at the last report instant and
/// past every validity horizon, for `k` around the first ring's switch
/// points, must equal the full scan bit for bit.
fn dense_cluster_matches_the_full_scan(seed: u64, config: ServiceConfig) {
    const CLUSTER: usize = 2_500;
    const BACKGROUND: usize = 1_000;
    let cell = config.cell_size_m;
    let mut rng = SplitMix64::new(seed);
    let service = LocationService::with_config(config);
    let mut model = Model::default();
    let mut movers = Vec::new();
    for i in 0..CLUSTER + BACKGROUND {
        let id = ObjectId(i as u64);
        let predictor: Arc<dyn Predictor> =
            if i % 2 == 0 { Arc::new(LinearPredictor) } else { Arc::new(StaticPredictor) };
        let position = if i < CLUSTER {
            Point::new(-cell * rng.next_f64(), -cell * rng.next_f64())
        } else {
            loop {
                let p = Point::new(
                    10_000.0 * rng.next_f64() - 5_000.0,
                    10_000.0 * rng.next_f64() - 5_000.0,
                );
                if !(2_000.0..3_000.0).contains(&p.x) || !(2_000.0..3_000.0).contains(&p.y) {
                    break p;
                }
            }
        };
        let speed = if rng.next_f64() < 0.5 { 0.0 } else { 1.0 + 14.0 * rng.next_f64() };
        let heading = rng.next_f64() * std::f64::consts::TAU;
        let update = Update {
            sequence: 0,
            state: ObjectState::basic(position, speed, heading, 0.0),
            kind: UpdateKind::Initial,
        };
        run(&service, &mut model, &[Op::Register(id, predictor), Op::Update(id, update)]);
        if speed > 0.0 {
            movers.push((id, position, speed, heading));
        }
    }
    for &(id, position, speed, heading) in &movers {
        let moved = Point::new(
            position.x + 5.0 * speed * heading.sin(),
            position.y + 5.0 * speed * heading.cos(),
        );
        let update = Update {
            sequence: 1,
            state: ObjectState::basic(moved, speed, heading, 5.0),
            kind: UpdateKind::DeviationBound,
        };
        run(&service, &mut model, &[Op::Update(id, update)]);
    }

    let points = [
        Point::new(0.0, 0.0),
        Point::new(-cell, -cell),
        Point::new(-cell, 0.0),
        Point::new(0.0, -cell),
        Point::new(-2.0 * cell, -cell),
        Point::new(cell, cell),
        Point::new(-cell, -cell / 2.0),
        Point::new(-cell / 2.0, -cell),
        Point::new(-0.0, -cell / 2.0),
        Point::new(-1e-9, -1e-9),
        Point::new(-cell / 2.0, -cell / 2.0),
        Point::new(-3.7, -cell + 1.8),
        Point::new(2_500.0, 2_500.0),
        Point::new(2_000.0 + cell / 2.0, 3_000.0 - cell / 2.0),
        Point::new(30_000.0, -30_000.0),
    ];
    let objects = CLUSTER + BACKGROUND;
    let mut crowded = 0;
    for t in [5.0, 5.0 + config.horizon_s + 0.5, 500.0] {
        for from in &points {
            // k = 1 first: it is the query that lazily re-grows the index
            // entries at this `t`, so the occupancy read next is the one
            // every later query sizes its first ring from.
            assert_answers(&service, &model, t, &[], &[*from], &[1], &format!("{config:?}"));
            let occupancy = service.occupancy_at(from);
            crowded += usize::from(occupancy >= CLUSTER / 2);
            let k_max = usize::from(u16::MAX);
            let ks =
                [8, 64, occupancy.saturating_sub(1), occupancy, occupancy + 1, objects + 1, k_max];
            let what = format!("occupancy {occupancy}, {config:?}");
            assert_answers(&service, &model, t, &[], &[*from], &ks, &what);
        }
    }
    assert!(crowded > 0, "some query starts with a ring smaller than a cell");
}

#[test]
fn dense_cluster_nearest_matches_the_full_scan_reference() {
    // Point boxes (no slack) and the default's wide ones; 16 shards split
    // the cluster, one shard holds it whole.
    let tight = ServiceConfig { shards: 16, cell_size_m: 250.0, horizon_s: 20.0, slack_m: 0.0 };
    dense_cluster_matches_the_full_scan(0x5EED_0001, tight);
    dense_cluster_matches_the_full_scan(0x5EED_0002, ServiceConfig::with_shards(1));
}

/// The answer ids of one rect search: where in the id space the objects'
/// ids lie decides which radix digits the sort runs. Digit `d` is bits
/// `11d` to `11d + 10`.
#[derive(Debug, Clone, Copy)]
enum Ids {
    /// Uniform over all 64 bits: every digit differs.
    Random,
    /// `0..n`: the two low digits differ.
    Sequential,
    /// Only bits 51 and up differ: the low digits are skipped, digits 4
    /// and 5 differ.
    HighBits,
    /// Pairs that differ only in bit 63, the pairs a counter apart: the
    /// middle digits are skipped, digits 0, 1 and 5 differ.
    Bit63Pairs,
    /// Counting down from `u64::MAX` in strides of 2³² + 1: the counter
    /// below and above bit 32, digits 0 to 3 differ.
    NearMax,
}

impl Ids {
    /// The digits in which the first 2 100 ids differ, bit `d` for digit `d`.
    fn differing_digits(self) -> u32 {
        match self {
            Ids::Random => 0b11_1111,
            Ids::Sequential => 0b00_0011,
            Ids::HighBits => 0b11_0000,
            Ids::Bit63Pairs => 0b10_0011,
            Ids::NearMax => 0b00_1111,
        }
    }

    fn id(self, i: u64, rng: &mut SplitMix64) -> u64 {
        const BASE: u64 = 0x0123_4567_89AB_CDEF;
        match self {
            Ids::Random => rng.next_u64(),
            Ids::Sequential => i,
            Ids::HighBits => BASE ^ (i << 51),
            Ids::Bit63Pairs => (BASE + (i >> 1)) ^ ((i & 1) << 63),
            Ids::NearMax => u64::MAX - i * 0x1_0000_0001,
        }
    }
}

/// `LINE` parked objects one metre apart on a row far from everything else,
/// so a rect over the first `n` of them answers exactly `n`, plus `MOVERS`
/// objects scattered over ±5 km with linear, arc and static predictors, all
/// reporting at `t ≤ 10`. Rects: every prefix of the row up to 600 objects
/// (at the report instant; a sample of them later) and thousands, random
/// rects from 1 m to 16 km wide, and hostile ones (inverted, zero-area,
/// NaN-cornered, ±1e300, infinite). Times: the last report instant, past
/// every `valid_until` (the index re-grows), far past it (entries leave the
/// grid for the wide list), and NaN/±∞ between them, which must answer
/// empty and disturb nothing. Every answer must equal the full scan in ids,
/// position bits and age bits.
fn rect_search_matches_the_full_scan(seed: u64, ids: Ids, config: ServiceConfig) {
    const LINE: u64 = 2_100;
    const MOVERS: u64 = 600;
    const SWEEP: u64 = 600;
    const ROW_Y: f64 = 50_000.0;
    let mut rng = SplitMix64::new(seed);
    let service = LocationService::with_config(config);
    let mut model = Model::default();
    let mut row = Vec::new();
    for i in 0..LINE + MOVERS {
        let id = ObjectId(ids.id(i, &mut rng));
        let (predictor, state) = if i < LINE {
            row.push(id);
            let state = ObjectState::basic(Point::new(i as f64, ROW_Y), 0.0, 0.0, 0.0);
            (predictor_for(0), state)
        } else {
            let position = Point::new(
                10_000.0 * rng.next_f64() - 5_000.0,
                10_000.0 * rng.next_f64() - 5_000.0,
            );
            let speed = if i % 4 == 0 { 0.0 } else { 1.0 + 29.0 * rng.next_f64() };
            let mut state = ObjectState::basic(
                position,
                speed,
                rng.next_f64() * std::f64::consts::TAU,
                (10.0 * rng.next_f64()).floor(),
            );
            state.turn_rate = 0.02 * rng.next_f64() - 0.01;
            (predictor_for(i as usize), state)
        };
        let update = Update { sequence: 0, state, kind: UpdateKind::Initial };
        run(&service, &mut model, &[Op::Register(id, predictor), Op::Update(id, update)]);
    }
    assert_eq!(model.object_count() as u64, LINE + MOVERS, "{ids:?}: id clash");

    let prefix = |n: u64| {
        Aabb::new(Point::new(-0.5, ROW_Y - 0.25), Point::new(n as f64 - 0.5, ROW_Y + 0.25))
    };
    let mut areas: Vec<Aabb> = [1_000, 2_047, 2_048, LINE].into_iter().map(prefix).collect();
    for _ in 0..40 {
        let center =
            Point::new(14_000.0 * rng.next_f64() - 7_000.0, 14_000.0 * rng.next_f64() - 7_000.0);
        areas.push(Aabb::around(center, 0.5 + 8_000.0 * rng.next_f64().powi(3)));
    }
    let (nan, inf, big) = (f64::NAN, f64::INFINITY, 1e300);
    areas.extend([
        Aabb { min: Point::new(4_000.0, 4_000.0), max: Point::new(-4_000.0, -4_000.0) },
        Aabb { min: Point::new(-4_000.0, 4_000.0), max: Point::new(4_000.0, -4_000.0) },
        Aabb { min: Point::new(7.0, ROW_Y), max: Point::new(7.0, ROW_Y) },
        Aabb { min: Point::new(nan, -4_000.0), max: Point::new(4_000.0, 4_000.0) },
        Aabb { min: Point::new(-4_000.0, -4_000.0), max: Point::new(4_000.0, nan) },
        Aabb { min: Point::new(nan, nan), max: Point::new(nan, nan) },
        Aabb { min: Point::new(-big, -big), max: Point::new(big, big) },
        Aabb { min: Point::new(-big, -big), max: Point::new(0.0, 0.0) },
        Aabb { min: Point::new(big, big), max: Point::new(big, big) },
        Aabb { min: Point::new(-inf, -inf), max: Point::new(inf, inf) },
    ]);

    for t in [10.0, nan, 10.0 + config.horizon_s + 1.0, inf, 1_000.0, -inf, 1e6] {
        let sweep = (0..=SWEEP).filter(|n| t == 10.0 || n % 53 <= 1).map(prefix);
        let areas: Vec<Aabb> = sweep.chain(areas.iter().copied()).collect();
        assert_answers(&service, &model, t, &areas, &[], &[], &format!("{ids:?}"));
    }
    for n in 0..=SWEEP {
        let answer = service.objects_in_rect(&prefix(n), 10.0);
        assert_eq!(answer.len() as u64, n, "{ids:?}: the row prefix answers its length");
    }
    // The row's ids really are spread the way the family says.
    let differing = row.iter().fold(0, |bits, id| bits | (id.0 ^ row[0].0));
    let digits = (0..6).filter(|d| (differing >> (11 * d)) & 0x7FF != 0).fold(0, |m, d| m | 1 << d);
    assert_eq!(digits, ids.differing_digits(), "{ids:?}: the digits the ids differ in");
}

#[test]
fn seeded_rect_search_matches_the_full_scan_reference() {
    let tight = ServiceConfig { shards: 16, cell_size_m: 250.0, horizon_s: 20.0, slack_m: 0.0 };
    for (i, ids) in [Ids::Random, Ids::Sequential, Ids::HighBits, Ids::Bit63Pairs, Ids::NearMax]
        .into_iter()
        .enumerate()
    {
        rect_search_matches_the_full_scan(0x5EED_0100 + i as u64, ids, tight);
    }
    rect_search_matches_the_full_scan(0x5EED_0200, Ids::Random, ServiceConfig::with_shards(1));
}

/// Rects of each of `extents` around the origin and of 1 m around every
/// `steps[0]`-th object's predicted position; nearest 1, 8 and 500 from the
/// origin and from every `steps[1]`-th object's position.
fn assert_far_answers(
    service: &LocationService,
    model: &Model,
    t: f64,
    extents: &[f64],
    steps: [usize; 2],
    what: &str,
) {
    let full = model.objects_in_rect(&Aabb::around(Point::ORIGIN, f64::MAX), t);
    let mut areas: Vec<Aabb> = extents.iter().map(|&e| Aabb::around(Point::ORIGIN, e)).collect();
    areas.extend(full.iter().step_by(steps[0]).map(|r| Aabb::around(r.position, 1.0)));
    let mut points = vec![Point::ORIGIN];
    points.extend(full.iter().step_by(steps[1]).map(|r| r.position));
    assert_answers(service, model, t, &areas, &points, &[1, 8, 500], what);
}

#[test]
fn silent_movers_far_in_the_future_answer_in_time_and_match_the_full_scan() {
    // Before the wide list, one query at t = 10⁵ s re-grew every silent
    // mover into millions of cells under the shard write locks.
    let mut rng = SplitMix64::new(0x5EED_0300);
    let service = LocationService::with_config(ServiceConfig::with_shards(4));
    let mut model = Model::default();
    for i in 0..200u64 {
        let id = ObjectId(rng.next_u64());
        let position =
            Point::new(4_000.0 * rng.next_f64() - 2_000.0, 4_000.0 * rng.next_f64() - 2_000.0);
        let speed = if i % 5 == 0 { 0.0 } else { 1.0 + 29.0 * rng.next_f64() };
        let state =
            ObjectState::basic(position, speed, rng.next_f64() * std::f64::consts::TAU, 0.0);
        let update = Update { sequence: 0, state, kind: UpdateKind::Initial };
        let register = Op::Register(id, predictor_for(i as usize));
        run(&service, &mut model, &[register, Op::Update(id, update)]);
    }
    let (service, model) = (Arc::new(service), Arc::new(model));
    for t in [1e5, 1e9] {
        let (tx, rx) = mpsc::channel();
        let (service, model) = (Arc::clone(&service), Arc::clone(&model));
        std::thread::spawn(move || {
            assert_far_answers(&service, &model, t, &[3_000.0, 1e300], [37, 53], "silent movers");
            tx.send(()).expect("receiver waits");
        });
        // Disconnected: the worker's assertion failed (its message is above).
        rx.recv_timeout(Duration::from_secs(3))
            .unwrap_or_else(|e| panic!("queries at t = {t} must answer in time: {e}"));
    }
}

#[test]
fn hostile_speeds_apply_in_time_and_match_the_full_scan() {
    // Before an accepted update could go on the wide list, one update at
    // 10⁴ m/s registered its box in about 5 million cells (seconds under the
    // shard write lock), and 10⁶ m/s or f32::MAX never finished.
    const HOSTILE: [f64; 3] = [1e4, 1e6, f32::MAX as f64];
    let mut rng = SplitMix64::new(0x5EED_0400);
    let service = Arc::new(LocationService::with_config(ServiceConfig::with_shards(4)));
    let mut model = Model::default();
    let mut updates = Vec::new();
    for i in 0..120u64 {
        let id = ObjectId(rng.next_u64());
        // Hostile objects are linear movers: 20 per speed, of which some
        // report it first, some after a normal report, and some slow down
        // again afterwards (off the wide list and back into the grid).
        let hostile = HOSTILE.get(i as usize % 6).copied();
        let predictor: Arc<dyn Predictor> =
            if hostile.is_some() { Arc::new(LinearPredictor) } else { predictor_for(i as usize) };
        run(&service, &mut model, &[Op::Register(id, predictor)]);
        let normal = if i % 5 == 0 { 0.0 } else { 1.0 + 29.0 * rng.next_f64() };
        let mut report = |sequence: u64, speed: f64, t: f64| {
            let position =
                Point::new(4_000.0 * rng.next_f64() - 2_000.0, 4_000.0 * rng.next_f64() - 2_000.0);
            let heading = rng.next_f64() * std::f64::consts::TAU;
            let state = ObjectState::basic(position, speed, heading, t);
            updates.push((id, Update { sequence, state, kind: UpdateKind::DeviationBound }));
        };
        match (hostile, i / 6 % 4) {
            (None, _) => report(0, normal, 0.0),
            (Some(fast), 0) => report(0, fast, 0.0),
            (Some(fast), 1) => {
                report(0, normal, 0.0);
                report(1, fast, 1.0);
            }
            (Some(fast), _) => {
                report(0, fast, 0.0);
                report(1, normal, 1.0);
                report(2, fast, 2.0);
                report(3, normal, 3.0);
            }
        }
    }
    let (tx, rx) = mpsc::channel();
    let worker = Arc::clone(&service);
    let applied = updates.clone();
    std::thread::spawn(move || {
        for (id, update) in applied {
            tx.send(worker.apply_update(id, &update)).expect("receiver waits");
        }
    });
    for (id, update) in &updates {
        let accepted = rx
            .recv_timeout(Duration::from_secs(3))
            .unwrap_or_else(|_| panic!("an update at {} m/s must not stall", update.state.speed));
        assert_eq!(accepted, model.apply_update(*id, update));
    }
    for t in [3.0, 3.5, 60.0] {
        let extents = [3_000.0, 1e300, f64::MAX];
        assert_far_answers(&service, &model, t, &extents, [7, 11], "hostile speeds");
    }
}

/// Random registrations, updates, frames, deregistrations and queries over
/// random shard counts, cell sizes and horizons, at query instants up to
/// 600 s (far past most validity horizons): every answer equals the model's
/// ([`mbdr_model::seeded_ops`]).
#[test]
fn sharded_service_matches_the_full_scan_reference() {
    for_each_seed(32, |rng| {
        let (config, ops) = seeded_ops(rng);
        run(&LocationService::with_config(config), &mut Model::default(), &ops);
    });
}
