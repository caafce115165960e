//! The index-refactor contract: the sharded, spatially-indexed service must
//! return **exactly** the same query answers as the seed implementation — a
//! full scan over every tracker under one global lock. The reference below is
//! that full scan, re-implemented verbatim over a mirror of the same
//! `ServerTracker`s; the property drives both through random registrations,
//! updates, deregistrations and queries (including query times far past the
//! index staleness horizon, which exercise the lazy re-grow path).

use mbdr_core::{
    ArcPredictor, LinearPredictor, ObjectState, Predictor, ServerTracker, StaticPredictor, Update,
    UpdateKind,
};
use mbdr_geo::{Aabb, Point};
use mbdr_locserver::{LocationService, ObjectId, PositionReport, QueryScratch, ServiceConfig};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

fn predictor_for(index: usize) -> Arc<dyn Predictor> {
    match index % 3 {
        0 => Arc::new(StaticPredictor),
        1 => Arc::new(LinearPredictor),
        _ => Arc::new(ArcPredictor),
    }
}

/// The seed implementation's range query, verbatim, over the mirror store.
fn reference_in_rect(
    mirror: &BTreeMap<ObjectId, ServerTracker>,
    area: &Aabb,
    t: f64,
) -> Vec<PositionReport> {
    let mut out: Vec<PositionReport> = mirror
        .iter()
        .filter_map(|(&id, tracker)| {
            let position = tracker.position_at(t)?;
            if area.contains(&position) {
                let age = tracker.last_state().map(|s| (t - s.timestamp).max(0.0)).unwrap_or(0.0);
                Some(PositionReport { object: id, position, information_age: age })
            } else {
                None
            }
        })
        .collect();
    out.sort_by_key(|r| r.object);
    out
}

/// The seed implementation's k-nearest query, verbatim, over the mirror.
fn reference_nearest(
    mirror: &BTreeMap<ObjectId, ServerTracker>,
    from: &Point,
    t: f64,
    k: usize,
) -> Vec<PositionReport> {
    let mut out: Vec<(f64, PositionReport)> = mirror
        .iter()
        .filter_map(|(&id, tracker)| {
            let position = tracker.position_at(t)?;
            let age = tracker.last_state().map(|s| (t - s.timestamp).max(0.0)).unwrap_or(0.0);
            Some((
                from.distance(&position),
                PositionReport { object: id, position, information_age: age },
            ))
        })
        .collect();
    out.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite").then(a.1.object.cmp(&b.1.object)));
    out.into_iter().take(k).map(|(_, r)| r).collect()
}

/// SplitMix64 — the seeded, dependency-free stream of the dense-cluster test.
struct SplitMix(u64);

impl SplitMix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Position, age and id bits: `PositionReport`'s `==` would let `-0.0`
/// match `0.0`.
fn bits(reports: &[PositionReport]) -> Vec<(u64, u64, u64, u64)> {
    reports
        .iter()
        .map(|r| {
            (
                r.object.0,
                r.position.x.to_bits(),
                r.position.y.to_bits(),
                r.information_age.to_bits(),
            )
        })
        .collect()
}

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
    let mut rng = SplitMix(seed);
    let service = LocationService::with_config(config);
    let mut mirror: BTreeMap<ObjectId, ServerTracker> = BTreeMap::new();
    let mut movers = Vec::new();
    for i in 0..CLUSTER + BACKGROUND {
        let id = ObjectId(i as u64);
        let predictor: Arc<dyn Predictor> =
            if i % 2 == 0 { Arc::new(LinearPredictor) } else { Arc::new(StaticPredictor) };
        service.register(id, Arc::clone(&predictor));
        mirror.insert(id, ServerTracker::new(predictor));
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
        assert!(service.apply_update(id, &update));
        mirror.get_mut(&id).unwrap().apply(&update);
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
        assert!(service.apply_update(id, &update));
        mirror.get_mut(&id).unwrap().apply(&update);
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
            let full = reference_nearest(&mirror, from, t, usize::MAX);
            let expect = |k: usize| &full[..k.min(full.len())];
            // k = 1 first: it is the query that lazily re-grows the index
            // entries at this `t`, so the occupancy read next is the one
            // every later query sizes its first ring from.
            let got = service.nearest_objects(from, t, 1);
            assert_eq!(bits(&got), bits(expect(1)), "{from:?}, t {t}, k 1");
            let occupancy = service.occupancy_at(from);
            crowded += usize::from(occupancy >= CLUSTER / 2);
            for k in [
                8,
                64,
                occupancy.saturating_sub(1),
                occupancy,
                occupancy + 1,
                objects + 1,
                u16::MAX as usize,
            ] {
                let got = service.nearest_objects(from, t, k);
                assert_eq!(
                    bits(&got),
                    bits(expect(k)),
                    "{from:?}, t {t}, k {k}, occupancy {occupancy}, {config:?}"
                );
            }
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
/// ids lie decides which radix digits the sort runs.
#[derive(Debug, Clone, Copy)]
enum Ids {
    /// Uniform over all 64 bits: every digit differs.
    Random,
    /// `0..n`: the two low digits differ.
    Sequential,
    /// Only bits 51 and up differ: the low digits are skipped.
    HighBits,
    /// Pairs that differ only in bit 63, the pairs a counter apart: the
    /// middle digits are skipped.
    Bit63Pairs,
    /// Counting down from `u64::MAX` in strides of 2³² + 1.
    NearMax,
}

impl Ids {
    fn id(self, i: u64, rng: &mut SplitMix) -> u64 {
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
    let mut rng = SplitMix(seed);
    let service = LocationService::with_config(config);
    let mut mirror: BTreeMap<ObjectId, ServerTracker> = BTreeMap::new();
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
        service.register(id, Arc::clone(&predictor));
        assert!(mirror.insert(id, ServerTracker::new(predictor)).is_none(), "{ids:?}: id clash");
        let update = Update { sequence: 0, state, kind: UpdateKind::Initial };
        assert!(service.apply_update(id, &update));
        mirror.get_mut(&id).unwrap().apply(&update);
    }

    let prefix = |n: u64| {
        Aabb::new(Point::new(-0.5, ROW_Y - 0.25), Point::new(n as f64 - 0.5, ROW_Y + 0.25))
    };
    let mut areas: Vec<Aabb> = [1_000, 2_047, 2_048, LINE].into_iter().map(prefix).collect();
    for _ in 0..40 {
        let center =
            Point::new(14_000.0 * rng.next_f64() - 7_000.0, 14_000.0 * rng.next_f64() - 7_000.0);
        areas.push(Aabb::around(center, 0.5 + 8_000.0 * rng.next_f64().powi(3)));
    }
    let (nan, big) = (f64::NAN, 1e300);
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
        Aabb {
            min: Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
            max: Point::new(f64::INFINITY, f64::INFINITY),
        },
    ]);

    let everything = Aabb {
        min: Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
        max: Point::new(f64::INFINITY, f64::INFINITY),
    };
    let times = [
        10.0,
        f64::NAN,
        10.0 + config.horizon_s + 1.0,
        f64::INFINITY,
        1_000.0,
        f64::NEG_INFINITY,
        1e6,
    ];
    let mut scratch = QueryScratch::default();
    let mut got = Vec::new();
    for t in times {
        let sweep = (0..=SWEEP).filter(|n| t == 10.0 || n % 53 <= 1).map(prefix);
        let areas: Vec<Aabb> = sweep.chain(areas.iter().copied()).collect();
        if !t.is_finite() {
            for area in &areas {
                service.objects_in_rect_into(area, t, &mut scratch, &mut got);
                assert!(got.is_empty(), "{ids:?}: t {t} answers empty");
            }
            continue;
        }
        // The full scan filters every object by the area and sorts by id,
        // so one scan per `t` filtered per area is the same reference.
        let full = reference_in_rect(&mirror, &everything, t);
        assert_eq!(full.len() as u64, LINE + MOVERS);
        for (qi, area) in areas.iter().enumerate() {
            let expect: Vec<PositionReport> =
                full.iter().filter(|r| area.contains(&r.position)).copied().collect();
            service.objects_in_rect_into(area, t, &mut scratch, &mut got);
            assert_eq!(bits(&got), bits(&expect), "{ids:?}, t {t}, rect {qi} {area:?}");
            if t == 10.0 && qi as u64 <= SWEEP {
                assert_eq!(got.len(), qi, "{ids:?}: the row prefix answers its length");
            }
        }
    }
    // The row's ids really are spread the way the family says.
    row.sort_unstable();
    assert_eq!(row.len() as u64, LINE);
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

#[test]
fn silent_movers_far_in_the_future_answer_in_time_and_match_the_full_scan() {
    // Before the wide list, one query at t = 10⁵ s re-grew every silent
    // mover into millions of cells under the shard write locks.
    let mut rng = SplitMix(0x5EED_0300);
    let service = LocationService::with_config(ServiceConfig::with_shards(4));
    let mut mirror: BTreeMap<ObjectId, ServerTracker> = BTreeMap::new();
    for i in 0..200u64 {
        let id = ObjectId(rng.next_u64());
        let predictor = predictor_for(i as usize);
        service.register(id, Arc::clone(&predictor));
        mirror.insert(id, ServerTracker::new(predictor));
        let position =
            Point::new(4_000.0 * rng.next_f64() - 2_000.0, 4_000.0 * rng.next_f64() - 2_000.0);
        let speed = if i % 5 == 0 { 0.0 } else { 1.0 + 29.0 * rng.next_f64() };
        let state =
            ObjectState::basic(position, speed, rng.next_f64() * std::f64::consts::TAU, 0.0);
        let update = Update { sequence: 0, state, kind: UpdateKind::Initial };
        assert!(service.apply_update(id, &update));
        mirror.get_mut(&id).unwrap().apply(&update);
    }
    let service = Arc::new(service);
    for t in [1e5, 1e9] {
        // Rects around the origin, the whole plane, and each of a few
        // movers' predicted positions; nearest from the origin and from far
        // out along the movers' paths.
        let full = reference_in_rect(&mirror, &Aabb::around(Point::ORIGIN, f64::MAX), t);
        let mut areas =
            vec![Aabb::around(Point::ORIGIN, 3_000.0), Aabb::around(Point::ORIGIN, 1e300)];
        areas.extend(full.iter().step_by(37).map(|r| Aabb::around(r.position, 1.0)));
        let points: Vec<Point> = [Point::ORIGIN]
            .into_iter()
            .chain(full.iter().step_by(53).map(|r| r.position))
            .collect();
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = Arc::clone(&service);
        let queries = (areas.clone(), points.clone());
        std::thread::spawn(move || {
            let (areas, points) = queries;
            let rects: Vec<_> = areas.iter().map(|a| worker.objects_in_rect(a, t)).collect();
            let nearest: Vec<Vec<_>> = points
                .iter()
                .flat_map(|p| [1, 8, 500].map(|k| worker.nearest_objects(p, t, k)))
                .collect();
            tx.send((rects, nearest)).expect("receiver waits");
        });
        let (rects, nearest) = rx
            .recv_timeout(std::time::Duration::from_secs(3))
            .unwrap_or_else(|_| panic!("queries at t = {t} must not stall"));
        for (area, got) in areas.iter().zip(&rects) {
            assert_eq!(bits(got), bits(&reference_in_rect(&mirror, area, t)), "t {t}, {area:?}");
        }
        let expect =
            points.iter().flat_map(|p| [1, 8, 500].map(|k| reference_nearest(&mirror, p, t, k)));
        for (i, (got, expect)) in nearest.iter().zip(expect).enumerate() {
            assert_eq!(bits(got), bits(&expect), "t {t}, nearest query {i}");
        }
    }
}

#[test]
fn hostile_speeds_apply_in_time_and_match_the_full_scan() {
    // Before an accepted update could go on the wide list, one update at
    // 10⁴ m/s registered its box in about 5 million cells (seconds under the
    // shard write lock), and 10⁶ m/s or f32::MAX never finished.
    const HOSTILE: [f64; 3] = [1e4, 1e6, f32::MAX as f64];
    let mut rng = SplitMix(0x5EED_0400);
    let service = Arc::new(LocationService::with_config(ServiceConfig::with_shards(4)));
    let mut mirror: BTreeMap<ObjectId, ServerTracker> = BTreeMap::new();
    let mut updates = Vec::new();
    for i in 0..120u64 {
        let id = ObjectId(rng.next_u64());
        // Hostile objects are linear movers: 20 per speed, of which some
        // report it first, some after a normal report, and some slow down
        // again afterwards (off the wide list and back into the grid).
        let hostile = HOSTILE.get(i as usize % 6).copied();
        let predictor: Arc<dyn Predictor> =
            if hostile.is_some() { Arc::new(LinearPredictor) } else { predictor_for(i as usize) };
        service.register(id, Arc::clone(&predictor));
        mirror.insert(id, ServerTracker::new(predictor));
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
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = Arc::clone(&service);
    let applied = updates.clone();
    std::thread::spawn(move || {
        for (id, update) in applied {
            tx.send(worker.apply_update(id, &update)).expect("receiver waits");
        }
    });
    for (id, update) in &updates {
        let accepted = rx
            .recv_timeout(std::time::Duration::from_secs(3))
            .unwrap_or_else(|_| panic!("an update at {} m/s must not stall", update.state.speed));
        assert!(accepted);
        mirror.get_mut(id).unwrap().apply(update);
    }
    for t in [3.0, 3.5, 60.0] {
        let full = reference_in_rect(&mirror, &Aabb::around(Point::ORIGIN, f64::MAX), t);
        let mut areas = vec![
            Aabb::around(Point::ORIGIN, 3_000.0),
            Aabb::around(Point::ORIGIN, 1e300),
            Aabb::around(Point::ORIGIN, f64::MAX),
        ];
        areas.extend(full.iter().step_by(7).map(|r| Aabb::around(r.position, 1.0)));
        for area in &areas {
            let got = service.objects_in_rect(area, t);
            assert_eq!(bits(&got), bits(&reference_in_rect(&mirror, area, t)), "t {t}, {area:?}");
        }
        let points = [Point::ORIGIN].into_iter().chain(full.iter().step_by(11).map(|r| r.position));
        for p in points {
            for k in [1, 8, 500] {
                let got = service.nearest_objects(&p, t, k);
                let expect = reference_nearest(&mirror, &p, t, k);
                assert_eq!(bits(&got), bits(&expect), "t {t}, nearest from {p:?}, k {k}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn sharded_service_matches_the_full_scan_reference(
        object_count in 2usize..20,
        shards in 1usize..9,
        cell in 50.0..600.0f64,
        horizon in 2.0..40.0f64,
        updates in proptest::collection::vec(
            (0usize..20, -2_000.0..2_000.0f64, -2_000.0..2_000.0f64,
             0.0..40.0f64, 0.0..std::f64::consts::TAU, -0.1..0.1f64, 0.0..200.0f64),
            1..120
        ),
        deregister_stride in 2usize..7,
        queries in proptest::collection::vec(
            (-2_500.0..2_500.0f64, -2_500.0..2_500.0f64, 10.0..1_500.0f64, 0.0..600.0f64),
            1..24
        ),
    ) {
        let config =
            ServiceConfig { shards, cell_size_m: cell, horizon_s: horizon, slack_m: 25.0 };
        let service = LocationService::with_config(config);
        let mut mirror: BTreeMap<ObjectId, ServerTracker> = BTreeMap::new();

        for i in 0..object_count {
            let id = ObjectId(i as u64);
            let predictor = predictor_for(i);
            service.register(id, Arc::clone(&predictor));
            mirror.insert(id, ServerTracker::new(predictor));
        }

        // Random updates (sequence numbers per object in generation order, so
        // both sides see the same accept/reject decisions).
        let mut sequences = vec![0u64; object_count];
        for &(raw_index, x, y, speed, heading, turn_rate, t) in updates.iter() {
            let index = raw_index % object_count;
            let id = ObjectId(index as u64);
            let mut state = ObjectState::basic(Point::new(x, y), speed, heading, t);
            state.turn_rate = turn_rate;
            let update = Update {
                sequence: sequences[index],
                state,
                kind: UpdateKind::DeviationBound,
            };
            sequences[index] += 1;
            prop_assert!(service.apply_update(id, &update));
            mirror.get_mut(&id).unwrap().apply(&update);
        }

        // Deregister a deterministic subset on both sides.
        for i in (0..object_count).step_by(deregister_stride) {
            let id = ObjectId(i as u64);
            prop_assert!(service.deregister(id));
            mirror.remove(&id);
        }

        for (qi, &(x, y, extent, t)) in queries.iter().enumerate() {
            let area = Aabb::around(Point::new(x, y), extent);
            prop_assert_eq!(
                service.objects_in_rect(&area, t),
                reference_in_rect(&mirror, &area, t),
                "rect query {} diverged (area {:?}, t {})", qi, area, t
            );
            let from = Point::new(x, y);
            let k = (extent as usize % (object_count + 2)).max(1);
            prop_assert_eq!(
                service.nearest_objects(&from, t, k),
                reference_nearest(&mirror, &from, t, k),
                "nearest query {} diverged (from {:?}, t {}, k {}, config {:?})",
                qi, from, t, k, config
            );
        }
    }
}
