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
use mbdr_locserver::{LocationService, ObjectId, PositionReport, ServiceConfig};
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
