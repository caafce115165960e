//! The grid index against brute force through the two queries production
//! runs: the location service's unordered rect walk must return exactly the
//! entries whose box intersects the query, and the sorted key query (the
//! link locator's) must return a sorted superset of them.

use mbdr_geo::rng::SplitMix64;
use mbdr_geo::{Aabb, Point};
use mbdr_spatial::{MovingIndex, SeenScratch};
use std::collections::BTreeMap;

/// A box of up to 200 m per side, its corner within ±2 km of the origin.
fn boxed(rng: &mut SplitMix64) -> Aabb {
    let (x, y) = (rng.range(-2_000.0, 2_000.0), rng.range(-2_000.0, 2_000.0));
    Aabb::new(Point::new(x, y), Point::new(x + rng.range(0.0, 200.0), y + rng.range(0.0, 200.0)))
}

#[test]
fn moving_index_after_churn_equals_brute_force() {
    let mut rng = SplitMix64::new(0x1DE7_0000_2026_1017);
    let mut seen = SeenScratch::new();
    let mut keys = Vec::new();
    for case in 0..64 {
        // Replay insert → move → remove churn (the location-service update
        // pattern) and require the surviving entries to answer exactly like
        // brute force.
        let cell = rng.range(20.0, 400.0);
        let mut index: MovingIndex<u64> = MovingIndex::new(cell);
        let mut reference: BTreeMap<u64, Aabb> = BTreeMap::new();
        let n = 1 + rng.below(120);
        for key in 0..n {
            let b = boxed(&mut rng);
            index.insert(key, b);
            reference.insert(key, b);
        }
        for _ in 0..rng.below(60) {
            let (key, b) = (rng.below(n), boxed(&mut rng));
            index.insert(key, b);
            reference.insert(key, b);
        }
        for _ in 0..rng.below(40) {
            let key = rng.below(n);
            index.remove(&key);
            reference.remove(&key);
        }
        assert_eq!(index.len(), reference.len(), "case {case}");
        for q in 0..8 {
            let query = boxed(&mut rng);
            let what = format!("case {case}, query {q} ({query:?}), cell {cell}");

            let expect: Vec<u64> =
                reference.iter().filter(|(_, b)| b.intersects(&query)).map(|(&k, _)| k).collect();
            let mut walked = Vec::new();
            index.for_each_in_rect_unordered(&query, &mut seen, |k| walked.push(k));
            walked.sort_unstable();
            assert_eq!(walked, expect, "{what}: the rect walk");

            index.query_keys_into(&query, &mut seen, &mut keys);
            assert!(keys.windows(2).all(|w| w[0] < w[1]), "{what}: keys sorted and unique");
            assert!(expect.iter().all(|k| keys.binary_search(k).is_ok()), "{what}: a superset");
            assert!(keys.iter().all(|k| reference.contains_key(k)), "{what}: live keys only");
        }
    }
}
