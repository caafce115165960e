//! Property tests: both spatial indexes must agree with brute force — and,
//! therefore, with each other. The location service relies on this
//! index-agnostic guarantee: its sharded store answers queries through a
//! spatial index but must return exactly what a full scan would.

use mbdr_geo::{Aabb, Point};
use mbdr_spatial::{MovingIndex, RTree, SpatialIndex};
use proptest::prelude::*;

fn arb_box() -> impl Strategy<Value = Aabb> {
    (-2_000.0..2_000.0f64, -2_000.0..2_000.0f64, 0.0..200.0f64, 0.0..200.0f64)
        .prop_map(|(x, y, w, h)| Aabb::new(Point::new(x, y), Point::new(x + w, y + h)))
}

fn brute_rect(items: &[(Aabb, usize)], q: &Aabb) -> Vec<usize> {
    let mut v: Vec<usize> =
        items.iter().filter(|(b, _)| b.intersects(q)).map(|(_, i)| *i).collect();
    v.sort_unstable();
    v
}

fn brute_nearest(items: &[(Aabb, usize)], p: &Point, k: usize) -> Vec<f64> {
    let mut d: Vec<f64> = items.iter().map(|(b, _)| b.distance_to_point(p)).collect();
    d.sort_by(|a, b| a.partial_cmp(b).unwrap());
    d.truncate(k);
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rtree_rect_query_equals_brute_force(
        boxes in proptest::collection::vec(arb_box(), 1..200),
        query in arb_box()
    ) {
        let items: Vec<(Aabb, usize)> = boxes.into_iter().enumerate().map(|(i, b)| (b, i)).collect();
        let tree = RTree::bulk_load(items.clone());
        let mut got: Vec<usize> = tree.query_rect(&query).iter().map(|e| e.item).collect();
        got.sort_unstable();
        prop_assert_eq!(got, brute_rect(&items, &query));
    }

    #[test]
    fn rtree_nearest_distances_equal_brute_force(
        boxes in proptest::collection::vec(arb_box(), 1..150),
        px in -3_000.0..3_000.0f64,
        py in -3_000.0..3_000.0f64,
        k in 1usize..10
    ) {
        let items: Vec<(Aabb, usize)> = boxes.into_iter().enumerate().map(|(i, b)| (b, i)).collect();
        let tree = RTree::bulk_load(items.clone());
        let p = Point::new(px, py);
        let expected = brute_nearest(&items, &p, k);
        let got: Vec<f64> = tree.nearest(&p, k).iter().map(|n| n.distance).collect();
        prop_assert_eq!(got.len(), expected.len());
        for (g, e) in got.iter().zip(expected.iter()) {
            prop_assert!((g - e).abs() < 1e-6);
        }
    }

    #[test]
    fn moving_index_after_churn_equals_brute_force_and_rtree(
        initial in proptest::collection::vec(arb_box(), 1..120),
        moves in proptest::collection::vec((0usize..120, arb_box()), 0..60),
        removals in proptest::collection::vec(0usize..120, 0..40),
        query in arb_box(),
        cell in 20.0..400.0f64,
        k in 1usize..8
    ) {
        // Replay insert → move → remove churn (the location-service update
        // pattern) and require the surviving entries to answer exactly like a
        // freshly bulk-loaded RTree and like brute force.
        let mut moving: MovingIndex<usize> = MovingIndex::new(cell);
        let mut current: std::collections::BTreeMap<usize, Aabb> = Default::default();
        for (i, b) in initial.iter().enumerate() {
            moving.insert(i, *b);
            current.insert(i, *b);
        }
        let n = initial.len();
        for (raw, b) in &moves {
            let key = raw % n;
            moving.insert(key, *b);
            current.insert(key, *b);
        }
        for raw in &removals {
            let key = raw % n;
            moving.remove(&key);
            current.remove(&key);
        }
        let items: Vec<(Aabb, usize)> = current.iter().map(|(&k, &b)| (b, k)).collect();
        prop_assert_eq!(moving.len(), items.len());

        // Rect: exact result-set equality against brute force and the RTree.
        let mut got: Vec<usize> = moving.query_rect(&query).iter().map(|e| e.item).collect();
        got.sort_unstable();
        prop_assert_eq!(&got, &brute_rect(&items, &query));
        if !items.is_empty() {
            let tree = RTree::bulk_load(items.clone());
            let mut tree_got: Vec<usize> = tree.query_rect(&query).iter().map(|e| e.item).collect();
            tree_got.sort_unstable();
            prop_assert_eq!(&got, &tree_got);

            // Nearest: identical distance sequences.
            let p = query.center();
            let expected = brute_nearest(&items, &p, k);
            let nn: Vec<f64> = moving.nearest(&p, k).iter().map(|x| x.distance).collect();
            prop_assert_eq!(nn.len(), expected.len());
            for (g, e) in nn.iter().zip(expected.iter()) {
                prop_assert!((g - e).abs() < 1e-6, "nearest distance {} vs {}", g, e);
            }
        }
    }

    #[test]
    fn both_indexes_agree_on_radius_queries(
        boxes in proptest::collection::vec(arb_box(), 1..150),
        px in -2_000.0..2_000.0f64,
        py in -2_000.0..2_000.0f64,
        radius in 1.0..800.0f64
    ) {
        let items: Vec<(Aabb, usize)> = boxes.into_iter().enumerate().map(|(i, b)| (b, i)).collect();
        let tree = RTree::bulk_load(items.clone());
        let mut moving: MovingIndex<usize> = MovingIndex::new(100.0);
        for (bbox, key) in items {
            moving.insert(key, bbox);
        }
        let p = Point::new(px, py);
        let mut a: Vec<usize> = tree.query_within(&p, radius).iter().map(|e| e.item).collect();
        let mut b: Vec<usize> = moving.query_within(&p, radius).iter().map(|e| e.item).collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }
}
