//! Hotspot-skew equivalence: the dense cell storage must answer exactly like
//! a full scan when placement is pathologically skewed — a large fraction of
//! all entries crowded into one or a few grid cells, the regime where the
//! per-cell segments grow through many size classes, the seen-mask dedup does
//! real work, and swap-remove bookkeeping is exercised hardest.
//!
//! Two layers, both through the queries production runs:
//!
//! * a deterministic 100 000-entry test (hotspot placement + churn +
//!   randomized queries) requiring the unordered rect walk to return
//!   **exactly** the brute-force id set, and the sorted key query a sorted
//!   superset of it;
//! * seeded churn cases at a size that runs in milliseconds: crowded
//!   placements in a few large cells, and boxes spread over many small
//!   ones.

use mbdr_geo::rng::SplitMix64;
use mbdr_geo::{Aabb, Point};
use mbdr_spatial::{MovingIndex, SeenScratch};
use std::collections::BTreeMap;

const CELL: f64 = 250.0;

/// ~30 % of entries land inside a 4×2-cell hotspot block near the origin,
/// the rest spread over a ±10 km world — the same skew shape as the
/// `mbdr-sim` scale workload.
fn hotspot_box(rng: &mut SplitMix64) -> Aabb {
    let center = if rng.next_f64() < 0.3 {
        Point::new(rng.next_f64() * 4.0 * CELL, rng.next_f64() * 2.0 * CELL)
    } else {
        Point::new((rng.next_f64() * 2.0 - 1.0) * 10_000.0, (rng.next_f64() * 2.0 - 1.0) * 10_000.0)
    };
    Aabb::around(center, 1.0 + rng.next_f64() * 40.0)
}

/// A crowded placement: every box near the origin, so most of the index
/// lives in a handful of cells.
fn crowded_box(rng: &mut SplitMix64) -> Aabb {
    let (x, y) = (rng.next_f64() * 600.0, rng.next_f64() * 400.0);
    Aabb::new(Point::new(x, y), Point::new(x + rng.next_f64() * 80.0, y + rng.next_f64() * 80.0))
}

/// A box of up to 200 m per side, its corner within ±2 km of the origin.
fn spread_box(rng: &mut SplitMix64) -> Aabb {
    let (x, y) = (rng.range(-2_000.0, 2_000.0), rng.range(-2_000.0, 2_000.0));
    Aabb::new(Point::new(x, y), Point::new(x + rng.range(0.0, 200.0), y + rng.range(0.0, 200.0)))
}

/// The rect walk returns exactly the brute-force set; the key query a sorted
/// superset of it, of live keys only.
fn assert_rect_matches_the_scan(
    index: &MovingIndex<u64>,
    reference: &BTreeMap<u64, Aabb>,
    query: &Aabb,
    what: &str,
) {
    let mut seen = SeenScratch::new();
    let expect: Vec<u64> =
        reference.iter().filter(|(_, b)| b.intersects(query)).map(|(&k, _)| k).collect();
    let mut walked = Vec::new();
    index.for_each_in_rect_unordered(query, &mut seen, |k| walked.push(k));
    walked.sort_unstable();
    assert_eq!(walked, expect, "{what}: the rect walk");
    let mut keys = Vec::new();
    index.query_keys_into(query, &mut seen, &mut keys);
    assert!(keys.windows(2).all(|w| w[0] < w[1]), "{what}: keys sorted and unique");
    assert!(expect.iter().all(|k| keys.binary_search(k).is_ok()), "{what}: a superset");
    assert!(keys.iter().all(|k| reference.contains_key(k)), "{what}: live keys only");
}

#[test]
fn hundred_thousand_hotspot_entries_answer_bit_identically_to_a_full_scan() {
    const N: u64 = 100_000;
    let mut rng = SplitMix64::new(0xC0FF_EE00_2026_0808);
    let mut index: MovingIndex<u64> = MovingIndex::new(CELL);
    let mut reference: BTreeMap<u64, Aabb> = BTreeMap::new();
    for key in 0..N {
        let b = hotspot_box(&mut rng);
        index.insert(key, b);
        reference.insert(key, b);
    }
    // Churn: move 5 % of the fleet (hotspot → elsewhere and vice versa) and
    // remove 2 %, so the swap-remove + placement-patch paths run at scale.
    for _ in 0..N / 20 {
        let key = rng.below(N);
        let b = hotspot_box(&mut rng);
        index.insert(key, b);
        reference.insert(key, b);
    }
    for _ in 0..N / 50 {
        let key = rng.below(N);
        index.remove(&key);
        reference.remove(&key);
    }
    assert_eq!(index.len(), reference.len());

    for i in 0..40 {
        // Even queries aim at the hotspot block, odd ones anywhere.
        let center = if i % 2 == 0 {
            Point::new(rng.next_f64() * 4.0 * CELL, rng.next_f64() * 2.0 * CELL)
        } else {
            Point::new(
                (rng.next_f64() * 2.0 - 1.0) * 10_000.0,
                (rng.next_f64() * 2.0 - 1.0) * 10_000.0,
            )
        };
        let query = Aabb::around(center, CELL * (0.5 + rng.next_f64() * 4.0));
        assert_rect_matches_the_scan(&index, &reference, &query, &format!("query {i}"));
    }
}

/// `cases` seeded indexes, each under insert → move → remove churn (the
/// location-service update pattern): up to `entries` inserts, then up to
/// `moves` re-inserts and `removes` removals of random keys, then `queries`
/// rect checks. `cell` draws each index's cell size, `boxed` every box.
fn churn_then_check(
    seed: u64,
    cases: usize,
    cell: fn(&mut SplitMix64) -> f64,
    boxed: fn(&mut SplitMix64) -> Aabb,
    [entries, moves, removes, queries]: [u64; 4],
) {
    let mut rng = SplitMix64::new(seed);
    for case in 0..cases {
        let cell = cell(&mut rng);
        let mut index: MovingIndex<u64> = MovingIndex::new(cell);
        let mut reference: BTreeMap<u64, Aabb> = BTreeMap::new();
        let n = 1 + rng.below(entries);
        for key in 0..n {
            let b = boxed(&mut rng);
            index.insert(key, b);
            reference.insert(key, b);
        }
        for _ in 0..rng.below(moves) {
            let (key, b) = (rng.below(n), boxed(&mut rng));
            index.insert(key, b);
            reference.insert(key, b);
        }
        for _ in 0..rng.below(removes) {
            let key = rng.below(n);
            index.remove(&key);
            reference.remove(&key);
        }
        assert_eq!(index.len(), reference.len(), "case {case}");
        for q in 0..queries {
            let query = boxed(&mut rng);
            let what = format!("case {case}, query {q} ({query:?}), cell {cell}");
            assert_rect_matches_the_scan(&index, &reference, &query, &what);
        }
    }
}

#[test]
fn crowded_cells_stay_equivalent_under_churn() {
    // Cell size much larger than the placement spread: everything shares
    // very few cells, maximizing per-cell crowding.
    churn_then_check(0xC0DE_0000_2026_1017, 48, |_| 500.0, crowded_box, [400, 120, 80, 4]);
    // Boxes spread over ±2 km in cells of 20 to 400 m: an entry spans one
    // to many cells.
    let cell = |rng: &mut SplitMix64| rng.range(20.0, 400.0);
    churn_then_check(0x1DE7_0000_2026_1017, 64, cell, spread_box, [120, 60, 40, 8]);
}
