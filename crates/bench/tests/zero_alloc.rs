//! The zero-allocation regression test: steady-state ingest, rect/nearest
//! queries and map prediction must perform **no** heap allocations per
//! operation. An accidental `clone()` or `Vec` on any of those paths fails
//! this test in `cargo test`, not just the bench gate.
//!
//! Beyond `hotpath_report`'s measured loops, the test drives the source-side
//! protocols (and so `MotionEstimator::record`), the update and query
//! codecs, the blocking transport's reader, `MovingIndex::query_keys_into`
//! and the intersection policies that walk a junction's outgoing links
//! through a warm-then-measured loop each.
//!
//! This file holds exactly one `#[test]` on purpose: the counting allocator
//! is process-global, and a sibling test allocating concurrently would bleed
//! into the measured deltas.

use mbdr_bench::alloccount::{allocations, counting_allocator_installed, CountingAllocator};
use mbdr_bench::hotpath::hotpath_report;
use mbdr_bench::DEFAULT_SEED;
use mbdr_core::wire::query::{
    decode_positions_into, encode_positions_into, encode_zone_events_into,
};
use mbdr_core::{
    Frame, IntersectionPolicy, LinearDeadReckoning, MapBasedDeadReckoning, MapPredictor,
    ObjectState, PositionRecord, Predictor, ProtocolConfig, Request, Sighting, Update, UpdateKind,
    UpdateProtocol, ZoneEventRecord,
};
use mbdr_geo::{Aabb, Point};
use mbdr_net::transport::{read_message_into, write_message};
use mbdr_roadnet::{NetworkBuilder, RoadClass, TransitionTable};
use mbdr_spatial::{MovingIndex, SeenScratch};
use std::hint::black_box;
use std::sync::Arc;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Operations per measured loop below.
const OPS: usize = 1_000;

/// Runs `op(i)` for a warm-up pass, then `OPS` more times, and returns the
/// heap allocations the measured pass performed.
fn measured_allocations(mut op: impl FnMut(usize)) -> u64 {
    for i in 0..OPS {
        op(i);
    }
    let before = allocations();
    for i in OPS..2 * OPS {
        op(i);
    }
    allocations() - before
}

/// The source-side protocols: map matching, motion recording and the send
/// decision, with the speed stepping every 50 s so updates keep being sent.
fn assert_protocols_do_not_allocate() {
    let mut b = NetworkBuilder::new();
    let west = b.add_node(Point::new(0.0, 0.0));
    let east = b.add_node(Point::new(200_000.0, 0.0));
    b.add_straight_link(west, east, RoadClass::Freeway);
    let network = Arc::new(b.build().expect("a straight road is valid"));
    let config = ProtocolConfig::new(25.0);
    let protocols: [Box<dyn UpdateProtocol>; 2] = [
        Box::new(MapBasedDeadReckoning::new(network, config, 2, 25.0)),
        Box::new(LinearDeadReckoning::new(config, 4)),
    ];
    for mut protocol in protocols {
        let mut x = 0.0;
        let mut updates = 0u64;
        let allocs = measured_allocations(|i| {
            x += if (i / 50) % 2 == 0 { 10.0 } else { 14.0 };
            let sighting = Sighting { t: i as f64, position: Point::new(x, 3.0), accuracy: 3.0 };
            updates += u64::from(protocol.on_sighting(sighting).is_some());
        });
        assert!(updates > OPS as u64 / 100, "{}: the send path runs too", protocol.name());
        assert_eq!(allocs, 0, "{}: on_sighting must not allocate", protocol.name());
    }
}

/// The update and query codecs, each into a reused buffer.
fn assert_codecs_do_not_allocate() {
    let state = ObjectState::basic(Point::new(10.0, -4.0), 12.5, 0.25, 3.0);
    let update = Update { sequence: 7, state, kind: UpdateKind::DeviationBound };
    let mut frame = Frame::new(9);
    for _ in 0..8 {
        frame.push(update);
    }
    let records: Vec<PositionRecord> = (0..16)
        .map(|i| PositionRecord {
            object: i,
            position: Point::new(i as f64, 1.0),
            information_age: 0.5,
        })
        .collect();
    let events: Vec<ZoneEventRecord> = (0..16)
        .map(|i| ZoneEventRecord { zone: 3, object: i, entered: i % 2 == 0, t: 9.0 })
        .collect();
    let mut encoded_records = Vec::new();
    encode_positions_into(&records, &mut encoded_records).expect("positions encode");
    let mut buf = Vec::new();
    let mut decoded = Vec::new();

    let allocs = measured_allocations(|_| {
        buf.clear();
        update.encode_into(&mut buf).expect("update encodes");
    });
    assert_eq!(allocs, 0, "Update::encode_into must not allocate");
    let allocs = measured_allocations(|_| {
        buf.clear();
        Request::encode_ingest_into(&frame, &mut buf).expect("ingest encodes");
    });
    assert_eq!(allocs, 0, "Request::encode_ingest_into must not allocate");
    let allocs = measured_allocations(|_| {
        buf.clear();
        encode_positions_into(&records, &mut buf).expect("positions encode");
    });
    assert_eq!(allocs, 0, "encode_positions_into must not allocate");
    let allocs = measured_allocations(|_| {
        buf.clear();
        encode_zone_events_into(&events, &mut buf).expect("events encode");
    });
    assert_eq!(allocs, 0, "encode_zone_events_into must not allocate");
    let allocs = measured_allocations(|_| {
        decode_positions_into(&encoded_records, &mut decoded).expect("positions decode");
    });
    assert_eq!(allocs, 0, "decode_positions_into must not allocate");
    assert_eq!(decoded, records);
}

/// The blocking transport's reader over an in-memory stream of messages.
fn assert_transport_reads_do_not_allocate() {
    let body = Request::encode_ingest(&Frame::new(4)).expect("ingest encodes");
    let mut stream = Vec::new();
    for _ in 0..2 * OPS {
        write_message(&mut stream, &body).expect("in-memory write");
    }
    let mut reader = stream.as_slice();
    let mut buf = Vec::new();
    let allocs = measured_allocations(|_| {
        assert!(read_message_into(&mut reader, 1 << 20, &mut buf).expect("message reads"));
    });
    assert_eq!(allocs, 0, "read_message_into must not allocate");
    assert_eq!(buf, body);
}

/// The moving-object index's sorted key query into caller scratch.
fn assert_index_key_queries_do_not_allocate() {
    let mut index = MovingIndex::new(100.0);
    for key in 0..256u32 {
        let center = Point::new(f64::from(key % 16) * 60.0, f64::from(key / 16) * 60.0);
        index.insert(key, Aabb::around(center, 40.0));
    }
    let mut seen = SeenScratch::new();
    let mut keys = Vec::new();
    let allocs = measured_allocations(|i| {
        let center = Point::new((i % 8) as f64 * 90.0, (i % 5) as f64 * 120.0);
        index.query_keys_into(&Aabb::around(center, 250.0), &mut seen, &mut keys);
        black_box(&keys);
    });
    assert_eq!(allocs, 0, "MovingIndex::query_keys_into must not allocate");
    assert!(!keys.is_empty());
}

/// Prediction through a y-junction under the policies that walk the
/// junction's outgoing links (`outgoing_links_iter`, `smallest_angle_link`).
fn assert_policy_predictions_do_not_allocate() {
    let mut b = NetworkBuilder::new();
    let a = b.add_node(Point::new(0.0, 0.0));
    let junction = b.add_node(Point::new(500.0, 0.0));
    let c = b.add_node(Point::new(1000.0, 120.0));
    let d = b.add_node(Point::new(520.0, -500.0));
    let approach = b.add_straight_link(a, junction, RoadClass::Arterial);
    b.add_straight_link(junction, c, RoadClass::Arterial);
    let branch = b.add_straight_link(junction, d, RoadClass::Residential);
    let network = Arc::new(b.build().expect("y-junction is valid"));
    let mut table = TransitionTable::new();
    table.record(junction, approach, branch);
    // 100 m down the approach at 12 m/s: horizons past 33 s reach the junction.
    let state = ObjectState {
        position: Point::new(100.0, 0.0),
        speed: 12.0,
        heading: 0.0,
        timestamp: 0.0,
        link: Some(approach),
        arc_length: 100.0,
        towards: Some(junction),
        turn_rate: 0.0,
    };
    let policies = [
        ("MainRoad", IntersectionPolicy::MainRoad),
        ("HighestProbability", IntersectionPolicy::HighestProbability(Arc::new(table))),
    ];
    for (name, policy) in policies {
        let predictor = MapPredictor::with_policy(Arc::clone(&network), policy);
        let allocs = measured_allocations(|i| {
            black_box(predictor.predict(&state, (i % 32) as f64 * 2.0));
        });
        assert_eq!(allocs, 0, "{name}: prediction must not allocate");
    }
}

#[test]
fn steady_state_ingest_and_queries_do_not_allocate() {
    assert!(counting_allocator_installed(), "the counting allocator must be active");
    let report = hotpath_report(0.02, DEFAULT_SEED);
    assert!(report.counting_allocator);
    assert_eq!(
        report.allocs_per_update, 0.0,
        "steady-state apply_frame_bytes ingest must not allocate"
    );
    assert_eq!(
        report.allocs_per_journaled_update, 0.0,
        "journaled ingest must not add hot-path allocations (stack record \
         header + pre-opened segment file)"
    );
    assert_eq!(
        report.allocs_per_rect_query, 0.0,
        "steady-state objects_in_rect_into must not allocate"
    );
    assert_eq!(
        report.allocs_per_nearest_query, 0.0,
        "steady-state nearest_objects_into must not allocate"
    );
    assert_eq!(
        report.allocs_per_predict, 0.0,
        "steady-state MapPredictor::predict must not allocate"
    );
    assert_eq!(report.rect_hits, (report.objects * report.queries) as u64);

    assert_protocols_do_not_allocate();
    assert_codecs_do_not_allocate();
    assert_transport_reads_do_not_allocate();
    assert_index_key_queries_do_not_allocate();
    assert_policy_predictions_do_not_allocate();
}
