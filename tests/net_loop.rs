//! The full serving path, end to end and bit-identical: trace → update
//! protocol → `Frame::encode` → real TCP → server decode → sharded ingest →
//! query over the same socket. Every answer that comes back over the wire
//! must equal — to the last f64 bit — what the reference model
//! (`mbdr_model::Model`) answers when fed the identical frame bytes
//! in-process. The wire is then provably a transport, not a transformation.

use mbdr_core::Frame;
use mbdr_geo::{Aabb, Point};
use mbdr_locserver::{LocationService, ObjectId, ServiceConfig};
use mbdr_model::{bits, Model};
use mbdr_net::{NetClient, NetServer, ServerConfig};
use mbdr_sim::protocols::{ProtocolContext, ProtocolKind};
use mbdr_sim::runner::{run_protocol, RunConfig};
use mbdr_trace::{Scenario, ScenarioKind};
use std::sync::Arc;

#[test]
fn tcp_served_answers_are_bit_identical_to_direct_service_calls() {
    let data = Scenario { kind: ScenarioKind::City, scale: 0.08, seed: 23 }.build();
    let ctx = ProtocolContext::for_scenario(&data);

    // A small fleet: each object runs the map-based protocol at a different
    // accuracy so the update streams differ.
    let accuracies = [50.0, 100.0, 200.0, 400.0];
    let mut streams = Vec::new();
    for (i, &accuracy) in accuracies.iter().enumerate() {
        let protocol = ProtocolKind::MapBased.build(&ctx, accuracy);
        let predictor = protocol.predictor();
        let outcome = run_protocol(&data.trace, protocol, RunConfig::default());
        assert!(!outcome.updates.is_empty());
        streams.push((ObjectId(i as u64), predictor, outcome.updates));
    }

    // The model and the service are fed the *same encoded bytes*: one
    // straight through `apply_frame_bytes`, one across a real socket.
    let mut model = Model::default();
    let served = Arc::new(LocationService::with_config(ServiceConfig::with_shards(4)));
    for (id, predictor, _) in &streams {
        model.register(*id, Arc::clone(predictor));
        served.register(*id, Arc::clone(predictor));
    }
    let server =
        NetServer::bind(Arc::clone(&served), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = NetClient::connect(server.local_addr()).expect("connect");

    let mut frames_sent = 0u64;
    for (id, _, updates) in &streams {
        for batch in updates.chunks(4) {
            let frame = Frame { source: id.0, updates: batch.to_vec() };
            let bytes = frame.encode().expect("protocol updates encode");
            assert!(model.apply_frame_bytes(&bytes).is_ok());
            client.send_frame(&frame).expect("send over TCP");
            frames_sent += 1;
        }
    }
    let flush = client.flush().expect("flush barrier");
    assert_eq!(flush.frames, frames_sent);
    assert_eq!(flush.updates_applied, model.total_updates());
    assert_eq!(served.total_updates(), model.total_updates());

    // Rect queries at several instants and extents: socket answers vs the
    // model's, field for field, bit for bit.
    let bounds = data.network.bounding_box().expect("city map has extent");
    let duration = data.trace.duration();
    for (i, &t) in [0.25 * duration, 0.5 * duration, duration, duration + 120.0].iter().enumerate()
    {
        let area = match i % 2 {
            0 => bounds,
            _ => Aabb::around(bounds.center(), 800.0),
        };
        let over_wire = client.objects_in_rect(&area, t).expect("rect over TCP");
        assert_eq!(bits(&over_wire), bits(&model.objects_in_rect(&area, t)), "rect at t={t}");
    }

    // Nearest queries across k values and probe points.
    for (k, probe) in
        [(1u16, bounds.center()), (3, bounds.min), (4, Point::new(250.0, 600.0)), (16, bounds.max)]
    {
        let t = 0.75 * duration;
        let over_wire = client.nearest_objects(&probe, t, k).expect("nearest over TCP");
        let expect = model.nearest_objects(&probe, t, k as usize);
        assert_eq!(bits(&over_wire), bits(&expect), "nearest k={k}");
    }

    drop(client);
    let stats = server.shutdown();
    assert_eq!(stats.frames_received, frames_sent);
    assert_eq!(stats.frame_decode_errors, 0);
    assert_eq!(stats.connections_dropped, 0);
}
