//! End-to-end wire loop: protocol → encoded frames → degraded channel →
//! decode → sharded location service.
//!
//! The simulator charges for the bytes an update occupies on the wire; this
//! test proves those bytes actually carry the protocol. A fleet's update
//! streams are encoded into batched frames, shipped through a channel that
//! duplicates, jitters and reorders (but does not lose) them, decoded at the
//! service edge and ingested frame-at-a-time — and the resulting service
//! state must answer position queries identically (up to the codec's
//! documented f32 narrowing) to the reference model (`mbdr_model::Model`)
//! fed the same updates in-memory, in order, with no wire in between.

use mbdr_core::{Frame, Update};
use mbdr_locserver::{LocationService, ObjectId, ServiceConfig};
use mbdr_model::Model;
use mbdr_sim::protocols::{ProtocolContext, ProtocolKind};
use mbdr_sim::runner::{run_protocol, RunConfig};
use mbdr_sim::{DegradedChannel, LinkConfig};
use mbdr_trace::{Scenario, ScenarioKind};

#[test]
fn wire_loop_reaches_the_service_intact_despite_dups_and_reordering() {
    let data = Scenario { kind: ScenarioKind::City, scale: 0.08, seed: 11 }.build();
    let ctx = ProtocolContext::for_scenario(&data);

    // A small fleet sharing one trace family: each object re-runs the
    // protocol at a different accuracy so the streams differ.
    let accuracies = [50.0, 100.0, 200.0, 400.0];
    let mut streams: Vec<(ObjectId, std::sync::Arc<dyn mbdr_core::Predictor>, Vec<Update>)> =
        Vec::new();
    for (i, &accuracy) in accuracies.iter().enumerate() {
        let protocol = ProtocolKind::MapBased.build(&ctx, accuracy);
        let predictor = protocol.predictor();
        let outcome = run_protocol(&data.trace, protocol, RunConfig::default());
        assert!(!outcome.updates.is_empty());
        streams.push((ObjectId(i as u64), predictor, outcome.updates));
    }

    let wired = LocationService::with_config(ServiceConfig::with_shards(4));
    let mut model = Model::default();
    for (id, predictor, updates) in &streams {
        wired.register(*id, std::sync::Arc::clone(predictor));
        // The model: every update applied directly, in order.
        model.register(*id, std::sync::Arc::clone(predictor));
        assert!(updates.iter().all(|update| model.apply_update(*id, update)));
    }

    // Wire path: batch every source's updates into frames of up to 4, ship
    // them through a channel that duplicates, jitters and reorders (loss
    // would legitimately change the final state, so it stays off here — the
    // lossy sweep covers it), then decode-and-apply whatever arrives.
    let link = LinkConfig {
        latency_s: 1.0,
        jitter_s: 4.0,
        loss: 0.0,
        duplicate: 0.3,
        reorder: 0.3,
        seed: 99,
    };
    let mut channel = DegradedChannel::new(link);
    for (id, _, updates) in &streams {
        for batch in updates.chunks(4) {
            let frame = Frame { source: id.0, updates: batch.to_vec() };
            let sent_at = batch.last().expect("non-empty chunk").state.timestamp;
            channel.send(sent_at, frame.encode().expect("protocol updates encode"));
        }
    }
    let end = data.trace.duration() + 1_000.0;
    let mut frames_applied = 0u64;
    for bytes in channel.deliver_until(end) {
        let applied = wired.apply_frame_bytes(&bytes).expect("delivered frames decode");
        assert!(applied <= 4);
        frames_applied += 1;
    }
    let stats = channel.stats();
    assert_eq!(stats.frames_delivered, frames_applied);
    assert!(stats.frames_duplicated > 0, "the link did duplicate");
    assert!(stats.delivered_out_of_order > 0, "the link did reorder");

    // Duplicates and reordered stragglers were rejected by the per-object
    // trackers, not silently applied (so the wired path applies at most as
    // many updates as the in-order model): the newest state per object
    // won on both paths, and every query answer matches up to the f32
    // narrowing.
    assert!(wired.total_updates() <= model.total_updates());
    assert_eq!(wired.indexed_count(), streams.len(), "every object reported");
    let t = data.trace.duration();
    for (id, _, _) in &streams {
        let w = wired.position_of(*id, t).expect("wired service tracks the object");
        let r = model.position_of(*id, t).expect("the model tracks the object");
        let distance = w.position.distance(&r.position);
        assert!(distance < 0.01, "object {:?}: wire path diverged by {distance} m", id);
        assert!((w.information_age - r.information_age).abs() < 1e-9);
    }
}
