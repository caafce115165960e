//! Running one protocol over one trace.

use crate::channel::MessageChannel;
use crate::metrics::{DeviationStats, RunMetrics};
use mbdr_core::{ServerTracker, Sighting, Update, UpdateProtocol};
use mbdr_trace::Trace;

/// Configuration of a single protocol run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// One-way source→server latency, seconds (0 reproduces the paper's
    /// idealised setting).
    pub channel_latency: f64,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig { channel_latency: 0.0 }
    }
}

/// The full outcome of a run: the aggregate metrics plus the update log
/// (used by the Fig. 3 / Fig. 6 style "where were updates sent" analysis).
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Aggregate metrics.
    pub metrics: RunMetrics,
    /// Every update the source sent, in order.
    pub updates: Vec<Update>,
}

/// Feeds a trace through a source protocol and the server tracker, measuring
/// update traffic and server-side accuracy.
///
/// For every sensor fix the source decides whether to send an update; updates
/// travel over the channel and are applied to the server. After processing the
/// fix, the server's predicted position is compared against the ground truth
/// at that instant — that deviation is what the requested accuracy `u_s`
/// bounds.
pub fn run_protocol(
    trace: &Trace,
    mut protocol: Box<dyn UpdateProtocol>,
    config: RunConfig,
) -> RunOutcome {
    let protocol_config = protocol.config();
    let mut channel = MessageChannel::new(config.channel_latency);
    let mut server = ServerTracker::new(protocol.predictor());
    let mut deviations = Vec::with_capacity(trace.len());
    let mut updates = Vec::new();

    for (fix, truth) in trace.fixes.iter().zip(trace.ground_truth.iter()) {
        let sighting = Sighting { t: fix.t, position: fix.position, accuracy: fix.accuracy };
        if let Some(update) = protocol.on_sighting(sighting) {
            channel.send(fix.t, update);
            updates.push(update);
        }
        for delivered in channel.deliver_until(fix.t) {
            server.apply(&delivered);
        }
        if let Some(predicted) = server.position_at(fix.t) {
            deviations.push(predicted.distance(&truth.position));
        }
    }

    let duration = trace.duration();
    let stats = channel.stats();
    // The guarantee is u_s on top of what the sensor itself cannot see (u_p);
    // a small numerical slack avoids counting boundary-equal samples.
    let allowance = protocol_config.requested_accuracy
        + trace.fixes.first().map(|f| f.accuracy).unwrap_or(0.0)
        + 1.0;
    let metrics = RunMetrics {
        protocol: protocol.name().to_string(),
        requested_accuracy: protocol_config.requested_accuracy,
        updates: stats.messages,
        payload_bytes: stats.payload_bytes,
        duration_s: duration,
        updates_per_hour: RunMetrics::rate_per_hour(stats.messages, duration),
        deviation: DeviationStats::from_samples(deviations, allowance),
    };
    RunOutcome { metrics, updates }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::{ProtocolContext, ProtocolKind};
    use mbdr_trace::{Scenario, ScenarioKind};

    fn quick_city() -> mbdr_trace::ScenarioData {
        Scenario { kind: ScenarioKind::City, scale: 0.05, seed: 7 }.build()
    }

    #[test]
    fn run_produces_consistent_metrics() {
        let data = quick_city();
        let ctx = ProtocolContext::for_scenario(&data);
        let outcome = run_protocol(
            &data.trace,
            ProtocolKind::Linear.build(&ctx, 100.0),
            RunConfig::default(),
        );
        let m = &outcome.metrics;
        assert!(m.updates >= 1);
        assert_eq!(m.updates as usize, outcome.updates.len());
        assert!(m.payload_bytes > 0);
        assert!((m.duration_s - data.trace.duration()).abs() < 1e-9);
        assert!(m.updates_per_hour > 0.0);
        assert_eq!(m.requested_accuracy, 100.0);
        assert_eq!(m.deviation.samples, data.trace.len());
    }

    #[test]
    fn accuracy_guarantee_holds_for_the_dead_reckoning_protocols() {
        let data = quick_city();
        let ctx = ProtocolContext::for_scenario(&data);
        for kind in [ProtocolKind::DistanceBased, ProtocolKind::Linear, ProtocolKind::MapBased] {
            let outcome = run_protocol(&data.trace, kind.build(&ctx, 100.0), RunConfig::default());
            let violations = outcome.metrics.deviation.bound_violations;
            let samples = outcome.metrics.deviation.samples;
            // The bound is checked against the *sensed* position at 1 Hz, so the
            // true deviation can exceed it only by the GPS error and by what
            // accumulates within one second; allow a tiny violation fraction.
            assert!(
                violations as f64 <= samples as f64 * 0.01,
                "{kind:?}: {violations}/{samples} samples violated the bound"
            );
        }
    }

    #[test]
    fn delayed_channel_delivers_in_send_order_and_server_applies_every_update() {
        // The non-idealised setting: every update crosses a 3 s uplink. The
        // channel must hand updates to the server in exactly the order they
        // were sent, and by the end of the trace the server must have applied
        // every update that had time to arrive (in-flight leftovers are the
        // only permissible gap).
        use crate::channel::MessageChannel;
        use mbdr_core::ServerTracker;

        let data = quick_city();
        let ctx = ProtocolContext::for_scenario(&data);
        let outcome = run_protocol(
            &data.trace,
            ProtocolKind::Linear.build(&ctx, 100.0),
            RunConfig { channel_latency: 3.0 },
        );
        // Replay the same updates through a fresh channel and tracker,
        // checking ordering at every delivery instant.
        let mut channel = MessageChannel::new(3.0);
        let mut server = ServerTracker::new(std::sync::Arc::new(mbdr_core::LinearPredictor));
        let mut last_sequence = None;
        let end = data.trace.fixes.last().unwrap().t;
        for update in &outcome.updates {
            channel.send(update.state.timestamp, *update);
        }
        for delivered in channel.deliver_until(end) {
            assert!(last_sequence < Some(delivered.sequence), "strictly ascending sequences");
            last_sequence = Some(delivered.sequence);
            server.apply(&delivered);
        }
        let undelivered = channel.deliver_until(f64::INFINITY).len() as u64;
        assert_eq!(
            server.updates_applied() + undelivered,
            outcome.metrics.updates,
            "everything sent is either applied or still in flight at trace end"
        );
        assert!(
            undelivered as f64 <= 3.0 + 1.0,
            "at 3 s latency at most the last few updates can be in flight"
        );
    }

    #[test]
    fn reordered_paths_cannot_roll_the_server_back() {
        // Two network paths with different latencies deliver out of order:
        // the newer update (seq 1) overtakes the older one (seq 0). The
        // server tracker must reject the stale arrival.
        use crate::channel::MessageChannel;
        use mbdr_core::{ObjectState, ServerTracker, Update, UpdateKind};
        use mbdr_geo::Point;

        let make = |seq: u64, t: f64, x: f64| Update {
            sequence: seq,
            state: ObjectState::basic(Point::new(x, 0.0), 5.0, 0.0, t),
            kind: UpdateKind::DeviationBound,
        };
        let mut slow = MessageChannel::new(10.0);
        let mut fast = MessageChannel::new(1.0);
        let mut server = ServerTracker::new(std::sync::Arc::new(mbdr_core::LinearPredictor));
        slow.send(0.0, make(0, 0.0, 0.0)); // arrives at t = 10
        fast.send(2.0, make(1, 2.0, 100.0)); // arrives at t = 3
        for t in [3.0, 12.0] {
            for u in fast.deliver_until(t) {
                server.apply(&u);
            }
            for u in slow.deliver_until(t) {
                server.apply(&u);
            }
        }
        assert_eq!(server.updates_applied(), 1, "the stale seq-0 arrival is dropped");
        assert_eq!(server.last_state().unwrap().position.x, 100.0, "seq 1 remains current");
        // Equal sequence numbers (a duplicate delivery) are dropped too.
        server.apply(&make(1, 2.0, 555.0));
        assert_eq!(server.updates_applied(), 1);
        assert_eq!(server.last_state().unwrap().position.x, 100.0);
    }

    #[test]
    fn channel_latency_is_tolerated() {
        let data = quick_city();
        let ctx = ProtocolContext::for_scenario(&data);
        let ideal = run_protocol(
            &data.trace,
            ProtocolKind::MapBased.build(&ctx, 100.0),
            RunConfig::default(),
        );
        let delayed = run_protocol(
            &data.trace,
            ProtocolKind::MapBased.build(&ctx, 100.0),
            RunConfig { channel_latency: 2.0 },
        );
        // Latency does not change what the source sends, only when the server
        // learns about it — so the update count matches and the deviation can
        // only grow.
        assert_eq!(ideal.metrics.updates, delayed.metrics.updates);
        assert!(delayed.metrics.deviation.mean >= ideal.metrics.deviation.mean - 1e-9);
    }
}
