//! The lossy-link experiment: accuracy degradation and message overhead as
//! functions of the uplink loss rate.
//!
//! This closes the wire loop end to end: a protocol run's updates are encoded
//! into [`Frame`]s, the frames travel as raw bytes through a
//! [`DegradedChannel`] that drops/duplicates/jitters/reorders them, and the
//! server *decodes* whatever arrives before applying it — so the bytes the
//! simulator charges for are exactly the bytes that reconstruct the state the
//! server predicts from. Sweeping the loss rate then shows what the paper's
//! idealised evaluation cannot: how the accuracy guarantee erodes and how the
//! cost per *applied* update grows when the GSM/GPRS uplink actually
//! misbehaves.
//!
//! Loss fates are nested across the sweep (see [`crate::degraded`]): the
//! frames lost at 10 % are a subset of those lost at 30 %, so the reported
//! degradation is monotone in the loss rate rather than an artefact of
//! resampled randomness. The initial update travels on the reliable control
//! channel ([`DegradedChannel::send_reliable`]) so every sweep point starts
//! from the same known state.

use crate::degraded::{DegradedChannel, LinkConfig, LinkStats};
use crate::metrics::DeviationStats;
use crate::protocols::{ProtocolContext, ProtocolKind};
use crate::report::Json;
use crate::runner::{run_protocol, RunConfig};
use mbdr_core::{Frame, ServerTracker, Update, UpdateKind};
use mbdr_trace::{Scenario, ScenarioKind, Trace};
use std::sync::Arc;

/// Source id the swept object uses in its frames.
const SOURCE_ID: u64 = 1;

/// Configuration of a loss-rate sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct LossSweepConfig {
    /// Scenario whose trace is replayed.
    pub scenario: ScenarioKind,
    /// Trace scale in `(0, 1]`.
    pub scale: f64,
    /// Map/trace/noise seed (also folded into the link seed).
    pub seed: u64,
    /// The update protocol the source runs.
    pub protocol: ProtocolKind,
    /// Requested accuracy `u_s`, metres.
    pub requested_accuracy: f64,
    /// The loss rates swept, ascending.
    pub loss_rates: Vec<f64>,
    /// Link impairments shared by every point (`loss` is overridden per
    /// point).
    pub link: LinkConfig,
}

impl Default for LossSweepConfig {
    fn default() -> Self {
        LossSweepConfig {
            scenario: ScenarioKind::City,
            scale: 0.2,
            seed: 0xC0FFEE,
            protocol: ProtocolKind::MapBased,
            requested_accuracy: 100.0,
            loss_rates: vec![0.0, 0.05, 0.1, 0.2, 0.35, 0.5],
            link: LinkConfig::gprs(0xC0FFEE),
        }
    }
}

/// One loss-rate measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct LossPoint {
    /// The loss rate of this point.
    pub loss_rate: f64,
    /// Per-cause link statistics.
    pub link: LinkStats,
    /// Frames that failed to decode at the receiver (0 unless the channel is
    /// made to corrupt payloads — asserted by the tests).
    pub decode_errors: u64,
    /// Updates the server tracker accepted (duplicates and reordered
    /// leftovers are rejected by the tracker, not the channel).
    pub updates_applied: u64,
    /// Fraction of sent frames that reached the receiver at least once.
    pub delivered_ratio: f64,
    /// Transmitted payload bytes per applied update — the message overhead,
    /// which grows with the loss rate while the raw byte count stays flat.
    /// `NaN` (rendered `null` in JSON) when nothing was applied.
    pub bytes_per_applied_update: f64,
    /// Server-side deviation statistics under this loss rate.
    pub deviation: DeviationStats,
}

/// The result of sweeping one scenario over the loss rates.
#[derive(Debug, Clone, PartialEq)]
pub struct LossSweepResult {
    /// Scenario name (Table 1 row label).
    pub scenario: String,
    /// Protocol name.
    pub protocol: String,
    /// Requested accuracy `u_s`, metres.
    pub requested_accuracy: f64,
    /// Trace scale.
    pub scale: f64,
    /// Seed.
    pub seed: u64,
    /// Updates the protocol generated (identical for every point).
    pub updates_sent: u64,
    /// The measurements, in the order of the configured loss rates.
    pub points: Vec<LossPoint>,
}

impl LossSweepResult {
    /// The sweep as one JSON document (schema `mbdr-wire/1`), consumed by
    /// `reproduce wire`. The replay is single-threaded, so every leaf is
    /// exact.
    pub fn to_json(&self) -> Json {
        let point = |p: &LossPoint| {
            // Exhaustive, no `..`: a new link counter that is not emitted
            // is a compile error.
            let LinkStats {
                frames_sent,
                frames_dropped,
                frames_duplicated,
                frames_reordered,
                frames_delivered,
                delivered_out_of_order,
                payload_bytes,
            } = p.link;
            let d = &p.deviation;
            Json::object([
                ("loss_rate", Json::exact(p.loss_rate)),
                ("frames_sent", Json::exact(frames_sent as f64)),
                ("frames_dropped", Json::exact(frames_dropped as f64)),
                ("frames_duplicated", Json::exact(frames_duplicated as f64)),
                ("frames_reordered", Json::exact(frames_reordered as f64)),
                ("frames_delivered", Json::exact(frames_delivered as f64)),
                ("delivered_out_of_order", Json::exact(delivered_out_of_order as f64)),
                ("payload_bytes", Json::exact(payload_bytes as f64)),
                ("decode_errors", Json::exact(p.decode_errors as f64)),
                ("updates_applied", Json::exact(p.updates_applied as f64)),
                ("delivered_ratio", Json::exact(p.delivered_ratio).fixed(4)),
                ("bytes_per_applied_update", Json::exact(p.bytes_per_applied_update).fixed(1)),
                (
                    "deviation",
                    Json::object([
                        ("samples", Json::exact(d.samples as f64)),
                        ("mean_m", Json::exact(d.mean).fixed(2)),
                        ("p95_m", Json::exact(d.p95).fixed(2)),
                        ("max_m", Json::exact(d.max).fixed(2)),
                        ("bound_violations", Json::exact(d.bound_violations as f64)),
                    ]),
                ),
            ])
        };
        Json::object([
            ("schema", Json::str("mbdr-wire/1")),
            ("scenario", Json::str(&*self.scenario)),
            ("protocol", Json::str(&*self.protocol)),
            ("requested_accuracy", Json::exact(self.requested_accuracy)),
            ("scale", Json::exact(self.scale)),
            ("seed", Json::exact(self.seed as f64)),
            ("updates_sent", Json::exact(self.updates_sent as f64)),
            ("points", Json::array(self.points.iter().map(point))),
        ])
    }
}

/// Runs the loss-rate sweep: one protocol run generates the update stream,
/// then every loss rate replays the same stream through its own degraded
/// link against a fresh server tracker.
pub fn run_loss_sweep(config: &LossSweepConfig) -> LossSweepResult {
    assert!(config.scale > 0.0 && config.scale <= 1.0, "scale must be in (0, 1]");
    let data = Scenario { kind: config.scenario, scale: config.scale, seed: config.seed }.build();
    let ctx = ProtocolContext::for_scenario(&data);
    let protocol = config.protocol.build(&ctx, config.requested_accuracy);
    let protocol_name = protocol.name().to_string();
    let predictor = protocol.predictor();
    let outcome = run_protocol(&data.trace, protocol, RunConfig::default());
    // Same violation allowance as the runner: `u_s` + sensor uncertainty +
    // numerical slack.
    let allowance = config.requested_accuracy
        + data.trace.fixes.first().map(|f| f.accuracy).unwrap_or(0.0)
        + 1.0;

    let points = config
        .loss_rates
        .iter()
        .map(|&loss_rate| {
            let link = LinkConfig { loss: loss_rate, ..config.link };
            replay_with_link(
                &data.trace,
                &outcome.updates,
                Arc::clone(&predictor),
                link,
                allowance,
                loss_rate,
            )
        })
        .collect();

    LossSweepResult {
        scenario: data.scenario.kind.name().to_string(),
        protocol: protocol_name,
        requested_accuracy: config.requested_accuracy,
        scale: config.scale,
        seed: config.seed,
        updates_sent: outcome.updates.len() as u64,
        points,
    }
}

/// Replays one update stream through a degraded link: encode → channel →
/// decode → apply, sampling the server deviation at every fix.
fn replay_with_link(
    trace: &Trace,
    updates: &[Update],
    predictor: Arc<dyn mbdr_core::Predictor>,
    link: LinkConfig,
    allowance: f64,
    loss_rate: f64,
) -> LossPoint {
    let mut channel = DegradedChannel::new(link);
    let mut server = ServerTracker::new(predictor);
    let mut decode_errors = 0u64;
    let mut deviations = Vec::with_capacity(trace.len());
    let mut next = 0usize;
    for (fix, truth) in trace.fixes.iter().zip(trace.ground_truth.iter()) {
        while next < updates.len() && updates[next].state.timestamp <= fix.t + 1e-9 {
            let update = updates[next];
            let bytes = Frame::single(SOURCE_ID, update).encode().expect("protocol updates encode");
            if update.kind == UpdateKind::Initial {
                channel.send_reliable(fix.t, bytes);
            } else {
                channel.send(fix.t, bytes);
            }
            next += 1;
        }
        for bytes in channel.deliver_until(fix.t) {
            match Frame::decode(&bytes) {
                Ok(frame) => {
                    for update in &frame.updates {
                        server.apply(update);
                    }
                }
                Err(_) => decode_errors += 1,
            }
        }
        if let Some(predicted) = server.position_at(fix.t) {
            deviations.push(predicted.distance(&truth.position));
        }
    }
    // Drain the tail: frames still in flight at the last fix (latency +
    // jitter + reorder/duplicate lag) are delivered and applied past trace
    // end, so every non-dropped frame really reaches the receiver and the
    // delivered ratio below is exact, not an in-flight overestimate.
    for bytes in channel.deliver_until(f64::INFINITY) {
        match Frame::decode(&bytes) {
            Ok(frame) => {
                for update in &frame.updates {
                    server.apply(update);
                }
            }
            Err(_) => decode_errors += 1,
        }
    }
    let stats = channel.stats();
    let unique_delivered = stats.frames_sent - stats.frames_dropped;
    let updates_applied = server.updates_applied();
    LossPoint {
        loss_rate,
        link: stats,
        decode_errors,
        updates_applied,
        delivered_ratio: if stats.frames_sent > 0 {
            unique_delivered as f64 / stats.frames_sent as f64
        } else {
            1.0
        },
        bytes_per_applied_update: if updates_applied > 0 {
            stats.payload_bytes as f64 / updates_applied as f64
        } else {
            // Undefined when nothing was applied; the JSON writer prints null.
            f64::NAN
        },
        deviation: DeviationStats::from_samples(deviations, allowance),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> LossSweepConfig {
        LossSweepConfig {
            scale: 0.06,
            loss_rates: vec![0.0, 0.15, 0.35, 0.6],
            ..LossSweepConfig::default()
        }
    }

    #[test]
    fn ideal_link_reproduces_the_runner() {
        // With every impairment off the wire loop must be invisible up to the
        // codec's documented f32 narrowing: encode → decode → apply gives the
        // same update count and deviation statistics (to well under the
        // centimetre) as the in-memory runner, which never serialises at all.
        let config = LossSweepConfig {
            scale: 0.06,
            loss_rates: vec![0.0],
            link: LinkConfig::ideal(),
            ..LossSweepConfig::default()
        };
        let result = run_loss_sweep(&config);
        let data =
            Scenario { kind: config.scenario, scale: config.scale, seed: config.seed }.build();
        let ctx = ProtocolContext::for_scenario(&data);
        let reference = run_protocol(
            &data.trace,
            config.protocol.build(&ctx, config.requested_accuracy),
            RunConfig::default(),
        );
        let point = &result.points[0];
        assert_eq!(point.decode_errors, 0);
        assert_eq!(point.updates_applied, reference.metrics.updates);
        let (wire, mem) = (&point.deviation, &reference.metrics.deviation);
        assert_eq!(wire.samples, mem.samples);
        assert_eq!(wire.bound_violations, mem.bound_violations);
        assert!((wire.mean - mem.mean).abs() < 0.01, "{} vs {}", wire.mean, mem.mean);
        assert!((wire.max - mem.max).abs() < 0.01);
        assert!((wire.p95 - mem.p95).abs() < 0.01);
    }

    #[test]
    fn accuracy_degrades_monotonically_with_loss() {
        let result = run_loss_sweep(&quick_config());
        assert_eq!(result.points.len(), 4);
        for pair in result.points.windows(2) {
            let (lo, hi) = (&pair[0], &pair[1]);
            assert!(
                hi.deviation.mean >= lo.deviation.mean,
                "mean deviation fell from {:.2} to {:.2} when loss rose {} -> {}",
                lo.deviation.mean,
                hi.deviation.mean,
                lo.loss_rate,
                hi.loss_rate
            );
            assert!(hi.delivered_ratio <= lo.delivered_ratio + 1e-12);
            assert!(hi.updates_applied <= lo.updates_applied);
            assert!(hi.bytes_per_applied_update >= lo.bytes_per_applied_update);
        }
        // Every point transmitted the same update stream; the only byte-cost
        // difference is duplicates that higher loss pre-empts (a dropped
        // frame is never retransmitted-in-duplicate), so bytes fall slightly
        // as loss rises while the frame count stays fixed.
        for pair in result.points.windows(2) {
            assert!(pair[1].link.payload_bytes <= pair[0].link.payload_bytes);
        }
        for p in &result.points {
            assert_eq!(p.link.frames_sent, result.updates_sent);
            assert_eq!(p.decode_errors, 0, "every delivered frame decodes");
        }
    }

    #[test]
    fn heavy_loss_violates_the_bound_more_often() {
        let result = run_loss_sweep(&quick_config());
        let clean = &result.points.first().unwrap().deviation;
        let lossy = &result.points.last().unwrap().deviation;
        assert!(
            lossy.bound_violations >= clean.bound_violations,
            "loss cannot reduce bound violations ({} -> {})",
            clean.bound_violations,
            lossy.bound_violations
        );
        assert!(lossy.max >= clean.max);
    }

    #[test]
    fn sweep_json_is_well_formed() {
        let result = run_loss_sweep(&LossSweepConfig {
            scale: 0.05,
            loss_rates: vec![0.0, 0.3],
            ..LossSweepConfig::default()
        });
        let tree = result.to_json();
        assert!(tree.to_string().starts_with("{\n  \"schema\": \"mbdr-wire/1\",\n"));
        let Some(Json::Arr(points)) = tree.get("points") else { panic!("points array") };
        assert_eq!(points.len(), 2);
        assert_eq!(points[1].get("loss_rate"), Some(&Json::exact(0.3)));
        assert!(points[1].get("deviation").and_then(|d| d.get("mean_m")).is_some());
        // The overhead is undefined (NaN) when nothing was applied: the leaf
        // stays exact and the writer alone turns it into null.
        let mut nothing_applied = result.clone();
        nothing_applied.points[0].bytes_per_applied_update = f64::NAN;
        assert!(nothing_applied
            .to_json()
            .to_string()
            .contains("\"bytes_per_applied_update\": null,\n"));
    }
}
