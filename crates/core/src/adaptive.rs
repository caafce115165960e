//! Wolfson-style adaptive threshold policies (adr / dtdr).
//!
//! The related work the paper builds on (Wolfson et al. \[12\]) studies dead
//! reckoning where the update threshold is not fixed but chosen to minimise a
//! cost that charges both for update messages and for uncertainty. Its fixed
//! threshold (*sdr*, speed dead reckoning) is the plain linear protocol,
//! [`crate::LinearDeadReckoning`]; the two adaptive policies are:
//!
//! * **adr** (adaptive dead reckoning): after each update the threshold is
//!   recomputed from the observed deviation growth rate, balancing the cost of
//!   an update against the cost of carrying uncertainty;
//! * **dtdr** (disconnection-detection dead reckoning): the threshold decays
//!   over time while no update is sent, so a long silence implies a tight
//!   bound on the uncertainty and a disconnected source is noticed quickly.
//!
//! These policies do not guarantee a fixed accuracy `u_s`; they are included
//! as the prior-art comparison points for the ablation benchmarks.

use crate::predictor::{LinearPredictor, Predictor};
use crate::protocol::{ProtocolConfig, Sighting, UpdateProtocol};
use crate::state::{ObjectState, Update, UpdateKind};
use mbdr_geo::MotionEstimator;
use std::sync::Arc;

/// How the send threshold evolves over time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdaptivePolicy {
    /// Cost-balancing threshold (Wolfson's *adaptive dead reckoning*): after
    /// each update the threshold is set to `sqrt(2 · update_cost · a /
    /// deviation_cost)`, where `a` is the observed deviation growth rate in
    /// m/s — the minimiser of `update_cost / T + deviation_cost · a · T / 2`
    /// for an inter-update interval `T`.
    CostBased {
        /// Cost charged per update message (arbitrary units).
        update_cost: f64,
        /// Cost charged per metre of deviation per second (same units).
        deviation_cost: f64,
    },
    /// Declining threshold (Wolfson's *disconnection-detection dead
    /// reckoning*): the threshold shrinks exponentially while no update is
    /// sent, with a floor.
    Declining {
        /// Fraction of the threshold lost per second of silence.
        decay_per_second: f64,
        /// Minimum threshold, metres.
        floor: f64,
    },
}

/// Linear-prediction dead reckoning with an adaptive send threshold.
pub struct AdaptiveDeadReckoning {
    policy: AdaptivePolicy,
    base_config: ProtocolConfig,
    predictor: Arc<LinearPredictor>,
    estimator: MotionEstimator,
    last_reported: Option<ObjectState>,
    current_threshold: f64,
    last_update_t: f64,
    sequence: u64,
}

impl AdaptiveDeadReckoning {
    /// Creates the protocol. `base_config.requested_accuracy` is the initial
    /// threshold.
    pub fn new(
        policy: AdaptivePolicy,
        base_config: ProtocolConfig,
        interpolation_window: usize,
    ) -> Self {
        AdaptiveDeadReckoning {
            policy,
            base_config,
            predictor: Arc::new(LinearPredictor),
            estimator: MotionEstimator::new(interpolation_window),
            last_reported: None,
            current_threshold: base_config.requested_accuracy,
            last_update_t: 0.0,
            sequence: 0,
        }
    }

    fn effective_threshold(&self, t: f64) -> f64 {
        match self.policy {
            AdaptivePolicy::CostBased { .. } => self.current_threshold,
            AdaptivePolicy::Declining { decay_per_second, floor } => {
                let silence = (t - self.last_update_t).max(0.0);
                (self.current_threshold * (-decay_per_second * silence).exp()).max(floor)
            }
        }
    }

    fn adapt_after_update(&mut self, deviation: f64, t: f64) {
        if let AdaptivePolicy::CostBased { update_cost, deviation_cost } = self.policy {
            let interval = (t - self.last_update_t).max(1.0);
            // Observed deviation growth rate since the previous update.
            let growth = (deviation / interval).max(0.05);
            let optimal = (2.0 * update_cost * growth / deviation_cost.max(1e-9)).sqrt();
            // Keep the threshold within a sane band around the base accuracy.
            self.current_threshold = optimal.clamp(
                self.base_config.requested_accuracy * 0.2,
                self.base_config.requested_accuracy * 5.0,
            );
        }
    }
}

impl UpdateProtocol for AdaptiveDeadReckoning {
    fn name(&self) -> &str {
        match self.policy {
            AdaptivePolicy::CostBased { .. } => "adr (adaptive dead reckoning)",
            AdaptivePolicy::Declining { .. } => "dtdr (disconnection-detection dead reckoning)",
        }
    }

    fn on_sighting(&mut self, s: Sighting) -> Option<Update> {
        let estimate = self.estimator.push(s.t, s.position);
        let (send, kind, deviation) = match &self.last_reported {
            None => (true, UpdateKind::Initial, 0.0),
            Some(last) => {
                let predicted = self.predictor.predict(last, s.t);
                let deviation = s.position.distance(&predicted) + s.accuracy;
                (deviation > self.effective_threshold(s.t), UpdateKind::DeviationBound, deviation)
            }
        };
        if !send {
            return None;
        }
        self.adapt_after_update(deviation, s.t);
        self.last_update_t = s.t;
        let state = ObjectState::basic(s.position, estimate.speed, estimate.heading, s.t);
        self.last_reported = Some(state);
        let update = Update { sequence: self.sequence, state, kind };
        self.sequence += 1;
        Some(update)
    }

    fn predictor(&self) -> Arc<dyn Predictor> {
        self.predictor.clone()
    }

    fn config(&self) -> ProtocolConfig {
        self.base_config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbdr_geo::Point;

    /// A slalom drive where linear prediction keeps failing.
    fn slalom(n: usize) -> Vec<Point> {
        (0..n).map(|t| Point::new(15.0 * t as f64, 100.0 * ((t as f64) * 0.08).sin())).collect()
    }

    fn run(p: &mut dyn UpdateProtocol, positions: &[Point]) -> usize {
        positions
            .iter()
            .enumerate()
            .filter(|(t, pos)| {
                p.on_sighting(Sighting { t: *t as f64, position: **pos, accuracy: 3.0 }).is_some()
            })
            .count()
    }

    #[test]
    fn cost_based_threshold_adapts_to_the_motion() {
        let positions = slalom(400);
        let mut adr = AdaptiveDeadReckoning::new(
            AdaptivePolicy::CostBased { update_cost: 500.0, deviation_cost: 1.0 },
            ProtocolConfig::new(50.0),
            4,
        );
        run(&mut adr, &positions);
        // The threshold must have moved away from its initial value.
        assert_ne!(adr.current_threshold, 50.0);
        assert!(adr.current_threshold >= 10.0 && adr.current_threshold <= 250.0);
        assert!(adr.name().starts_with("adr"));
    }

    #[test]
    fn expensive_updates_mean_fewer_updates() {
        let positions = slalom(400);
        let mut cheap = AdaptiveDeadReckoning::new(
            AdaptivePolicy::CostBased { update_cost: 50.0, deviation_cost: 1.0 },
            ProtocolConfig::new(50.0),
            4,
        );
        let mut expensive = AdaptiveDeadReckoning::new(
            AdaptivePolicy::CostBased { update_cost: 5_000.0, deviation_cost: 1.0 },
            ProtocolConfig::new(50.0),
            4,
        );
        let cheap_updates = run(&mut cheap, &positions);
        let expensive_updates = run(&mut expensive, &positions);
        assert!(
            expensive_updates < cheap_updates,
            "expensive {expensive_updates} vs cheap {cheap_updates}"
        );
    }

    #[test]
    fn declining_threshold_sends_even_with_small_deviations() {
        // Nearly straight, slow drift: a fixed 100 m threshold would stay
        // silent for the whole 10 minutes, but the declining policy must emit
        // periodic liveness updates.
        let positions: Vec<Point> =
            (0..600).map(|t| Point::new(10.0 * t as f64, 0.002 * (t as f64).powi(2))).collect();
        let mut fixed = crate::linear::LinearDeadReckoning::new(ProtocolConfig::new(100.0), 2);
        let mut dtdr = AdaptiveDeadReckoning::new(
            AdaptivePolicy::Declining { decay_per_second: 0.02, floor: 10.0 },
            ProtocolConfig::new(100.0),
            2,
        );
        let fixed_updates = run(&mut fixed, &positions);
        let dtdr_updates = run(&mut dtdr, &positions);
        assert!(dtdr_updates > fixed_updates, "dtdr {dtdr_updates} vs fixed {fixed_updates}");
        assert!(dtdr.name().starts_with("dtdr"));
    }
}
