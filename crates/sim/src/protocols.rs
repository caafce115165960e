//! Protocol factory: build any protocol variant for a given scenario.
//!
//! The sweep driver and the benchmark harness describe *which* protocols to
//! compare with [`ProtocolKind`] values and let [`ProtocolKind::build`]
//! assemble the concrete protocol with the scenario's map, spatial index,
//! interpolation window and matching tolerance. Heavy shared structures (the
//! road network, the link locator, the route geometry, the transition table)
//! are built once per scenario in [`ProtocolContext`] and shared by reference
//! counting across all runs — exactly what a real deployment would do.

use mbdr_core::map_prob::learn_transitions_from_route;
use mbdr_core::{
    AdaptiveDeadReckoning, AdaptivePolicy, DistanceBasedReporting, HigherOrderDeadReckoning,
    IntersectionPolicy, KnownRouteDeadReckoning, LinearDeadReckoning, MapBasedDeadReckoning,
    ProbabilityMapDeadReckoning, ProtocolConfig, UpdateProtocol,
};
use mbdr_geo::Polyline;
use mbdr_roadnet::{LinkLocator, RoadNetwork, TransitionTable};
use mbdr_trace::ScenarioData;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The protocol variants the simulator can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProtocolKind {
    /// Non-DR distance-based reporting (the baseline of Figs. 7–10).
    DistanceBased,
    /// Linear-prediction dead reckoning.
    Linear,
    /// Higher-order (arc) dead reckoning.
    HigherOrder,
    /// Map-based dead reckoning (the paper's contribution).
    MapBased,
    /// Map-based dead reckoning with transition probabilities learned from the
    /// object's own route (user-specific training).
    MapProbability,
    /// Map-based dead reckoning that prefers main roads at intersections
    /// (ablation of the intersection policy).
    MapMainRoad,
    /// Map-based dead reckoning that always picks the first outgoing link
    /// (ablation lower bound for the intersection policy).
    MapFirstLink,
    /// Dead reckoning with the route known in advance (Wolfson et al.).
    KnownRoute,
    /// Wolfson-style adaptive dead reckoning (cost-balancing threshold).
    Adaptive,
    /// Wolfson-style disconnection-detection dead reckoning (declining
    /// threshold).
    DisconnectionDetection,
}

impl ProtocolKind {
    /// The three protocols evaluated in the paper's figures.
    pub const PAPER_SET: [ProtocolKind; 3] =
        [ProtocolKind::DistanceBased, ProtocolKind::Linear, ProtocolKind::MapBased];

    /// Short label used in tables and plots.
    pub fn label(self) -> &'static str {
        match self {
            ProtocolKind::DistanceBased => "distance-based",
            ProtocolKind::Linear => "linear-pred dr",
            ProtocolKind::HigherOrder => "higher-order dr",
            ProtocolKind::MapBased => "map-based dr",
            ProtocolKind::MapProbability => "map-based+prob dr",
            ProtocolKind::MapMainRoad => "map-based+mainroad dr",
            ProtocolKind::MapFirstLink => "map-based+firstlink dr",
            ProtocolKind::KnownRoute => "known-route dr",
            ProtocolKind::Adaptive => "adr",
            ProtocolKind::DisconnectionDetection => "dtdr",
        }
    }
}

/// Shared per-scenario structures from which protocols are built.
pub struct ProtocolContext {
    /// The road map.
    pub network: Arc<RoadNetwork>,
    /// Spatial index over the map, shared by all map-based protocol instances.
    pub locator: Arc<LinkLocator>,
    /// The trip geometry (for the known-route baseline).
    pub route_geometry: Arc<Polyline>,
    /// Transition table trained on the trip's own route (user-specific
    /// probabilities for the probability-enhanced variant).
    pub transitions: Arc<TransitionTable>,
    /// Speed/direction interpolation window (number of fixes).
    pub interpolation_window: usize,
    /// Map-matching tolerance `u_m`, metres.
    pub matching_tolerance: f64,
    /// Sensor uncertainty `u_p`, metres.
    pub sensor_uncertainty: f64,
}

impl ProtocolContext {
    /// Builds the context for a scenario.
    pub fn for_scenario(data: &ScenarioData) -> Self {
        let network = Arc::new(data.network.clone());
        let locator = Arc::new(LinkLocator::build(&network));
        let route_geometry = Arc::new(data.trip.path.clone());
        let mut transitions = TransitionTable::new();
        learn_transitions_from_route(&network, &data.trip.route, &mut transitions);
        let sensor_uncertainty = data.trace.fixes.first().map(|f| f.accuracy).unwrap_or(3.0);
        ProtocolContext {
            network,
            locator,
            route_geometry,
            transitions: Arc::new(transitions),
            interpolation_window: data.interpolation_window,
            matching_tolerance: data.matching_tolerance,
            sensor_uncertainty,
        }
    }

    /// The protocol configuration for a requested accuracy `u_s`.
    pub(crate) fn config(&self, requested_accuracy: f64) -> ProtocolConfig {
        ProtocolConfig::new(requested_accuracy).with_sensor_uncertainty(self.sensor_uncertainty)
    }
}

impl ProtocolKind {
    /// Builds a ready-to-run protocol instance for the given context and
    /// requested accuracy.
    pub fn build(self, ctx: &ProtocolContext, requested_accuracy: f64) -> Box<dyn UpdateProtocol> {
        let config = ctx.config(requested_accuracy);
        let window = ctx.interpolation_window;
        match self {
            ProtocolKind::DistanceBased => Box::new(DistanceBasedReporting::new(config)),
            ProtocolKind::Linear => Box::new(LinearDeadReckoning::new(config, window)),
            ProtocolKind::HigherOrder => Box::new(HigherOrderDeadReckoning::new(config, window)),
            ProtocolKind::MapBased => Box::new(MapBasedDeadReckoning::with_locator(
                Arc::clone(&ctx.network),
                Arc::clone(&ctx.locator),
                config,
                window,
                ctx.matching_tolerance,
                IntersectionPolicy::SmallestAngle,
            )),
            ProtocolKind::MapProbability => Box::new(ProbabilityMapDeadReckoning::new(
                Arc::clone(&ctx.network),
                Arc::clone(&ctx.transitions),
                config,
                window,
                ctx.matching_tolerance,
            )),
            ProtocolKind::MapMainRoad => Box::new(MapBasedDeadReckoning::with_locator(
                Arc::clone(&ctx.network),
                Arc::clone(&ctx.locator),
                config,
                window,
                ctx.matching_tolerance,
                IntersectionPolicy::MainRoad,
            )),
            ProtocolKind::MapFirstLink => Box::new(MapBasedDeadReckoning::with_locator(
                Arc::clone(&ctx.network),
                Arc::clone(&ctx.locator),
                config,
                window,
                ctx.matching_tolerance,
                IntersectionPolicy::FirstLink,
            )),
            ProtocolKind::KnownRoute => Box::new(KnownRouteDeadReckoning::new(
                Arc::clone(&ctx.route_geometry),
                config,
                window,
            )),
            ProtocolKind::Adaptive => Box::new(AdaptiveDeadReckoning::new(
                AdaptivePolicy::CostBased { update_cost: 1_000.0, deviation_cost: 1.0 },
                config,
                window,
            )),
            ProtocolKind::DisconnectionDetection => Box::new(AdaptiveDeadReckoning::new(
                AdaptivePolicy::Declining { decay_per_second: 0.01, floor: 20.0 },
                config,
                window,
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbdr_trace::{Scenario, ScenarioKind};

    #[test]
    fn every_protocol_kind_builds_and_reports_its_config() {
        let data = Scenario { kind: ScenarioKind::City, scale: 0.03, seed: 5 }.build();
        let ctx = ProtocolContext::for_scenario(&data);
        for kind in [
            ProtocolKind::DistanceBased,
            ProtocolKind::Linear,
            ProtocolKind::HigherOrder,
            ProtocolKind::MapBased,
            ProtocolKind::MapProbability,
            ProtocolKind::MapMainRoad,
            ProtocolKind::MapFirstLink,
            ProtocolKind::KnownRoute,
            ProtocolKind::Adaptive,
            ProtocolKind::DisconnectionDetection,
        ] {
            let p = kind.build(&ctx, 120.0);
            assert_eq!(p.config().requested_accuracy, 120.0);
            assert!(!p.name().is_empty());
            assert!(!kind.label().is_empty());
        }
    }

    #[test]
    fn paper_set_is_the_three_figure_protocols() {
        assert_eq!(ProtocolKind::PAPER_SET.len(), 3);
        assert!(ProtocolKind::PAPER_SET.contains(&ProtocolKind::MapBased));
        assert!(ProtocolKind::PAPER_SET.contains(&ProtocolKind::Linear));
        assert!(ProtocolKind::PAPER_SET.contains(&ProtocolKind::DistanceBased));
    }
}
