//! Synthetic freeway map: a long, gently curving carriageway with
//! interchanges and crossing roads.
//!
//! Mirrors the paper's freeway scenario (Table 1: 163 km driven at an average
//! of 103 km/h): few intersections, long links, smooth curves — the conditions
//! under which the map-based predictor shines because it can follow the curves
//! of the road that defeat linear prediction (Fig. 3 vs. Fig. 6).

use crate::builder::NetworkBuilder;
use crate::gen::curved_shape_points;
use crate::link::RoadClass;
use crate::network::RoadNetwork;
use mbdr_geo::{Point, Vec2};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the freeway generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FreewayConfig {
    /// Total length of the freeway centreline, metres.
    pub total_length_m: f64,
    /// Distance between interchanges, metres.
    pub interchange_spacing_m: f64,
    /// Maximum heading change per interchange-to-interchange stretch, radians.
    pub max_bend_per_link: f64,
    /// Lateral amplitude of the in-link curvature, metres.
    pub curve_amplitude_m: f64,
    /// Length of the crossing roads attached at each interchange, metres.
    pub crossing_road_length_m: f64,
    /// Random seed.
    pub seed: u64,
}

impl Default for FreewayConfig {
    fn default() -> Self {
        FreewayConfig {
            // Slightly longer than the 163 km trace so the vehicle never runs
            // out of road.
            total_length_m: 170_000.0,
            interchange_spacing_m: 4_000.0,
            max_bend_per_link: 0.35,
            curve_amplitude_m: 120.0,
            crossing_road_length_m: 1_500.0,
            seed: 0x5EED_F8EE,
        }
    }
}

/// Generates the freeway network described by `config`.
///
/// The returned network is connected, validates cleanly, and consists of
/// freeway links (class [`RoadClass::Freeway`]) along the main carriageway
/// plus a pair of [`RoadClass::Arterial`] crossing-road stubs at every
/// interchange, so that every interchange is a genuine decision point for the
/// map-based predictor.
pub fn generate(config: &FreewayConfig) -> RoadNetwork {
    assert!(config.total_length_m > 0.0, "freeway length must be positive");
    assert!(config.interchange_spacing_m > 100.0, "interchange spacing unrealistically small");

    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut b = NetworkBuilder::new();

    let n_sections = (config.total_length_m / config.interchange_spacing_m).ceil() as usize;
    // Lay out interchange nodes with a slowly wandering heading, starting
    // roughly eastbound.
    let mut heading = std::f64::consts::FRAC_PI_2; // east
    let mut position = Point::new(0.0, 0.0);
    let mut interchange_nodes = Vec::with_capacity(n_sections + 1);
    interchange_nodes.push(b.add_named_node(position, "interchange 0"));
    for i in 1..=n_sections {
        heading += rng.gen_range(-config.max_bend_per_link..=config.max_bend_per_link);
        // Keep the freeway heading broadly eastbound so it never loops onto
        // itself, which would create unrealistic self-intersections.
        let east = std::f64::consts::FRAC_PI_2;
        heading = heading.clamp(east - 0.9, east + 0.9);
        position += Vec2::from_heading(heading) * config.interchange_spacing_m;
        interchange_nodes.push(b.add_named_node(position, format!("interchange {i}")));
    }

    // Freeway links between consecutive interchanges, with curvature.
    for w in interchange_nodes.windows(2) {
        let from_pos = b.node_position(w[0]);
        let to_pos = b.node_position(w[1]);
        let shape =
            curved_shape_points(&mut rng, from_pos, to_pos, 250.0, config.curve_amplitude_m);
        let link = b.add_link(w[0], w[1], shape, RoadClass::Freeway);
        b.set_speed_limit(link, 130.0);
    }

    // Crossing roads: one arterial stub on each side of every interior
    // interchange (skip the two termini).
    for (i, &node) in interchange_nodes.iter().enumerate().skip(1) {
        if i == interchange_nodes.len() - 1 {
            break;
        }
        let here = b.node_position(node);
        let prev = b.node_position(interchange_nodes[i - 1]);
        let along = (here - prev).normalized_or_north();
        let normal = along.perp();
        for side in [-1.0, 1.0] {
            let end = here
                + normal * (side * config.crossing_road_length_m)
                + along * rng.gen_range(-200.0..200.0);
            let stub = b.add_node(end);
            let shape = curved_shape_points(&mut rng, here, end, 200.0, 40.0);
            let link = b.add_link(node, stub, shape, RoadClass::Arterial);
            b.set_speed_limit(link, 80.0);
        }
    }

    b.build().expect("generated freeway must be structurally valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> FreewayConfig {
        FreewayConfig { total_length_m: 20_000.0, ..FreewayConfig::default() }
    }

    #[test]
    fn generated_freeway_validates_and_is_connected() {
        let net = generate(&small_config());
        assert!(net.validate().is_empty());
        assert!(net.is_connected());
        assert!(net.link_count() > 0);
    }

    #[test]
    fn freeway_length_is_at_least_the_requested_length() {
        let net = generate(&small_config());
        let freeway_length: f64 =
            net.links().iter().filter(|l| l.class == RoadClass::Freeway).map(|l| l.length()).sum();
        assert!(freeway_length >= 20_000.0, "freeway length {freeway_length}");
    }

    #[test]
    fn interchanges_are_decision_points() {
        let net = generate(&small_config());
        let max_degree = net.nodes().iter().map(|n| net.degree(n.id)).max();
        assert!(max_degree >= Some(4), "interchanges must have degree >= 3");
    }

    #[test]
    fn links_have_shape_points_for_curves() {
        let net = generate(&small_config());
        let curved = net
            .links()
            .iter()
            .filter(|l| l.class == RoadClass::Freeway && l.geometry.vertices().len() > 2)
            .count();
        assert!(curved > 0, "freeway links should carry shape points");
    }

    #[test]
    fn same_seed_same_map_different_seed_different_map() {
        let a = generate(&small_config());
        let b = generate(&small_config());
        assert_eq!(a.nodes(), b.nodes());
        assert_eq!(a.links(), b.links());
        let c = generate(&FreewayConfig { seed: 12345, ..small_config() });
        assert_ne!(a.links(), c.links());
    }

    #[test]
    fn freeway_progresses_eastwards_without_looping_back() {
        let net = generate(&small_config());
        let bb = net.bounding_box().unwrap();
        // The east-west extent should dominate: the freeway heads east.
        assert!(bb.width() > bb.height());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_length_is_rejected() {
        let _ = generate(&FreewayConfig { total_length_m: 0.0, ..FreewayConfig::default() });
    }
}
