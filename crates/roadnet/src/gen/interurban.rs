//! Synthetic inter-urban map: villages connected by winding country roads.
//!
//! Mirrors the paper's inter-urban scenario (Table 1: 99 km at an average of
//! 60 km/h): stretches of fast, moderately curved trunk road interrupted by
//! slower passages through villages with a handful of intersections each.

use crate::builder::NetworkBuilder;
use crate::gen::{curved_shape_points, jitter};
use crate::ids::NodeId;
use crate::link::RoadClass;
use crate::network::RoadNetwork;
use mbdr_geo::{Point, Vec2};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the inter-urban generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterurbanConfig {
    /// Number of villages along the corridor.
    pub towns: usize,
    /// Distance between consecutive villages, metres.
    pub town_spacing_m: f64,
    /// Side length of a village's small street grid, metres.
    pub town_extent_m: f64,
    /// Lateral amplitude of the country-road curves, metres.
    pub road_curve_amplitude_m: f64,
    /// Number of side roads branching off between villages.
    pub side_roads_per_leg: usize,
    /// Random seed.
    pub seed: u64,
}

impl Default for InterurbanConfig {
    fn default() -> Self {
        InterurbanConfig {
            towns: 12,
            town_spacing_m: 9_000.0,
            town_extent_m: 900.0,
            road_curve_amplitude_m: 250.0,
            side_roads_per_leg: 2,
            seed: 0x1A7E_12BA,
        }
    }
}

/// A generated village: the nodes the corridor code needs to attach the
/// trunk road (entering from the west, leaving towards the east). Its centre
/// node is named `town {i} centre`; the trace scenarios find that landmark
/// by its name.
struct Town {
    west_gate: NodeId,
    east_gate: NodeId,
}

fn add_town(
    b: &mut NetworkBuilder,
    rng: &mut StdRng,
    center: Point,
    extent: f64,
    idx: usize,
) -> Town {
    // A village is a plus-shaped set of streets: a centre node, four edge
    // nodes, and the connecting residential links, plus a ring fragment.
    let c = b.add_named_node(center, format!("town {idx} centre"));
    let half = extent / 2.0;
    let north = b.add_node(jitter(rng, center + Vec2::new(0.0, half), 30.0));
    let south = b.add_node(jitter(rng, center + Vec2::new(0.0, -half), 30.0));
    let east = b.add_node(jitter(rng, center + Vec2::new(half, 0.0), 30.0));
    let west = b.add_node(jitter(rng, center + Vec2::new(-half, 0.0), 30.0));
    for n in [north, south, east, west] {
        b.add_straight_link(c, n, RoadClass::Residential);
    }
    // Two corner streets make the village a small mesh rather than a pure star.
    let ne = b.add_node(jitter(rng, center + Vec2::new(half * 0.8, half * 0.8), 30.0));
    b.add_straight_link(north, ne, RoadClass::Residential);
    b.add_straight_link(east, ne, RoadClass::Residential);
    Town { west_gate: west, east_gate: east }
}

/// Generates the inter-urban network described by `config`.
pub fn generate(config: &InterurbanConfig) -> RoadNetwork {
    assert!(config.towns >= 2, "an inter-urban corridor needs at least two towns");
    assert!(config.town_spacing_m > config.town_extent_m, "towns would overlap");

    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut b = NetworkBuilder::new();

    // Lay the villages out along a gently wandering corridor heading east.
    let mut heading = std::f64::consts::FRAC_PI_2;
    let mut position = Point::new(0.0, 0.0);
    let mut towns: Vec<Town> = Vec::with_capacity(config.towns);
    for i in 0..config.towns {
        towns.push(add_town(&mut b, &mut rng, position, config.town_extent_m, i));
        heading += rng.gen_range(-0.5..0.5);
        heading =
            heading.clamp(std::f64::consts::FRAC_PI_2 - 0.8, std::f64::consts::FRAC_PI_2 + 0.8);
        position += Vec2::from_heading(heading) * config.town_spacing_m;
    }

    // Country roads between consecutive villages, with curvature and the
    // occasional side road branching off to a dead-end hamlet. The trunk road
    // enters each village at its western gate and leaves at its eastern gate,
    // so a corridor trip has to slow down through every village — that mix of
    // fast country road and slow village passage is what gives the
    // inter-urban scenario its Table 1 character (average 60 km/h, max 116).
    for w in towns.windows(2) {
        let from = w[0].east_gate;
        let to = w[1].west_gate;
        let from_pos = b.node_position(from);
        let to_pos = b.node_position(to);
        let shape =
            curved_shape_points(&mut rng, from_pos, to_pos, 300.0, config.road_curve_amplitude_m);
        let trunk = b.add_link(from, to, shape, RoadClass::Trunk);
        // Not every stretch of country road allows 100 km/h.
        b.set_speed_limit(trunk, rng.gen_range(70.0..100.0_f64).round());

        for _ in 0..config.side_roads_per_leg {
            // Branch from a random point roughly along the leg.
            let t = rng.gen_range(0.25..0.75);
            let branch_origin = from_pos.lerp(&to_pos, t);
            let branch_node = b.add_node(jitter(&mut rng, branch_origin, 40.0));
            // Connect the branch point to the nearer village centre so the
            // network stays connected without touching the trunk geometry.
            let anchor = if t < 0.5 { from } else { to };
            let link = b.add_straight_link(anchor, branch_node, RoadClass::Residential);
            b.set_speed_limit(link, 70.0);
            let hamlet_heading = rng.gen_range(0.0..std::f64::consts::TAU);
            let hamlet = b.add_node(jitter(
                &mut rng,
                branch_origin + Vec2::from_heading(hamlet_heading) * 1_200.0,
                60.0,
            ));
            b.add_straight_link(branch_node, hamlet, RoadClass::Residential);
        }
    }

    b.build().expect("generated inter-urban map must be structurally valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> InterurbanConfig {
        InterurbanConfig { towns: 4, ..InterurbanConfig::default() }
    }

    #[test]
    fn generated_map_validates_and_is_connected() {
        let net = generate(&small());
        assert!(net.validate().is_empty());
        assert!(net.is_connected());
    }

    #[test]
    fn trunk_roads_are_long_and_curved() {
        let net = generate(&small());
        let trunks: Vec<_> = net.links().iter().filter(|l| l.class == RoadClass::Trunk).collect();
        assert_eq!(trunks.len(), 3, "one trunk per consecutive town pair");
        for t in trunks {
            assert!(t.length() >= small().town_spacing_m * 0.7);
            assert!(t.geometry.vertices().len() > 2, "country roads should wind");
            assert!((70.0..=100.0).contains(&t.speed_limit_kmh));
        }
    }

    #[test]
    fn villages_contain_residential_streets() {
        let net = generate(&small());
        let residential = net.links().iter().filter(|l| l.class == RoadClass::Residential).count();
        assert!(residential >= 4 * 6, "each village contributes at least six streets");
    }

    #[test]
    fn corridor_total_length_scales_with_town_count() {
        let small_net = generate(&small());
        let large_net = generate(&InterurbanConfig { towns: 8, ..small() });
        let total = |net: &RoadNetwork| net.links().iter().map(|l| l.length()).sum::<f64>();
        assert!(total(&large_net) > total(&small_net) * 1.8);
    }

    #[test]
    fn there_are_decision_points_at_village_centres() {
        let net = generate(&small());
        assert!(net.nodes().iter().filter(|n| net.degree(n.id) >= 3).count() >= 4);
    }

    #[test]
    fn determinism_in_seed() {
        let a = generate(&small());
        let b = generate(&small());
        assert_eq!(a.nodes(), b.nodes());
        assert_eq!(a.links(), b.links());
    }

    #[test]
    #[should_panic(expected = "at least two towns")]
    fn single_town_is_rejected() {
        let _ = generate(&InterurbanConfig { towns: 1, ..InterurbanConfig::default() });
    }
}
