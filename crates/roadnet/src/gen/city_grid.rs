//! Synthetic city map: a perturbed Manhattan grid with arterials and side
//! streets.
//!
//! Mirrors the paper's city-traffic scenario (Table 1: 89 km at an average of
//! 34 km/h): short links, dense intersections, frequent turns — the regime in
//! which even the map-based predictor has to guess often and the relative
//! advantage over linear prediction shrinks (Fig. 9).

use crate::builder::NetworkBuilder;
use crate::gen::jitter;
use crate::ids::NodeId;
use crate::link::RoadClass;
use crate::network::RoadNetwork;
use mbdr_geo::Point;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the city-grid generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CityConfig {
    /// Number of north-south streets.
    pub columns: usize,
    /// Number of east-west streets.
    pub rows: usize,
    /// Block edge length, metres.
    pub block_size_m: f64,
    /// Positional jitter applied to every intersection, metres.
    pub jitter_m: f64,
    /// Every `arterial_every`-th row/column becomes an arterial (faster,
    /// higher priority); the rest are residential streets.
    pub arterial_every: usize,
    /// Probability that a residential grid edge is removed (creates dead ends
    /// and irregular blocks like a real city). Connectivity is restored after
    /// removal if it breaks.
    pub removal_probability: f64,
    /// Random seed.
    pub seed: u64,
}

impl Default for CityConfig {
    fn default() -> Self {
        CityConfig {
            columns: 24,
            rows: 24,
            block_size_m: 160.0,
            jitter_m: 18.0,
            arterial_every: 4,
            removal_probability: 0.08,
            seed: 0xC17_15EED,
        }
    }
}

/// Generates the city network described by `config`.
pub fn generate(config: &CityConfig) -> RoadNetwork {
    assert!(config.columns >= 2 && config.rows >= 2, "city grid needs at least 2x2 intersections");
    assert!(config.block_size_m > 10.0, "block size unrealistically small");
    assert!((0.0..1.0).contains(&config.removal_probability));

    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut b = NetworkBuilder::new();

    // Intersections.
    let mut ids: Vec<NodeId> = Vec::with_capacity(config.columns * config.rows);
    for j in 0..config.rows {
        for i in 0..config.columns {
            let base = Point::new(i as f64 * config.block_size_m, j as f64 * config.block_size_m);
            ids.push(b.add_node(jitter(&mut rng, base, config.jitter_m)));
        }
    }
    let at = |i: usize, j: usize| ids[j * config.columns + i];
    let is_arterial_col =
        |i: usize| config.arterial_every > 0 && i.is_multiple_of(config.arterial_every);
    let is_arterial_row =
        |j: usize| config.arterial_every > 0 && j.is_multiple_of(config.arterial_every);

    // Streets along the grid, with occasional removals of residential edges.
    for j in 0..config.rows {
        for i in 0..config.columns {
            if i + 1 < config.columns {
                let arterial = is_arterial_row(j);
                if arterial || rng.gen::<f64>() >= config.removal_probability {
                    let class = if arterial { RoadClass::Arterial } else { RoadClass::Residential };
                    b.add_straight_link(at(i, j), at(i + 1, j), class);
                }
            }
            if j + 1 < config.rows {
                let arterial = is_arterial_col(i);
                if arterial || rng.gen::<f64>() >= config.removal_probability {
                    let class = if arterial { RoadClass::Arterial } else { RoadClass::Residential };
                    b.add_straight_link(at(i, j), at(i, j + 1), class);
                }
            }
        }
    }

    let net = b.build().expect("generated city grid must be structurally valid");
    if net.is_connected() {
        return net;
    }
    // Random removals occasionally disconnect the grid; regenerate without
    // removals in that case (still a valid city, just denser).
    generate(&CityConfig { removal_probability: 0.0, ..*config })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CityConfig {
        CityConfig { columns: 8, rows: 6, ..CityConfig::default() }
    }

    #[test]
    fn generated_city_validates_and_is_connected() {
        let net = generate(&small());
        assert!(net.validate().is_empty());
        assert!(net.is_connected());
        assert_eq!(net.node_count(), 48);
    }

    #[test]
    fn grid_has_many_decision_points() {
        let net = generate(&small());
        // Interior nodes of a grid have degree 4 (minus removals).
        let decision_nodes = net.nodes().iter().filter(|n| net.degree(n.id) >= 3).count();
        assert!(decision_nodes > net.node_count() / 3);
        let total: f64 = net.links().iter().map(|l| l.length()).sum();
        assert!(total / (net.link_count() as f64) < 300.0);
    }

    #[test]
    fn arterials_are_present_and_faster() {
        let net = generate(&small());
        let arterials: Vec<_> =
            net.links().iter().filter(|l| l.class == RoadClass::Arterial).collect();
        let residentials: Vec<_> =
            net.links().iter().filter(|l| l.class == RoadClass::Residential).collect();
        assert!(!arterials.is_empty());
        assert!(!residentials.is_empty());
        assert!(arterials[0].speed_limit_kmh > residentials[0].speed_limit_kmh);
    }

    #[test]
    fn determinism_in_seed() {
        let a = generate(&small());
        let b = generate(&small());
        assert_eq!(a.links(), b.links());
    }

    #[test]
    fn no_removals_gives_the_full_grid() {
        let cfg = CityConfig { removal_probability: 0.0, jitter_m: 0.0, ..small() };
        let net = generate(&cfg);
        // Full grid: rows*(cols-1) + cols*(rows-1) edges.
        assert_eq!(net.link_count(), 6 * 7 + 8 * 5);
    }

    #[test]
    #[should_panic(expected = "at least 2x2")]
    fn degenerate_grid_is_rejected() {
        let _ = generate(&CityConfig { columns: 1, rows: 5, ..CityConfig::default() });
    }
}
