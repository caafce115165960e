//! Synthetic campus / pedestrian map: an irregular footpath network.
//!
//! Mirrors the paper's walking scenario (Table 1: 10 km at an average of
//! 4.6 km/h). Pedestrian movement is slow relative to the GPS noise and the
//! path network is irregular with many junctions, which is why the walking
//! scenario is the one case where the paper observed the map-based protocol
//! losing to linear prediction at the tightest accuracy bound (Fig. 10).

use crate::builder::NetworkBuilder;
use crate::gen::{curved_shape_points, jitter};
use crate::ids::NodeId;
use crate::link::RoadClass;
use crate::network::RoadNetwork;
use mbdr_geo::Point;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration of the campus footpath generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampusConfig {
    /// Number of path junctions.
    pub junctions: usize,
    /// Side length of the (square) campus area, metres.
    pub extent_m: f64,
    /// Number of nearest neighbours each junction is connected to.
    pub neighbours: usize,
    /// Lateral amplitude of path curvature, metres.
    pub path_curve_amplitude_m: f64,
    /// Random seed.
    pub seed: u64,
}

impl Default for CampusConfig {
    fn default() -> Self {
        CampusConfig {
            junctions: 120,
            extent_m: 2_200.0,
            neighbours: 3,
            path_curve_amplitude_m: 12.0,
            seed: 0xCA_B005E,
        }
    }
}

/// Generates the campus footpath network described by `config`.
///
/// Junctions are scattered over a jittered grid (so they keep a sensible
/// minimum spacing); each junction is connected to its `neighbours` nearest
/// neighbours and any remaining components are stitched together afterwards,
/// so the result is always connected.
pub fn generate(config: &CampusConfig) -> RoadNetwork {
    assert!(config.junctions >= 4, "a campus needs at least four junctions");
    assert!(config.neighbours >= 1);

    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut b = NetworkBuilder::new();

    // Scatter junctions on a jittered grid covering the extent.
    let per_side = (config.junctions as f64).sqrt().ceil() as usize;
    let cell = config.extent_m / per_side as f64;
    let mut positions: Vec<Point> = Vec::with_capacity(config.junctions);
    'outer: for j in 0..per_side {
        for i in 0..per_side {
            if positions.len() == config.junctions {
                break 'outer;
            }
            let base = Point::new((i as f64 + 0.5) * cell, (j as f64 + 0.5) * cell);
            positions.push(jitter(&mut rng, base, cell * 0.3));
        }
    }
    let ids: Vec<NodeId> = positions.iter().map(|&p| b.add_node(p)).collect();

    // Connect each junction to its nearest neighbours (deduplicated).
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for (i, &p) in positions.iter().enumerate() {
        let mut by_distance: Vec<(f64, usize)> = positions
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(j, &q)| (p.distance(&q), j))
            .collect();
        by_distance.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for &(_, j) in by_distance.iter().take(config.neighbours) {
            let key = (i.min(j), i.max(j));
            if !edges.contains(&key) {
                edges.push(key);
            }
        }
    }
    for &(i, j) in &edges {
        let shape = curved_shape_points(
            &mut rng,
            positions[i],
            positions[j],
            40.0,
            config.path_curve_amplitude_m,
        );
        b.add_link(ids[i], ids[j], shape, RoadClass::Footpath);
    }

    let net = b.build().expect("generated campus must be structurally valid");
    if net.is_connected() {
        return net;
    }

    // Stitch disconnected components together: repeatedly connect the first
    // unreachable junction to its nearest reachable one.
    let mut b = NetworkBuilder::new();
    for &p in &positions {
        b.add_node(p);
    }
    for &(i, j) in &edges {
        let shape = curved_shape_points(
            &mut rng,
            positions[i],
            positions[j],
            40.0,
            config.path_curve_amplitude_m,
        );
        b.add_link(ids[i], ids[j], shape, RoadClass::Footpath);
    }
    let mut extra: Vec<(usize, usize)> = Vec::new();
    loop {
        let net = {
            // Build a throwaway copy to test connectivity.
            let mut tb = NetworkBuilder::new();
            for &p in &positions {
                tb.add_node(p);
            }
            for &(i, j) in edges.iter().chain(extra.iter()) {
                tb.add_straight_link(NodeId(i as u32), NodeId(j as u32), RoadClass::Footpath);
            }
            tb.build_unchecked()
        };
        if net.is_connected() {
            break;
        }
        // Find reachable set from node 0.
        let mut seen = vec![false; positions.len()];
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(n) = stack.pop() {
            for &(i, j) in edges.iter().chain(extra.iter()) {
                for (a, c) in [(i, j), (j, i)] {
                    if a == n && !seen[c] {
                        seen[c] = true;
                        stack.push(c);
                    }
                }
            }
        }
        let unreachable = seen.iter().position(|&s| !s).expect("network is disconnected");
        let nearest_reachable = (0..positions.len())
            .filter(|&k| seen[k])
            .min_by(|&a, &c| {
                positions[a]
                    .distance(&positions[unreachable])
                    .partial_cmp(&positions[c].distance(&positions[unreachable]))
                    .unwrap()
            })
            .expect("at least node 0 is reachable");
        extra.push((unreachable.min(nearest_reachable), unreachable.max(nearest_reachable)));
    }
    for &(i, j) in &extra {
        b.add_straight_link(NodeId(i as u32), NodeId(j as u32), RoadClass::Footpath);
    }
    b.build().expect("stitched campus must be structurally valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CampusConfig {
        CampusConfig { junctions: 30, extent_m: 800.0, ..CampusConfig::default() }
    }

    #[test]
    fn generated_campus_validates_and_is_connected() {
        let net = generate(&small());
        assert!(net.validate().is_empty());
        assert!(net.is_connected());
        assert_eq!(net.node_count(), 30);
    }

    #[test]
    fn all_links_are_footpaths_with_low_speed() {
        let net = generate(&small());
        assert!(net.links().iter().all(|l| l.class == RoadClass::Footpath));
        assert!(net.links().iter().all(|l| l.speed_limit_kmh <= 10.0));
    }

    #[test]
    fn paths_are_short_relative_to_roads() {
        let net = generate(&small());
        let total: f64 = net.links().iter().map(|l| l.length()).sum();
        assert!(total / (net.link_count() as f64) < 500.0);
        assert!(net.nodes().iter().any(|n| net.degree(n.id) >= 3));
    }

    #[test]
    fn determinism_in_seed() {
        let a = generate(&small());
        let b = generate(&small());
        assert_eq!(a.links(), b.links());
    }

    #[test]
    fn larger_campus_has_more_paths() {
        let small_net = generate(&small());
        let large_net = generate(&CampusConfig { junctions: 80, ..small() });
        assert!(large_net.link_count() > small_net.link_count());
    }

    #[test]
    #[should_panic(expected = "at least four")]
    fn tiny_campus_is_rejected() {
        let _ = generate(&CampusConfig { junctions: 2, ..CampusConfig::default() });
    }
}
