//! The link locator against brute force. The map matcher starts from
//! `LinkLocator::nearest_link`, so its answer — tie rule included — decides
//! every matched trace. The oracle projects every link of the map and sorts
//! by (distance, link id); `links_within` must equal it exactly and
//! `nearest_link` must be its first element, on the map of every scenario
//! and on a small H-shaped network, for fixes on nodes and shared endpoints
//! (where several links tie at one distance), on and beside links, off the
//! map, and at non-finite coordinates.

use mbdr_geo::rng::SplitMix64;
use mbdr_geo::Point;
use mbdr_roadnet::{LinkLocator, LinkMatch, NetworkBuilder, RoadClass, RoadNetwork};
use mbdr_trace::{Scenario, ScenarioKind};

/// Every link within `radius` of `p`, from one projection per link, nearest
/// first and the lower link id first among equals.
fn brute_force(network: &RoadNetwork, p: &Point, radius: f64) -> Vec<LinkMatch> {
    let mut out: Vec<LinkMatch> = network
        .links()
        .iter()
        .filter_map(|link| {
            let proj = link.geometry.project(p);
            (proj.distance <= radius).then_some(LinkMatch {
                link: link.id,
                distance: proj.distance,
                position_on_link: proj.point,
                arc_length: proj.arc_length,
            })
        })
        .collect();
    out.sort_by(|a, b| a.distance.total_cmp(&b.distance).then(a.link.cmp(&b.link)));
    out
}

/// Two parallel east-west streets 100 m apart, joined by a north-south
/// street at x = 0: three links meet at each of its inner nodes.
fn h_network() -> RoadNetwork {
    let mut b = NetworkBuilder::new();
    let a = b.add_node(Point::new(-200.0, 0.0));
    let c = b.add_node(Point::new(200.0, 0.0));
    let d = b.add_node(Point::new(-200.0, 100.0));
    let e = b.add_node(Point::new(200.0, 100.0));
    let f = b.add_node(Point::new(0.0, 0.0));
    let g = b.add_node(Point::new(0.0, 100.0));
    b.add_straight_link(a, f, RoadClass::Residential);
    b.add_straight_link(f, c, RoadClass::Residential);
    b.add_straight_link(d, g, RoadClass::Residential);
    b.add_straight_link(g, e, RoadClass::Residential);
    b.add_straight_link(f, g, RoadClass::Residential);
    b.build().unwrap()
}

/// Fixes on (up to 120) nodes, on link vertices, on and beside links, in
/// and far outside the map's box.
fn finite_fixes(network: &RoadNetwork, tolerance: f64, rng: &mut SplitMix64) -> Vec<Point> {
    let nodes = network.nodes();
    let mut fixes: Vec<Point> =
        nodes.iter().step_by(nodes.len().div_ceil(120)).map(|n| n.position).collect();
    let links = network.links();
    for _ in 0..150 {
        let geometry = &links[rng.below(links.len() as u64) as usize].geometry;
        let vertices = geometry.vertices();
        fixes.push(vertices[rng.below(vertices.len() as u64) as usize]);
        let on = geometry.point_at_arc_length(rng.range(0.0, geometry.length()));
        fixes.push(on);
        let off = 3.0 * tolerance;
        fixes.push(Point::new(on.x + rng.range(-off, off), on.y + rng.range(-off, off)));
    }
    let bbox = network.bounding_box().expect("a map has nodes");
    for _ in 0..60 {
        fixes.push(Point::new(
            rng.range(bbox.min.x - 1_000.0, bbox.max.x + 1_000.0),
            rng.range(bbox.min.y - 1_000.0, bbox.max.y + 1_000.0),
        ));
    }
    fixes.extend([
        Point::new(bbox.max.x + 50_000.0, bbox.min.y - 50_000.0),
        Point::new(1e12, -1e12),
        Point::new(-1e300, 1e300),
    ]);
    fixes
}

/// Checks every fix at radii 0, `u_m` and 10·`u_m`; returns how many
/// answers had a tie for first place.
fn check_map(network: &RoadNetwork, tolerance: f64, seed: u64, what: &str) -> usize {
    let locator = LinkLocator::build(network);
    let mut rng = SplitMix64::new(seed);
    let mut ties = 0;
    for p in finite_fixes(network, tolerance, &mut rng) {
        for radius in [0.0, tolerance, 10.0 * tolerance] {
            let expect = brute_force(network, &p, radius);
            let got = locator.links_within(network, &p, radius);
            assert_eq!(got, expect, "{what}: links within {radius} m of {p:?}");
            let nearest = locator.nearest_link(network, &p, radius);
            assert_eq!(nearest.as_ref(), expect.first(), "{what}: nearest to {p:?}, {radius} m");
            ties += usize::from(matches!(&expect[..], [a, b, ..] if a.distance == b.distance));
        }
    }
    let inf = f64::INFINITY;
    for p in [
        Point::new(f64::NAN, 0.0),
        Point::new(0.0, f64::NAN),
        Point::new(inf, 0.0),
        Point::new(0.0, -inf),
        Point::new(inf, -inf),
    ] {
        for radius in [0.0, tolerance, 10.0 * tolerance, inf] {
            assert!(locator.links_within(network, &p, radius).is_empty(), "{what}: {p:?}");
            assert!(locator.nearest_link(network, &p, radius).is_none(), "{what}: {p:?}");
        }
    }
    ties
}

#[test]
fn links_within_equals_a_projection_of_every_link_on_every_map() {
    let h_ties = check_map(&h_network(), 30.0, 0x10CA_0000, "H network");
    assert!(h_ties > 0, "fixes on shared nodes tie");
    let mut ties = 0;
    for (i, kind) in ScenarioKind::ALL.into_iter().enumerate() {
        let data = Scenario::quick(kind, 31 + i as u64).build();
        let seed = 0x10CA_0100 + i as u64;
        ties += check_map(&data.network, data.matching_tolerance, seed, kind.name());
    }
    assert!(ties > 0, "fixes on shared nodes tie");
}
