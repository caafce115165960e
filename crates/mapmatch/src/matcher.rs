//! The incremental map-matching state machine.

use crate::config::MatcherConfig;
use mbdr_geo::Point;
use mbdr_roadnet::{LinkId, LinkLocator, NodeId, RoadNetwork};
use std::sync::Arc;

/// What happened during one matcher update.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MatchEvent {
    /// The matcher acquired its first link (or re-acquired one after being
    /// off the map).
    Acquired,
    /// The position still matches the current link.
    Continued,
    /// The object passed the end of its link and forward tracking selected a
    /// new link over the given intersection.
    AdvancedOver(NodeId),
    /// The previous link choice was wrong; backward tracking corrected it at
    /// the given intersection.
    Backtracked(NodeId),
    /// No link within tolerance: the object is off the map.
    LostMap,
    /// The object was already off the map and still is.
    StillOffMap,
}

/// Result of one matcher update.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchResult {
    /// The matched link, or `None` while off the map.
    pub link: Option<LinkId>,
    /// Corrected position `p_c`: the sensed position projected onto the
    /// matched link (equal to the sensed position while off the map).
    pub corrected: Point,
    /// Distance from the sensed position to the matched link (or `f64::MAX`
    /// while off the map).
    pub distance: f64,
    /// Arc length of the corrected position along the matched link, measured
    /// from the link's `from` node (0 while off the map).
    pub arc_length: f64,
    /// What the matcher did.
    pub event: MatchEvent,
}

impl MatchResult {
    fn off_map(sensed: Point, still: bool) -> Self {
        MatchResult {
            link: None,
            corrected: sensed,
            distance: f64::MAX,
            arc_length: 0.0,
            event: if still { MatchEvent::StillOffMap } else { MatchEvent::LostMap },
        }
    }

    /// Returns `true` if the position was matched to some link.
    pub fn is_matched(&self) -> bool {
        self.link.is_some()
    }
}

/// Direction of travel along the current link.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Travel {
    /// Moving towards the link's `to` node (arc length increasing).
    TowardsTo,
    /// Moving towards the link's `from` node (arc length decreasing).
    TowardsFrom,
    /// Not yet known (too little movement observed).
    Unknown,
}

#[derive(Debug, Clone)]
struct CurrentLink {
    link: LinkId,
    last_arc_length: f64,
    travel: Travel,
    /// The node over which this link was entered, if known (anchor for
    /// backward tracking).
    entered_at: Option<NodeId>,
}

/// Incremental map matcher: feed it one sensed position per sensor fix and it
/// maintains the current-link hypothesis exactly as described in Section 3 of
/// the paper.
#[derive(Debug, Clone)]
pub struct MapMatcher {
    network: Arc<RoadNetwork>,
    locator: Arc<LinkLocator>,
    config: MatcherConfig,
    current: Option<CurrentLink>,
    /// Recently visited intersections, most recent last (bounded by
    /// `config.backtrack_depth + 1`).
    node_history: Vec<NodeId>,
}

impl MapMatcher {
    /// Creates a matcher over the given network.
    pub fn new(
        network: Arc<RoadNetwork>,
        locator: Arc<LinkLocator>,
        config: MatcherConfig,
    ) -> Self {
        MapMatcher { network, locator, config, current: None, node_history: Vec::new() }
    }

    /// Convenience constructor that builds the locator internally.
    pub fn for_network(network: Arc<RoadNetwork>, config: MatcherConfig) -> Self {
        let locator = Arc::new(LinkLocator::build(&network));
        MapMatcher::new(network, locator, config)
    }

    /// The matcher's configuration.
    pub fn config(&self) -> &MatcherConfig {
        &self.config
    }

    /// Processes one sensed position and returns the match result.
    pub fn update(&mut self, sensed: Point) -> MatchResult {
        match self.current.take() {
            None => self.acquire(sensed, /*was_off_map=*/ true),
            Some(current) => self.track(current, sensed),
        }
    }

    /// Initial (or re-)acquisition through the spatial index: nearest link
    /// within `u_m`.
    fn acquire(&mut self, sensed: Point, was_off_map: bool) -> MatchResult {
        match self.locator.nearest_link(&self.network, &sensed, self.config.tolerance) {
            Some(m) => {
                self.current = Some(CurrentLink {
                    link: m.link,
                    last_arc_length: m.arc_length,
                    travel: Travel::Unknown,
                    entered_at: None,
                });
                MatchResult {
                    link: Some(m.link),
                    corrected: m.position_on_link,
                    distance: m.distance,
                    arc_length: m.arc_length,
                    event: MatchEvent::Acquired,
                }
            }
            None => MatchResult::off_map(sensed, was_off_map),
        }
    }

    /// Tracking with a current-link hypothesis.
    fn track(&mut self, mut current: CurrentLink, sensed: Point) -> MatchResult {
        let link = self.network.link(current.link);
        let proj = link.geometry.project(&sensed);

        if proj.distance <= self.config.tolerance {
            // Still on the link: update the travel direction estimate.
            let delta = proj.arc_length - current.last_arc_length;
            if delta > 1.0 {
                current.travel = Travel::TowardsTo;
            } else if delta < -1.0 {
                current.travel = Travel::TowardsFrom;
            }
            current.last_arc_length = proj.arc_length;
            let result = MatchResult {
                link: Some(current.link),
                corrected: proj.point,
                distance: proj.distance,
                arc_length: proj.arc_length,
                event: MatchEvent::Continued,
            };
            self.current = Some(current);
            return result;
        }

        // The position left the tolerance band around the current link.
        // Decide between forward tracking (the object passed the end of the
        // link) and backward tracking (the link choice was wrong).
        let link_length = link.length();
        let near_end_band = (link_length * self.config.endpoint_fraction).max(2.0);
        let passed_to =
            proj.arc_length >= link_length - near_end_band && current.travel != Travel::TowardsFrom;
        let passed_from = proj.arc_length <= near_end_band && current.travel == Travel::TowardsFrom;

        if passed_to || passed_from {
            let via = if passed_to { link.to } else { link.from };
            if let Some(result) = self.forward_track(&current, via, sensed) {
                return result;
            }
        }

        // Backward tracking: re-examine the intersections we came from.
        if let Some(result) = self.backward_track(&current, sensed) {
            return result;
        }

        // Give the global index one chance before declaring the object off the
        // map — the object may have jumped onto an unrelated nearby road (e.g.
        // after a long GPS outage in an underpass).
        self.node_history.clear();
        self.acquire_after_loss(sensed)
    }

    /// Forward tracking over intersection `via`: choose the nearest outgoing
    /// link (other than the current one) within tolerance.
    fn forward_track(
        &mut self,
        current: &CurrentLink,
        via: NodeId,
        sensed: Point,
    ) -> Option<MatchResult> {
        let best = self.best_outgoing_link(via, Some(current.link), &sensed)?;
        self.push_history(via);
        let (link_id, m) = best;
        let travel = self.initial_travel(link_id, via);
        self.current = Some(CurrentLink {
            link: link_id,
            last_arc_length: m.arc_length,
            travel,
            entered_at: Some(via),
        });
        Some(MatchResult {
            link: Some(link_id),
            corrected: m.position_on_link,
            distance: m.distance,
            arc_length: m.arc_length,
            event: MatchEvent::AdvancedOver(via),
        })
    }

    /// Backward tracking: the previously selected link was probably wrong; go
    /// back to the intersection(s) we entered it from and inspect their other
    /// outgoing links.
    fn backward_track(&mut self, current: &CurrentLink, sensed: Point) -> Option<MatchResult> {
        // Candidate anchors: the node the current link was entered at, then
        // the recent node history (most recent first), bounded by the depth.
        let mut anchors: Vec<NodeId> = Vec::new();
        if let Some(n) = current.entered_at {
            anchors.push(n);
        }
        for &n in self.node_history.iter().rev() {
            if !anchors.contains(&n) {
                anchors.push(n);
            }
        }
        anchors.truncate(self.config.backtrack_depth);

        for via in anchors {
            if let Some((link_id, m)) = self.best_outgoing_link(via, Some(current.link), &sensed) {
                let travel = self.initial_travel(link_id, via);
                self.current = Some(CurrentLink {
                    link: link_id,
                    last_arc_length: m.arc_length,
                    travel,
                    entered_at: Some(via),
                });
                return Some(MatchResult {
                    link: Some(link_id),
                    corrected: m.position_on_link,
                    distance: m.distance,
                    arc_length: m.arc_length,
                    event: MatchEvent::Backtracked(via),
                });
            }
        }
        None
    }

    /// After losing the map, try a plain re-acquisition; report `LostMap` (or
    /// `StillOffMap`) accordingly.
    fn acquire_after_loss(&mut self, sensed: Point) -> MatchResult {
        match self.locator.nearest_link(&self.network, &sensed, self.config.tolerance) {
            Some(m) => {
                self.current = Some(CurrentLink {
                    link: m.link,
                    last_arc_length: m.arc_length,
                    travel: Travel::Unknown,
                    entered_at: None,
                });
                MatchResult {
                    link: Some(m.link),
                    corrected: m.position_on_link,
                    distance: m.distance,
                    arc_length: m.arc_length,
                    event: MatchEvent::Acquired,
                }
            }
            None => {
                self.current = None;
                MatchResult::off_map(sensed, false)
            }
        }
    }

    /// The best (nearest within tolerance) link incident to `via`, excluding
    /// `exclude`, for the sensed position.
    fn best_outgoing_link(
        &self,
        via: NodeId,
        exclude: Option<LinkId>,
        sensed: &Point,
    ) -> Option<(LinkId, mbdr_roadnet::LinkMatch)> {
        let mut best: Option<(LinkId, mbdr_roadnet::LinkMatch)> = None;
        for link_id in self.network.outgoing_links_iter(via, exclude) {
            let m = self.locator.project_onto(&self.network, link_id, sensed);
            if m.distance > self.config.tolerance {
                continue;
            }
            if best.as_ref().map(|(_, b)| m.distance < b.distance).unwrap_or(true) {
                best = Some((link_id, m));
            }
        }
        best
    }

    /// Travel direction on a link that was just entered over `via`.
    fn initial_travel(&self, link: LinkId, via: NodeId) -> Travel {
        let l = self.network.link(link);
        if l.from == via {
            Travel::TowardsTo
        } else if l.to == via {
            Travel::TowardsFrom
        } else {
            Travel::Unknown
        }
    }

    fn push_history(&mut self, node: NodeId) {
        self.node_history.push(node);
        let cap = self.config.backtrack_depth + 1;
        if self.node_history.len() > cap {
            let excess = self.node_history.len() - cap;
            self.node_history.drain(..excess);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbdr_geo::Point;
    use mbdr_roadnet::{NetworkBuilder, RoadClass};

    /// A T-junction: a west-east street (A—B—C) with a southbound stub at B.
    ///
    /// ```text
    ///   A(0,0) ——— B(200,0) ——— C(400,0)
    ///                  |
    ///               D(200,-200)
    /// ```
    fn t_junction() -> (Arc<RoadNetwork>, Arc<LinkLocator>) {
        let mut b = NetworkBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let bb = b.add_node(Point::new(200.0, 0.0));
        let c = b.add_node(Point::new(400.0, 0.0));
        let d = b.add_node(Point::new(200.0, -200.0));
        b.add_straight_link(a, bb, RoadClass::Residential); // link 0
        b.add_straight_link(bb, c, RoadClass::Residential); // link 1
        b.add_straight_link(bb, d, RoadClass::Residential); // link 2
        let net = Arc::new(b.build().unwrap());
        let loc = Arc::new(LinkLocator::build(&net));
        (net, loc)
    }

    fn matcher(tolerance: f64) -> MapMatcher {
        let (net, loc) = t_junction();
        MapMatcher::new(net, loc, MatcherConfig::with_tolerance(tolerance))
    }

    #[test]
    fn acquisition_matches_the_nearest_link_within_um() {
        let mut m = matcher(30.0);
        let r = m.update(Point::new(50.0, 8.0));
        assert_eq!(r.event, MatchEvent::Acquired);
        assert_eq!(r.link, Some(LinkId(0)));
        assert!((r.distance - 8.0).abs() < 1e-6);
        assert!((r.corrected.y - 0.0).abs() < 1e-6, "corrected position lies on the link");
        assert!((r.corrected.x - 50.0).abs() < 1e-6);
    }

    #[test]
    fn far_from_any_link_is_off_map() {
        let mut m = matcher(30.0);
        let r = m.update(Point::new(50.0, 500.0));
        assert!(!r.is_matched());
        assert_eq!(r.event, MatchEvent::StillOffMap);
        assert_eq!(r.corrected, Point::new(50.0, 500.0));
        assert!(m.current.is_none());
    }

    #[test]
    fn continues_on_the_same_link_while_within_tolerance() {
        let mut m = matcher(30.0);
        m.update(Point::new(20.0, 5.0));
        let r = m.update(Point::new(60.0, -7.0));
        assert_eq!(r.event, MatchEvent::Continued);
        assert_eq!(r.link, Some(LinkId(0)));
    }

    #[test]
    fn forward_tracking_straight_over_the_junction() {
        let mut m = matcher(30.0);
        // Drive east along link 0 towards B…
        for x in [20.0, 80.0, 140.0, 190.0] {
            m.update(Point::new(x, 3.0));
        }
        // …and past B onto link 1. The first fix clearly beyond B (and more
        // than u_m from link 0's geometry is impossible here because links 0
        // and 1 are collinear, so instead turn south to exercise the
        // transition): drive onto the southbound stub.
        let r = m.update(Point::new(202.0, -60.0));
        assert_eq!(r.link, Some(LinkId(2)), "should pick the southbound link");
        match r.event {
            MatchEvent::AdvancedOver(n) => assert_eq!(n, NodeId(1)),
            other => panic!("expected AdvancedOver, got {other:?}"),
        }
        assert!(r.distance <= 30.0);
    }

    #[test]
    fn collinear_continuation_is_handled_via_reacquisition_or_projection() {
        // Driving straight through the junction A→B→C: link 0 and link 1 are
        // collinear so the projection onto link 0 clamps at B with distance
        // growing beyond u_m; the matcher must end up on link 1.
        let mut m = matcher(30.0);
        for x in [20.0, 100.0, 180.0] {
            m.update(Point::new(x, 2.0));
        }
        let r = m.update(Point::new(260.0, 2.0));
        assert_eq!(r.link, Some(LinkId(1)));
        let r = m.update(Point::new(340.0, -2.0));
        assert_eq!(r.link, Some(LinkId(1)));
        assert_eq!(r.event, MatchEvent::Continued);
    }

    #[test]
    fn backward_tracking_corrects_a_wrong_turn_choice() {
        let mut m = matcher(15.0);
        // Approach B heading east on link 0.
        for x in [120.0, 160.0, 188.0] {
            m.update(Point::new(x, 1.0));
        }
        // A noisy fix past the junction, still within u_m of the eastbound
        // link 1: the matcher advances onto link 1 — the wrong choice, because
        // the object actually turns south.
        let r1 = m.update(Point::new(225.0, -14.0));
        assert_eq!(r1.link, Some(LinkId(1)));
        assert!(matches!(r1.event, MatchEvent::AdvancedOver(n) if n == NodeId(1)));
        // The next fix is clearly south of the junction and > u_m from link 1,
        // but has *not* passed link 1's far end → backward tracking at B must
        // correct the hypothesis to the southbound link 2.
        let r2 = m.update(Point::new(206.0, -50.0));
        assert_eq!(r2.link, Some(LinkId(2)));
        assert!(matches!(r2.event, MatchEvent::Backtracked(n) if n == NodeId(1)));
    }

    #[test]
    fn losing_and_reacquiring_the_map() {
        let mut m = matcher(30.0);
        m.update(Point::new(50.0, 5.0));
        // Wander far off every link.
        let r = m.update(Point::new(50.0, 400.0));
        assert_eq!(r.event, MatchEvent::LostMap);
        assert!(m.current.is_none());
        let r = m.update(Point::new(55.0, 400.0));
        assert_eq!(r.event, MatchEvent::StillOffMap);
        // Come back near the street → re-acquired.
        let r = m.update(Point::new(60.0, 12.0));
        assert_eq!(r.event, MatchEvent::Acquired);
        assert_eq!(r.link, Some(LinkId(0)));
    }

    #[test]
    fn corrected_position_is_never_farther_than_the_raw_distance() {
        let mut m = matcher(30.0);
        let sensed = Point::new(100.0, 20.0);
        let r = m.update(sensed);
        assert!(r.is_matched());
        assert!(r.distance <= 30.0);
        assert!((sensed.distance(&r.corrected) - r.distance).abs() < 1e-9);
    }

    #[test]
    fn tolerance_is_respected_strictly() {
        let mut m = matcher(10.0);
        // 15 m from the street with a 10 m tolerance: no match.
        assert!(!m.update(Point::new(100.0, 15.0)).is_matched());
        // 8 m away: match.
        assert!(m.update(Point::new(100.0, 8.0)).is_matched());
    }
}
