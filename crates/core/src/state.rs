//! Object state and update messages.

use mbdr_geo::Point;
use mbdr_roadnet::{LinkId, NodeId};
use serde::{Deserialize, Serialize};

/// The state of a mobile object as carried in an update message.
///
/// This is the paper's tuple *(o.pos, o.v, o.dir, o.t)* — position, speed,
/// direction and timestamp — extended with the map-based protocol's fields:
/// the corrected position is stored in `position`, `link` carries the current
/// link identifier *o.l*, and `arc_length` / `towards` pin down where on the
/// link the object is and in which direction it travels. Optional `turn_rate`
/// supports the higher-order prediction variant.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ObjectState {
    /// Reported position (for the map-based protocol this is the corrected,
    /// on-link position `p_c`).
    pub position: Point,
    /// Reported speed, m/s.
    pub speed: f64,
    /// Reported heading, radians clockwise from north.
    pub heading: f64,
    /// Timestamp of the report, seconds.
    pub timestamp: f64,
    /// Current link for map-based protocols (`None` = off the map / not a
    /// map-based protocol; the predictor then falls back to linear
    /// prediction).
    pub link: Option<LinkId>,
    /// Arc length of `position` along `link`, measured from the link's `from`
    /// node (only meaningful when `link` is `Some`).
    pub arc_length: f64,
    /// The link endpoint the object is travelling towards (only meaningful
    /// when `link` is `Some`).
    pub towards: Option<NodeId>,
    /// Estimated turn rate, radians per second (used by the higher-order
    /// predictor; 0 for everyone else).
    pub turn_rate: f64,
}

impl ObjectState {
    /// A minimal state for non-map protocols.
    pub fn basic(position: Point, speed: f64, heading: f64, timestamp: f64) -> Self {
        ObjectState {
            position,
            speed,
            heading,
            timestamp,
            link: None,
            arc_length: 0.0,
            towards: None,
            turn_rate: 0.0,
        }
    }
}

/// Why an update was sent (one byte on the wire, so the server can tell
/// protocol mode changes from ordinary deviation-bound reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UpdateKind {
    /// First report after the protocol started.
    Initial,
    /// The deviation bound was about to be violated.
    DeviationBound,
    /// The protocol changed its internal mode (e.g. the map-based protocol
    /// lost the map and fell back to linear prediction, or re-acquired it).
    ModeChange,
    /// Periodic report. No in-tree protocol sends it; the versioned wire
    /// format keeps kind 3 so a decoder accepts it from other sources.
    Periodic,
    /// Travelled-distance report. No in-tree protocol sends it; the
    /// versioned wire format keeps kind 4 so a decoder accepts it from other
    /// sources.
    Movement,
}

/// An update message from the source to the location server.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Update {
    /// Monotonically increasing sequence number (per source).
    pub sequence: u64,
    /// The reported object state.
    pub state: ObjectState,
    /// Reason the update was sent.
    pub kind: UpdateKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_state_has_no_map_fields() {
        let s = ObjectState::basic(Point::new(1.0, 2.0), 3.0, 0.5, 10.0);
        assert!(s.link.is_none());
        assert!(s.towards.is_none());
        assert_eq!(s.turn_rate, 0.0);
    }
}
