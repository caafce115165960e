//! # mbdr-mapmatch — incremental map matching
//!
//! Section 3 of the paper describes the map-matching machinery the map-based
//! dead-reckoning protocol runs at the source:
//!
//! * a position can be matched to a link if it is at most `u_m` away from it;
//!   the sensed position `p_p` is projected perpendicularly onto the link to
//!   obtain the corrected position `p_c` (Fig. 5);
//! * on initialisation, candidate links are found through a spatial index and
//!   the nearest one within `u_m` is selected;
//! * when the position drifts farther than `u_m` from the current link, the
//!   matcher uses **forward tracking** (the object passed the link's end
//!   node → inspect that intersection's outgoing links) or **backward
//!   tracking** (the original link choice was wrong → go back to the previous
//!   intersection(s) and inspect the other outgoing links);
//! * when neither finds a link, the object is **off the map** and the matcher
//!   keeps trying to re-acquire a link via the spatial index.
//!
//! [`MapMatcher`] implements exactly this incremental state machine and
//! additionally reports link-transition events, which the
//! probability-enhanced protocol variant uses to learn its transition tables.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod matcher;

pub use config::MatcherConfig;
pub use matcher::{MapMatcher, MatchEvent, MatchResult};
