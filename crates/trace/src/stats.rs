//! Trace statistics — the quantities reported in Table 1 of the paper.

use crate::types::Trace;
use mbdr_geo::{format_duration_hm, ms_to_kmh};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Length, duration and speed characteristics of a trace (one row of Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceStats {
    /// Path length, kilometres.
    pub length_km: f64,
    /// Duration, seconds.
    pub duration_s: f64,
    /// Average speed over the whole trace (length / duration), km/h.
    pub average_speed_kmh: f64,
    /// Maximum instantaneous ground-truth speed, km/h.
    pub max_speed_kmh: f64,
    /// Number of sensor fixes.
    pub samples: usize,
}

impl TraceStats {
    /// Computes the statistics of a trace. Returns zeroed stats for an empty
    /// trace.
    pub fn of(trace: &Trace) -> Self {
        if trace.is_empty() {
            return TraceStats {
                length_km: 0.0,
                duration_s: 0.0,
                average_speed_kmh: 0.0,
                max_speed_kmh: 0.0,
                samples: 0,
            };
        }
        let length_m = trace.path_length();
        let duration = trace.duration();
        let max_speed = trace.ground_truth.iter().map(|g| g.speed).fold(0.0, f64::max);
        TraceStats {
            length_km: length_m / 1000.0,
            duration_s: duration,
            average_speed_kmh: if duration > 0.0 { ms_to_kmh(length_m / duration) } else { 0.0 },
            max_speed_kmh: ms_to_kmh(max_speed),
            samples: trace.len(),
        }
    }
}

impl fmt::Display for TraceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.1} km in {} (avg {:.1} km/h, max {:.1} km/h, {} samples)",
            self.length_km,
            format_duration_hm(self.duration_s),
            self.average_speed_kmh,
            self.max_speed_kmh,
            self.samples
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Fix, GroundTruth};
    use mbdr_geo::Point;

    #[test]
    fn stats_of_empty_trace_are_zero() {
        let s = TraceStats::of(&Trace::new());
        assert_eq!(s.length_km, 0.0);
        assert_eq!(s.samples, 0);
    }

    #[test]
    fn stats_of_constant_speed_trace() {
        // 100 samples at 20 m/s, 1 Hz → 1.98 km in 99 s.
        let mut t = Trace::new();
        for i in 0..100 {
            let pos = Point::new(20.0 * i as f64, 0.0);
            t.push(
                GroundTruth { t: i as f64, position: pos, speed: 20.0, heading: 0.0 },
                Fix { t: i as f64, position: pos, accuracy: 3.0 },
            );
        }
        let s = TraceStats::of(&t);
        assert!((s.length_km - 1.98).abs() < 1e-6);
        assert!((s.duration_s - 99.0).abs() < 1e-9);
        assert!((s.average_speed_kmh - 72.0).abs() < 0.1);
        assert!((s.max_speed_kmh - 72.0).abs() < 1e-6);
        assert_eq!(s.samples, 100);
        assert!(s.to_string().contains("samples"));
    }
}
