//! Trace data types: ground-truth samples, sensor fixes and whole traces.

use mbdr_geo::Point;
use serde::{Deserialize, Serialize};

/// One ground-truth sample of the simulated object's state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GroundTruth {
    /// Simulation time, seconds since the start of the trace.
    pub t: f64,
    /// True position in the local metric frame.
    pub position: Point,
    /// True scalar speed, m/s.
    pub speed: f64,
    /// True heading, radians clockwise from north.
    pub heading: f64,
}

/// One positioning-sensor output ("sighting"): what the paper's source reads
/// from its GPS receiver once per second.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fix {
    /// Timestamp, seconds since the start of the trace.
    pub t: f64,
    /// Sensed position (ground truth plus sensor error).
    pub position: Point,
    /// 1-σ horizontal accuracy of the sensor at this fix, metres
    /// (the paper's `u_p`).
    pub accuracy: f64,
}

/// A complete simulated trace: the noisy sensor fixes the protocols consume
/// and the ground truth the evaluation measures deviations against.
///
/// `fixes[i]` and `ground_truth[i]` always refer to the same instant.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Trace {
    /// Sensor outputs at the sampling rate (1 Hz in all paper scenarios).
    pub fixes: Vec<Fix>,
    /// True object states at the same instants.
    pub ground_truth: Vec<GroundTruth>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.fixes.len()
    }

    /// Returns `true` if the trace has no samples.
    pub fn is_empty(&self) -> bool {
        self.fixes.is_empty()
    }

    /// Duration of the trace in seconds (0 for traces with fewer than two
    /// samples).
    pub fn duration(&self) -> f64 {
        match (self.fixes.first(), self.fixes.last()) {
            (Some(a), Some(b)) => b.t - a.t,
            _ => 0.0,
        }
    }

    /// Total ground-truth path length in metres.
    pub(crate) fn path_length(&self) -> f64 {
        self.ground_truth.windows(2).map(|w| w[0].position.distance(&w[1].position)).sum()
    }

    /// Appends a sample pair, keeping the two streams aligned.
    pub fn push(&mut self, truth: GroundTruth, fix: Fix) {
        debug_assert!((truth.t - fix.t).abs() < 1e-9, "fix and truth must share a timestamp");
        self.ground_truth.push(truth);
        self.fixes.push(fix);
    }

    /// The ground-truth position at time `t`, linearly interpolated between
    /// the surrounding samples (clamped to the trace's time span). Returns
    /// `None` for an empty trace.
    ///
    /// The protocol evaluation calls this to measure the *actual* deviation of
    /// the server's predicted position at arbitrary instants.
    pub fn true_position_at(&self, t: f64) -> Option<Point> {
        let first = self.ground_truth.first()?;
        let last = self.ground_truth.last()?;
        if t <= first.t {
            return Some(first.position);
        }
        if t >= last.t {
            return Some(last.position);
        }
        // Binary search for the sample interval containing t.
        let idx = self.ground_truth.partition_point(|g| g.t <= t).saturating_sub(1);
        let a = &self.ground_truth[idx];
        let b = &self.ground_truth[(idx + 1).min(self.ground_truth.len() - 1)];
        if (b.t - a.t).abs() < 1e-12 {
            return Some(a.position);
        }
        let frac = (t - a.t) / (b.t - a.t);
        Some(a.position.lerp(&b.position, frac))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn straight_trace(n: usize) -> Trace {
        let mut t = Trace::new();
        for i in 0..n {
            let time = i as f64;
            let pos = Point::new(10.0 * i as f64, 0.0);
            t.push(
                GroundTruth {
                    t: time,
                    position: pos,
                    speed: 10.0,
                    heading: std::f64::consts::FRAC_PI_2,
                },
                Fix { t: time, position: pos, accuracy: 3.0 },
            );
        }
        t
    }

    #[test]
    fn empty_trace_properties() {
        let t = Trace::new();
        assert!(t.is_empty());
        assert_eq!(t.duration(), 0.0);
        assert_eq!(t.path_length(), 0.0);
        assert!(t.true_position_at(5.0).is_none());
    }

    #[test]
    fn duration_and_length_of_straight_trace() {
        let t = straight_trace(11);
        assert_eq!(t.len(), 11);
        assert!((t.duration() - 10.0).abs() < 1e-9);
        assert!((t.path_length() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn true_position_interpolates_between_samples() {
        let t = straight_trace(5);
        let p = t.true_position_at(1.5).unwrap();
        assert!((p.x - 15.0).abs() < 1e-9);
        // Clamped outside the span.
        assert_eq!(t.true_position_at(-3.0).unwrap(), Point::new(0.0, 0.0));
        assert_eq!(t.true_position_at(99.0).unwrap(), Point::new(40.0, 0.0));
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn mismatched_timestamps_are_rejected_in_debug() {
        let mut t = Trace::new();
        t.push(
            GroundTruth { t: 0.0, position: Point::ORIGIN, speed: 0.0, heading: 0.0 },
            Fix { t: 1.0, position: Point::ORIGIN, accuracy: 3.0 },
        );
    }
}
