//! Result metrics of a protocol run.

use serde::{Deserialize, Serialize};

/// Distribution of the server-side deviation (distance between the position
/// the server would report and the true position), sampled once per sensor
/// fix.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviationStats {
    /// Mean deviation, metres.
    pub mean: f64,
    /// Maximum deviation, metres.
    pub max: f64,
    /// 95th-percentile deviation, metres.
    pub p95: f64,
    /// Number of samples.
    pub samples: usize,
    /// Number of samples whose deviation exceeded the requested accuracy
    /// `u_s` plus the sensor uncertainty (the guarantee the protocol makes).
    pub bound_violations: usize,
}

impl DeviationStats {
    /// Computes the statistics from raw deviation samples.
    ///
    /// `allowance` is the deviation the protocol is allowed (requested
    /// accuracy plus sensor uncertainty); larger samples count as violations.
    pub(crate) fn from_samples(mut samples: Vec<f64>, allowance: f64) -> Self {
        if samples.is_empty() {
            return DeviationStats {
                mean: 0.0,
                max: 0.0,
                p95: 0.0,
                samples: 0,
                bound_violations: 0,
            };
        }
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let bound_violations = samples.iter().filter(|&&d| d > allowance).count();
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite deviations"));
        let max = *samples.last().expect("non-empty");
        let p95 = samples[((n as f64 * 0.95) as usize).min(n - 1)];
        DeviationStats { mean, max, p95, samples: n, bound_violations }
    }
}

/// Everything measured in one protocol run over one trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Protocol name.
    pub protocol: String,
    /// Requested accuracy `u_s`, metres.
    pub requested_accuracy: f64,
    /// Number of update messages sent.
    pub updates: u64,
    /// Total update payload, bytes.
    pub payload_bytes: u64,
    /// Trace duration, seconds.
    pub duration_s: f64,
    /// Updates per hour — the paper's headline metric (Figs. 7–10).
    pub updates_per_hour: f64,
    /// Server-side deviation statistics.
    pub deviation: DeviationStats,
}

impl RunMetrics {
    /// Updates per hour for a given update count and duration.
    pub(crate) fn rate_per_hour(updates: u64, duration_s: f64) -> f64 {
        if duration_s <= 0.0 {
            0.0
        } else {
            updates as f64 * 3600.0 / duration_s
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deviation_stats_from_empty_sample_set() {
        let s = DeviationStats::from_samples(Vec::new(), 50.0);
        assert_eq!(s.samples, 0);
        assert_eq!(s.max, 0.0);
    }

    #[test]
    fn deviation_stats_basic_properties() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = DeviationStats::from_samples(samples, 90.0);
        assert_eq!(s.samples, 100);
        assert!((s.mean - 50.5).abs() < 1e-9);
        assert_eq!(s.max, 100.0);
        assert!(s.p95 >= 95.0 && s.p95 <= 96.0);
        assert_eq!(s.bound_violations, 10);
    }

    #[test]
    fn rate_per_hour_handles_degenerate_durations() {
        assert_eq!(RunMetrics::rate_per_hour(10, 0.0), 0.0);
        assert!((RunMetrics::rate_per_hour(10, 1800.0) - 20.0).abs() < 1e-9);
    }
}
