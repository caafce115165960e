//! GPS sensor error model.
//!
//! The paper's traces were recorded with a Differential GPS receiver "which
//! has an accuracy of 2–5 m", written to a file once per second. GPS error is
//! not white noise: consecutive fixes share most of their error because the
//! dominant terms (atmospheric delay, ephemeris error, multipath geometry)
//! change slowly. [`GpsNoiseModel`] therefore uses a first-order Gauss–Markov
//! process per axis: exponentially correlated noise with a configurable
//! standard deviation and correlation time, plus a small white jitter.

use mbdr_geo::{Point, Vec2};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// First-order Gauss–Markov GPS error model.
#[derive(Debug, Clone)]
pub struct GpsNoiseModel {
    /// Standard deviation of the correlated error component per axis, metres.
    sigma: f64,
    /// Correlation time constant of the error process, seconds.
    correlation_time: f64,
    /// Standard deviation of the additional white jitter per axis, metres.
    white_sigma: f64,
    /// Current correlated error state.
    state: Vec2,
    rng: StdRng,
}

impl GpsNoiseModel {
    /// Creates a model with explicit parameters.
    pub(crate) fn new(sigma: f64, correlation_time: f64, white_sigma: f64, seed: u64) -> Self {
        assert!(sigma >= 0.0 && white_sigma >= 0.0);
        assert!(correlation_time > 0.0);
        GpsNoiseModel {
            sigma,
            correlation_time,
            white_sigma,
            state: Vec2::ZERO,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The model matching the paper's DGPS receiver: ~2–5 m accuracy. We use a
    /// 2.5 m 1-σ correlated component with a 60 s correlation time plus 0.8 m
    /// white jitter, which keeps ~95 % of fixes within 5 m of the truth.
    pub fn dgps(seed: u64) -> Self {
        GpsNoiseModel::new(2.5, 60.0, 0.8, seed)
    }

    /// The nominal 1-σ horizontal accuracy reported alongside each fix
    /// (combined correlated + white components).
    pub fn nominal_accuracy(&self) -> f64 {
        (self.sigma.powi(2) + self.white_sigma.powi(2)).sqrt()
    }

    /// Advances the error process by `dt` seconds and returns the noisy
    /// observation of `true_position`.
    pub fn observe(&mut self, true_position: Point, dt: f64) -> Point {
        debug_assert!(dt >= 0.0);
        // Gauss–Markov update: x' = a·x + sqrt(1-a²)·σ·w, a = exp(-dt/τ).
        let a = (-dt / self.correlation_time).exp();
        let drive = self.sigma * (1.0 - a * a).max(0.0).sqrt();
        self.state = Vec2::new(
            a * self.state.x + drive * self.sample_standard_normal(),
            a * self.state.y + drive * self.sample_standard_normal(),
        );
        let white = Vec2::new(
            self.white_sigma * self.sample_standard_normal(),
            self.white_sigma * self.sample_standard_normal(),
        );
        true_position + self.state + white
    }

    /// Standard normal variate via Box–Muller (avoids a dependency on
    /// `rand_distr`, which is not in the sanctioned crate set).
    fn sample_standard_normal(&mut self) -> f64 {
        let u1: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = self.rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_sensor_reports_the_truth() {
        let mut m = GpsNoiseModel::new(0.0, 1.0, 0.0, 1);
        let p = Point::new(100.0, 200.0);
        for _ in 0..10 {
            assert!(m.observe(p, 1.0).distance(&p) < 1e-9);
        }
        assert_eq!(m.nominal_accuracy(), 0.0);
    }

    #[test]
    fn dgps_errors_have_the_right_magnitude() {
        let mut m = GpsNoiseModel::dgps(42);
        let p = Point::new(0.0, 0.0);
        let mut errors = Vec::new();
        for _ in 0..2_000 {
            errors.push(m.observe(p, 1.0).distance(&p));
        }
        let mean: f64 = errors.iter().sum::<f64>() / errors.len() as f64;
        let max = errors.iter().cloned().fold(0.0, f64::max);
        // Mean radial error of a ~2.6 m per-axis process is ~3.3 m; allow a
        // generous band.
        assert!((1.5..6.0).contains(&mean), "mean error {mean}");
        assert!(max < 20.0, "max error {max}");
    }

    #[test]
    fn consecutive_errors_are_correlated() {
        let mut m = GpsNoiseModel::new(5.0, 120.0, 0.0, 7);
        let p = Point::ORIGIN;
        let mut prev = m.observe(p, 1.0);
        let mut step_sizes = Vec::new();
        let mut magnitudes = Vec::new();
        for _ in 0..500 {
            let next = m.observe(p, 1.0);
            step_sizes.push(prev.distance(&next));
            magnitudes.push(next.distance(&p));
            prev = next;
        }
        let mean_step: f64 = step_sizes.iter().sum::<f64>() / step_sizes.len() as f64;
        let mean_mag: f64 = magnitudes.iter().sum::<f64>() / magnitudes.len() as f64;
        // With a 120 s correlation time the second-to-second movement of the
        // error is much smaller than the error itself.
        assert!(mean_step < mean_mag * 0.5, "step {mean_step} vs magnitude {mean_mag}");
    }

    #[test]
    fn same_seed_reproduces_the_same_noise() {
        let mut a = GpsNoiseModel::dgps(5);
        let mut b = GpsNoiseModel::dgps(5);
        for i in 0..50 {
            let p = Point::new(i as f64, 2.0 * i as f64);
            assert_eq!(a.observe(p, 1.0), b.observe(p, 1.0));
        }
    }

    #[test]
    fn nominal_accuracy_combines_components() {
        let m = GpsNoiseModel::new(3.0, 30.0, 4.0, 1);
        assert!((m.nominal_accuracy() - 5.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn non_positive_correlation_time_is_rejected() {
        let _ = GpsNoiseModel::new(1.0, 0.0, 0.0, 1);
    }
}
