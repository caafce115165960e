//! Speed and direction estimation from the last *n* position sightings.
//!
//! The paper (Section 2, footnote 1, and Section 4) does not assume that the
//! positioning sensor reports speed and heading directly; instead they are
//! "interpolated from 2 consecutive positions ... in case of freeway traffic,
//! from 4 positions in case of city or inter-urban traffic and from 8
//! positions in case of a walking person". Larger windows smooth out GPS noise
//! at the cost of lag; the optimum depends on the object's speed relative to
//! the sensor uncertainty.
//!
//! [`MotionEstimator`] implements exactly that sliding-window least-effort
//! estimator: speed is total path length over elapsed time, direction is the
//! displacement from the oldest to the newest fix in the window.

use crate::point::Point;
use crate::vec2::Vec2;
use std::collections::VecDeque;

/// The estimated motion state derived from recent sightings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MotionEstimate {
    /// Estimated scalar speed in m/s (never negative).
    pub speed: f64,
    /// Estimated direction of travel as a unit vector. Defaults to north when
    /// the object has not moved.
    pub direction: Vec2,
    /// Estimated heading in radians clockwise from north.
    pub heading: f64,
    /// Number of sightings that contributed to the estimate.
    pub window: usize,
}

impl MotionEstimate {
    /// An estimate describing a stationary object.
    pub(crate) fn stationary() -> Self {
        MotionEstimate { speed: 0.0, direction: Vec2::NORTH, heading: 0.0, window: 1 }
    }
}

/// Sliding-window estimator of speed and direction from timestamped positions.
#[derive(Debug, Clone)]
pub struct MotionEstimator {
    window: usize,
    /// (timestamp seconds, position) pairs, oldest first.
    samples: VecDeque<(f64, Point)>,
}

impl MotionEstimator {
    /// Creates an estimator that uses the last `window` sightings (at least 2).
    pub fn new(window: usize) -> Self {
        assert!(window >= 2, "motion estimation needs at least two sightings");
        MotionEstimator { window, samples: VecDeque::with_capacity(window) }
    }

    /// The configured window size.
    #[inline]
    pub fn window(&self) -> usize {
        self.window
    }

    /// Buffers a sighting without estimating — for protocols that read the
    /// estimate only when they send an update ([`MotionEstimator::estimate`]
    /// is pure, so estimating then gives the very bits estimating now would).
    ///
    /// Sightings must be recorded in non-decreasing timestamp order; a
    /// sighting whose timestamp does not advance past the newest buffered one
    /// replaces it rather than corrupting the window.
    pub fn record(&mut self, timestamp: f64, position: Point) {
        if let Some(&(last_t, _)) = self.samples.back() {
            if timestamp <= last_t {
                self.samples.pop_back();
            }
        }
        if self.samples.len() == self.window {
            self.samples.pop_front();
        }
        self.samples.push_back((timestamp, position));
    }

    /// [`MotionEstimator::record`]s a sighting and returns the estimate over
    /// the current window — for protocols that read it on every sighting.
    pub fn push(&mut self, timestamp: f64, position: Point) -> MotionEstimate {
        self.record(timestamp, position);
        self.estimate()
    }

    /// The estimate over the currently buffered sightings.
    ///
    /// With fewer than two sightings (or zero elapsed time) the object is
    /// reported as stationary.
    pub fn estimate(&self) -> MotionEstimate {
        if self.samples.len() < 2 {
            return MotionEstimate {
                window: self.samples.len().max(1),
                ..MotionEstimate::stationary()
            };
        }
        let (t0, p0) = *self.samples.front().expect("non-empty");
        let (t1, p1) = *self.samples.back().expect("non-empty");
        let dt = t1 - t0;
        if dt <= f64::EPSILON {
            return MotionEstimate { window: self.samples.len(), ..MotionEstimate::stationary() };
        }
        // Speed: distance actually covered along the sample chain (robust when
        // the object turns inside the window), divided by elapsed time.
        let mut path = 0.0;
        let mut prev = p0;
        for &(_, p) in self.samples.iter().skip(1) {
            path += prev.distance(&p);
            prev = p;
        }
        let speed = path / dt;
        // Direction: net displacement over the window (noise averages out).
        let displacement = p1 - p0;
        let direction = displacement.normalized_or_north();
        MotionEstimate {
            speed,
            direction,
            heading: direction.heading(),
            window: self.samples.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    #[should_panic(expected = "at least two")]
    fn rejects_window_of_one() {
        let _ = MotionEstimator::new(1);
    }

    #[test]
    fn single_sample_is_stationary() {
        let mut est = MotionEstimator::new(4);
        let e = est.push(0.0, Point::new(5.0, 5.0));
        assert!(approx_eq(e.speed, 0.0));
        assert_eq!(e.direction, Vec2::NORTH);
    }

    #[test]
    fn straight_east_motion_at_constant_speed() {
        let mut est = MotionEstimator::new(2);
        est.push(0.0, Point::new(0.0, 0.0));
        let e = est.push(1.0, Point::new(10.0, 0.0));
        assert!(approx_eq(e.speed, 10.0));
        assert!(approx_eq(e.heading, std::f64::consts::FRAC_PI_2));
        assert_eq!(e.window, 2);
    }

    #[test]
    fn window_slides_and_forgets_old_samples() {
        let mut est = MotionEstimator::new(2);
        est.push(0.0, Point::new(0.0, 0.0));
        est.push(1.0, Point::new(10.0, 0.0));
        // Now the object stops; with window 2 the estimate must drop quickly.
        let e = est.push(2.0, Point::new(10.0, 0.0));
        assert!(approx_eq(e.speed, 0.0));
    }

    #[test]
    fn larger_window_smooths_noise() {
        // Zig-zag noise of ±1 m around a straight path: the 8-sample window's
        // direction estimate should still point east.
        let mut est = MotionEstimator::new(8);
        let mut last = MotionEstimate::stationary();
        for i in 0..8 {
            let noise = if i % 2 == 0 { 1.0 } else { -1.0 };
            last = est.push(i as f64, Point::new(5.0 * i as f64, noise));
        }
        assert!((last.heading - std::f64::consts::FRAC_PI_2).abs() < 0.1);
        assert_eq!(last.window, 8);
    }

    #[test]
    fn duplicate_timestamp_replaces_last_sample() {
        let mut est = MotionEstimator::new(4);
        est.push(0.0, Point::new(0.0, 0.0));
        est.push(1.0, Point::new(5.0, 0.0));
        // Same timestamp again with a corrected position: must not divide by 0.
        let e = est.push(1.0, Point::new(6.0, 0.0));
        assert!(e.speed.is_finite());
        assert!(approx_eq(e.speed, 6.0));
        assert_eq!(est.samples.len(), 2);
    }

    #[test]
    fn speed_uses_path_length_not_net_displacement() {
        // A right-angle turn inside the window: path 20 m in 2 s = 10 m/s even
        // though the net displacement is only ~14.1 m.
        let mut est = MotionEstimator::new(3);
        est.push(0.0, Point::new(0.0, 0.0));
        est.push(1.0, Point::new(10.0, 0.0));
        let e = est.push(2.0, Point::new(10.0, 10.0));
        assert!(approx_eq(e.speed, 10.0));
    }

    /// `push` as it was when every sighting paid for an estimate: buffer and
    /// estimate in one step, nothing shared with [`MotionEstimator`]. The
    /// reference `record` + `estimate` must reproduce bit for bit.
    fn eager_push(
        window: usize,
        samples: &mut VecDeque<(f64, Point)>,
        timestamp: f64,
        position: Point,
    ) -> MotionEstimate {
        if let Some(&(last_t, _)) = samples.back() {
            if timestamp <= last_t {
                samples.pop_back();
            }
        }
        if samples.len() == window {
            samples.pop_front();
        }
        samples.push_back((timestamp, position));
        if samples.len() < 2 {
            return MotionEstimate { window: samples.len().max(1), ..MotionEstimate::stationary() };
        }
        let (t0, p0) = *samples.front().unwrap();
        let (t1, p1) = *samples.back().unwrap();
        let dt = t1 - t0;
        if dt <= f64::EPSILON {
            return MotionEstimate { window: samples.len(), ..MotionEstimate::stationary() };
        }
        let mut path = 0.0;
        let mut prev = p0;
        for &(_, p) in samples.iter().skip(1) {
            path += prev.distance(&p);
            prev = p;
        }
        let direction = (p1 - p0).normalized_or_north();
        MotionEstimate {
            speed: path / dt,
            direction,
            heading: direction.heading(),
            window: samples.len(),
        }
    }

    #[test]
    fn recording_then_estimating_on_demand_equals_estimating_every_sighting() {
        // SplitMix64: seeded, so a failure names its stream.
        fn next(state: &mut u64) -> u64 {
            *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        let unit = |state: &mut u64| (next(state) >> 11) as f64 / (1u64 << 53) as f64;
        for window in 2..=8 {
            for seed in 0..16u64 {
                let mut rng = seed ^ ((window as u64) << 32);
                let mut lazy = MotionEstimator::new(window);
                let mut reference = VecDeque::new();
                let (mut t, mut p) = (0.0, Point::new(0.0, 0.0));
                for step in 0..400 {
                    // Mostly 1 Hz; sometimes the same instant again, a
                    // timestamp that runs backwards, or a standstill.
                    t += match next(&mut rng) % 8 {
                        0 => 0.0,
                        1 => -0.5,
                        _ => 1.0,
                    };
                    if !next(&mut rng).is_multiple_of(6) {
                        p = Point::new(
                            p.x + 40.0 * (unit(&mut rng) - 0.5),
                            p.y + 40.0 * (unit(&mut rng) - 0.5),
                        );
                    }
                    let eager = eager_push(window, &mut reference, t, p);
                    lazy.record(t, p);
                    // Read the estimate only now and then, as a protocol
                    // that sends on ≈ 5 % of its sightings does.
                    if next(&mut rng).is_multiple_of(4) {
                        let e = lazy.estimate();
                        let bits = |m: &MotionEstimate| {
                            [m.speed, m.heading, m.direction.x, m.direction.y].map(f64::to_bits)
                        };
                        assert_eq!(
                            (bits(&e), e.window),
                            (bits(&eager), eager.window),
                            "window {window} seed {seed} step {step}"
                        );
                    }
                }
            }
        }
    }
}
