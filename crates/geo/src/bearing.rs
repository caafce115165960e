//! Headings and angular arithmetic.
//!
//! The map-based predictor resolves intersections by choosing the outgoing
//! link "with the smallest angle to the previous link" (Section 3 of the
//! paper); that comparison is [`angle_between`] on two headings.

use std::f64::consts::{PI, TAU};

/// Normalises any angle in radians into `[0, 2π)`.
#[inline]
pub fn normalize_angle(radians: f64) -> f64 {
    let r = radians.rem_euclid(TAU);
    // `rem_euclid` can return TAU for inputs just below zero due to rounding.
    if r >= TAU {
        0.0
    } else {
        r
    }
}

/// Smallest absolute difference between two angles (radians), in `[0, π]`.
#[inline]
pub fn angle_between(a: f64, b: f64) -> f64 {
    let diff = (normalize_angle(a) - normalize_angle(b)).abs();
    if diff > PI {
        TAU - diff
    } else {
        diff
    }
}

/// Signed smallest rotation that takes heading `from` to heading `to`,
/// in `(-π, π]`; positive means clockwise.
#[inline]
pub fn signed_angle_between(from: f64, to: f64) -> f64 {
    let mut diff = normalize_angle(to) - normalize_angle(from);
    if diff > PI {
        diff -= TAU;
    } else if diff <= -PI {
        diff += TAU;
    }
    diff
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use std::f64::consts::FRAC_PI_2;

    #[test]
    fn normalisation_wraps_into_range() {
        assert!(approx_eq(normalize_angle(TAU + 0.5), 0.5));
        assert!(approx_eq(normalize_angle(-FRAC_PI_2), 1.5 * PI));
        assert!(approx_eq(normalize_angle(0.0), 0.0));
        let r = normalize_angle(-1e-16);
        assert!((0.0..TAU).contains(&r));
    }

    #[test]
    fn angle_between_takes_the_short_way_round() {
        assert!(approx_eq(angle_between(0.1, TAU - 0.1), 0.2));
        assert!(approx_eq(angle_between(0.0, PI), PI));
        assert!(approx_eq(angle_between(FRAC_PI_2, FRAC_PI_2), 0.0));
    }

    #[test]
    fn signed_angle_has_correct_sign() {
        assert!(signed_angle_between(0.0, 0.3) > 0.0);
        assert!(signed_angle_between(0.3, 0.0) < 0.0);
        // Crossing the north wrap-around.
        assert!(approx_eq(signed_angle_between(TAU - 0.1, 0.1), 0.2));
        assert!(approx_eq(signed_angle_between(0.1, TAU - 0.1), -0.2));
    }
}
