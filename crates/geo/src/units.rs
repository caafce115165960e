//! Small typed unit helpers.
//!
//! The paper quotes speeds in km/h (Table 1) and accuracies in metres; the
//! protocol maths runs in SI units (m, m/s, s). The `Seconds` alias and the
//! conversions keep the call sites readable without a heavyweight units library.

/// Seconds.
pub type Seconds = f64;

/// Converts kilometres per hour to metres per second.
#[inline]
pub fn kmh_to_ms(kmh: f64) -> f64 {
    kmh / 3.6
}

/// Converts metres per second to kilometres per hour.
#[inline]
pub fn ms_to_kmh(ms: f64) -> f64 {
    ms * 3.6
}

/// Formats a duration in seconds as `h:mm` (the format used in Table 1,
/// e.g. `1:35 h`).
pub fn format_duration_hm(seconds: Seconds) -> String {
    let total_minutes = (seconds / 60.0).round() as i64;
    let hours = total_minutes / 60;
    let minutes = total_minutes % 60;
    format!("{hours}:{minutes:02} h")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn speed_conversions_roundtrip() {
        assert!(approx_eq(kmh_to_ms(36.0), 10.0));
        assert!(approx_eq(ms_to_kmh(10.0), 36.0));
        assert!(approx_eq(ms_to_kmh(kmh_to_ms(103.0)), 103.0));
    }

    #[test]
    fn duration_formatting_matches_table1_style() {
        assert_eq!(format_duration_hm(3600.0 + 35.0 * 60.0), "1:35 h");
        assert_eq!(format_duration_hm(7200.0 + 8.0 * 60.0), "2:08 h");
        assert_eq!(format_duration_hm(30.0), "0:01 h");
    }
}
