//! Small numeric helpers: the percentile picker, medians, a 64-bit digest
//! and the process's peak resident set.

/// Samples that must lie beyond a reported percentile for it to mean
/// anything (choosing-metrics §1).
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// The `q`-quantile (0 < q < 1) of `samples` by the nearest-rank rule.
///
/// Refuses — returns `None` — when fewer than [`MIN_SAMPLES_BEYOND`] samples
/// lie strictly beyond the picked rank: a p99 of 500 samples would be set by
/// its five slowest and is not reported at all.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "quantile must be inside (0, 1)");
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_SAMPLES_BEYOND {
        return None;
    }
    Some(sorted(samples)[rank - 1])
}

/// A sorted copy: callers keep their samples in arrival order.
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    v
}

/// Samples per group of [`grouped_p99`]: the smallest group whose p99 has
/// [`MIN_SAMPLES_BEYOND`] samples beyond it.
pub const P99_GROUP: usize = 1_000;

/// The p99 of a long run of samples in arrival order: the median, over
/// consecutive groups of [`P99_GROUP`] samples, of each group's p99. A tail
/// is set by the slowest few samples, and on a shared machine those cluster
/// in the seconds a neighbour was busy; the plain p99 of the whole run then
/// reports the neighbour, while most groups still report the program.
/// `None` with fewer samples than one group.
pub fn grouped_p99(samples: &[f64]) -> Option<f64> {
    let per_group: Vec<f64> =
        samples.chunks_exact(P99_GROUP).filter_map(|group| percentile(group, 0.99)).collect();
    median(&per_group)
}

/// Median of `samples` (mean of the two middle values for an even count);
/// `None` for an empty slice.
pub fn median(samples: &[f64]) -> Option<f64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let samples = sorted(samples);
    Some(if n % 2 == 1 { samples[n / 2] } else { (samples[n / 2 - 1] + samples[n / 2]) / 2.0 })
}

/// Geometric mean of positive `values`; `None` for an empty slice.
pub fn geometric_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

/// First and third quartile by the exclusive method — the same numbers
/// Python's `statistics.quantiles(values, n=4)` returns, so `--repeat`
/// prints the spread the way the gate computes it.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 2 {
        return None;
    }
    let samples = sorted(samples);
    let at = |p: f64| {
        let pos = p * (n + 1) as f64;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        // Unclamped on purpose: like Python, tiny samples extrapolate.
        let frac = pos - lo as f64;
        samples[lo - 1] + (samples[lo] - samples[lo - 1]) * frac
    };
    Some((at(0.25), at(0.75)))
}

/// A 64-bit FNV-1a fold over everything a workload generated or counted:
/// two runs with the same seed must print the same digests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// Peak resident set of this process in MB (`VmHWM` from
/// `/proc/self/status`); `None` where procfs is missing.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_when_fewer_than_ten_samples_lie_beyond() {
        // p99 of 1000 samples picks rank 990: exactly 10 beyond — accepted.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        // 999 samples: rank 990 again, only 9 beyond — refused.
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), None);
        // The median of 21 samples has 10 beyond it; of 19 only 9.
        let v: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(11.0));
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn grouped_p99_ignores_one_disturbed_stretch() {
        // Three quiet groups (p99 = 990) and one where a fifth of the samples
        // are ten times slower.
        let quiet: Vec<f64> = (1..=1000).map(f64::from).collect();
        let mut samples = Vec::new();
        for group in 0..4 {
            samples
                .extend(quiet.iter().map(|v| if group == 2 && *v > 800.0 { v * 10.0 } else { *v }));
        }
        assert_eq!(grouped_p99(&samples), Some(990.0));
        assert!(percentile(&samples, 0.99).unwrap() > 9000.0);
        // A trailing partial group is ignored; less than one group is refused.
        samples.truncate(3_500);
        assert!(grouped_p99(&samples).is_some());
        assert_eq!(grouped_p99(&samples[..999]), None);
    }

    #[test]
    fn percentile_sorts_unsorted_input() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[2.0, 1.0]).unwrap();
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert!(quartiles(&[1.0]).is_none());
        assert_eq!(geometric_mean(&[]), None);
        assert!((geometric_mean(&[2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn digest_depends_on_every_byte_and_on_order() {
        let mut a = Digest::default();
        a.u64(1);
        a.u64(2);
        let mut b = Digest::default();
        b.u64(2);
        b.u64(1);
        assert_ne!(a.value(), b.value());
        let mut c = Digest::default();
        c.u64(1);
        c.u64(2);
        assert_eq!(a, c);
        let mut d = Digest::default();
        d.f64(0.0);
        let mut e = Digest::default();
        e.f64(-0.0);
        assert_ne!(d, e, "bit patterns, not numeric equality");
    }
}
