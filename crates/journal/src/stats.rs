//! Counter blocks, declared once.
//!
//! [`counters!`](crate::counters) turns one list of documented counter names
//! into the live block of relaxed `AtomicU64`s the hot paths bump, its
//! plain-value snapshot, `snapshot()` between the two and a `fields()`
//! name/value list. A reporter that walks `fields()` cannot miss a counter;
//! the other half (every declared counter is bumped) is held by tests that
//! assert each counter's exact value on the path that bumps it. The macro
//! lives in the lowest crate that owns counters; `mbdr-locserver` and
//! `mbdr-net` declare theirs through it. [`JournalStats`] is the journal's
//! own block.
//!
//! [`Histogram`] is the distribution beside them: a fixed array of relaxed
//! atomic buckets, log-linear in nanoseconds, that records without
//! allocating or locking, merges bucket by bucket, and snapshots into a
//! plain copy that answers count, sum and quantiles.

use std::sync::atomic::{AtomicU64, Ordering};

/// Declares a counter block: `struct` is the live atomic block (fields
/// `pub(crate)` in the declaring crate), `snapshot` its plain-value copy.
/// Fields listed under `snapshot` are extra, non-counter members of the copy;
/// `snapshot()` leaves them at their `Default` for the caller to overlay.
#[macro_export]
macro_rules! counters {
    (
        $(#[$live_meta:meta])*
        $live_vis:vis struct $live:ident {
            $( $(#[$doc:meta])* $counter:ident ),* $(,)?
        }
        $(#[$snap_meta:meta])*
        $snap_vis:vis snapshot $snap:ident {
            $( $(#[$extra_doc:meta])* $extra_vis:vis $extra:ident : $extra_ty:ty ),* $(,)?
        }
    ) => {
        $(#[$live_meta])*
        #[derive(Debug, Default)]
        $live_vis struct $live {
            $( $(#[$doc])* pub(crate) $counter: ::std::sync::atomic::AtomicU64, )*
        }

        impl $live {
            /// Copies every counter into its plain-value snapshot (each is
            /// read atomically; the set is not a single snapshot, which only
            /// matters mid-traffic).
            #[allow(
                clippy::needless_update,
                reason = "a snapshot without extra fields leaves `..Default::default()` nothing to fill"
            )]
            pub(crate) fn snapshot(&self) -> $snap {
                $snap {
                    $( $counter: self.$counter.load(::std::sync::atomic::Ordering::Relaxed), )*
                    ..Default::default()
                }
            }
        }

        $(#[$snap_meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        $snap_vis struct $snap {
            $( $(#[$doc])* pub $counter: u64, )*
            $( $(#[$extra_doc])* $extra_vis $extra: $extra_ty, )*
        }

        impl $snap {
            /// Every counter as a `(name, value)` pair, in declaration order.
            pub fn fields(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$( (stringify!($counter), self.$counter) ),*].into_iter()
            }
        }
    };
}

counters! {
    /// Live monotonic counters for one journal instance, updated with relaxed
    /// atomics from the append/recovery paths in `journal.rs`.
    pub(crate) struct JournalStats {
        /// Frame records durably appended to the active segment.
        appends,
        /// Number of `fsync`/`fdatasync` calls issued on segment or snapshot files.
        fsyncs,
        /// Frame records streamed out of retained segments during recovery replay.
        recovered_frames,
        /// Bytes discarded by torn-tail repair at open (truncated partial records
        /// plus any unreachable later segments).
        truncated_bytes,
        /// Snapshots successfully installed (written, fsynced, renamed into place).
        snapshots,
        /// Append or snapshot attempts that failed with an I/O error and were
        /// dropped by the infallible `record_frame` wrapper.
        append_errors,
    }
    /// Point-in-time copy of `JournalStats` (also surfaced through
    /// `mbdr-net`'s `ServerStatsSnapshot`).
    pub snapshot JournalStatsSnapshot {}
}

/// Sub-buckets per power of two, as bits: a bucket at or above 8 ns is at
/// most 1/8 as wide as its lower bound.
const SUB_BITS: u32 = 3;

/// Sub-buckets per power of two.
const SUB: usize = 1 << SUB_BITS;

/// Buckets of a [`Histogram`]: one per value below [`SUB`], then [`SUB`] per
/// power of two up to `u64::MAX`.
const HISTOGRAM_BUCKETS: usize = (u64::BITS - SUB_BITS + 1) as usize * SUB;

/// The bucket holding `ns`.
fn bucket_of(ns: u64) -> usize {
    let Some(top) = ns.checked_ilog2().filter(|&top| top >= SUB_BITS) else {
        return ns as usize;
    };
    let sub = (ns >> (top - SUB_BITS)) as usize & (SUB - 1);
    (top - SUB_BITS + 1) as usize * SUB + sub
}

/// The smallest and largest value bucket `index` holds.
fn bucket_bounds(index: usize) -> (u64, u64) {
    if index < SUB {
        return (index as u64, index as u64);
    }
    let shift = (index / SUB - 1) as u32;
    let lo = ((SUB + index % SUB) as u64) << shift;
    (lo, lo + ((1u64 << shift) - 1))
}

/// A log-linear histogram of nanosecond durations, shared by reference:
/// [`Histogram::record`] is a few relaxed atomic adds, with no allocation
/// and no lock, so any thread may record while another snapshots.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one sample of `ns` nanoseconds.
    pub fn record(&self, ns: u64) {
        if let Some(bucket) = self.buckets.get(bucket_of(ns)) {
            bucket.fetch_add(1, Ordering::Relaxed);
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(ns, Ordering::Relaxed);
    }

    /// Records one sample of `elapsed`, saturating at `u64::MAX` ns.
    pub fn record_duration(&self, elapsed: std::time::Duration) {
        self.record(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Adds every sample of `other` to this histogram.
    pub fn merge(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.count.fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum.fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// A plain copy of the histogram (each bucket read atomically; the set
    /// is not one instant, which only matters while samples arrive).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| {
                self.buckets.get(i).map_or(0, |b| b.load(Ordering::Relaxed))
            }),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
}

impl HistogramSnapshot {
    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of every sample, in nanoseconds (wrapping past `u64::MAX`).
    pub fn sum_ns(&self) -> u64 {
        self.sum
    }

    /// The `q`-quantile (`q` in `[0, 1]`, clamped) by nearest rank, as the
    /// largest value of the bucket holding that sample: never below the
    /// sample, and above it by less than the bucket's width (exact below
    /// 8 ns, at most 1/8 of the value above). 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (index, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_bounds(index).1;
            }
        }
        u64::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::{bucket_bounds, bucket_of, Histogram, HISTOGRAM_BUCKETS};
    use std::sync::atomic::Ordering;

    counters! {
        struct Live { first, second, third }
        snapshot Copied {
            /// A non-counter member the caller overlays.
            label: Option<&'static str>,
        }
    }

    #[test]
    fn fields_lists_every_declared_counter_once_in_declaration_order() {
        let live = Live::default();
        live.first.store(1, Ordering::Relaxed);
        live.second.store(2, Ordering::Relaxed);
        live.third.fetch_add(3, Ordering::Relaxed);
        let snapshot = live.snapshot();
        assert_eq!((snapshot.first, snapshot.second, snapshot.third), (1, 2, 3));
        assert_eq!(
            snapshot.fields().collect::<Vec<_>>(),
            [("first", 1), ("second", 2), ("third", 3)]
        );
        assert_eq!(snapshot.label, None, "extras default and stay out of fields()");
        assert_eq!(Live::default().snapshot(), Copied::default());
    }

    #[test]
    fn buckets_tile_every_u64_in_order_and_stay_narrow() {
        let mut next = 0u64;
        for index in 0..HISTOGRAM_BUCKETS {
            let (lo, hi) = bucket_bounds(index);
            assert_eq!(lo, next, "bucket {index} starts where the last one ended");
            assert!(hi >= lo);
            assert_eq!((bucket_of(lo), bucket_of(hi)), (index, index), "bucket {index}");
            if lo >= 8 {
                assert!((hi - lo + 1) * 8 <= lo, "bucket {index} [{lo}, {hi}] is too wide");
            } else {
                assert_eq!(lo, hi, "values below 8 ns are exact");
            }
            next = hi.wrapping_add(1);
        }
        assert_eq!(next, 0, "the last bucket ends at u64::MAX");
    }

    #[test]
    fn quantiles_overshoot_the_exact_sample_by_less_than_its_bucket() {
        let h = Histogram::default();
        assert_eq!(h.snapshot().quantile(0.5), 0, "empty");
        // Samples over eight decades: k³ spreads them, the odd constant
        // keeps them off bucket edges.
        let mut samples: Vec<u64> = (1..=3_000u64).map(|k| k * k * k + 7_919 * k).collect();
        for &ns in &samples {
            h.record(ns);
        }
        samples.sort_unstable();
        let snapshot = h.snapshot();
        assert_eq!(snapshot.count(), 3_000);
        assert_eq!(snapshot.sum_ns(), samples.iter().sum::<u64>());
        for q in [0.0, 0.001, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((q * 3_000.0_f64).ceil() as usize).max(1);
            let exact = samples[rank - 1];
            let (lo, hi) = bucket_bounds(bucket_of(exact));
            let got = snapshot.quantile(q);
            assert!(got >= exact && got - exact <= hi - lo, "q {q}: {got} for {exact}");
        }
        assert_eq!(snapshot.quantile(-1.0), snapshot.quantile(0.0), "q is clamped");
        h.record(u64::MAX);
        assert_eq!(h.snapshot().quantile(1.0), u64::MAX);
    }

    #[test]
    fn merging_equals_recording_everything_in_one() {
        let (a, b, all) = (Histogram::default(), Histogram::default(), Histogram::default());
        for ns in (0..500u64).map(|k| k * 977 % 100_003) {
            if ns % 3 == 0 { &a } else { &b }.record(ns);
            all.record(ns);
        }
        a.merge(&b);
        assert_eq!(a.snapshot(), all.snapshot());
        assert_eq!(a.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum::<u64>(), 500);
    }
}
