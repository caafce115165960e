//! Offline shim for `rand` 0.8.
//!
//! Provides the exact API surface this workspace consumes: `rngs::StdRng`,
//! `SeedableRng::seed_from_u64`, and the `Rng` extension methods `gen` (of
//! `f64`), `gen_range` (over exclusive and inclusive ranges of `f64`, `u16`,
//! `u32` and `usize`) and `gen_bool`. The generator is SplitMix64 —
//! deterministic, well mixed, and more than adequate for the simulator's
//! synthetic maps and traces. `StdRng::seed_from_u64(s)` is the stream of
//! `mbdr_geo::rng::SplitMix64::new(s)` after one discarded draw; a unit test
//! in `mbdr-geo` holds the two equal.

use std::ops::{Range, RangeInclusive};

/// Minimal core RNG interface: a source of uniformly distributed `u64`s.
pub trait RngCore {
    /// Returns the next raw 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// An RNG constructible from a `u64` seed.
pub trait SeedableRng: Sized {
    /// Creates an RNG whose stream is fully determined by `state`.
    fn seed_from_u64(state: u64) -> Self;
}

/// A type that can be sampled uniformly from an RNG's raw bits.
pub trait Sample: Sized {
    /// Draws one value from `rng`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Sample for f64 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 high bits -> uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A scalar type `gen_range` can sample over.
pub trait UniformSample: Copy + PartialOrd {
    /// Draws uniformly from `[lo, hi)` (`inclusive == false`) or `[lo, hi]`.
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self, inclusive: bool) -> Self;
}

impl UniformSample for f64 {
    #[inline]
    fn sample_range<R: RngCore + ?Sized>(
        rng: &mut R,
        lo: Self,
        hi: Self,
        _inclusive: bool,
    ) -> Self {
        assert!(lo <= hi, "gen_range: empty range");
        lo + f64::sample(rng) * (hi - lo)
    }
}

macro_rules! impl_uniform_int {
    ($($t:ty),*) => {$(
        impl UniformSample for $t {
            #[inline]
            fn sample_range<R: RngCore + ?Sized>(
                rng: &mut R,
                lo: Self,
                hi: Self,
                inclusive: bool,
            ) -> Self {
                let span = if inclusive {
                    (hi as i128 - lo as i128 + 1) as u128
                } else {
                    assert!(lo < hi, "gen_range: empty range");
                    (hi as i128 - lo as i128) as u128
                };
                let draw = (rng.next_u64() as u128) % span;
                (lo as i128 + draw as i128) as $t
            }
        }
    )*};
}

impl_uniform_int!(u16, u32, usize);

/// A range argument accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one value inside the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: UniformSample> SampleRange<T> for Range<T> {
    #[inline]
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_range(rng, self.start, self.end, false)
    }
}

impl<T: UniformSample> SampleRange<T> for RangeInclusive<T> {
    #[inline]
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        T::sample_range(rng, lo, hi, true)
    }
}

/// Extension methods over any [`RngCore`], mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Draws a value of type `T` (e.g. `rng.gen::<f64>()` in `[0, 1)`).
    #[inline]
    fn gen<T: Sample>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Draws uniformly from a range, e.g. `rng.gen_range(0.0..1.0)`.
    #[inline]
    fn gen_range<T: UniformSample, Rg: SampleRange<T>>(&mut self, range: Rg) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p`.
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        f64::sample(self) < p
    }
}

impl<R: RngCore> Rng for R {}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic seedable generator (SplitMix64 under the hood).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        state: u64,
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    impl SeedableRng for StdRng {
        #[inline]
        fn seed_from_u64(state: u64) -> Self {
            // Pre-mix once so consecutive small seeds do not produce
            // correlated first draws.
            let mut rng = StdRng { state };
            let _ = rng.next_u64();
            rng
        }
    }
}
