//! The workspace's one seeded generator.
//!
//! [`SplitMix64`] is the stream of the fault schedules, the retry jitter,
//! the scale workload's placements and queries, and every seeded test. The
//! synthetic maps and traces draw through the `rand` shim's `StdRng`, which
//! is the same stream after one discarded draw. A stream is a pure function
//! of its starting state, so a schedule, a report or a failing test case is
//! reproduced from one `u64`.
//!
//! [`for_each_seed`] runs a property once per seed and names the seed of
//! the case that fails, which is all the workspace's property tests need.

use std::panic::AssertUnwindSafe;

/// SplitMix64 (Steele, Lea and Flood, 2014): a Weyl sequence stepped by the
/// golden-ratio constant, each step finalized by two xor-shift-multiply
/// rounds. Tiny, seedable and well mixed even from consecutive small seeds.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A stream from the raw state `state`: the first draw finalizes
    /// `state + 0x9E37_79B9_7F4A_7C15`, with no pre-mixing draw.
    pub const fn new(state: u64) -> Self {
        SplitMix64 { state }
    }

    /// The next 64 raw bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A draw in `[0, n)` by modulo (its bias, below `n / 2⁶⁴`, is of no
    /// concern to a schedule or a test). Panics if `n` is zero.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)` from the 53 high bits of one draw.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `lo + u·(hi − lo)` for `u` from [`SplitMix64::next_f64`]: uniform in
    /// `[lo, hi)` up to the rounding of that product.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.next_f64() * (hi - lo)
    }
}

/// Runs `property` once for each seed in `0..cases`, on a fresh
/// [`SplitMix64::new(seed)`](SplitMix64::new). When a case panics, its seed
/// is printed after the panic message and the panic carries on unchanged,
/// so `SplitMix64::new(seed)` replays exactly that case.
pub fn for_each_seed(cases: u64, mut property: impl FnMut(&mut SplitMix64)) {
    for seed in 0..cases {
        // Unwind-safe in effect: a property that panicked is not run again.
        let case = AssertUnwindSafe(|| property(&mut SplitMix64::new(seed)));
        if let Err(panic) = std::panic::catch_unwind(case) {
            eprintln!("for_each_seed: the case with seed {seed} failed");
            std::panic::resume_unwind(panic);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    #[test]
    fn new_yields_the_published_reference_vector() {
        let mut rng = SplitMix64::new(1234567);
        let drawn: Vec<u64> = (0..5).map(|_| rng.next_u64()).collect();
        assert_eq!(
            drawn,
            [
                6457827717110365317,
                3203168211198807973,
                9817491932198370423,
                4593380528125082431,
                16408922859458223821,
            ]
        );
    }

    #[test]
    fn after_one_draw_the_stream_equals_the_rand_shims_std_rng() {
        for seed in [0, 1, 2001, 0x9E37_79B9_7F4A_7C15, u64::MAX] {
            let mut ours = SplitMix64::new(seed);
            ours.next_u64();
            let mut theirs = StdRng::seed_from_u64(seed);
            for _ in 0..64 {
                assert_eq!(ours.next_u64(), theirs.next_u64(), "seed {seed}: u64");
                assert_eq!(
                    ours.next_f64().to_bits(),
                    theirs.gen::<f64>().to_bits(),
                    "seed {seed}: [0, 1)"
                );
                assert_eq!(
                    ours.range(-2_500.0, 7.5).to_bits(),
                    theirs.gen_range(-2_500.0..7.5f64).to_bits(),
                    "seed {seed}: half-open range"
                );
                assert_eq!(
                    ours.range(0.2, 1.0).to_bits(),
                    theirs.gen_range(0.2..=1.0f64).to_bits(),
                    "seed {seed}: inclusive range"
                );
            }
        }
    }

    #[test]
    fn for_each_seed_visits_each_seed_once_in_order() {
        let mut firsts = Vec::new();
        for_each_seed(5, |rng| firsts.push(rng.next_u64()));
        let expected: Vec<u64> = (0..5).map(|seed| SplitMix64::new(seed).next_u64()).collect();
        assert_eq!(firsts, expected);
    }

    #[test]
    fn for_each_seed_passes_a_failing_cases_panic_on() {
        let mut visited = 0;
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for_each_seed(10, |_| {
                visited += 1;
                assert!(visited < 4, "the fourth case fails");
            })
        }));
        assert!(outcome.is_err());
        assert_eq!(visited, 4, "no case runs after the failing one");
    }
}
