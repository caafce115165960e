//! Client-side retry with jittered exponential backoff.
//!
//! A serving layer that can restart (crash recovery, rolling deploys,
//! degraded-disk incidents) needs clients that outlive one TCP connection.
//! [`RetryPolicy`] is the shared schedule: backoff doubles from
//! [`RetryPolicy::initial_backoff`] up to [`RetryPolicy::max_backoff`], each
//! delay is jittered (half fixed, half seeded-random — "equal jitter", so a
//! fleet of clients killed by the same server restart does not reconnect in
//! lockstep), and the whole attempt loop is capped by
//! [`RetryPolicy::deadline`].
//!
//! The jitter stream is the workspace's seeded generator,
//! [`mbdr_geo::rng::SplitMix64`]: the full delay schedule is a pure function
//! of the policy (`RetryPolicy::delays`), so tests assert exact schedules
//! instead of sleeping, and two clients with different seeds spread out
//! while a replayed run stays bit-identical.

use mbdr_geo::rng::SplitMix64;
use std::time::{Duration, Instant};

/// A jittered exponential backoff schedule with a total deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// First retry delay (pre-jitter). Doubles per attempt.
    pub initial_backoff: Duration,
    /// Cap on the pre-jitter delay.
    pub max_backoff: Duration,
    /// Total budget for the attempt loop, measured from the first attempt:
    /// once it elapses, the last error is returned instead of retried.
    pub deadline: Duration,
    /// Seed of the jitter stream. Give every client its own seed so a mass
    /// disconnect does not turn into a synchronized reconnect storm.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            initial_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            deadline: Duration::from_secs(30),
            jitter_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The deterministic delay schedule: an infinite iterator of jittered
    /// backoffs (the `deadline` is enforced by [`RetryPolicy::run`], not
    /// here). Each delay lies in `[base/2, base]` where `base` doubles from
    /// `initial_backoff` to `max_backoff`.
    pub(crate) fn delays(&self) -> Delays {
        Delays {
            base: self.initial_backoff.min(self.max_backoff),
            max: self.max_backoff,
            rng: SplitMix64::new(self.jitter_seed),
        }
    }

    /// Runs `op` until it succeeds or the deadline expires, sleeping the
    /// scheduled delay between attempts (truncated to the remaining budget).
    /// The first attempt is immediate; the error of the final attempt is
    /// returned verbatim.
    pub(crate) fn run<T, E>(&self, mut op: impl FnMut() -> Result<T, E>) -> Result<T, E> {
        let start = Instant::now();
        let mut delays = self.delays();
        loop {
            let err = match op() {
                Ok(value) => return Ok(value),
                Err(err) => err,
            };
            let elapsed = start.elapsed();
            if elapsed >= self.deadline {
                return Err(err);
            }
            let Some(delay) = delays.next() else {
                return Err(err);
            };
            std::thread::sleep(delay.min(self.deadline.saturating_sub(elapsed)));
        }
    }
}

/// Iterator form of a [`RetryPolicy`]'s delay schedule (see
/// [`RetryPolicy::delays`]).
#[derive(Debug, Clone)]
pub(crate) struct Delays {
    base: Duration,
    max: Duration,
    rng: SplitMix64,
}

impl Iterator for Delays {
    type Item = Duration;

    fn next(&mut self) -> Option<Duration> {
        let base = self.base.as_nanos().min(u128::from(u64::MAX)) as u64;
        // Equal jitter: half the base is fixed, half is uniform random — the
        // delay never collapses to zero (which would hammer a down server)
        // and never exceeds the base.
        let half = base / 2;
        let jitter = if half == 0 { 0 } else { self.rng.below(half + 1) };
        let delay = Duration::from_nanos(half + jitter);
        self.base = (self.base.saturating_mul(2)).min(self.max);
        Some(delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(seed: u64) -> RetryPolicy {
        RetryPolicy {
            initial_backoff: Duration::from_millis(100),
            max_backoff: Duration::from_millis(800),
            deadline: Duration::from_secs(10),
            jitter_seed: seed,
        }
    }

    #[test]
    fn delays_double_to_the_cap_and_stay_in_the_jitter_band() {
        let mut base = Duration::from_millis(100);
        for (i, delay) in policy(42).delays().take(8).enumerate() {
            assert!(delay >= base / 2, "attempt {i}: {delay:?} below half-base {base:?}");
            assert!(delay <= base, "attempt {i}: {delay:?} above base {base:?}");
            base = (base * 2).min(Duration::from_millis(800));
        }
    }

    #[test]
    fn schedules_are_reproducible_from_the_seed() {
        let a: Vec<Duration> = policy(7).delays().take(6).collect();
        let b: Vec<Duration> = policy(7).delays().take(6).collect();
        let c: Vec<Duration> = policy(8).delays().take(6).collect();
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, c, "different seed, different jitter");
    }

    #[test]
    fn run_returns_the_first_success() {
        let mut attempts = 0;
        let fast = RetryPolicy {
            initial_backoff: Duration::from_micros(10),
            max_backoff: Duration::from_micros(20),
            deadline: Duration::from_secs(5),
            jitter_seed: 1,
        };
        let result: Result<u32, &str> = fast.run(|| {
            attempts += 1;
            if attempts < 4 {
                Err("not yet")
            } else {
                Ok(99)
            }
        });
        assert_eq!(result, Ok(99));
        assert_eq!(attempts, 4);
    }

    #[test]
    fn run_gives_up_at_the_deadline_with_the_last_error() {
        let expired = RetryPolicy { deadline: Duration::ZERO, ..policy(3) };
        let mut attempts = 0;
        let result: Result<(), u32> = expired.run(|| {
            attempts += 1;
            Err(attempts)
        });
        assert_eq!(result, Err(1), "zero deadline: exactly one attempt, its error returned");
    }

    #[test]
    fn zero_backoff_policies_do_not_panic() {
        let degenerate = RetryPolicy {
            initial_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            deadline: Duration::from_millis(1),
            jitter_seed: 0,
        };
        for delay in degenerate.delays().take(3) {
            assert_eq!(delay, Duration::ZERO);
        }
        let mut attempts = 0u32;
        let _: Result<(), ()> = degenerate.run(|| {
            attempts += 1;
            if attempts > 50 {
                Ok(())
            } else {
                Err(())
            }
        });
        assert!(attempts >= 1);
    }
}
