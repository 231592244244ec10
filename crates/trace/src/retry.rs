//! Capped exponential backoff policy of the resumable producer.
//!
//! The [`Producer`](crate::producer::Producer) behind both streaming
//! clients — `critlock_collector::push_with` and
//! `Session::stream_to_resumable` in `critlock-instrument` — spaces its
//! reconnection attempts with a [`RetryPolicy`]: the delay doubles per
//! consecutive failed attempt, capped at `max_backoff`, and the producer
//! gives up after `max_attempts` failed attempts, counting the first
//! connection, since the collector's ack last advanced. Each advance of
//! the ack refunds the budget; a reconnect that merely succeeds does
//! not. The same policy paces the collector's rollup forwarder.

use std::time::Duration;

/// Reconnection budget and backoff schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Failed attempts, counting the first connection, after which the
    /// producer gives up (the rollup forwarder fails over instead); an
    /// advance of the collector's ack refunds them. Zero and one both
    /// allow a single attempt, so no reconnect.
    pub max_attempts: u32,
    /// Delay before the first retry.
    pub initial_backoff: Duration,
    /// Upper bound on the per-attempt delay.
    pub max_backoff: Duration,
}

impl RetryPolicy {
    /// A policy with the default backoff window (25 ms doubling up to
    /// 1 s) and the given attempt budget.
    pub fn with_attempts(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts,
            initial_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(1),
        }
    }

    /// No reconnection: the first transport error is final.
    pub fn none() -> Self {
        RetryPolicy::with_attempts(0)
    }

    /// The delay before retry number `attempt` (0-based): capped
    /// exponential, `initial_backoff * 2^attempt` clamped to
    /// `max_backoff`.
    ///
    /// The arithmetic saturates for any `attempt` (including far past 63):
    /// once the exact product `initial_backoff * 2^attempt` reaches
    /// `max_backoff` the cap is returned, never a wrapped or silently
    /// clamped intermediate.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let nanos = self.initial_backoff.as_nanos();
        if nanos == 0 {
            // Zero times any power of two is zero.
            return Duration::ZERO;
        }
        // `nanos << attempt` is exact iff no set bit is shifted out, i.e.
        // attempt < leading_zeros(nanos). Otherwise the true product
        // exceeds u128::MAX and therefore any representable cap.
        if attempt >= nanos.leading_zeros() {
            return self.max_backoff;
        }
        let shifted = nanos << attempt;
        let cap = self.max_backoff.as_nanos();
        if shifted >= cap {
            self.max_backoff
        } else {
            // shifted < cap <= Duration::MAX in nanoseconds, so the
            // seconds part fits in u64.
            Duration::new((shifted / 1_000_000_000) as u64, (shifted % 1_000_000_000) as u32)
        }
    }
}

impl Default for RetryPolicy {
    /// Five attempts over the default backoff window — roughly 1.5 s of
    /// cumulative waiting before the stream is declared lost.
    fn default() -> Self {
        RetryPolicy::with_attempts(5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            max_attempts: 10,
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(70),
        };
        assert_eq!(p.backoff(0), Duration::from_millis(10));
        assert_eq!(p.backoff(1), Duration::from_millis(20));
        assert_eq!(p.backoff(2), Duration::from_millis(40));
        assert_eq!(p.backoff(3), Duration::from_millis(70)); // capped
        assert_eq!(p.backoff(31), Duration::from_millis(70));
        assert_eq!(p.backoff(63), Duration::from_millis(70)); // shift overflow clamped
    }

    #[test]
    fn none_disables_retries() {
        assert_eq!(RetryPolicy::none().max_attempts, 0);
    }

    /// Regression: the old implementation clamped the exponent's *factor*
    /// to `u32::MAX`, so with a large `max_backoff` the delay silently
    /// stopped growing at `initial * (2^32 - 1)` instead of following the
    /// exact exponential. The exact product must be honored until it
    /// reaches the cap, for any attempt count.
    #[test]
    fn backoff_is_exact_past_32_attempts_under_a_large_cap() {
        let p = RetryPolicy {
            max_attempts: u32::MAX,
            initial_backoff: Duration::from_nanos(3),
            max_backoff: Duration::from_secs(u64::MAX),
        };
        // 3ns * 2^40 = 3298534883328 ns, still far below the cap.
        assert_eq!(p.backoff(40), Duration::from_nanos(3u64 << 40));
    }

    /// The cap must hold at and far beyond the 63-bit shift boundary.
    #[test]
    fn backoff_caps_for_huge_attempt_counts() {
        let p = RetryPolicy {
            max_attempts: u32::MAX,
            initial_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(1),
        };
        for attempt in [63, 64, 65, 127, 128, 1000, u32::MAX] {
            assert_eq!(p.backoff(attempt), Duration::from_secs(1), "attempt {attempt}");
        }
        // Monotone non-decreasing across the entire boundary region.
        let mut prev = p.backoff(0);
        for attempt in 1..=200 {
            let d = p.backoff(attempt);
            assert!(d >= prev, "backoff decreased at attempt {attempt}");
            prev = d;
        }
        // Even a maximal cap saturates rather than wrapping or panicking.
        let huge = RetryPolicy {
            max_attempts: u32::MAX,
            initial_backoff: Duration::from_millis(25),
            max_backoff: Duration::MAX,
        };
        assert_eq!(huge.backoff(u32::MAX), Duration::MAX);
    }

    #[test]
    fn zero_initial_backoff_stays_zero() {
        let p = RetryPolicy {
            max_attempts: 8,
            initial_backoff: Duration::ZERO,
            max_backoff: Duration::from_secs(1),
        };
        assert_eq!(p.backoff(0), Duration::ZERO);
        assert_eq!(p.backoff(100), Duration::ZERO);
    }
}
