//! The shared simulation clock and the CFS scheduling-period rule.
//!
//! The paper ties the `sys_namespace` update interval to the Linux CFS
//! scheduling period: "When there are no more than 8 tasks, the scheduling
//! period is set to 24 ms. Otherwise, the period is set to
//! 3 ms × num_of_tasks" (§3.2). [`sched_period`] encodes exactly that rule
//! and the whole simulation advances in those periods.

use crate::time::{SimDuration, SimTime};

/// Linux CFS default `sched_latency`: 24 ms.
pub const BASE_SCHED_PERIOD: SimDuration = SimDuration::from_millis(24);
/// Linux CFS default `sched_min_granularity`: 3 ms.
pub const MIN_GRANULARITY: SimDuration = SimDuration::from_millis(3);
/// Task count above which the period stretches (`sched_nr_latency`).
pub const NR_LATENCY: u32 = 8;

/// Scheduling-period length for `n_runnable` runnable tasks, following the
/// Linux CFS rule quoted in §3.2 of the paper.
#[inline]
pub fn sched_period(n_runnable: u32) -> SimDuration {
    if n_runnable <= NR_LATENCY {
        BASE_SCHED_PERIOD
    } else {
        MIN_GRANULARITY * u64::from(n_runnable)
    }
}

/// Monotonic simulation clock.
///
/// The clock only moves forward, in explicit steps; nothing in the
/// simulation reads wall-clock time.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    now: SimTime,
    periods: u64,
}

impl SimClock {
    /// A fresh, empty value.
    pub fn new() -> Self {
        SimClock::default()
    }

    /// Current simulated instant.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advance the clock by one step of length `dt` and return the new time.
    pub fn advance(&mut self, dt: SimDuration) -> SimTime {
        debug_assert!(!dt.is_zero(), "clock must advance by a positive step");
        self.now += dt;
        self.periods += 1;
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn period_is_24ms_up_to_8_tasks() {
        for n in 0..=8 {
            assert_eq!(sched_period(n), SimDuration::from_millis(24));
        }
    }

    #[test]
    fn period_stretches_beyond_8_tasks() {
        assert_eq!(sched_period(9), SimDuration::from_millis(27));
        assert_eq!(sched_period(20), SimDuration::from_millis(60));
        assert_eq!(sched_period(100), SimDuration::from_millis(300));
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut c = SimClock::new();
        assert_eq!(c.now(), SimTime(0));
        c.advance(SimDuration::from_millis(24));
        c.advance(SimDuration::from_millis(24));
        assert_eq!(c.now().as_micros(), 48_000);
        assert_eq!(c.periods_elapsed(), 2);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn zero_advance_is_rejected() {
        SimClock::new().advance(SimDuration::ZERO);
    }

    impl SimClock {
        /// Number of `advance` steps taken so far.
        fn periods_elapsed(&self) -> u64 {
            self.periods
        }
    }
}
