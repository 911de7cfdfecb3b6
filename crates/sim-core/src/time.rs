//! Simulated time: absolute instants and durations in microseconds.
//!
//! Microsecond resolution matches the units the paper reasons in
//! (`cfs_period_us`, `cfs_quota_us`, the measured 1 µs namespace-update
//! cost) while `u64` gives more than half a million simulated years of
//! range — overflow is a programming error and is checked in debug builds.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant on the simulation timeline, in microseconds since
/// simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    #[inline]
    /// The value in whole microseconds.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    #[inline]
    /// The value in seconds, as floating point.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Duration elapsed since `earlier`. Panics (debug) if `earlier` is later.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0 - earlier.0)
    }
}

impl SimDuration {
    /// The zero value.
    pub const ZERO: SimDuration = SimDuration(0);

    #[inline]
    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> SimDuration {
        SimDuration(us)
    }

    #[inline]
    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> SimDuration {
        SimDuration(ms * 1_000)
    }

    #[inline]
    /// Construct from seconds.
    pub const fn from_secs(s: u64) -> SimDuration {
        SimDuration(s * 1_000_000)
    }

    #[inline]
    /// Construct from (non-negative, finite) seconds.
    pub fn from_secs_f64(s: f64) -> SimDuration {
        debug_assert!(s >= 0.0 && s.is_finite());
        SimDuration((s * 1_000_000.0).round() as u64)
    }

    #[inline]
    /// The value in whole microseconds.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    #[inline]
    /// The value in milliseconds, as floating point.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    #[inline]
    /// The value in seconds, as floating point.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    #[inline]
    /// Whether the value is zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    #[inline]
    /// Subtraction clamped at zero.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Scale by a non-negative factor, rounding to the nearest microsecond.
    #[inline]
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        debug_assert!(factor >= 0.0 && factor.is_finite());
        SimDuration((self.0 as f64 * factor).round() as u64)
    }

    /// Ratio of two durations as `f64`; zero denominator yields 0.0.
    #[inline]
    pub fn ratio(self, denom: SimDuration) -> f64 {
        if denom.0 == 0 {
            0.0
        } else {
            self.0 as f64 / denom.0 as f64
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_plus_duration_advances() {
        let t = SimTime(0) + SimDuration::from_millis(24);
        assert_eq!(t.as_micros(), 24_000);
    }

    #[test]
    fn duration_conversions_round_trip() {
        assert_eq!(SimDuration::from_secs(2).as_secs_f64(), 2.0);
        assert_eq!(SimDuration::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimDuration::from_secs_f64(0.5).as_micros(), 500_000);
    }

    #[test]
    fn since_computes_elapsed() {
        let a = SimTime(1_000);
        let b = SimTime(4_500);
        assert_eq!(b.since(a), SimDuration(3_500));
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
    }

    #[test]
    fn mul_f64_rounds() {
        assert_eq!(SimDuration(10).mul_f64(0.26).as_micros(), 3);
        assert_eq!(SimDuration(100).mul_f64(1.5).as_micros(), 150);
    }

    #[test]
    fn ratio_handles_zero_denominator() {
        assert_eq!(SimDuration(5).ratio(SimDuration::ZERO), 0.0);
        assert!((SimDuration(1).ratio(SimDuration(4)) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = [SimDuration(1), SimDuration(2), SimDuration(3)]
            .into_iter()
            .sum();
        assert_eq!(total, SimDuration(6));
    }

    #[test]
    fn display_picks_sensible_unit() {
        assert_eq!(format!("{}", SimDuration(12)), "12us");
        assert_eq!(format!("{}", SimDuration(12_000)), "12.000ms");
        assert_eq!(format!("{}", SimDuration(1_200_000)), "1.200s");
    }

    impl SimTime {
        /// Elapsed since `earlier`, clamped at zero.
        fn saturating_since(self, earlier: SimTime) -> SimDuration {
            SimDuration(self.0.saturating_sub(earlier.0))
        }
    }
}
