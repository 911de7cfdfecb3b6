//! The cgroup memory controller: hard and soft limits, plus the `Bytes`
//! unit type used across the workspace.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Sub, SubAssign};

/// A byte quantity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bytes(pub u64);

impl Bytes {
    /// The zero value.
    pub const ZERO: Bytes = Bytes(0);

    /// Construct from kibibytes.
    pub const fn from_kib(k: u64) -> Bytes {
        Bytes(k << 10)
    }

    /// Construct from mebibytes.
    pub const fn from_mib(m: u64) -> Bytes {
        Bytes(m << 20)
    }

    /// Construct from gibibytes.
    pub const fn from_gib(g: u64) -> Bytes {
        Bytes(g << 30)
    }

    #[inline]
    /// The raw byte count.
    pub fn as_u64(self) -> u64 {
        self.0
    }

    #[inline]
    /// The value in MiB, as floating point.
    pub fn as_mib_f64(self) -> f64 {
        self.0 as f64 / (1u64 << 20) as f64
    }

    #[inline]
    /// The value in GiB, as floating point.
    pub fn as_gib_f64(self) -> f64 {
        self.0 as f64 / (1u64 << 30) as f64
    }

    #[inline]
    /// Whether the value is zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    #[inline]
    /// Subtraction clamped at zero.
    pub fn saturating_sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(rhs.0))
    }

    #[inline]
    /// The smaller of the two values.
    pub fn min(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.min(rhs.0))
    }

    /// Scale by a non-negative factor, rounding to the nearest byte.
    #[inline]
    pub fn mul_f64(self, factor: f64) -> Bytes {
        debug_assert!(factor >= 0.0 && factor.is_finite());
        Bytes((self.0 as f64 * factor).round() as u64)
    }

    /// Ratio of two quantities as `f64`; zero denominator yields 0.0.
    #[inline]
    pub fn ratio(self, denom: Bytes) -> f64 {
        if denom.0 == 0 {
            0.0
        } else {
            self.0 as f64 / denom.0 as f64
        }
    }
}

impl Add for Bytes {
    type Output = Bytes;
    #[inline]
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}

impl AddAssign for Bytes {
    #[inline]
    fn add_assign(&mut self, rhs: Bytes) {
        self.0 += rhs.0;
    }
}

impl Sub for Bytes {
    type Output = Bytes;
    #[inline]
    fn sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 - rhs.0)
    }
}

impl SubAssign for Bytes {
    #[inline]
    fn sub_assign(&mut self, rhs: Bytes) {
        self.0 -= rhs.0;
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        iter.fold(Bytes::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= (1 << 30) {
            write!(f, "{:.2}GiB", self.as_gib_f64())
        } else if self.0 >= (1 << 20) {
            write!(f, "{:.2}MiB", self.as_mib_f64())
        } else if self.0 >= (1 << 10) {
            write!(f, "{:.2}KiB", self.0 as f64 / 1024.0)
        } else {
            write!(f, "{}B", self.0)
        }
    }
}

/// Per-cgroup memory controller settings.
///
/// * `hard_limit` — `memory.limit_in_bytes`: exceeding it means the
///   container "either is killed or starts swapping" (§2.1).
/// * `soft_limit` — `memory.soft_limit_in_bytes`: reclaimed down to under
///   system-wide memory pressure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemController {
    /// `memory.limit_in_bytes`; `None` = unlimited.
    pub hard_limit: Option<Bytes>,
    /// `memory.soft_limit_in_bytes`; `None` = unset.
    pub soft_limit: Option<Bytes>,
}

impl MemController {
    /// No limits (the cgroup default).
    pub fn unlimited() -> MemController {
        MemController::default()
    }

    /// Builder-style: set `memory.limit_in_bytes`.
    pub fn with_hard_limit(mut self, limit: Bytes) -> MemController {
        assert!(!limit.is_zero(), "hard limit must be positive");
        self.hard_limit = Some(limit);
        self
    }

    /// Builder-style: set `memory.soft_limit_in_bytes`.
    pub fn with_soft_limit(mut self, limit: Bytes) -> MemController {
        assert!(!limit.is_zero(), "soft limit must be positive");
        self.soft_limit = Some(limit);
        self
    }

    /// Effective hard limit given the host's physical memory.
    pub fn hard_limit_or(&self, host_total: Bytes) -> Bytes {
        self.hard_limit.map_or(host_total, |l| l.min(host_total))
    }

    /// Effective soft limit: explicit soft limit, else the hard limit, else
    /// host memory — the initial `E_MEM` of Algorithm 2.
    pub fn soft_limit_or(&self, host_total: Bytes) -> Bytes {
        self.soft_limit
            .map_or_else(|| self.hard_limit_or(host_total), |l| l.min(host_total))
    }

    /// Sanity check: soft ≤ hard when both are set.
    pub fn is_consistent(&self) -> bool {
        match (self.soft_limit, self.hard_limit) {
            (Some(s), Some(h)) => s <= h,
            _ => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_unit_constructors() {
        assert_eq!(Bytes::from_kib(1).as_u64(), 1024);
        assert_eq!(Bytes::from_mib(1).as_u64(), 1 << 20);
        assert_eq!(Bytes::from_gib(2).as_u64(), 2 << 30);
    }

    #[test]
    fn byte_arithmetic() {
        let a = Bytes::from_mib(10);
        let b = Bytes::from_mib(4);
        assert_eq!(a + b, Bytes::from_mib(14));
        assert_eq!(a - b, Bytes::from_mib(6));
        assert_eq!(b.saturating_sub(a), Bytes::ZERO);
        assert_eq!(a.mul_f64(0.5), Bytes::from_mib(5));
        assert!((a.ratio(b) - 2.5).abs() < 1e-12);
        assert_eq!(a.ratio(Bytes::ZERO), 0.0);
    }

    #[test]
    fn bytes_display() {
        assert_eq!(format!("{}", Bytes(512)), "512B");
        assert_eq!(format!("{}", Bytes::from_gib(1)), "1.00GiB");
        assert_eq!(format!("{}", Bytes::from_mib(500)), "500.00MiB");
    }

    #[test]
    fn limits_fall_back_to_host_total() {
        let host = Bytes::from_gib(128);
        let c = MemController::unlimited();
        assert_eq!(c.hard_limit_or(host), host);
        assert_eq!(c.soft_limit_or(host), host);
    }

    #[test]
    fn paper_fig2b_limits() {
        // §2.2: hard limit 1 GB, soft limit 500 MB on a 128 GB machine.
        let host = Bytes::from_gib(128);
        let c = MemController::unlimited()
            .with_hard_limit(Bytes::from_gib(1))
            .with_soft_limit(Bytes::from_mib(500));
        assert_eq!(c.hard_limit_or(host), Bytes::from_gib(1));
        assert_eq!(c.soft_limit_or(host), Bytes::from_mib(500));
        assert!(c.is_consistent());
    }

    #[test]
    fn soft_defaults_to_hard_when_unset() {
        let host = Bytes::from_gib(128);
        let c = MemController::unlimited().with_hard_limit(Bytes::from_gib(30));
        assert_eq!(c.soft_limit_or(host), Bytes::from_gib(30));
    }

    #[test]
    fn inconsistent_limits_detected() {
        let c = MemController::unlimited()
            .with_hard_limit(Bytes::from_mib(100))
            .with_soft_limit(Bytes::from_mib(200));
        assert!(!c.is_consistent());
    }

    #[test]
    fn limits_clamped_to_host() {
        let host = Bytes::from_gib(4);
        let c = MemController::unlimited().with_hard_limit(Bytes::from_gib(64));
        assert_eq!(c.hard_limit_or(host), host);
    }
}
