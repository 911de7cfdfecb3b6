//! Exponentially-weighted load average, as consumed by OpenMP's dynamic
//! thread heuristic (`gomp_dynamic_max_threads = n_onln − loadavg`).
//!
//! Linux publishes 1/5/15-minute EWMAs of the runnable task count; the
//! paper quotes libgomp using the 15-minute figure. The time constant is
//! configurable, and [`Loadavg::primed`] lets experiments start from the
//! steady state (a freshly booted 15-minute average would otherwise take
//! most of a benchmark run to converge, which is itself part of why the
//! heuristic misbehaves).

use arv_sim_core::SimDuration;

/// Time constant of the 1-minute series — the `getloadavg()[0]` value
/// libgomp's dynamic-thread heuristic actually reads.
pub const ONE_MINUTE: SimDuration = SimDuration::from_secs(60);
/// Default time constant: 15 minutes, matching `loadavg`'s slowest series.
pub const FIFTEEN_MINUTES: SimDuration = SimDuration::from_secs(15 * 60);

#[derive(Debug, Clone)]
/// An exponentially-weighted moving average of the runnable task count.
pub struct Loadavg {
    tau: SimDuration,
    value: f64,
}

impl Loadavg {
    /// A load average starting at zero (idle machine at boot).
    pub fn new(tau: SimDuration) -> Loadavg {
        assert!(!tau.is_zero(), "time constant must be positive");
        Loadavg { tau, value: 0.0 }
    }

    /// The 1-minute series (what `getloadavg()[0]` reports).
    pub fn one_min() -> Loadavg {
        Loadavg::new(ONE_MINUTE)
    }

    /// Start from a known steady-state value.
    pub fn primed(tau: SimDuration, value: f64) -> Loadavg {
        assert!(value >= 0.0);
        let mut l = Loadavg::new(tau);
        l.value = value;
        l
    }

    /// Current load average.
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Fold in an observation of `runnable` tasks over an interval `dt`.
    pub fn observe(&mut self, runnable: u32, dt: SimDuration) {
        let alpha = (-(dt.as_secs_f64()) / self.tau.as_secs_f64()).exp();
        self.value = self.value * alpha + runnable as f64 * (1.0 - alpha);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_to_constant_load() {
        let mut l = Loadavg::new(SimDuration::from_secs(10));
        for _ in 0..10_000 {
            l.observe(8, SimDuration::from_millis(100));
        }
        assert!((l.value() - 8.0).abs() < 1e-3);
    }

    #[test]
    fn primed_starts_at_value() {
        let l = Loadavg::primed(FIFTEEN_MINUTES, 20.0);
        assert_eq!(l.value(), 20.0);
    }

    #[test]
    fn decays_toward_zero_when_idle() {
        let mut l = Loadavg::primed(SimDuration::from_secs(10), 10.0);
        l.observe(0, SimDuration::from_secs(10));
        assert!((l.value() - 10.0 / std::f64::consts::E).abs() < 1e-6);
    }

    #[test]
    fn fifteen_minute_series_is_slow() {
        let mut l = Loadavg::fifteen_min();
        // One minute of full load barely moves a 15-minute EWMA.
        for _ in 0..2_500 {
            l.observe(20, SimDuration::from_millis(24));
        }
        assert!(l.value() < 20.0 * 0.1);
    }

    #[test]
    fn monotone_approach_without_overshoot() {
        let mut l = Loadavg::new(SimDuration::from_secs(60));
        let mut prev = 0.0;
        for _ in 0..1_000 {
            l.observe(5, SimDuration::from_millis(500));
            assert!(l.value() >= prev - 1e-12 && l.value() <= 5.0 + 1e-12);
            prev = l.value();
        }
    }

    impl Loadavg {
        /// Default 15-minute series.
        fn fifteen_min() -> Loadavg {
            Loadavg::new(FIFTEEN_MINUTES)
        }
    }
}
