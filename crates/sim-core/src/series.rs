//! Time-series recording for experiment traces.
//!
//! Figures 8(b) and 12 of the paper are traces (GC-thread count over
//! collections; used/committed/VirtualMax memory over time). Experiments
//! record those through [`TimeSeries`], which also offers simple
//! down-sampling so reports stay readable.

use crate::time::SimTime;

/// A named sequence of `(time, value)` samples.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    name: String,
    samples: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// An empty series with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries {
            name: name.into(),
            samples: Vec::new(),
        }
    }

    /// The series name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Append a sample. Samples must be pushed in non-decreasing time order.
    pub fn push(&mut self, t: SimTime, v: f64) {
        debug_assert!(
            self.samples.last().map_or(true, |(lt, _)| *lt <= t),
            "samples must be time-ordered"
        );
        self.samples.push((t, v));
    }

    /// All samples, time-ordered.
    pub fn samples(&self) -> &[(SimTime, f64)] {
        &self.samples
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether there are no entries.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Most recent sample value.
    pub fn last_value(&self) -> Option<f64> {
        self.samples.last().map(|(_, v)| *v)
    }

    /// Largest sample value.
    pub fn max_value(&self) -> Option<f64> {
        self.samples
            .iter()
            .map(|(_, v)| *v)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// Smallest sample value.
    pub fn min_value(&self) -> Option<f64> {
        self.samples
            .iter()
            .map(|(_, v)| *v)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.min(v))))
    }

    /// Keep at most `n` evenly spaced samples (always keeping the last).
    pub fn downsample(&self, n: usize) -> TimeSeries {
        assert!(n > 0, "downsample target must be positive");
        if self.samples.len() <= n {
            return self.clone();
        }
        let mut out = TimeSeries::new(self.name.clone());
        let step = (self.samples.len() - 1) as f64 / (n - 1).max(1) as f64;
        for i in 0..n {
            let idx = ((i as f64 * step).round() as usize).min(self.samples.len() - 1);
            let (t, v) = self.samples[idx];
            if out.samples.last().map_or(true, |(lt, _)| *lt < t) || out.samples.is_empty() {
                out.push(t, v);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series() -> TimeSeries {
        let mut s = TimeSeries::new("mem");
        for i in 0..10u64 {
            s.push(SimTime(i * 100), i as f64);
        }
        s
    }

    #[test]
    fn push_and_extents() {
        let s = series();
        assert_eq!(s.len(), 10);
        assert_eq!(s.last_value(), Some(9.0));
        assert_eq!(s.max_value(), Some(9.0));
        assert_eq!(s.min_value(), Some(0.0));
    }

    #[test]
    fn value_at_uses_step_interpolation() {
        let s = series();
        assert_eq!(s.value_at(SimTime(0)), Some(0.0));
        assert_eq!(s.value_at(SimTime(150)), Some(1.0));
        assert_eq!(s.value_at(SimTime(900)), Some(9.0));
        assert_eq!(s.value_at(SimTime(5_000)), Some(9.0));
    }

    #[test]
    fn value_before_first_sample_is_none() {
        let mut s = TimeSeries::new("x");
        s.push(SimTime(10), 1.0);
        assert_eq!(s.value_at(SimTime(9)), None);
    }

    #[test]
    fn downsample_keeps_endpoints() {
        let s = series();
        let d = s.downsample(4);
        assert!(d.len() <= 4);
        assert_eq!(d.samples().first().unwrap().1, 0.0);
        assert_eq!(d.samples().last().unwrap().1, 9.0);
    }

    #[test]
    fn downsample_of_short_series_is_identity() {
        let s = series();
        assert_eq!(s.downsample(100).len(), s.len());
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn out_of_order_push_panics_in_debug() {
        let mut s = TimeSeries::new("x");
        s.push(SimTime(10), 1.0);
        s.push(SimTime(5), 2.0);
    }

    impl TimeSeries {
        /// Value at or before `t` (step interpolation); `None` before first sample.
        fn value_at(&self, t: SimTime) -> Option<f64> {
            match self.samples.binary_search_by(|(st, _)| st.cmp(&t)) {
                Ok(i) => Some(self.samples[i].1),
                Err(0) => None,
                Err(i) => Some(self.samples[i - 1].1),
            }
        }
    }
}
