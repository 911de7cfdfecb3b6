//! The harness's own percentile code (it may not lean on the product's
//! histograms: they are due to be merged or deleted).

/// Nearest-rank percentile of an ascending slice; `p` in `0.0..=1.0`.
/// Empty input reads 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort in place and return the `p` percentile.
pub fn percentile_of(values: &mut [f64], p: f64) -> f64 {
    values.sort_unstable_by(f64::total_cmp);
    percentile(values, p)
}

/// Median of the values (sorts in place).
pub fn median(values: &mut [f64]) -> f64 {
    percentile_of(values, 0.5)
}

/// One reported number: the median over the segments of a timed phase of
/// the per-segment statistic, with the segments' min–max spread and the
/// number of raw samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Median over segments.
    pub median: f64,
    /// Smallest per-segment value.
    pub min: f64,
    /// Largest per-segment value.
    pub max: f64,
    /// First quartile over segments.
    pub q1: f64,
    /// Third quartile over segments.
    pub q3: f64,
    /// Raw samples across all segments.
    pub samples: u64,
}

impl Spread {
    /// A number measured once, with no spread.
    pub fn single(value: f64) -> Spread {
        Spread::over(&[value], 1)
    }

    /// Fold per-segment values into one reported number.
    pub fn over(per_segment: &[f64], samples: u64) -> Spread {
        let mut v = per_segment.to_vec();
        let median = median(&mut v);
        Spread {
            median,
            min: v.first().copied().unwrap_or(0.0),
            max: v.last().copied().unwrap_or(0.0),
            q1: percentile(&v, 0.25),
            q3: percentile(&v, 0.75),
            samples,
        }
    }
}

/// A latency sample buffer of bounded size, so the benchmark's own
/// memory does not grow with how fast the program under test runs. It
/// keeps every `stride`-th sample; when full it drops every second kept
/// sample and doubles the stride. Deterministic for a given sample count.
#[derive(Debug, Clone)]
pub struct Sampler {
    kept: Vec<f64>,
    cap: usize,
    stride: u64,
    seen: u64,
}

impl Sampler {
    /// A sampler keeping at most `cap` samples (`cap` ≥ 2).
    pub fn new(cap: usize) -> Sampler {
        Sampler {
            kept: Vec::with_capacity(cap),
            cap: cap.max(2),
            stride: 1,
            seen: 0,
        }
    }

    /// Offer one sample.
    pub fn push(&mut self, v: f64) {
        if self.seen % self.stride == 0 {
            if self.kept.len() == self.cap {
                let mut i = 0;
                self.kept.retain(|_| {
                    i += 1;
                    i % 2 == 1
                });
                self.stride *= 2;
                if self.seen % self.stride != 0 {
                    self.seen += 1;
                    return;
                }
            }
            self.kept.push(v);
        }
        self.seen += 1;
    }

    /// Samples offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The `p` percentile of the kept samples.
    pub fn percentile(&self, p: f64) -> f64 {
        percentile_of(&mut self.kept.clone(), p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.99), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        let s = Spread::over(&[3.0, 1.0, 2.0], 30);
        assert_eq!((s.median, s.min, s.max, s.samples), (2.0, 1.0, 3.0, 30));
    }

    #[test]
    fn sampler_stays_bounded_and_keeps_the_median() {
        let mut s = Sampler::new(64);
        for i in 0..10_000 {
            s.push(f64::from(i));
        }
        assert_eq!(s.seen(), 10_000);
        assert!(s.kept.len() <= 64);
        let m = s.percentile(0.5);
        assert!((4_000.0..6_000.0).contains(&m), "median {m}");
    }
}
