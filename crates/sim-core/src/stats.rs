//! Small statistics helpers shared by experiment reports, plus a
//! thread-safe latency histogram for live measurement paths.

use std::sync::atomic::{AtomicU64, Ordering};

/// Arithmetic mean; 0.0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Sample standard deviation; 0.0 for fewer than two samples.
pub fn stddev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    let var = xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
    var.sqrt()
}

/// A lock-free latency histogram with power-of-two buckets.
///
/// Bucket `i` counts samples whose value (typically nanoseconds) has
/// `i` significant bits, i.e. lands in `[2^(i−1), 2^i)`; bucket 0 counts
/// zeros. Recording is a single relaxed `fetch_add`, so hot query paths
/// can record without perturbing what they measure. Precision is the
/// usual factor-of-two bucketing — good enough for the order-of-magnitude
/// comparisons the paper's §5.4 overhead table makes.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; 65],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        let bucket = (64 - value.leading_zeros()) as usize;
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Mean of all recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum.load(Ordering::Relaxed) as f64 / n as f64
        }
    }

    /// Upper edge of the bucket containing the `q`-quantile (`q` in
    /// `[0, 1]`), or 0 when empty. `quantile(0.5)` is a median estimate
    /// within a factor of two.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return bucket_edge(i);
            }
        }
        u64::MAX
    }
}

/// Exclusive upper edge of bucket `i` (saturated for the top bucket).
fn bucket_edge(i: usize) -> u64 {
    match i {
        0 => 0,
        1..=63 => 1u64 << i,
        _ => u64::MAX,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_values() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn stddev_of_values() {
        assert_eq!(stddev(&[5.0]), 0.0);
        assert!((stddev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]) - 2.138089935).abs() < 1e-6);
    }

    #[test]
    fn histogram_counts_and_mean() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0);
        for v in [100, 200, 400] {
            h.record(v);
        }
        assert_eq!(h.count(), 3);
        assert!((h.mean() - 233.333).abs() < 0.01);
    }

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let h = Histogram::default();
        for _ in 0..99 {
            h.record(1000); // bucket [512, 1024) → edge 1024
        }
        h.record(1_000_000);
        assert_eq!(h.quantile(0.5), 1024);
        assert_eq!(h.quantile(0.99), 1024);
        assert!(h.quantile(1.0) >= 1_000_000);
        assert!(h.max_bucket() >= 1_000_000);
    }

    #[test]
    fn histogram_extremes() {
        let h = Histogram::default();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.max_bucket(), u64::MAX);
    }

    mod quantile_props {
        use super::*;
        use proptest::prelude::*;

        /// Upper edge of the bucket a value lands in.
        fn edge_of(value: u64) -> u64 {
            bucket_edge((64 - value.leading_zeros()) as usize)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// `quantile` is monotone non-decreasing in `q`, and every
            /// quantile lies within the edges of the lowest and highest
            /// buckets that actually received a sample.
            #[test]
            fn quantile_is_monotone_and_bounded(
                values in prop::collection::vec(0u64..(1u64 << 48), 1..64),
                // Deliberately past 1.0: `quantile` clamps internally.
                mut qs in prop::collection::vec(0.0f64..1.25, 2..8)
            ) {
                let h = Histogram::default();
                for &v in &values {
                    h.record(v);
                }
                qs.sort_by(f64::total_cmp);
                let lo = values.iter().copied().map(edge_of).min().unwrap_or(0);
                let hi = h.max_bucket();
                let mut prev = 0u64;
                for &q in &qs {
                    let e = h.quantile(q);
                    prop_assert!(e >= prev, "quantile regressed: q={q} gave {e} after {prev}");
                    prop_assert!(e >= lo, "quantile {e} below lowest recorded edge {lo}");
                    prop_assert!(e <= hi, "quantile {e} above highest recorded edge {hi}");
                    prev = e;
                }
            }

            /// An empty histogram answers 0 for every quantile; `q`
            /// outside `[0, 1]` is clamped, never panics.
            #[test]
            fn quantile_handles_empty_and_out_of_range(q in -2.0f64..3.0) {
                let h = Histogram::default();
                prop_assert_eq!(h.quantile(q), 0);
                h.record(777);
                let clamped = h.quantile(q);
                prop_assert_eq!(clamped, 1024); // bucket [512, 1024)
            }
        }
    }

    #[test]
    fn histogram_is_shareable_across_threads() {
        use std::sync::Arc;
        let h = Arc::new(Histogram::default());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for v in 1..=1000u64 {
                        h.record(v);
                    }
                })
            })
            .collect();
        for t in handles {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 4000);
    }

    impl Histogram {
        /// Highest non-empty bucket's upper edge (0 when empty).
        fn max_bucket(&self) -> u64 {
            for i in (0..self.buckets.len()).rev() {
                if self.buckets[i].load(Ordering::Relaxed) > 0 {
                    return bucket_edge(i);
                }
            }
            0
        }
    }
}
