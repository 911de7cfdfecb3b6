//! Algorithm 2: the calculation of effective memory.
//!
//! Effective memory starts at the container's soft limit and grows toward
//! the hard limit in 10% steps, but only when (a) the host has free memory
//! above the kswapd `low` watermark, (b) the container is actually using
//! more than 90% of its current view, and (c) a linear prediction of the
//! host free-memory response says the growth will not drag free memory
//! below the `high` watermark. Whenever kswapd is reclaiming, the view
//! snaps back to the soft limit — the portion above it is exactly what
//! reclaim will take away.

use arv_cgroups::Bytes;
use arv_telemetry::{DecisionCause, MemDecision};

/// Tunables of Algorithm 2; defaults are the paper's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EffectiveMemoryConfig {
    /// Usage fraction of the current view above which growth is attempted
    /// (line 6: `cmem / E_MEM > 90%`).
    pub usage_threshold: f64,
    /// Growth increment as a fraction of the remaining headroom
    /// (line 7: `Δ = (hard − E) · 10%`).
    pub growth_fraction: f64,
}

impl Default for EffectiveMemoryConfig {
    fn default() -> Self {
        EffectiveMemoryConfig {
            usage_threshold: 0.90,
            growth_fraction: 0.10,
        }
    }
}

/// One update period's memory observation for a container.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemSample {
    /// System-wide free memory now (`cfree`).
    pub free: Bytes,
    /// The container's current usage (`cmem`).
    pub usage: Bytes,
    /// Whether kswapd is actively reclaiming.
    pub reclaiming: bool,
}

/// The effective-memory state machine.
///
/// Keeps the previous sample internally to evaluate the line-8 prediction
/// `Δ_predict = (pfree − cfree)/(cmem − pmem) · Δ`.
#[derive(Debug, Clone)]
pub struct EffectiveMemory {
    cfg: EffectiveMemoryConfig,
    soft: Bytes,
    hard: Bytes,
    low_watermark: Bytes,
    high_watermark: Bytes,
    value: Bytes,
    prev: Option<MemSample>,
}

impl EffectiveMemory {
    /// Initialize to the soft limit (line 3).
    pub fn new(
        soft: Bytes,
        hard: Bytes,
        low_watermark: Bytes,
        high_watermark: Bytes,
        cfg: EffectiveMemoryConfig,
    ) -> EffectiveMemory {
        assert!(soft <= hard, "soft limit must not exceed hard limit");
        assert!(low_watermark <= high_watermark);
        EffectiveMemory {
            cfg,
            soft,
            hard,
            low_watermark,
            high_watermark,
            value: soft,
            prev: None,
        }
    }

    /// Current effective memory (`E_MEM_i`).
    pub fn value(&self) -> Bytes {
        self.value
    }

    /// The soft limit anchoring the view.
    pub fn soft_limit(&self) -> Bytes {
        self.soft
    }

    /// The container's usage from the most recent sample, if any period
    /// has fired yet. Lets the query side answer "available" questions
    /// (`_SC_AVPHYS_PAGES`) as view minus consumption.
    pub fn last_usage(&self) -> Option<Bytes> {
        self.prev.map(|s| s.usage)
    }

    /// The hard limit capping the view.
    pub fn hard_limit(&self) -> Bytes {
        self.hard
    }

    /// Install new limits (cgroup change). The view re-anchors to the new
    /// soft limit when it falls outside `[soft, hard]`.
    pub fn set_limits(&mut self, soft: Bytes, hard: Bytes) {
        assert!(soft <= hard);
        self.soft = soft;
        self.hard = hard;
        if self.value < soft || self.value > hard {
            self.value = soft;
        }
    }

    /// Resume at a journaled value (warm restart). The value is clamped
    /// into the **current** `[soft, hard]` range — the reconcile rule
    /// for recovery — and the clamped result is returned. The
    /// prediction history is cleared: the pre-crash free-memory
    /// response is stale evidence.
    pub fn restore_value(&mut self, value: Bytes) -> Bytes {
        self.value = value.clamp(self.soft, self.hard);
        self.prev = None;
        self.value
    }

    /// One firing of the update timer. Returns the new value.
    ///
    /// Growth needs `free − predicted > high` with `predicted ≥ 0`, so
    /// while `free ≤ high` it cannot pass: that host-wide test goes
    /// first, and the usage ratio, Δ and the prediction are computed
    /// only when it holds. The answer is the paper's.
    #[inline]
    pub fn update(&mut self, sample: MemSample) -> Bytes {
        if sample.free > self.low_watermark && !sample.reclaiming {
            if sample.free > self.high_watermark
                && sample.usage.ratio(self.value) > self.cfg.usage_threshold
                && self.value < self.hard
            {
                let delta = (self.hard - self.value).mul_f64(self.cfg.growth_fraction);
                let predicted_drop = self.predict_free_drop(&sample, delta);
                if sample.free.saturating_sub(predicted_drop) > self.high_watermark {
                    self.value = (self.value + delta).min(self.hard);
                }
            }
        } else {
            // Memory shortage / active reclaim: anything above the soft
            // limit is about to be taken back (line 14).
            self.value = self.soft;
        }
        self.prev = Some(sample);
        self.value
    }

    /// [`update`](EffectiveMemory::update) with decision provenance:
    /// when the period changed the view, returns the full
    /// [`MemDecision`] — cause (pressure
    /// growth vs. reclaim reset), before/after, and the usage/free
    /// inputs Algorithm 2 branched on. Returns `None` when unchanged
    /// (including the reset branch re-asserting an already-reset view).
    pub fn update_explained(&mut self, sample: MemSample) -> Option<MemDecision> {
        let before = self.value;
        let after = self.update(sample);
        EffectiveMemory::decision(before, after, sample)
    }

    /// What an [`update`](EffectiveMemory::update) on `sample` that took
    /// the view from `before` to `after` decided, and why; `None` when
    /// the view stood. A pure function of the three, as for the CPU view
    /// ([`EffectiveCpu::decision`](crate::effective_cpu::EffectiveCpu::decision)).
    pub fn decision(before: Bytes, after: Bytes, sample: MemSample) -> Option<MemDecision> {
        if after == before {
            return None;
        }
        let cause = if after > before {
            DecisionCause::MemPressureGrowth
        } else {
            DecisionCause::MemReclaimReset
        };
        Some(MemDecision {
            cause,
            before,
            after,
            usage: sample.usage,
            free: sample.free,
        })
    }

    /// Line 8: estimate how much system free memory will drop if this
    /// container's view grows by `delta`, from the previous period's
    /// observed response. With no history, or a non-increasing container
    /// (the denominator `cmem − pmem ≤ 0`), assume the conservative 1:1
    /// response. A negative numerator (free memory *grew*) predicts no
    /// drop.
    fn predict_free_drop(&self, sample: &MemSample, delta: Bytes) -> Bytes {
        match self.prev {
            Some(prev) if sample.usage > prev.usage => {
                let consumed = prev.free.saturating_sub(sample.free).as_u64() as f64;
                let grown = (sample.usage - prev.usage).as_u64() as f64;
                delta.mul_f64(consumed / grown)
            }
            _ => delta,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GIB: u64 = 1 << 30;

    fn mem(soft_gib: u64, hard_gib: u64) -> EffectiveMemory {
        EffectiveMemory::new(
            Bytes(soft_gib * GIB),
            Bytes(hard_gib * GIB),
            Bytes::from_mib(1280), // low
            Bytes::from_mib(2560), // high
            EffectiveMemoryConfig::default(),
        )
    }

    fn sample(free_gib: f64, usage_gib: f64) -> MemSample {
        MemSample {
            free: Bytes((free_gib * GIB as f64) as u64),
            usage: Bytes((usage_gib * GIB as f64) as u64),
            reclaiming: false,
        }
    }

    #[test]
    fn initializes_to_soft_limit() {
        let e = mem(15, 30);
        assert_eq!(e.value(), Bytes(15 * GIB));
    }

    #[test]
    fn grows_ten_percent_of_headroom_when_pressed() {
        let mut e = mem(15, 30);
        // 90%+ usage, plenty of free memory.
        let v = e.update(sample(80.0, 14.0));
        // Δ = (30 − 15) · 10% = 1.5 GiB.
        assert_eq!(v, Bytes(15 * GIB) + Bytes(15 * GIB).mul_f64(0.1));
    }

    #[test]
    fn no_growth_below_usage_threshold() {
        let mut e = mem(15, 30);
        let v = e.update(sample(80.0, 10.0)); // 66% of view
        assert_eq!(v, Bytes(15 * GIB));
    }

    #[test]
    fn growth_capped_at_hard_limit() {
        let mut e = mem(15, 30);
        for _ in 0..200 {
            let usage = e.value().mul_f64(0.95);
            e.update(MemSample {
                free: Bytes(80 * GIB),
                usage,
                reclaiming: false,
            });
        }
        assert!(e.value() <= Bytes(30 * GIB));
        // Converges towards (asymptotically to) the hard limit.
        assert!(e.value() > Bytes(29 * GIB));
    }

    #[test]
    fn reset_to_soft_on_reclaim() {
        let mut e = mem(15, 30);
        e.update(sample(80.0, 14.5));
        assert!(e.value() > Bytes(15 * GIB));
        e.update(MemSample {
            free: Bytes(80 * GIB),
            usage: Bytes(16 * GIB),
            reclaiming: true,
        });
        assert_eq!(e.value(), Bytes(15 * GIB));
    }

    #[test]
    fn reset_to_soft_below_low_watermark() {
        let mut e = mem(15, 30);
        e.update(sample(80.0, 14.5));
        assert!(e.value() > Bytes(15 * GIB));
        e.update(MemSample {
            free: Bytes::from_mib(1000), // below low watermark
            usage: Bytes(16 * GIB),
            reclaiming: false,
        });
        assert_eq!(e.value(), Bytes(15 * GIB));
    }

    #[test]
    fn prediction_blocks_growth_near_high_watermark() {
        let mut e = mem(15, 30);
        // First sample establishes history: container grew 1 GiB while free
        // dropped 2 GiB → response ratio 2.0.
        e.update(sample(6.0, 13.0));
        // Now usage presses the view; Δ = 1.5 GiB, predicted drop = 3 GiB,
        // free (4 GiB) − 3 GiB = 1 GiB < high watermark (2.5 GiB): blocked.
        let v = e.update(sample(4.0, 14.0));
        assert_eq!(v, Bytes(15 * GIB));
    }

    #[test]
    fn conservative_prediction_without_history() {
        let mut e = mem(15, 30);
        // No history: predicted drop = Δ = 1.5 GiB. free − Δ = 3.5 GiB >
        // high watermark → growth allowed.
        let v = e.update(sample(5.0, 14.0));
        assert!(v > Bytes(15 * GIB));
        // But with free = 3.9 GiB: 3.9 − 1.5 = 2.4 GiB < 2.5 GiB → blocked.
        let mut e2 = mem(15, 30);
        let v2 = e2.update(sample(3.9, 14.0));
        assert_eq!(v2, Bytes(15 * GIB));
    }

    #[test]
    fn free_memory_growth_predicts_no_drop() {
        let mut e = mem(15, 30);
        e.update(sample(4.0, 13.0));
        // Free memory grew while the container grew: numerator negative →
        // predicted drop 0 → growth allowed even near the watermark.
        let v = e.update(sample(4.5, 14.0));
        assert!(v > Bytes(15 * GIB));
    }

    #[test]
    fn set_limits_reanchors_when_needed() {
        let mut e = mem(15, 30);
        e.update(sample(80.0, 14.5));
        let grown = e.value();
        assert!(grown > Bytes(15 * GIB));
        // Limits move but still contain the value: keep it.
        e.set_limits(Bytes(10 * GIB), Bytes(30 * GIB));
        assert_eq!(e.value(), grown);
        // Hard limit drops below the value: re-anchor to soft.
        e.set_limits(Bytes(10 * GIB), Bytes(12 * GIB));
        assert_eq!(e.value(), Bytes(10 * GIB));
    }

    #[test]
    fn custom_growth_fraction() {
        let cfg = EffectiveMemoryConfig {
            usage_threshold: 0.90,
            growth_fraction: 0.50,
        };
        let mut e = EffectiveMemory::new(
            Bytes(10 * GIB),
            Bytes(20 * GIB),
            Bytes::from_mib(1280),
            Bytes::from_mib(2560),
            cfg,
        );
        let v = e.update(sample(80.0, 9.5));
        assert_eq!(v, Bytes(15 * GIB));
    }

    #[test]
    #[should_panic]
    fn soft_above_hard_rejected() {
        mem(30, 15);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    const LOW: Bytes = Bytes::from_mib(1280);
    const HIGH: Bytes = Bytes::from_mib(2560);

    /// Algorithm 2 as the paper states it, every line in its order: the
    /// usage ratio, Δ and the prediction are computed whenever free
    /// memory is above `low` and kswapd is idle.
    struct Paper {
        soft: Bytes,
        hard: Bytes,
        value: Bytes,
        prev: Option<MemSample>,
    }

    impl Paper {
        fn update(&mut self, s: MemSample) -> Bytes {
            if s.free > LOW && !s.reclaiming {
                let used_frac = s.usage.ratio(self.value);
                if used_frac > 0.90 && self.value < self.hard {
                    let delta = (self.hard - self.value).mul_f64(0.10);
                    let predicted_drop = match self.prev {
                        Some(p) if s.usage > p.usage => {
                            let consumed = p.free.saturating_sub(s.free).as_u64() as f64;
                            let grown = (s.usage - p.usage).as_u64() as f64;
                            delta.mul_f64(consumed / grown)
                        }
                        _ => delta,
                    };
                    if s.free.saturating_sub(predicted_drop) > HIGH {
                        self.value = (self.value + delta).min(self.hard);
                    }
                }
            } else {
                self.value = self.soft;
            }
            self.prev = Some(s);
            self.value
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// `update` is the paper's Algorithm 2, whatever it skips: over
        /// long traces of free memory at, just below and just above
        /// `high` (and below `low`, between the two, and far above),
        /// usage growing and shrinking, kswapd now and then reclaiming,
        /// `set_limits` and `restore_value`, the view and the usage it
        /// last saw equal the reference's after every call. Each trace
        /// grows the view, resets it, and skips a growth check because
        /// free memory was not above `high`, so none of the three goes
        /// untested.
        #[test]
        fn update_is_the_papers_algorithm_2(
            soft_mib in 100u64..1000,
            extra_mib in 1u64..2000,
            trace in prop::collection::vec(
                (0u8..16, 0u64..4, 0u64..256, prop::bool::ANY, 0u64..3000), 1500..1501),
        ) {
            let (soft, hard) = (Bytes::from_mib(soft_mib), Bytes::from_mib(soft_mib + extra_mib));
            let mut e = EffectiveMemory::new(soft, hard, LOW, HIGH, EffectiveMemoryConfig::default());
            let mut paper = Paper { soft, hard, value: soft, prev: None };
            let (mut usage, mut grew, mut reset, mut skipped) = (soft.mul_f64(0.8), 0, 0, 0);
            for (op, jitter, step_mib, up, mib) in trace {
                let before = e.value();
                match op {
                    0 => {
                        let (soft, hard) = (Bytes::from_mib(mib / 2), Bytes::from_mib(mib / 2 + mib));
                        e.set_limits(soft, hard);
                        (paper.soft, paper.hard) = (soft, hard);
                        if paper.value < soft || paper.value > hard {
                            paper.value = soft;
                        }
                    }
                    1 => {
                        let v = e.restore_value(Bytes::from_mib(mib));
                        paper.value = Bytes::from_mib(mib).clamp(paper.soft, paper.hard);
                        paper.prev = None;
                        prop_assert_eq!(v, paper.value);
                    }
                    _ => {
                        let free = match op % 7 {
                            0 => HIGH,
                            1 => HIGH - Bytes(1 + jitter),
                            2 => HIGH + Bytes(1 + jitter),
                            3 => LOW - Bytes::from_mib(jitter),
                            4 => LOW + Bytes::from_mib(step_mib),
                            _ => HIGH + Bytes::from_mib(jitter * step_mib),
                        };
                        let step = Bytes::from_mib(step_mib / 4);
                        usage = if up { usage + step } else { usage.saturating_sub(step) };
                        let sample = MemSample { free, usage, reclaiming: op == 15 };
                        let growth_checked = free > LOW
                            && !sample.reclaiming
                            && usage.ratio(before) > 0.90
                            && before < e.hard_limit();
                        skipped += u32::from(growth_checked && free <= HIGH);
                        prop_assert_eq!(e.update(sample), paper.update(sample));
                        grew += u32::from(e.value() > before);
                        reset += u32::from(e.value() < before);
                    }
                }
                prop_assert_eq!(e.value(), paper.value);
                prop_assert_eq!(e.last_usage(), paper.prev.map(|p| p.usage));
            }
            prop_assert!(grew > 0 && reset > 0 && skipped > 0, "grew {grew}, reset {reset}, skipped {skipped}");
        }
    }

    proptest! {
        /// E_MEM always stays within [soft, hard] for arbitrary traces.
        #[test]
        fn value_always_within_limits(
            soft_mib in 100u64..1000,
            extra_mib in 0u64..2000,
            trace in prop::collection::vec(
                (0u64..200_000, 0u64..4_000, prop::bool::ANY), 1..100),
        ) {
            let soft = Bytes::from_mib(soft_mib);
            let hard = Bytes::from_mib(soft_mib + extra_mib);
            let mut e = EffectiveMemory::new(
                soft,
                hard,
                Bytes::from_mib(1280),
                Bytes::from_mib(2560),
                EffectiveMemoryConfig::default(),
            );
            for (free_mib, usage_mib, reclaiming) in trace {
                let v = e.update(MemSample {
                    free: Bytes::from_mib(free_mib),
                    usage: Bytes::from_mib(usage_mib),
                    reclaiming,
                });
                prop_assert!(v >= soft && v <= hard, "view escaped limits");
            }
        }

        /// Reclaim always resets the view exactly to the soft limit.
        #[test]
        fn reclaim_resets_to_soft(
            soft_mib in 100u64..1000,
            extra_mib in 1u64..2000,
            warm in prop::collection::vec((0u64..200_000, 0u64..4_000), 0..20),
        ) {
            let soft = Bytes::from_mib(soft_mib);
            let mut e = EffectiveMemory::new(
                soft,
                Bytes::from_mib(soft_mib + extra_mib),
                Bytes::from_mib(1280),
                Bytes::from_mib(2560),
                EffectiveMemoryConfig::default(),
            );
            for (free_mib, usage_mib) in warm {
                e.update(MemSample {
                    free: Bytes::from_mib(free_mib),
                    usage: Bytes::from_mib(usage_mib),
                    reclaiming: false,
                });
            }
            e.update(MemSample {
                free: Bytes::from_gib(100),
                usage: Bytes::from_mib(500),
                reclaiming: true,
            });
            prop_assert_eq!(e.value(), soft);
        }
    }
}
