//! Algorithm 1: the calculation of effective CPU.
//!
//! Effective CPU is exported as a *discrete CPU count* whose aggregate
//! capacity equals the CPU time the container can actually use — the paper
//! argues a few dedicated CPUs beat many shared slices for thread-pool
//! sizing, and a count is what `sysconf(_SC_NPROCESSORS_ONLN)` consumers
//! expect anyway.
//!
//! ```text
//! LOWER_CPU_i = min( l_i/t, |M_i|, ceil(w_i/Σw_j · |P|) )
//! UPPER_CPU_i = min( l_i/t, |M_i| )
//! E_CPU_i initialized to LOWER_CPU_i, then per update period:
//!     if pslack > 0:  E++ when u_i/(E·t) > 95% and E < UPPER
//!     else:           E-- until LOWER
//! ```

use arv_cgroups::hierarchy::{CgroupTree, ROOT};
use arv_cgroups::{CgroupId, CpuController, CpuSet};
use arv_sim_core::SimDuration;
use arv_telemetry::{CpuDecision, DecisionCause};

/// Tunables of Algorithm 1; defaults are the paper's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EffectiveCpuConfig {
    /// `UTIL_THRSHD`: utilization above which effective CPU grows
    /// ("we empirically set UTIL_THRSHD to 95%").
    pub util_threshold: f64,
    /// Largest per-update change in effective CPU ("changes to effective
    /// CPU are limited to 1 per update to prevent abrupt fluctuations").
    pub max_step: u32,
}

impl Default for EffectiveCpuConfig {
    fn default() -> Self {
        EffectiveCpuConfig {
            util_threshold: 0.95,
            max_step: 1,
        }
    }
}

/// The static `[LOWER_CPU, UPPER_CPU]` bounds of Algorithm 1 (lines 4–5).
///
/// Recomputed by `ns_monitor` on container creation/deletion and cgroup
/// changes; constant otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuBounds {
    /// `LOWER_CPU`: the guaranteed CPU count.
    pub lower: u32,
    /// `UPPER_CPU`: the quota/cpuset cap.
    pub upper: u32,
}

impl CpuBounds {
    /// Compute bounds for one container.
    ///
    /// * `cpu` — its cgroup cpu controller (shares `w_i`, quota `l_i`,
    ///   period, cpuset `M_i`);
    /// * `total_shares` — `Σ w_j` over all containers (including this one);
    /// * `online` — the host's online CPU set `P`.
    ///
    /// Fractional quotas are rounded **up** (a 2.5-CPU quota exports 3
    /// CPUs, matching HotSpot's own ceil of `quota/period`), and both
    /// bounds are clamped to at least one CPU — an application cannot size
    /// a thread pool with zero processors.
    pub fn compute(cpu: &CpuController, total_shares: u64, online: CpuSet) -> CpuBounds {
        let mask = cpu.cpuset.intersection(online).count();
        let quota_cpus = cpu.quota_ratio().map_or(f64::INFINITY, |q| q.max(0.0));
        let upper = (quota_cpus.min(mask as f64)).ceil().max(1.0) as u32;

        let total_shares = total_shares.max(cpu.shares);
        let share_cpus = (cpu.shares as f64 / total_shares as f64 * online.count() as f64).ceil();
        let lower = (share_cpus.min(quota_cpus).min(mask as f64))
            .ceil()
            .max(1.0) as u32;
        CpuBounds {
            lower: lower.min(upper),
            upper,
        }
    }

    /// Compute bounds for a container nested in a cgroup tree
    /// (Kubernetes-style). The guaranteed share composes multiplicatively
    /// along the path — at each level, this subtree's shares over the
    /// sibling total — and the upper bound is the tightest quota/cpuset
    /// cap on the path.
    pub fn compute_in_tree(tree: &CgroupTree, id: CgroupId, online: CpuSet) -> CpuBounds {
        let path_cap = tree.path_cpu_cap(id, online);
        let upper = path_cap.min(f64::from(online.count())).ceil().max(1.0) as u32;

        let mut share_fraction = 1.0;
        let mut cur = id;
        while cur != ROOT {
            let Some(parent) = tree.parent(cur) else {
                break;
            };
            let own = tree.cpu(cur).map_or(1024.0, |c| c.shares as f64);
            let sibling_total: f64 = tree
                .children(parent)
                .iter()
                .map(|c| tree.cpu(*c).map_or(1024.0, |x| x.shares as f64))
                .sum();
            share_fraction *= own / sibling_total.max(own);
            cur = parent;
        }
        let share_cpus = (share_fraction * f64::from(online.count())).ceil();
        let lower = share_cpus.min(path_cap).ceil().max(1.0) as u32;
        CpuBounds {
            lower: lower.min(upper),
            upper,
        }
    }

    /// Clamp `e` into `[lower, upper]`.
    pub fn clamp(&self, e: u32) -> u32 {
        e.clamp(self.lower, self.upper)
    }
}

/// One update period's scheduler observation for a container.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuSample {
    /// CPU time the container consumed this period (`u_i`).
    pub usage: SimDuration,
    /// Length of the update period (`t`).
    pub period: SimDuration,
    /// Idle host CPU time this period (`pslack`); growth requires
    /// `pslack > 0`.
    pub slack: SimDuration,
}

/// The dynamic effective-CPU state machine (Algorithm 1 lines 6–19).
#[derive(Debug, Clone)]
pub struct EffectiveCpu {
    cfg: EffectiveCpuConfig,
    bounds: CpuBounds,
    value: u32,
}

impl EffectiveCpu {
    /// Initialize at the lower bound (line 6).
    pub fn new(bounds: CpuBounds, cfg: EffectiveCpuConfig) -> EffectiveCpu {
        EffectiveCpu {
            cfg,
            bounds,
            value: bounds.lower,
        }
    }

    /// Current effective CPU count (`E_CPU_i`).
    pub fn value(&self) -> u32 {
        self.value
    }

    /// The current static bounds.
    pub fn bounds(&self) -> CpuBounds {
        self.bounds
    }

    /// The tunables this state machine runs with.
    pub fn config(&self) -> EffectiveCpuConfig {
        self.cfg
    }

    /// Install new static bounds (cgroup change / container churn); the
    /// current value is clamped into the new range.
    pub fn set_bounds(&mut self, bounds: CpuBounds) {
        self.bounds = bounds;
        self.value = bounds.clamp(self.value);
    }

    /// Resume at a journaled value (warm restart). The value is clamped
    /// into the **current** bounds — the reconcile rule for recovery —
    /// and the clamped result is returned.
    pub fn restore_value(&mut self, value: u32) -> u32 {
        self.value = self.bounds.clamp(value);
        self.value
    }

    /// One firing of the update timer. Returns the new value.
    pub fn update(&mut self, sample: CpuSample) -> u32 {
        let capacity = sample.period * u64::from(self.value);
        let utilization = sample.usage.ratio(capacity);
        if !sample.slack.is_zero() {
            if utilization > self.cfg.util_threshold && self.value < self.bounds.upper {
                self.value = (self.value + self.cfg.max_step).min(self.bounds.upper);
            }
        } else if self.value > self.bounds.lower {
            self.value = self
                .value
                .saturating_sub(self.cfg.max_step)
                .max(self.bounds.lower);
        }
        self.value
    }

    /// [`update`](EffectiveCpu::update) with decision provenance: when
    /// the step changed the value, returns the full
    /// [`CpuDecision`] — cause, before/after,
    /// and the utilization/slack inputs that drove Algorithm 1's branch.
    /// Returns `None` when the view was left unchanged.
    pub fn update_explained(&mut self, sample: CpuSample) -> Option<CpuDecision> {
        let before = self.value;
        let after = self.update(sample);
        EffectiveCpu::decision(before, after, sample)
    }

    /// What an [`update`](EffectiveCpu::update) on `sample` that took
    /// the value from `before` to `after` decided, and why; `None` when
    /// the value stood. A pure function of the three, so a caller that
    /// traces only some updates builds it only for those.
    pub fn decision(before: u32, after: u32, sample: CpuSample) -> Option<CpuDecision> {
        if after == before {
            return None;
        }
        let cause = if after > before {
            DecisionCause::CpuSaturatedWithSlack
        } else {
            DecisionCause::CpuShrinkNoSlack
        };
        Some(CpuDecision {
            cause,
            before,
            after,
            utilization: sample.usage.ratio(sample.period * u64::from(before)),
            had_slack: !sample.slack.is_zero(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arv_cgroups::CpuController;

    const T: SimDuration = SimDuration::from_millis(24);

    fn sample(used_cpus: f64, slack_cpus: f64) -> CpuSample {
        CpuSample {
            usage: T.mul_f64(used_cpus),
            period: T,
            slack: T.mul_f64(slack_cpus),
        }
    }

    #[test]
    fn paper_bounds_five_equal_containers() {
        // §2.2: 5 containers, 20 cores, limit 10 cores, equal shares →
        // share term = ceil(1/5 · 20) = 4; upper = min(10, 20) = 10.
        let online = CpuSet::first_n(20);
        let cpu = CpuController::unlimited(20).with_quota_cpus(10.0);
        let b = CpuBounds::compute(&cpu, 1024 * 5, online);
        assert_eq!(
            b,
            CpuBounds {
                lower: 4,
                upper: 10
            }
        );
    }

    #[test]
    fn bounds_with_cpuset_mask() {
        // Fig. 7 setup: cpuset of 2 CPUs; 10 containers with equal shares
        // on 20 cores → lower = min(2, ceil(2)) = 2, upper = 2.
        let online = CpuSet::first_n(20);
        let cpu = CpuController::unlimited(20).with_cpuset(CpuSet::range(0, 2));
        let b = CpuBounds::compute(&cpu, 1024 * 10, online);
        assert_eq!(b, CpuBounds { lower: 2, upper: 2 });
    }

    #[test]
    fn fractional_quota_rounds_up() {
        let online = CpuSet::first_n(8);
        let cpu = CpuController::unlimited(8).with_quota_cpus(2.5);
        let b = CpuBounds::compute(&cpu, 1024, online);
        assert_eq!(b.upper, 3);
    }

    #[test]
    fn bounds_never_below_one() {
        let online = CpuSet::first_n(8);
        let cpu = CpuController::unlimited(8).with_quota_cpus(0.25);
        let b = CpuBounds::compute(&cpu, 1024 * 100, online);
        assert_eq!(b, CpuBounds { lower: 1, upper: 1 });
    }

    #[test]
    fn no_quota_upper_is_mask() {
        let online = CpuSet::first_n(20);
        let cpu = CpuController::unlimited(20);
        let b = CpuBounds::compute(&cpu, 1024 * 2, online);
        assert_eq!(b.upper, 20);
        assert_eq!(b.lower, 10);
    }

    #[test]
    fn total_shares_defends_against_zero() {
        let online = CpuSet::first_n(4);
        let cpu = CpuController::unlimited(4);
        // total_shares below own shares (stale snapshot) is corrected.
        let b = CpuBounds::compute(&cpu, 0, online);
        assert_eq!(b.lower, 4);
    }

    #[test]
    fn grows_one_per_period_under_slack_and_load() {
        let bounds = CpuBounds {
            lower: 4,
            upper: 10,
        };
        let mut e = EffectiveCpu::new(bounds, EffectiveCpuConfig::default());
        assert_eq!(e.value(), 4);
        // Saturated (util 100%) with host slack: climb 4 → 10, one per tick.
        for expect in [5, 6, 7, 8, 9, 10, 10] {
            let v = e.update(sample(e.value() as f64, 2.0));
            assert_eq!(v, expect);
        }
    }

    #[test]
    fn no_growth_below_threshold() {
        let bounds = CpuBounds {
            lower: 4,
            upper: 10,
        };
        let mut e = EffectiveCpu::new(bounds, EffectiveCpuConfig::default());
        // Using 3.7 of 4 CPUs = 92.5% < 95%: stays put.
        assert_eq!(e.update(sample(3.7, 5.0)), 4);
    }

    #[test]
    fn shrinks_without_slack() {
        let bounds = CpuBounds {
            lower: 4,
            upper: 10,
        };
        let mut e = EffectiveCpu::new(bounds, EffectiveCpuConfig::default());
        for _ in 0..6 {
            e.update(sample(e.value() as f64, 1.0));
        }
        assert_eq!(e.value(), 10);
        // Host saturated: decay one per period back to the lower bound.
        for expect in [9, 8, 7, 6, 5, 4, 4] {
            assert_eq!(e.update(sample(e.value() as f64, 0.0)), expect);
        }
    }

    #[test]
    fn idle_container_does_not_grow() {
        let bounds = CpuBounds { lower: 2, upper: 8 };
        let mut e = EffectiveCpu::new(bounds, EffectiveCpuConfig::default());
        for _ in 0..10 {
            assert_eq!(e.update(sample(0.1, 6.0)), 2);
        }
    }

    #[test]
    fn set_bounds_clamps_current_value() {
        let mut e = EffectiveCpu::new(
            CpuBounds {
                lower: 4,
                upper: 10,
            },
            EffectiveCpuConfig::default(),
        );
        for _ in 0..6 {
            e.update(sample(e.value() as f64, 1.0));
        }
        assert_eq!(e.value(), 10);
        e.set_bounds(CpuBounds { lower: 2, upper: 6 });
        assert_eq!(e.value(), 6);
        e.set_bounds(CpuBounds { lower: 7, upper: 9 });
        assert_eq!(e.value(), 7);
    }

    #[test]
    fn custom_threshold_is_honoured() {
        let cfg = EffectiveCpuConfig {
            util_threshold: 0.5,
            max_step: 1,
        };
        let mut e = EffectiveCpu::new(CpuBounds { lower: 1, upper: 4 }, cfg);
        assert_eq!(e.update(sample(0.6, 3.0)), 2);
    }

    #[test]
    fn larger_step_converges_faster_but_respects_bounds() {
        let cfg = EffectiveCpuConfig {
            util_threshold: 0.95,
            max_step: 4,
        };
        let mut e = EffectiveCpu::new(CpuBounds { lower: 2, upper: 7 }, cfg);
        assert_eq!(e.update(sample(2.0, 1.0)), 6);
        assert_eq!(e.update(sample(6.0, 1.0)), 7);
        assert_eq!(e.update(sample(7.0, 0.0)), 3);
        assert_eq!(e.update(sample(3.0, 0.0)), 2);
    }
}

#[cfg(test)]
mod tree_bounds_tests {
    use super::*;
    use arv_cgroups::{CgroupSpec, MemController};

    fn spec(shares: u64, quota: Option<f64>) -> CgroupSpec {
        let mut cpu = CpuController::unlimited(20).with_shares(shares);
        if let Some(q) = quota {
            cpu = cpu.with_quota_cpus(q);
        }
        CgroupSpec::new(cpu, MemController::unlimited())
    }

    #[test]
    fn nested_shares_compose_multiplicatively() {
        // root → kubepods(8192), system(1024 ignored here as sibling);
        // kubepods → podA(2048), podB(1024); podA → c1(1024), c2(1024).
        let mut t = CgroupTree::new();
        let kubepods = t.create(ROOT, spec(8192, None));
        let _system = t.create(ROOT, spec(1024, None));
        let pod_a = t.create(kubepods, spec(2048, None));
        let _pod_b = t.create(kubepods, spec(1024, None));
        let c1 = t.create(pod_a, spec(1024, None));
        let _c2 = t.create(pod_a, spec(1024, None));
        let online = CpuSet::first_n(20);
        let b = CpuBounds::compute_in_tree(&t, c1, online);
        // fraction = 1/2 (within podA) × 2/3 (podA of kubepods) ×
        // 8/9 (kubepods of root) = 8/27 → ceil(20 × 8/27) = 6.
        assert_eq!(b.lower, 6);
        assert_eq!(b.upper, 20);
    }

    #[test]
    fn nested_quota_bounds_the_upper() {
        let mut t = CgroupTree::new();
        let slice = t.create(ROOT, spec(1024, Some(4.0)));
        let c = t.create(slice, spec(1024, None));
        let b = CpuBounds::compute_in_tree(&t, c, CpuSet::first_n(20));
        assert_eq!(b.upper, 4);
        assert!(b.lower <= 4);
    }

    #[test]
    fn single_level_matches_flat_computation() {
        let mut t = CgroupTree::new();
        let ids: Vec<_> = (0..5)
            .map(|_| t.create(ROOT, spec(1024, Some(10.0))))
            .collect();
        let online = CpuSet::first_n(20);
        let tree_b = CpuBounds::compute_in_tree(&t, ids[0], online);
        let flat_b = CpuBounds::compute(
            &CpuController::unlimited(20).with_quota_cpus(10.0),
            5 * 1024,
            online,
        );
        assert_eq!(tree_b, flat_b);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    const T: SimDuration = SimDuration::from_millis(24);

    proptest! {
        /// E_CPU always stays within bounds and moves at most one step per
        /// update, for arbitrary usage/slack traces.
        #[test]
        fn value_always_within_bounds(
            lower in 1u32..8,
            extra in 0u32..12,
            trace in prop::collection::vec((0.0f64..32.0, 0.0f64..8.0), 1..128),
        ) {
            let bounds = CpuBounds { lower, upper: lower + extra };
            let mut e = EffectiveCpu::new(bounds, EffectiveCpuConfig::default());
            let mut prev = e.value();
            for (used, slack) in trace {
                let v = e.update(CpuSample {
                    usage: T.mul_f64(used),
                    period: T,
                    slack: T.mul_f64(slack),
                });
                prop_assert!(v >= bounds.lower && v <= bounds.upper);
                prop_assert!(v.abs_diff(prev) <= 1);
                prev = v;
            }
        }

        /// Bounds are consistent (lower ≤ upper, both ≥ 1) for any inputs.
        #[test]
        fn bounds_are_consistent(
            shares in 2u64..10_000,
            total in 2u64..100_000,
            online in 1u32..64,
            quota in prop::option::of(0.1f64..64.0),
            mask_n in 1u32..64,
        ) {
            let online_set = CpuSet::first_n(online);
            let mut cpu = CpuController::unlimited(online.min(mask_n).max(1))
                .with_shares(shares)
                .with_cpuset(CpuSet::first_n(mask_n));
            if let Some(q) = quota {
                cpu = cpu.with_quota_cpus(q);
            }
            let b = CpuBounds::compute(&cpu, total, online_set);
            prop_assert!(b.lower >= 1);
            prop_assert!(b.lower <= b.upper);
        }
    }
}

/// A fractional variant of the effective-CPU state machine, for the
/// integer-vs-fractional ablation DESIGN.md calls out.
///
/// The paper deliberately exports a *discrete CPU count* ("it is more
/// efficient to execute threads on a few stronger, dedicated CPUs …
/// compatible with applications that probe system resources based on CPU
/// count", §3.1). This variant keeps the same feedback loop but moves in
/// sub-CPU steps and can report the un-rounded capacity, quantifying what
/// the discretization costs in tracking accuracy.
#[derive(Debug, Clone)]
pub struct FractionalEffectiveCpu {
    cfg: EffectiveCpuConfig,
    bounds: CpuBounds,
    /// Sub-CPU adjustment step (e.g. 0.25 CPUs per update).
    step: f64,
    value: f64,
}

impl FractionalEffectiveCpu {
    /// Initialize at the lower bound with the given sub-CPU step.
    pub fn new(bounds: CpuBounds, cfg: EffectiveCpuConfig, step: f64) -> FractionalEffectiveCpu {
        assert!(step > 0.0 && step <= 1.0, "step must be in (0, 1]");
        FractionalEffectiveCpu {
            cfg,
            bounds,
            step,
            value: f64::from(bounds.lower),
        }
    }

    /// One firing of the update timer; same decision structure as
    /// Algorithm 1, with `step`-sized moves.
    pub fn update(&mut self, sample: CpuSample) -> f64 {
        let capacity = sample.period.mul_f64(self.value.max(self.step));
        let utilization = sample.usage.ratio(capacity);
        if !sample.slack.is_zero() {
            if utilization > self.cfg.util_threshold && self.value < f64::from(self.bounds.upper) {
                self.value = (self.value + self.step).min(f64::from(self.bounds.upper));
            }
        } else if self.value > f64::from(self.bounds.lower) {
            self.value = (self.value - self.step).max(f64::from(self.bounds.lower));
        }
        self.value
    }
}

#[cfg(test)]
mod fractional_tests {
    use super::*;

    const T: SimDuration = SimDuration::from_millis(24);

    fn sample(used_cpus: f64, slack_cpus: f64) -> CpuSample {
        CpuSample {
            usage: T.mul_f64(used_cpus),
            period: T,
            slack: T.mul_f64(slack_cpus),
        }
    }

    #[test]
    fn fractional_tracks_sub_cpu_allocations() {
        let mut e = FractionalEffectiveCpu::new(
            CpuBounds {
                lower: 4,
                upper: 10,
            },
            EffectiveCpuConfig::default(),
            0.25,
        );
        // Saturated at 6.7 CPUs of usage with slack: converges near 6.7
        // rather than snapping to 7.
        for _ in 0..64 {
            e.update(sample(6.7, 2.0));
        }
        assert!(
            (e.capacity() - 7.0).abs() < 0.31,
            "capacity {}",
            e.capacity()
        );
        assert_eq!(e.count(), 7);
    }

    #[test]
    fn fractional_respects_bounds() {
        let mut e = FractionalEffectiveCpu::new(
            CpuBounds {
                lower: 4,
                upper: 10,
            },
            EffectiveCpuConfig::default(),
            0.5,
        );
        for _ in 0..100 {
            e.update(sample(20.0, 5.0));
        }
        assert_eq!(e.capacity(), 10.0);
        for _ in 0..100 {
            e.update(sample(10.0, 0.0));
        }
        assert_eq!(e.capacity(), 4.0);
        assert_eq!(e.count(), 4);
    }

    #[test]
    fn step_of_one_matches_the_integer_machine() {
        let bounds = CpuBounds {
            lower: 4,
            upper: 10,
        };
        let mut frac = FractionalEffectiveCpu::new(bounds, EffectiveCpuConfig::default(), 1.0);
        let mut int = EffectiveCpu::new(bounds, EffectiveCpuConfig::default());
        for (used, slack) in [(10.0, 1.0); 8].iter().chain([(10.0, 0.0); 8].iter()) {
            frac.update(sample(*used, *slack));
            int.update(sample(*used, *slack));
            assert_eq!(frac.capacity() as u32, int.value());
        }
    }

    #[test]
    #[should_panic]
    fn zero_step_rejected() {
        FractionalEffectiveCpu::new(
            CpuBounds { lower: 1, upper: 2 },
            EffectiveCpuConfig::default(),
            0.0,
        );
    }

    impl FractionalEffectiveCpu {
        /// Un-rounded effective capacity in CPUs.
        fn capacity(&self) -> f64 {
            self.value
        }

        /// The discrete count an application would be shown (nearest whole
        /// CPU, clamped to the bounds).
        fn count(&self) -> u32 {
            (self.value.round() as u32).clamp(self.bounds.lower, self.bounds.upper)
        }
    }
}
